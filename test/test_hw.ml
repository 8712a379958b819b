(* Tests for the memory-management hardware models: addresses and
   protections, physical memory, two-level page tables (against a flat
   reference model), the TLB, and the MMU's translation semantics —
   including the stale-entry and ref/mod-writeback behaviours the whole
   paper revolves around. *)

module Addr = Hw.Addr
module Phys_mem = Hw.Phys_mem
module Page_table = Hw.Page_table
module Tlb = Hw.Tlb
module Mmu = Hw.Mmu

(* ------------------------------------------------------------------ *)
(* Addr *)

let test_addr_arithmetic () =
  Alcotest.(check int) "vpn of 0x1000" 1 (Addr.vpn_of_addr 0x1000);
  Alcotest.(check int) "addr of vpn 3" 0x3000 (Addr.addr_of_vpn 3);
  Alcotest.(check int) "offset" 0x123 (Addr.page_offset 0x5123);
  Alcotest.(check bool) "aligned" true (Addr.is_page_aligned 0x4000);
  Alcotest.(check bool) "unaligned" false (Addr.is_page_aligned 0x4001);
  Alcotest.(check int) "round down" 0x4000 (Addr.round_down_page 0x4FFF);
  Alcotest.(check int) "round up" 0x5000 (Addr.round_up_page 0x4001);
  Alcotest.(check bool) "kernel addr" true (Addr.is_kernel_addr 0xC0000000);
  Alcotest.(check bool) "user addr" false (Addr.is_kernel_addr 0xBFFFFFFF)

let test_prot_lattice () =
  let open Addr in
  Alcotest.(check bool) "rw allows write" true
    (prot_allows Prot_read_write Write_access);
  Alcotest.(check bool) "r denies write" false
    (prot_allows Prot_read Write_access);
  Alcotest.(check bool) "none denies read" false
    (prot_allows Prot_none Read_access);
  Alcotest.(check bool) "rw->r reduces" true
    (prot_reduces ~from:Prot_read_write ~to_:Prot_read);
  Alcotest.(check bool) "r->rw does not reduce" false
    (prot_reduces ~from:Prot_read ~to_:Prot_read_write);
  Alcotest.(check bool) "r->none reduces" true
    (prot_reduces ~from:Prot_read ~to_:Prot_none);
  Alcotest.(check bool) "same does not reduce" false
    (prot_reduces ~from:Prot_read ~to_:Prot_read)

let test_l1_l2_split () =
  (* vpn = l1 * 1024 + l2 *)
  let vpn = (5 lsl 10) lor 7 in
  Alcotest.(check int) "l1" 5 (Addr.l1_index vpn);
  Alcotest.(check int) "l2" 7 (Addr.l2_index vpn)

(* ------------------------------------------------------------------ *)
(* Phys_mem *)

let test_phys_mem_rw () =
  let mem = Phys_mem.create ~frames:8 in
  let f = Phys_mem.alloc_frame mem in
  Phys_mem.write mem ~pfn:f ~offset:64 12345;
  Alcotest.(check int) "read back" 12345 (Phys_mem.read mem ~pfn:f ~offset:64);
  Phys_mem.zero_frame mem f;
  Alcotest.(check int) "zeroed" 0 (Phys_mem.read mem ~pfn:f ~offset:64)

let test_phys_mem_exhaustion () =
  let mem = Phys_mem.create ~frames:2 in
  let _ = Phys_mem.alloc_frame mem in
  let b = Phys_mem.alloc_frame mem in
  Alcotest.(check int) "no free frames" 0 (Phys_mem.free_frames mem);
  (match Phys_mem.alloc_frame mem with
  | exception Phys_mem.Out_of_memory -> ()
  | _ -> Alcotest.fail "expected Out_of_memory");
  Phys_mem.free_frame mem b;
  Alcotest.(check int) "one free again" 1 (Phys_mem.free_frames mem)

(* Freed frames come back last freed first, then the never-used ones
   lowest first, also once more frames are freed than the freed stack
   first holds. *)
let test_phys_mem_free_order () =
  let mem = Phys_mem.create ~frames:48 in
  let taken = List.init 40 (fun _ -> Phys_mem.alloc_frame mem) in
  Alcotest.(check (list int)) "lowest first" (List.init 40 Fun.id) taken;
  List.iter (Phys_mem.free_frame mem) taken;
  Alcotest.(check int) "all free" 48 (Phys_mem.free_frames mem);
  let again = List.init 42 (fun _ -> Phys_mem.alloc_frame mem) in
  Alcotest.(check (list int))
    "freed last-in first-out, then fresh"
    (List.rev taken @ [ 40; 41 ])
    again

let test_copy_frame () =
  let mem = Phys_mem.create ~frames:4 in
  let a = Phys_mem.alloc_frame mem and b = Phys_mem.alloc_frame mem in
  Phys_mem.write mem ~pfn:a ~offset:0 1;
  Phys_mem.write mem ~pfn:a ~offset:(Addr.page_size - 4) 2;
  Phys_mem.copy_frame mem ~src:a ~dst:b;
  Alcotest.(check int) "first word" 1 (Phys_mem.read mem ~pfn:b ~offset:0);
  Alcotest.(check int) "last word" 2
    (Phys_mem.read mem ~pfn:b ~offset:(Addr.page_size - 4))

let test_phys_mem_unbacked_frames () =
  let mem = Phys_mem.create ~frames:4096 in
  let order = List.init 3 (fun _ -> Phys_mem.alloc_frame mem) in
  Alcotest.(check (list int)) "lowest first" [ 0; 1; 2 ] order;
  Phys_mem.free_frame mem 1;
  Alcotest.(check int) "freed frame comes back first" 1
    (Phys_mem.alloc_frame mem);
  Alcotest.(check int) "never-written frame reads 0" 0
    (Phys_mem.read mem ~pfn:4095 ~offset:(Addr.page_size - 4));
  Phys_mem.zero_frame mem 7;
  Alcotest.(check int) "zeroed unbacked frame" 0
    (Phys_mem.read mem ~pfn:7 ~offset:0);
  Phys_mem.write mem ~pfn:2 ~offset:8 5;
  Phys_mem.copy_frame mem ~src:9 ~dst:2;
  Alcotest.(check int) "unbacked copied over backed" 0
    (Phys_mem.read mem ~pfn:2 ~offset:8);
  Phys_mem.write mem ~pfn:2 ~offset:8 6;
  Phys_mem.copy_frame mem ~src:2 ~dst:3;
  Phys_mem.write mem ~pfn:2 ~offset:8 7;
  Alcotest.(check int) "copy owns its storage" 6
    (Phys_mem.read mem ~pfn:3 ~offset:8)

let test_phys_mem_bad_frame () =
  let mem = Phys_mem.create ~frames:4 in
  let bad = Invalid_argument "Phys_mem: bad frame" in
  List.iter
    (fun pfn ->
      Alcotest.check_raises "read" bad (fun () ->
          ignore (Phys_mem.read mem ~pfn ~offset:0));
      Alcotest.check_raises "write" bad (fun () ->
          Phys_mem.write mem ~pfn ~offset:0 1);
      Alcotest.check_raises "zero_frame" bad (fun () ->
          Phys_mem.zero_frame mem pfn);
      Alcotest.check_raises "copy_frame src" bad (fun () ->
          Phys_mem.copy_frame mem ~src:pfn ~dst:0);
      Alcotest.check_raises "copy_frame dst" bad (fun () ->
          Phys_mem.copy_frame mem ~src:0 ~dst:pfn))
    [ -1; 4 ];
  Alcotest.check_raises "bad offset" (Invalid_argument "Phys_mem: bad offset")
    (fun () -> Phys_mem.write mem ~pfn:0 ~offset:Addr.page_size 1)

(* Phys_mem against a flat reference: one zero-filled word array and a
   free list, the allocator order included. *)

type mem_op =
  | M_alloc
  | M_free of int (* index into the live frames; negative = bad frame *)
  | M_read of int * int (* pfn, byte offset *)
  | M_write of int * int * int
  | M_zero of int
  | M_copy of int * int

let mem_frames = 6

let show_mem_op = function
  | M_alloc -> "alloc"
  | M_free i -> Printf.sprintf "free #%d" i
  | M_read (p, o) -> Printf.sprintf "read %d@%d" p o
  | M_write (p, o, v) -> Printf.sprintf "write %d@%d=%d" p o v
  | M_zero p -> Printf.sprintf "zero %d" p
  | M_copy (s, d) -> Printf.sprintf "copy %d->%d" s d

let gen_mem_op =
  let open QCheck.Gen in
  let pfn =
    frequency
      [ (8, int_range 0 (mem_frames - 1)); (1, oneofl [ -1; mem_frames ]) ]
  in
  let offset =
    frequency
      [
        (4, map (fun w -> w * Addr.word_size) (int_range 0 3));
        (2, int_range 0 (Addr.page_size - 1));
        (1, oneofl [ -1; Addr.page_size ]);
      ]
  in
  frequency
    [
      (3, return M_alloc);
      (2, map (fun i -> M_free i) (int_range (-1) 5));
      (4, map2 (fun p o -> M_read (p, o)) pfn offset);
      (4, map3 (fun p o v -> M_write (p, o, v)) pfn offset (int_range 1 1000));
      (2, map (fun p -> M_zero p) pfn);
      (3, map2 (fun s d -> M_copy (s, d)) pfn pfn);
    ]

type flat = { words : int array; mutable free_list : int list }

let flat_frame pfn =
  if pfn < 0 || pfn >= mem_frames then invalid_arg "Phys_mem: bad frame"

let flat_index pfn offset =
  flat_frame pfn;
  if offset < 0 || offset >= Addr.page_size then
    invalid_arg "Phys_mem: bad offset";
  (pfn * Addr.words_per_page) + (offset / Addr.word_size)

let outcome f =
  match f () with
  | v -> Ok v
  | exception Phys_mem.Out_of_memory -> Error "out of memory"
  | exception Invalid_argument m -> Error m

let phys_mem_matches_flat ops =
  let mem = Phys_mem.create ~frames:mem_frames in
  let flat =
    {
      words = Array.make (mem_frames * Addr.words_per_page) 0;
      free_list = List.init mem_frames Fun.id;
    }
  in
  let live = ref [] in
  let step op =
    let real, model =
      match op with
      | M_alloc ->
          ( outcome (fun () -> Phys_mem.alloc_frame mem),
            outcome (fun () ->
                match flat.free_list with
                | [] -> raise Phys_mem.Out_of_memory
                | pfn :: rest ->
                    flat.free_list <- rest;
                    pfn) )
      | M_free i when i < 0 ->
          ( outcome (fun () -> Phys_mem.free_frame mem (-1); 0),
            Error "Phys_mem.free_frame" )
      | M_free _ when !live = [] -> (Ok 0, Ok 0)
      | M_free i ->
          let pfn = List.nth !live (i mod List.length !live) in
          live := List.filter (( <> ) pfn) !live;
          flat.free_list <- pfn :: flat.free_list;
          (outcome (fun () -> Phys_mem.free_frame mem pfn; pfn), Ok pfn)
      | M_read (pfn, offset) ->
          ( outcome (fun () -> Phys_mem.read mem ~pfn ~offset),
            outcome (fun () -> flat.words.(flat_index pfn offset)) )
      | M_write (pfn, offset, v) ->
          ( outcome (fun () -> Phys_mem.write mem ~pfn ~offset v; v),
            outcome (fun () -> flat.words.(flat_index pfn offset) <- v; v) )
      | M_zero pfn ->
          ( outcome (fun () -> Phys_mem.zero_frame mem pfn; 0),
            outcome (fun () ->
                flat_frame pfn;
                Array.fill flat.words (pfn * Addr.words_per_page)
                  Addr.words_per_page 0;
                0) )
      | M_copy (src, dst) ->
          ( outcome (fun () -> Phys_mem.copy_frame mem ~src ~dst; 0),
            outcome (fun () ->
                flat_frame src;
                flat_frame dst;
                Array.blit flat.words (src * Addr.words_per_page) flat.words
                  (dst * Addr.words_per_page) Addr.words_per_page;
                0) )
    in
    (match (op, real) with M_alloc, Ok pfn -> live := pfn :: !live | _ -> ());
    real = model
    && Phys_mem.free_frames mem = List.length flat.free_list
  in
  List.for_all step ops
  && List.for_all
       (fun pfn ->
         List.for_all
           (fun w ->
             Phys_mem.read mem ~pfn ~offset:(w * Addr.word_size)
             = flat.words.((pfn * Addr.words_per_page) + w))
           (List.init Addr.words_per_page Fun.id))
       (List.init mem_frames Fun.id)

let phys_mem_qcheck =
  QCheck.Test.make ~name:"phys_mem matches flat reference" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
        Gen.(list_size (int_range 0 60) gen_mem_op))
    phys_mem_matches_flat

(* ------------------------------------------------------------------ *)
(* Page_table: compared against a flat hashtable reference model *)

let pt_matches_reference ops =
  let pt = Page_table.create () in
  let reference = Hashtbl.create 64 in
  List.iter
    (fun (vpn, op) ->
      match op with
      | `Set pfn ->
          ignore (Page_table.set pt vpn ~pfn ~prot:Addr.Prot_read_write ~wired:false);
          Hashtbl.replace reference vpn pfn
      | `Clear ->
          ignore (Page_table.clear pt vpn);
          Hashtbl.remove reference vpn)
    ops;
  (* every reference entry must be in the table with the right frame *)
  Hashtbl.fold
    (fun vpn pfn acc ->
      acc
      &&
      match Page_table.lookup pt vpn with
      | Some pte -> pte.Page_table.pfn = pfn
      | None -> false)
    reference true
  && Page_table.valid_count pt = Hashtbl.length reference

let pt_qcheck =
  QCheck.Test.make ~name:"page table matches reference model" ~count:100
    QCheck.(
      list
        (pair (int_range 0 5000)
           (oneof [ map (fun p -> `Set p) (int_range 0 255); always `Clear ])))
    pt_matches_reference

let test_pt_chunk_skipping () =
  let pt = Page_table.create () in
  ignore (Page_table.set pt 5 ~pfn:1 ~prot:Addr.Prot_read ~wired:false);
  (* chunk 0 present, chunks 1.. absent *)
  Alcotest.(check bool) "valid in chunk" true
    (Page_table.any_valid_in_range pt ~lo:0 ~hi:1024);
  Alcotest.(check bool) "nothing in absent chunk" false
    (Page_table.any_valid_in_range pt ~lo:1024 ~hi:4096);
  Alcotest.(check bool) "chunk present" true
    (Page_table.any_chunk_in_range pt ~lo:0 ~hi:1024);
  Alcotest.(check bool) "chunk absent" false
    (Page_table.any_chunk_in_range pt ~lo:2048 ~hi:3000);
  (* pages_examined skips the absent chunks entirely *)
  Alcotest.(check int) "examined only present chunk" 1024
    (Page_table.pages_examined pt ~lo:0 ~hi:4096)

let test_pt_iter_range () =
  let pt = Page_table.create () in
  List.iter
    (fun vpn ->
      ignore (Page_table.set pt vpn ~pfn:vpn ~prot:Addr.Prot_read ~wired:false))
    [ 10; 11; 2000; 5000 ];
  let seen = ref [] in
  Page_table.iter_valid_range pt ~lo:0 ~hi:6000 (fun vpn _ ->
      seen := vpn :: !seen);
  Alcotest.(check (list int)) "all seen in order" [ 10; 11; 2000; 5000 ]
    (List.rev !seen);
  let seen = ref [] in
  Page_table.iter_valid_range pt ~lo:11 ~hi:2001 (fun vpn _ ->
      seen := vpn :: !seen);
  Alcotest.(check (list int)) "range clipped" [ 11; 2000 ] (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* TLB *)

let dummy_pte () = Page_table.invalid_pte ()

let entry ~space ~vpn ~pfn ~prot =
  {
    Tlb.space;
    vpn;
    pfn;
    prot;
    ref_bit = false;
    mod_bit = false;
    gen = 0;
    pte = dummy_pte ();
  }

let test_tlb_lookup_insert () =
  let tlb = Tlb.create ~size:4 in
  Tlb.insert tlb (entry ~space:1 ~vpn:10 ~pfn:5 ~prot:Addr.Prot_read);
  (match Tlb.lookup tlb ~space:1 ~vpn:10 with
  | Some e -> Alcotest.(check int) "pfn" 5 e.Tlb.pfn
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "other space misses" true
    (Tlb.lookup tlb ~space:2 ~vpn:10 = None)

let test_tlb_fifo_eviction () =
  let tlb = Tlb.create ~size:2 in
  Tlb.insert tlb (entry ~space:1 ~vpn:1 ~pfn:1 ~prot:Addr.Prot_read);
  Tlb.insert tlb (entry ~space:1 ~vpn:2 ~pfn:2 ~prot:Addr.Prot_read);
  Tlb.insert tlb (entry ~space:1 ~vpn:3 ~pfn:3 ~prot:Addr.Prot_read);
  Alcotest.(check bool) "oldest evicted" true
    (Tlb.lookup tlb ~space:1 ~vpn:1 = None);
  Alcotest.(check bool) "newest present" true
    (Tlb.lookup tlb ~space:1 ~vpn:3 <> None)

let test_tlb_same_page_replaces () =
  let tlb = Tlb.create ~size:4 in
  Tlb.insert tlb (entry ~space:1 ~vpn:9 ~pfn:1 ~prot:Addr.Prot_read);
  Tlb.insert tlb (entry ~space:1 ~vpn:9 ~pfn:2 ~prot:Addr.Prot_read_write);
  Alcotest.(check int) "only one translation" 1 (Tlb.resident tlb);
  match Tlb.lookup tlb ~space:1 ~vpn:9 with
  | Some e -> Alcotest.(check int) "replaced" 2 e.Tlb.pfn
  | None -> Alcotest.fail "expected hit"

let test_tlb_invalidate_and_flush () =
  let tlb = Tlb.create ~size:8 in
  for vpn = 1 to 4 do
    Tlb.insert tlb (entry ~space:1 ~vpn ~pfn:vpn ~prot:Addr.Prot_read)
  done;
  Tlb.insert tlb (entry ~space:0 ~vpn:100 ~pfn:9 ~prot:Addr.Prot_read);
  Tlb.invalidate_page tlb ~space:1 ~vpn:2;
  Alcotest.(check bool) "page gone" true (Tlb.lookup tlb ~space:1 ~vpn:2 = None);
  Tlb.invalidate_range tlb ~space:1 ~lo:3 ~hi:5;
  Alcotest.(check bool) "range gone" true (Tlb.lookup tlb ~space:1 ~vpn:3 = None);
  Alcotest.(check bool) "kernel untouched" true
    (Tlb.lookup tlb ~space:0 ~vpn:100 <> None);
  Tlb.flush_user tlb ~kernel_space:0;
  Alcotest.(check bool) "user flushed" true
    (Tlb.lookup tlb ~space:1 ~vpn:1 = None);
  Alcotest.(check bool) "kernel survives flush_user" true
    (Tlb.lookup tlb ~space:0 ~vpn:100 <> None);
  Tlb.flush_all tlb;
  Alcotest.(check int) "empty" 0 (Tlb.resident tlb)

(* ------------------------------------------------------------------ *)
(* MMU *)

let quiet =
  {
    Sim.Params.default with
    cost_jitter = 0.0;
    device_intr_rate = 0.0;
    spl_section_rate = 0.0;
  }

let with_mmu ?(params = quiet) f =
  let eng = Sim.Engine.create () in
  let bus = Sim.Bus.create eng params in
  let cpu = Sim.Cpu.create eng bus params ~id:0 in
  let mem = Phys_mem.create ~frames:64 in
  let mmu = Mmu.create cpu mem params in
  let pt = Page_table.create () in
  Mmu.set_user mmu (Some { Mmu.space_id = 1; pt });
  let result = ref None in
  Sim.Engine.spawn eng (fun () -> result := Some (f mmu pt mem));
  Sim.Engine.run eng;
  Option.get !result

let test_mmu_translate_and_fault () =
  with_mmu (fun mmu pt mem ->
      let pfn = Phys_mem.alloc_frame mem in
      ignore (Page_table.set pt 5 ~pfn ~prot:Addr.Prot_read_write ~wired:false);
      (* hardware reload finds the mapping *)
      (match Mmu.write_word mmu (Addr.addr_of_vpn 5) 77 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write should succeed");
      Alcotest.(check int) "data written" 77 (Phys_mem.read mem ~pfn ~offset:0);
      (* missing page faults *)
      (match Mmu.read_word mmu (Addr.addr_of_vpn 9) with
      | Error { Mmu.kind = Mmu.Fault_missing; _ } -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected missing fault");
      (* ref/mod bits set through the hardware walker *)
      match Page_table.lookup pt 5 with
      | Some pte ->
          Alcotest.(check bool) "referenced" true pte.Page_table.referenced;
          Alcotest.(check bool) "modified" true pte.Page_table.modified
      | None -> Alcotest.fail "mapping vanished")

let test_mmu_stale_entry_grants_stale_rights () =
  (* THE paper's problem: after the PTE is downgraded, a cached entry
     still allows writes until it is invalidated. *)
  with_mmu (fun mmu pt mem ->
      let pfn = Phys_mem.alloc_frame mem in
      let pte = Page_table.set pt 5 ~pfn ~prot:Addr.Prot_read_write ~wired:false in
      (match Mmu.write_word mmu (Addr.addr_of_vpn 5) 1 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "warm-up write");
      (* downgrade the PTE without TLB invalidation *)
      pte.Page_table.prot <- Addr.Prot_read;
      (match Mmu.write_word mmu (Addr.addr_of_vpn 5) 2 with
      | Ok () -> () (* the stale entry lets it through: inconsistency! *)
      | Error _ -> Alcotest.fail "stale entry should have allowed the write");
      (* after invalidation the new protection is enforced *)
      Hw.Tlb.invalidate_page (Mmu.tlb mmu) ~space:1 ~vpn:5;
      match Mmu.write_word mmu (Addr.addr_of_vpn 5) 3 with
      | Error { Mmu.kind = Mmu.Fault_protection; _ } -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected protection fault")

let test_mmu_blind_writeback_corrupts () =
  (* ref/mod writeback from a stale entry hits a reused PTE — the
     corruption that forces responders to stall (section 3). *)
  with_mmu (fun mmu pt mem ->
      let pfn = Phys_mem.alloc_frame mem in
      let pte = Page_table.set pt 5 ~pfn ~prot:Addr.Prot_read_write ~wired:false in
      (match Mmu.read_word mmu (Addr.addr_of_vpn 5) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "warm-up read");
      (* the OS tears the mapping down but the TLB entry survives *)
      pte.Page_table.valid <- false;
      pte.Page_table.pfn <- 42 (* reused for something else *);
      (match Mmu.write_word mmu (Addr.addr_of_vpn 5) 9 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "stale entry write");
      Alcotest.(check bool) "corrupting writeback detected" true
        (mmu.Mmu.corrupting_writebacks > 0))

let test_mmu_interlocked_writeback_safe () =
  let params = { quiet with tlb_interlocked_refmod = true } in
  with_mmu ~params (fun mmu pt mem ->
      let pfn = Phys_mem.alloc_frame mem in
      let pte = Page_table.set pt 5 ~pfn ~prot:Addr.Prot_read_write ~wired:false in
      (match Mmu.read_word mmu (Addr.addr_of_vpn 5) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "warm-up read");
      pte.Page_table.valid <- false;
      (match Mmu.write_word mmu (Addr.addr_of_vpn 5) 9 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "stale entry write");
      Alcotest.(check int) "no corruption with interlock" 0
        mmu.Mmu.corrupting_writebacks;
      Alcotest.(check bool) "bits not set on invalid PTE" false
        pte.Page_table.modified)

let test_mmu_no_space () =
  with_mmu (fun mmu _pt _mem ->
      Mmu.set_user mmu None;
      match Mmu.read_word mmu 0x1000 with
      | Error { Mmu.kind = Mmu.Fault_no_space; _ } -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected no-space fault")

(* A page's record is made by its first [set] and kept: set, clear and
   set again return the same record, so a TLB entry loaded before the
   clear names the record the second [set] rewrote.  The chunk's other
   pages read invalid until set, and only chunks count as tables. *)
let test_pt_record_kept () =
  with_mmu (fun mmu pt mem ->
      let pfn = Phys_mem.alloc_frame mem in
      let first = Page_table.set pt 5 ~pfn ~prot:Addr.Prot_read_write ~wired:false in
      (match Mmu.read_word mmu (Addr.addr_of_vpn 5) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "warm-up read");
      ignore (Page_table.clear pt 5);
      let pfn' = Phys_mem.alloc_frame mem in
      let again = Page_table.set pt 5 ~pfn:pfn' ~prot:Addr.Prot_read ~wired:false in
      Alcotest.(check bool) "same record" true (first == again);
      (match Hw.Tlb.lookup (Mmu.tlb mmu) ~space:1 ~vpn:5 with
      | Some e ->
          Alcotest.(check bool) "entry names the record" true (e.Hw.Tlb.pte == again);
          Alcotest.(check bool) "entry sees the re-set" true
            (e.Hw.Tlb.pte.Page_table.valid && e.Hw.Tlb.pte.Page_table.pfn = pfn')
      | None -> Alcotest.fail "TLB entry lost");
      Alcotest.(check bool) "unset page invalid" false
        (Page_table.find pt 6).Page_table.valid;
      Alcotest.(check bool) "unset page not looked up" true
        (Page_table.lookup pt 6 = None);
      Alcotest.(check int) "one chunk" 1 (Page_table.l2_table_count pt);
      ignore (Page_table.set pt 6 ~pfn ~prot:Addr.Prot_read ~wired:false);
      Alcotest.(check int) "same chunk" 1 (Page_table.l2_table_count pt);
      ignore (Page_table.set pt 5000 ~pfn ~prot:Addr.Prot_read ~wired:false);
      Alcotest.(check int) "second chunk" 2 (Page_table.l2_table_count pt))

let () =
  Alcotest.run "hw"
    [
      ( "addr",
        [
          Alcotest.test_case "arithmetic" `Quick test_addr_arithmetic;
          Alcotest.test_case "protection lattice" `Quick test_prot_lattice;
          Alcotest.test_case "l1/l2 split" `Quick test_l1_l2_split;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "read/write" `Quick test_phys_mem_rw;
          Alcotest.test_case "exhaustion" `Quick test_phys_mem_exhaustion;
          Alcotest.test_case "free order" `Quick test_phys_mem_free_order;
          Alcotest.test_case "copy frame" `Quick test_copy_frame;
          Alcotest.test_case "unbacked frames" `Quick
            test_phys_mem_unbacked_frames;
          Alcotest.test_case "bad frame" `Quick test_phys_mem_bad_frame;
          QCheck_alcotest.to_alcotest phys_mem_qcheck;
        ] );
      ( "page_table",
        QCheck_alcotest.to_alcotest pt_qcheck
        :: [
             Alcotest.test_case "chunk skipping" `Quick test_pt_chunk_skipping;
             Alcotest.test_case "iter range" `Quick test_pt_iter_range;
             Alcotest.test_case "record kept across clear" `Quick
               test_pt_record_kept;
           ] );
      ( "tlb",
        [
          Alcotest.test_case "lookup/insert" `Quick test_tlb_lookup_insert;
          Alcotest.test_case "fifo eviction" `Quick test_tlb_fifo_eviction;
          Alcotest.test_case "same page replaces" `Quick
            test_tlb_same_page_replaces;
          Alcotest.test_case "invalidate/flush" `Quick
            test_tlb_invalidate_and_flush;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "translate + fault" `Quick
            test_mmu_translate_and_fault;
          Alcotest.test_case "stale entry grants stale rights" `Quick
            test_mmu_stale_entry_grants_stale_rights;
          Alcotest.test_case "blind writeback corrupts" `Quick
            test_mmu_blind_writeback_corrupts;
          Alcotest.test_case "interlocked writeback safe" `Quick
            test_mmu_interlocked_writeback_safe;
          Alcotest.test_case "no space" `Quick test_mmu_no_space;
        ] );
    ]
