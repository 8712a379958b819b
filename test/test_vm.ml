(* Tests for the machine-independent VM layer: address-map entry algebra
   (checked against an interval reference model with qcheck), memory
   objects and copy-on-write chains, the fault handler, fork inheritance,
   the kernel allocator and the pageout daemon. *)

module Addr = Hw.Addr
module Vm_map = Vm.Vm_map
module Vm_object = Vm.Vm_object
module Task = Vm.Task
module Kmem = Vm.Kmem

let quiet =
  {
    Sim.Params.default with
    cost_jitter = 0.0;
    device_intr_rate = 0.0;
    spl_section_rate = 0.0;
  }

let on_machine ?(params = quiet) f =
  let machine = Vm.Machine.create ~params () in
  let result = ref None in
  Vm.Machine.run machine (fun self -> result := Some (f machine self));
  Option.get !result

(* ------------------------------------------------------------------ *)
(* Map entry algebra vs an interval reference model (per-page array). *)

type op =
  | Op_allocate of int (* pages *)
  | Op_deallocate of int * int (* lo, len *)
  | Op_protect of int * int * Addr.prot

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun p -> Op_allocate (1 + (p mod 8))) small_nat;
        map2 (fun lo len -> Op_deallocate (lo mod 64, 1 + (len mod 16))) small_nat small_nat;
        map3
          (fun lo len p ->
            Op_protect
              ( lo mod 64,
                1 + (len mod 16),
                match p mod 3 with
                | 0 -> Addr.Prot_read
                | 1 -> Addr.Prot_read_write
                | _ -> Addr.Prot_none ))
          small_nat small_nat small_nat;
      ])

let op_print = function
  | Op_allocate p -> Printf.sprintf "alloc %d" p
  | Op_deallocate (lo, len) -> Printf.sprintf "dealloc %d+%d" lo len
  | Op_protect (lo, len, p) ->
      Printf.sprintf "protect %d+%d %s" lo len (Addr.prot_to_string p)

let map_matches_reference ops =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let task = Task.create vms ~name:"qc" in
      Task.adopt vms self task;
      let map = task.Task.map in
      let base = Task.user_lo_vpn in
      (* reference: per-page protection, None = unallocated *)
      let reference = Array.make 128 None in
      let apply = function
        | Op_allocate pages -> (
            match Vm_map.allocate vms self map ~pages () with
            | vpn ->
                for i = 0 to pages - 1 do
                  let slot = vpn - base + i in
                  if slot >= 0 && slot < 128 then
                    reference.(slot) <- Some Addr.Prot_read_write
                done
            | exception Vm_map.No_space -> ())
        | Op_deallocate (lo, len) ->
            Vm_map.deallocate vms self map ~lo:(base + lo)
              ~hi:(base + lo + len);
            for i = lo to min 127 (lo + len - 1) do
              reference.(i) <- None
            done
        | Op_protect (lo, len, prot) -> (
            try
              Vm_map.protect vms self map ~lo:(base + lo) ~hi:(base + lo + len)
                ~prot;
              for i = lo to min 127 (lo + len - 1) do
                match reference.(i) with
                | Some _ -> reference.(i) <- Some prot
                | None -> ()
              done
            with Vm_map.Protection_failure -> ())
      in
      List.iter apply ops;
      (* compare: entry lookup must agree with the reference at each page *)
      let ok = ref true in
      for i = 0 to 127 do
        let vpn = base + i in
        let actual =
          Option.map (fun e -> e.Vm_map.prot) (Vm_map.lookup_entry map vpn)
        in
        if actual <> reference.(i) then ok := false
      done;
      !ok)

let map_qcheck =
  QCheck.Test.make ~name:"vm_map matches interval model" ~count:40
    (QCheck.make ~print:QCheck.Print.(list op_print) QCheck.Gen.(list_size (int_range 1 25) op_gen))
    map_matches_reference

(* ------------------------------------------------------------------ *)
(* Zero-fill, data integrity through the MMU *)

let test_zero_fill_and_rw () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let task = Task.create vms ~name:"t" in
      Task.adopt vms self task;
      let vpn = Vm_map.allocate vms self task.Task.map ~pages:2 () in
      let va = Addr.addr_of_vpn vpn in
      (match Task.read_word vms self task.Task.map va with
      | Ok 0 -> ()
      | Ok v -> Alcotest.failf "expected zero-fill, got %d" v
      | Error _ -> Alcotest.fail "read failed");
      (match Task.write_word vms self task.Task.map (va + 8) 99 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write failed");
      match Task.read_word vms self task.Task.map (va + 8) with
      | Ok v -> Alcotest.(check int) "read back" 99 v
      | Error _ -> Alcotest.fail "read-back failed")

let test_fault_outside_allocation () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let task = Task.create vms ~name:"t" in
      Task.adopt vms self task;
      match Task.read_word vms self task.Task.map 0x4000_0000 with
      | Error Task.Err_no_entry -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected no-entry error")

let test_protection_enforced () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let task = Task.create vms ~name:"t" in
      Task.adopt vms self task;
      let vpn =
        Vm_map.allocate vms self task.Task.map ~pages:1 ~prot:Addr.Prot_read ()
      in
      match Task.write_word vms self task.Task.map (Addr.addr_of_vpn vpn) 1 with
      | Error Task.Err_protection -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected protection error")

let test_protection_upgrade_after_protect () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let task = Task.create vms ~name:"t" in
      Task.adopt vms self task;
      let vpn = Vm_map.allocate vms self task.Task.map ~pages:1 () in
      let va = Addr.addr_of_vpn vpn in
      (match Task.write_word vms self task.Task.map va 5 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "initial write");
      Vm_map.protect vms self task.Task.map ~lo:vpn ~hi:(vpn + 1)
        ~prot:Addr.Prot_read;
      (match Task.write_word vms self task.Task.map va 6 with
      | Error Task.Err_protection -> ()
      | Ok _ | Error _ -> Alcotest.fail "write should fail read-only");
      Vm_map.protect vms self task.Task.map ~lo:vpn ~hi:(vpn + 1)
        ~prot:Addr.Prot_read_write;
      (* upgrade needs no shootdown; the stale narrow entry refaults *)
      match Task.write_word vms self task.Task.map va 7 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write after upgrade should succeed")

(* ------------------------------------------------------------------ *)
(* Copy-on-write fork semantics *)

let test_fork_cow_isolation () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let parent = Task.create vms ~name:"parent" in
      Task.adopt vms self parent;
      let vpn = Vm_map.allocate vms self parent.Task.map ~pages:1 () in
      let va = Addr.addr_of_vpn vpn in
      (match Task.write_word vms self parent.Task.map va 111 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "parent write");
      let cows_before = vms.Vm.Vmstate.cow_copies in
      let child = Task.fork vms self parent ~name:"child" in
      (* run in the child's address space to exercise its mappings *)
      Task.adopt vms self child;
      (* child sees the parent's data *)
      (match Task.read_word vms self child.Task.map va with
      | Ok v -> Alcotest.(check int) "inherited" 111 v
      | Error _ -> Alcotest.fail "child read");
      (* child write copies, parent unaffected *)
      (match Task.write_word vms self child.Task.map va 222 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "child write");
      Alcotest.(check bool) "a COW copy happened" true
        (vms.Vm.Vmstate.cow_copies > cows_before);
      Task.adopt vms self parent;
      (match Task.read_word vms self parent.Task.map va with
      | Ok v -> Alcotest.(check int) "parent intact" 111 v
      | Error _ -> Alcotest.fail "parent read");
      (* parent write after fork also copies (its mapping was downgraded) *)
      (match Task.write_word vms self parent.Task.map va 333 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "parent write 2");
      Task.adopt vms self child;
      match Task.read_word vms self child.Task.map va with
      | Ok v -> Alcotest.(check int) "child isolated" 222 v
      | Error _ -> Alcotest.fail "child read 2")

let test_fork_share_and_none () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let parent = Task.create vms ~name:"parent" in
      Task.adopt vms self parent;
      let shared =
        Vm_map.allocate vms self parent.Task.map ~pages:1
          ~inh:Vm_map.Inherit_share ()
      in
      let private_ =
        Vm_map.allocate vms self parent.Task.map ~pages:1
          ~inh:Vm_map.Inherit_none ()
      in
      (match
         Task.write_word vms self parent.Task.map (Addr.addr_of_vpn shared) 1
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "seed write");
      let child = Task.fork vms self parent ~name:"child" in
      (* shared: writes are mutually visible *)
      Task.adopt vms self child;
      (match
         Task.write_word vms self child.Task.map (Addr.addr_of_vpn shared) 55
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "child shared write");
      Task.adopt vms self parent;
      (match
         Task.read_word vms self parent.Task.map (Addr.addr_of_vpn shared)
       with
      | Ok v -> Alcotest.(check int) "shared visible" 55 v
      | Error _ -> Alcotest.fail "parent shared read");
      Task.adopt vms self child;
      (* none: absent from the child *)
      match
        Task.read_word vms self child.Task.map (Addr.addr_of_vpn private_)
      with
      | Error Task.Err_no_entry -> ()
      | Ok _ | Error _ -> Alcotest.fail "inherit-none leaked")

let test_pagein_from_file_object () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let task = Task.create vms ~name:"t" in
      Task.adopt vms self task;
      let obj =
        Vm_object.create ~backing:(Vm_object.File { pagein_latency = 500.0 })
          ~size:4 ()
      in
      let vpn =
        Vm_map.map_object vms self task.Task.map ~obj ~obj_offset:0 ~pages:4 ()
      in
      let before = vms.Vm.Vmstate.pageins in
      let t0 = Vm.Machine.now machine in
      (match
         Task.read_word vms self task.Task.map (Addr.addr_of_vpn vpn)
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "pagein read");
      Alcotest.(check int) "one pagein" (before + 1) vms.Vm.Vmstate.pageins;
      Alcotest.(check bool) "latency charged" true
        (Vm.Machine.now machine -. t0 >= 500.0))

(* ------------------------------------------------------------------ *)
(* Kmem + pageout *)

let test_kmem_wired_vs_pageable () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let kmap = machine.Vm.Machine.kernel_map in
      let free0 = Vm.Vmstate.free_frames vms in
      let wired = Kmem.alloc_wired vms self kmap ~pages:4 in
      Alcotest.(check int) "wired frames allocated eagerly" (free0 - 4)
        (Vm.Vmstate.free_frames vms);
      let pageable = Kmem.alloc_pageable vms self kmap ~pages:4 in
      Alcotest.(check int) "pageable allocates nothing" (free0 - 4)
        (Vm.Vmstate.free_frames vms);
      Kmem.free vms self kmap ~vpn:wired ~pages:4;
      Kmem.free vms self kmap ~vpn:pageable ~pages:4;
      Alcotest.(check int) "all frames back" free0 (Vm.Vmstate.free_frames vms))

let test_pageout_reclaims () =
  (* A machine with little memory: touching more pages than exist forces
     the pageout daemon to steal (via pmap_page_protect + shootdown). *)
  let params = { quiet with phys_pages = 96 } in
  on_machine ~params (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let task = Task.create vms ~name:"hog" in
      Task.adopt vms self task;
      let pages = 120 in
      let vpn = Vm_map.allocate vms self task.Task.map ~pages () in
      (match
         Task.touch_range vms self task.Task.map ~lo_vpn:vpn ~pages
           ~access:Addr.Write_access
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "touch range");
      Alcotest.(check bool) "pageouts happened" true (vms.Vm.Vmstate.pageouts > 0);
      (* stolen pages fault back in on demand *)
      match Task.read_word vms self task.Task.map (Addr.addr_of_vpn vpn) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "refault after steal")

let test_task_terminate_releases_memory () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let free0 = Vm.Vmstate.free_frames vms in
      let task = Task.create vms ~name:"t" in
      Task.adopt vms self task;
      let vpn = Vm_map.allocate vms self task.Task.map ~pages:8 () in
      (match
         Task.touch_range vms self task.Task.map ~lo_vpn:vpn ~pages:8
           ~access:Addr.Write_access
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "touch");
      Alcotest.(check bool) "frames consumed" true
        (Vm.Vmstate.free_frames vms < free0);
      Task.terminate vms self task;
      Alcotest.(check int) "frames restored" free0 (Vm.Vmstate.free_frames vms))

let test_vm_copy_between_tasks () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let a = Task.create vms ~name:"a" in
      Task.adopt vms self a;
      let src = Vm_map.allocate vms self a.Task.map ~pages:1 () in
      let src_va = Addr.addr_of_vpn src in
      for i = 0 to 9 do
        match Task.write_word vms self a.Task.map (src_va + (i * 4)) (i * i) with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "seed"
      done;
      let b = Task.create vms ~name:"b" in
      let dst = Vm_map.allocate vms self b.Task.map ~pages:1 () in
      let dst_va = Addr.addr_of_vpn dst in
      (* the kernel copies between address spaces (vm_read/vm_write) *)
      (match Task.vm_copy vms self ~src:a ~src_va ~dst:b ~dst_va ~words:10 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "vm_copy");
      Task.adopt vms self b;
      for i = 0 to 9 do
        match Task.read_word vms self b.Task.map (dst_va + (i * 4)) with
        | Ok v -> Alcotest.(check int) "copied word" (i * i) v
        | Error _ -> Alcotest.fail "read copied"
      done)

(* ------------------------------------------------------------------ *)
(* Allocation must not depend on how many maps the process made before:
   identical runs late in a long process (a benchmark pass, a model-check
   sweep) must allocate exactly what they did early on. *)

let test_alloc_independent_of_process_history () =
  let spec = List.hd Check.Scenario.all in
  let minor_words_of_run () =
    let before = Gc.minor_words () in
    let o = Check.Scenario.run ~cpus:2 spec ~prefix:[||] () in
    let after = Gc.minor_words () in
    Alcotest.(check bool) "baseline schedule passes" true
      (o.Check.Scenario.verdict = Check.Scenario.Pass);
    after -. before
  in
  ignore (minor_words_of_run ());
  let early = minor_words_of_run () in
  let machine = Vm.Machine.create ~params:quiet () in
  for _ = 1 to 10_001 do
    ignore
      (Vm_map.create ~pmap:machine.Vm.Machine.ctx.Core.Pmap.kernel_pmap
         ~lo:Task.user_lo_vpn ~hi:Task.user_hi_vpn)
  done;
  let late = minor_words_of_run () in
  Alcotest.(check (float 0.0)) "same minor words" early late

let () =
  Alcotest.run "vm"
    [
      ("map-algebra", [ QCheck_alcotest.to_alcotest map_qcheck ]);
      ( "fault",
        [
          Alcotest.test_case "zero fill + rw" `Quick test_zero_fill_and_rw;
          Alcotest.test_case "no entry" `Quick test_fault_outside_allocation;
          Alcotest.test_case "protection enforced" `Quick
            test_protection_enforced;
          Alcotest.test_case "upgrade after protect" `Quick
            test_protection_upgrade_after_protect;
          Alcotest.test_case "pagein" `Quick test_pagein_from_file_object;
        ] );
      ( "cow",
        [
          Alcotest.test_case "fork isolation" `Quick test_fork_cow_isolation;
          Alcotest.test_case "share and none" `Quick test_fork_share_and_none;
        ] );
      ( "kmem+pageout",
        [
          Alcotest.test_case "wired vs pageable" `Quick
            test_kmem_wired_vs_pageable;
          Alcotest.test_case "pageout reclaims" `Quick test_pageout_reclaims;
          Alcotest.test_case "terminate releases" `Quick
            test_task_terminate_releases_memory;
          Alcotest.test_case "vm_copy" `Quick test_vm_copy_between_tasks;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "allocation independent of process history"
            `Quick test_alloc_independent_of_process_history;
        ] );
    ]
