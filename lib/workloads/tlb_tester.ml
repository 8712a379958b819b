(* The TLB-consistency tester of paper section 5.1.

   A page of read-write memory holds one counter per child thread.  The
   children spin incrementing their counters through the simulated MMU;
   the main thread then reprotects the page read-only, immediately saves a
   copy of the counters, and lets the children die on their (unrecoverable)
   write faults.  If any counter advanced past the saved copy, a stale TLB
   entry allowed a write after the page became read-only — a consistency
   violation.

   On an n-CPU machine, running with k < n children causes exactly one
   shootdown on the task's pmap involving exactly k processors, which the
   paper (and experiments/figure2) uses to measure basic shootdown cost. *)

module Addr = Hw.Addr
module Vm_map = Vm.Vm_map
module Task = Vm.Task
module Machine = Vm.Machine

type result = {
  consistent : bool;
  processors : int; (* processors involved in the shootdown *)
  initiator_elapsed : float; (* us, from the xpr record *)
  increments_total : int;
  violations : int; (* counters that advanced after reprotection *)
}

(* Simulated us: how long the children hammer the page with warm TLB
   entries before the reprotect; the grace period after it; and the
   spacing of churn-phase unmaps.  With working consistency every child
   is dead long before the grace period ends; with consistency disabled
   the children keep incrementing through their stale entries, and the
   grace period is what lets the tester observe the violation and still
   halt. *)
let warmup = 3_000.0
let grace = 2_000.0
let churn_gap = 150.0

let run ?(pages = 1) ?(churn_rounds = 0) (machine : Machine.t) ~children () =
  let vms = machine.Machine.vms in
  let sched = machine.Machine.sched in
  let xpr = machine.Machine.xpr in
  let n = Array.length machine.Machine.cpus in
  if children >= n then invalid_arg "Tlb_tester.run: children must be < ncpus";
  let outcome = ref None in
  Machine.run ~bound:0 machine (fun self ->
      let task = Task.create vms ~name:"tester" in
      (* main runs as part of the task, pinned to CPU 0 *)
      Task.adopt vms self task;
      let page_vpn = Vm_map.allocate vms self task.Task.map ~pages () in
      let page_va = Addr.addr_of_vpn page_vpn in
      (* Touch the pages so they are resident and mapped. *)
      (match
         Task.touch_range vms self task.Task.map ~lo_vpn:page_vpn ~pages
           ~access:Addr.Write_access
       with
      | Ok () -> ()
      | Error _ ->
          let c = Sim.Sched.current_cpu self in
          Driver.fault ~workload:"tester" ~what:"cannot touch counter pages"
            ~cpu:(Sim.Cpu.id c) ~now:(Sim.Cpu.now c) ());
      (* Churn pages (tail-attribution mode, churn_rounds > 0): throwaway
         pages the main thread maps and touches now — so their PTEs are
         live and an unmap cannot be skipped lazily — and deallocates one
         at a time after the warmup, each unmap a full shootdown round
         against every processor running a child.  With [churn_rounds = 0]
         this block allocates nothing and the run is event-for-event the
         historical single-round tester. *)
      let churn_vpn =
        if churn_rounds = 0 then page_vpn (* unused *)
        else begin
          let vpn =
            Vm_map.allocate vms self task.Task.map ~pages:churn_rounds ()
          in
          (match
             Task.touch_range vms self task.Task.map ~lo_vpn:vpn
               ~pages:churn_rounds ~access:Addr.Write_access
           with
          | Ok () -> ()
          | Error _ ->
              let c = Sim.Sched.current_cpu self in
              Driver.fault ~workload:"tester" ~what:"cannot touch churn pages"
                ~cpu:(Sim.Cpu.id c) ~now:(Sim.Cpu.now c) ());
          vpn
        end
      in
      let started = Sim.Sync.create_mutex "tester-started" in
      let started_cv = Sim.Sync.create_condvar "tester-started-cv" in
      let running = ref 0 in
      let stop = ref false in
      let dead = Array.make children false in
      let threads =
        List.init children (fun i ->
            Task.spawn_thread vms task ~bound:(i + 1)
              ~name:(Printf.sprintf "child%d" i) (fun child ->
                let counter_va = page_va + (i * Addr.word_size) in
                let mine = ref 0 in
                (* announce once the first increment landed *)
                let announce () =
                  Sim.Sync.lock sched child started;
                  incr running;
                  Sim.Sync.broadcast sched started_cv;
                  Sim.Sync.unlock sched child started
                in
                (* each iteration writes this child's counter word on every
                   page, so all [pages] translations stay cached *)
                let write_all () =
                  let rec go p =
                    if p >= pages then Ok ()
                    else
                      match
                        Task.write_word vms child task.Task.map
                          (counter_va + (p * Addr.page_size))
                          (!mine + 1)
                      with
                      | Ok () -> go (p + 1)
                      | Error e -> Error e
                  in
                  go 0
                in
                let rec spin announced =
                  Sim.Cpu.step (Sim.Sched.current_cpu child) 2.0;
                  if not !stop then
                    match write_all () with
                    | Ok () ->
                        incr mine;
                        if not announced then announce ();
                        spin true
                    | Error Task.Err_protection ->
                        (* unrecoverable write fault: the thread dies *)
                        dead.(i) <- true
                    | Error Task.Err_no_entry ->
                        let c = Sim.Sched.current_cpu child in
                        Driver.fault ~workload:"tester"
                          ~what:"counter page vanished" ~cpu:(Sim.Cpu.id c)
                          ~now:(Sim.Cpu.now c) ()
                in
                spin false))
      in
      (* Wait until every child has incremented at least once. *)
      Sim.Sync.lock sched self started;
      while !running < children do
        Sim.Sync.wait sched self started_cv started
      done;
      Sim.Sync.unlock sched self started;
      (* Let them hammer the page for a while with warm TLB entries. *)
      Sim.Sched.sleep sched self warmup;
      (* Churn phase: one unmap — one k-responder consistency round — per
         throwaway page, spaced by [churn_gap] so rounds sample the
         background (device-interrupt) state independently.  The children
         never touch these pages; they only supply the active processors
         the protocol must quiesce. *)
      for j = 0 to churn_rounds - 1 do
        Vm_map.deallocate vms self task.Task.map ~lo:(churn_vpn + j)
          ~hi:(churn_vpn + j + 1);
        Sim.Sched.sleep sched self churn_gap
      done;
      (* Reprotect to read-only: the shootdown under test. *)
      Vm_map.protect vms self task.Task.map ~lo:page_vpn
        ~hi:(page_vpn + pages) ~prot:Addr.Prot_read;
      (* Immediately save a copy of the counters. *)
      let read_counter i =
        match
          Task.read_word vms self task.Task.map
            (page_va + (i * Addr.word_size))
        with
        | Ok v -> v
        | Error _ ->
            let c = Sim.Sched.current_cpu self in
            Driver.fault ~workload:"tester" ~what:"cannot read counters"
              ~cpu:(Sim.Cpu.id c) ~now:(Sim.Cpu.now c) ()
      in
      let saved = Array.init children read_counter in
      (* Give stale entries time to do damage, then halt any survivors
         (with working consistency they are already dead of write faults). *)
      Sim.Sched.sleep sched self grace;
      stop := true;
      List.iter (fun th -> Sim.Sched.join sched self th) threads;
      let final = Array.init children read_counter in
      let violations = ref 0 in
      Array.iteri
        (fun i v -> if final.(i) <> v then incr violations)
        saved;
      let shoot =
        match List.rev (Instrument.Summary.user_initiators xpr) with
        | last :: _ -> Some last
        | [] -> None
      in
      let total = Array.fold_left ( + ) 0 final in
      outcome :=
        Some
          {
            consistent = !violations = 0;
            processors =
              (match shoot with
              | Some s -> s.Instrument.Summary.processors
              | None -> 0);
            initiator_elapsed =
              (match shoot with
              | Some s -> s.Instrument.Summary.elapsed
              | None -> nan);
            increments_total = total;
            violations = !violations;
          };
      ignore (Array.for_all (fun d -> d) dead));
  match !outcome with
  | Some r -> r
  | None -> Driver.fault ~workload:"tester" ~what:"no outcome recorded" ()

(* Fresh machine per run, as the experiments require. *)
let run_fresh ?(params = Sim.Params.default) ?(pages = 1) ?churn_rounds
    ~children ~seed () =
  let params = { params with seed } in
  let machine = Machine.create ~params () in
  run ~pages ?churn_rounds machine ~children ()
