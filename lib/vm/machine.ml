(* Boots a complete simulated multiprocessor: CPUs on a shared bus, MMUs
   and TLBs, the pmap context with the shootdown algorithm installed, the
   scheduler with its idle loops wired to the idle-processor optimisation,
   the VM state, the kernel map, and the background daemons (device
   interrupts, pageout, and — for the Timer_flush baseline — the periodic
   TLB flushers). *)

module Addr = Hw.Addr
module Mmu = Hw.Mmu
module Tlb = Hw.Tlb
module Page_table = Hw.Page_table
module Pmap = Core.Pmap
module Shootdown = Core.Shootdown

type t = {
  params : Sim.Params.t;
  eng : Sim.Engine.t;
  bus : Sim.Bus.t;
  cpus : Sim.Cpu.t array;
  mmus : Mmu.t array;
  mem : Hw.Phys_mem.t;
  xpr : Instrument.Xpr.t;
  ctx : Pmap.ctx;
  sched : Sim.Sched.t;
  vms : Vmstate.t;
  kernel_map : Vm_map.t;
}

let wire_scheduler_hooks ctx (sched : Sim.Sched.t) =
  sched.Sim.Sched.pre_dispatch <-
    (fun cpu ->
      (* An idle processor is by definition not performing translations;
         make that visible to initiators before draining queued actions. *)
      ctx.Pmap.active.(Sim.Cpu.id cpu) <- false;
      Shootdown.idle_check ctx cpu);
  sched.Sim.Sched.actions_queued <- Shootdown.idle_pending ctx;
  sched.Sim.Sched.activate <-
    (fun th cpu ->
      (* Drain any actions queued while this processor was idle before it
         becomes active (paper section 4, idle-processor refinement). *)
      Shootdown.idle_check ctx cpu;
      (match th.Sim.Sched.data with
      | Task.Task_thread task when not task.Task.terminated ->
          Pmap.activate ctx task.Task.map.Vm_map.pmap cpu
      | _ -> ());
      ctx.Pmap.active.(Sim.Cpu.id cpu) <- true);
  sched.Sim.Sched.deactivate <-
    (fun th cpu ->
      ctx.Pmap.active.(Sim.Cpu.id cpu) <- false;
      match th.Sim.Sched.data with
      | Task.Task_thread task when not task.Task.terminated ->
          Pmap.deactivate ctx task.Task.map.Vm_map.pmap cpu
      | _ -> ())

let install_software_reload ctx (mmus : Mmu.t array) =
  Array.iteri
    (fun id mmu ->
      mmu.Mmu.software_reload <-
        Some
          (fun (sp : Mmu.space) vpn ->
            (* The kernel's reload handler stalls only while the relevant
               pmap is actually being modified (section 9). *)
            let pmap =
              if sp.Mmu.space_id = 0 then Some ctx.Pmap.kernel_pmap
              else
                match ctx.Pmap.current_user.(id) with
                | Some p when p.Pmap.space_id = sp.Mmu.space_id -> Some p
                | _ -> None
            in
            (match pmap with
            | Some p ->
                (* interrupt-taking polls: the lock holder may be waiting
                   for this processor's shootdown acknowledgement *)
                while Sim.Spinlock.is_locked p.Pmap.lock do
                  Sim.Cpu.spin_poll ctx.Pmap.cpus.(id)
                done
            | None -> ());
            Page_table.find sp.Mmu.pt vpn))
    mmus

let spawn_device_daemons t =
  if t.params.device_intr_rate > 0.0 then
    Array.iter
      (fun (cpu : Sim.Cpu.t) ->
        let prng = Sim.Prng.split (Sim.Engine.prng t.eng) in
        Sim.Engine.spawn t.eng ~name:"devices" (fun () ->
            while not (Sim.Sched.stopped t.sched) do
              Sim.Engine.delay
                (Sim.Prng.exponential prng t.params.device_intr_rate);
              Sim.Cpu.post cpu Sim.Interrupt.Device
            done))
      t.cpus

let spawn_timer_flushers t =
  match t.params.consistency with
  | Sim.Params.Timer_flush period ->
      Array.iteri
        (fun id (_ : Sim.Cpu.t) ->
          Sim.Engine.spawn t.eng ~name:"tlb-timer" (fun () ->
              while not (Sim.Sched.stopped t.sched) do
                Sim.Engine.delay period;
                Tlb.flush_all (Mmu.tlb t.mmus.(id))
              done))
        t.cpus
  | Sim.Params.Shootdown | Sim.Params.Hw_remote | Sim.Params.No_consistency
  | Sim.Params.Deferred_free _ ->
      ()

(* Deferred_free (section 10): periodic full flushes advance each CPU's
   epoch; quarantined frames are released once every epoch has advanced. *)
let spawn_deferred_free_flushers t =
  match t.params.consistency with
  | Sim.Params.Deferred_free period ->
      Array.iteri
        (fun id (_ : Sim.Cpu.t) ->
          Sim.Engine.spawn t.eng ~name:"deferred-flush" (fun () ->
              while not (Sim.Sched.stopped t.sched) do
                Sim.Engine.delay period;
                Tlb.flush_all (Mmu.tlb t.mmus.(id));
                Vmstate.note_full_flush t.vms ~cpu_id:id
              done))
        t.cpus
  | Sim.Params.Shootdown | Sim.Params.Timer_flush _ | Sim.Params.Hw_remote
  | Sim.Params.No_consistency ->
      ()

let spawn_pageout_daemon t =
  ignore
    (Sim.Sched.create_thread t.sched ~name:"pageout" (fun self ->
         Pageout.daemon t.vms self))

let create ?(params = Sim.Params.default) () =
  let eng = Sim.Engine.create ~seed:params.seed () in
  let bus = Sim.Bus.create eng params in
  let cpus = Array.init params.ncpus (fun id -> Sim.Cpu.create eng bus params ~id) in
  let mem = Hw.Phys_mem.create ~frames:params.phys_pages in
  let mmus = Array.map (fun cpu -> Mmu.create cpu mem params) cpus in
  let xpr = Instrument.Xpr.create ~capacity:(1 lsl 17) () in
  let ctx = Pmap.create_ctx ~eng ~bus ~cpus ~mmus ~mem ~params ~xpr in
  Shootdown.install ctx;
  (match params.tlb_reload with
  | Sim.Params.Software_reload -> install_software_reload ctx mmus
  | Sim.Params.Hardware_reload -> ());
  let sched = Sim.Sched.create eng cpus params in
  wire_scheduler_hooks ctx sched;
  let vms = Vmstate.create ~ctx ~sched () in
  let kernel_map =
    Vm_map.create ~pmap:ctx.Pmap.kernel_pmap
      ~lo:(Addr.vpn_of_addr Addr.kernel_base)
      ~hi:(Addr.vpn_of_addr Addr.address_limit)
  in
  let t =
    { params; eng; bus; cpus; mmus; mem; xpr; ctx; sched; vms; kernel_map }
  in
  Sim.Sched.start sched;
  spawn_device_daemons t;
  spawn_timer_flushers t;
  spawn_deferred_free_flushers t;
  spawn_pageout_daemon t;
  t

exception Wedged of string

(* Run [body] as the "main" thread; step the simulation until it finishes,
   then shut the machine down and drain remaining events. *)
let run ?bound t body =
  let main = Sim.Sched.create_thread t.sched ?bound ~name:"main" body in
  let rec loop () =
    if main.Sim.Sched.state <> Sim.Sched.Finished then
      if Sim.Engine.step t.eng then loop ()
      else
        raise
          (Wedged
             (Printf.sprintf
                "event queue drained at t=%.0f with main thread %s"
                (Sim.Engine.now t.eng)
                (match main.Sim.Sched.state with
                | Sim.Sched.Created -> "created"
                | Sim.Sched.Ready -> "ready"
                | Sim.Sched.Running -> "running"
                | Sim.Sched.Blocked -> "blocked"
                | Sim.Sched.Finished -> "finished")))
  in
  loop ();
  Sim.Sched.stop t.sched;
  (* Wake the daemons so they can observe shutdown and exit. *)
  Sim.Sync.broadcast t.sched t.vms.Vmstate.pageout_cv;
  Sim.Engine.run t.eng;
  (* Quiescent point: nothing is running, every queue has drained — the
     consistency oracle (when attached) must find every TLB in agreement
     with the page tables. *)
  match t.ctx.Pmap.oracle_check with
  | Some check -> check "quiescent"
  | None -> ()

let now t = Sim.Engine.now t.eng

(* Scope a kernel-map batch over [f]: the common shape for workloads that
   free many kernel buffers in a burst.  When batching is disabled the
   batch degrades to nothing — Kmem.free without [?batch] — so callers
   can stay oblivious by threading the option through. *)
let with_kernel_batch t self f =
  if t.params.Sim.Params.batch_shootdowns then begin
    let b = Batch.start t.vms t.kernel_map in
    Fun.protect ~finally:(fun () -> Batch.finish b self) (fun () -> f (Some b))
  end
  else f None

(* Attach a contention profiler: every CPU and the bus start classifying
   their simulated-time advances into the profiler's buckets.  Attaching
   changes no simulated behaviour — the hooks add zero simulated cost and
   draw nothing from any PRNG — so a profiled run stays byte-identical to
   an unprofiled one. *)
let attach_profile t profile =
  Array.iter
    (fun (cpu : Sim.Cpu.t) -> cpu.Sim.Cpu.profile <- Some profile)
    t.cpus;
  Sim.Bus.set_profile t.bus (Some profile);
  if Sim.Params.clustered t.params then
    Instrument.Profile.set_clusters profile
      (Array.init t.params.ncpus (Sim.Params.cluster_of t.params))

(* Attach a per-round flight recorder (docs/TAIL.md): Core.Shootdown
   starts emitting one causal record per consistency round.  Same
   behaviour-neutrality contract as [attach_profile]. *)
let attach_flight t flight = t.ctx.Pmap.flight <- Some flight

(* Total busy CPU time, for overhead percentages. *)
let total_busy_time t =
  Array.fold_left (fun acc (c : Sim.Cpu.t) -> acc +. c.Sim.Cpu.acct.busy_time) 0.0 t.cpus
