(* The Mach TLB shootdown algorithm (paper section 4, Figure 1).

   [with_update] is the initiator: it wraps a pmap modification with the
   four-phase protocol — queue consistency actions and interrupt the
   processors using the pmap (phase 1), wait for them to acknowledge by
   leaving the active set (phase 2), perform the modification (phase 3),
   and unlock so the responders drain their action queues and rejoin the
   active set (phase 4).

   [responder] is the interrupt service routine, and [idle_check] is the
   hook the idle loop runs so that idle processors — which are never sent
   shootdown interrupts — still execute queued actions before becoming
   active.

   The same entry point also implements the alternative consistency
   policies used as baselines: Timer_flush (section 3, technique 2),
   Hw_remote (section 9, MC88200-style remote invalidation) and
   No_consistency (for the failure-detection tests). *)

module Addr = Hw.Addr
module Page_table = Hw.Page_table
module Mmu = Hw.Mmu
module Tlb = Hw.Tlb
module Xpr = Instrument.Xpr

(* Every protocol point below is instrumented the same way (docs/
   OBSERVABILITY.md): [if Probe.attached ctx then Probe.emit ...], one
   test and no allocation while no sink is attached. *)

(* ------------------------------------------------------------------ *)
(* TLB invalidation: below the threshold invalidate entries one at a
   time, above it flush the whole buffer (omitted detail 1 of Figure 1).

   The primitives take a list of disjoint [lo, hi) ranges so that a
   gather batch (docs/BATCHING.md) can retire all its deferred
   invalidations in one protocol round; the flush-threshold decision is
   made on the total page count.  A singleton list behaves exactly like
   the historical single-range code — unbatched runs must stay
   byte-identical to the baseline reports. *)

let range_pages ranges =
  List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ranges

let invalidate_local_ranges ctx (cpu : Sim.Cpu.t) ~space ~ranges =
  let params = ctx.Pmap.params in
  let tlb = Mmu.tlb ctx.Pmap.mmus.(Sim.Cpu.id cpu) in
  let pages = range_pages ranges in
  let flush = pages >= params.tlb_flush_threshold in
  if Probe.attached ctx then
    Probe.emit ctx ~cpu:(Sim.Cpu.id cpu) (Probe.Tlb { space; pages; flush });
  if flush then begin
    Tlb.flush_all tlb;
    Sim.Cpu.raw_delay cpu params.tlb_flush_cost
  end
  else begin
    List.iter
      (fun (lo, hi) -> Tlb.invalidate_range tlb ~space ~lo ~hi)
      ranges;
    Sim.Cpu.raw_delay cpu
      (params.tlb_entry_invalidate_cost *. float_of_int pages)
  end

let invalidate_local ctx (cpu : Sim.Cpu.t) ~space ~lo ~hi =
  invalidate_local_ranges ctx cpu ~space ~ranges:[ (lo, hi) ]

(* A responder's flush of one space, or of the whole buffer for [space] =
   -1.  Under the checker's Skip_responder_invalidate mutant the flush is
   reported but the TLB is left alone. *)
let flush_local ctx (cpu : Sim.Cpu.t) ~space ~pages =
  let id = Sim.Cpu.id cpu in
  if Probe.attached ctx then
    Probe.emit ctx ~cpu:id (Probe.Tlb { space; pages; flush = true });
  if ctx.Pmap.mutant <> Pmap.Skip_responder_invalidate then begin
    let tlb = Mmu.tlb ctx.Pmap.mmus.(id) in
    if space < 0 then Tlb.flush_all tlb else Tlb.flush_space tlb ~space;
    Sim.Cpu.raw_delay cpu ctx.Pmap.params.tlb_flush_cost
  end

let perform_action ctx (cpu : Sim.Cpu.t) = function
  | Action.Invalidate_range { space; lo; hi } ->
      let params = ctx.Pmap.params in
      if params.tlb_asid_tagged then begin
        (* Tagged TLBs may hold entries for spaces that are not the
           current one; flush the whole space when it is foreign
           (section 10's suggested responder change). *)
        let current =
          match ctx.Pmap.current_user.(Sim.Cpu.id cpu) with
          | Some p -> p.Pmap.space_id
          | None -> -1
        in
        if space <> 0 && space <> current then
          flush_local ctx cpu ~space ~pages:(hi - lo)
        else invalidate_local ctx cpu ~space ~lo ~hi
      end
      else invalidate_local ctx cpu ~space ~lo ~hi
  | Action.Flush_space space -> flush_local ctx cpu ~space ~pages:0

(* Drain this CPU's action queue (queue lock held by callee).  Returns
   [true] if any drained action targeted the kernel pmap, for attributing
   responder time in the measurements. *)
let process_queued_actions ctx (cpu : Sim.Cpu.t) =
  let id = Sim.Cpu.id cpu in
  let q = ctx.Pmap.queues.(id) in
  Sim.Cpu.prof_enter cpu Instrument.Profile.Queue_drain;
  let saved = Sim.Spinlock.acquire q.Action.lock cpu in
  let work = Action.drain q in
  (* action_needed is cleared before the invalidations are performed:
     [draining] keeps the consistency oracle treating this CPU as covered
     until the TLB really is clean. *)
  ctx.Pmap.draining.(id) <- true;
  ctx.Pmap.action_needed.(id) <- false;
  Sim.Spinlock.release q.Action.lock cpu ~saved_ipl:saved;
  let touched_kernel =
    match work with
    | `Flush_everything ->
        (* queue overflowed: the whole TLB goes, whatever was queued *)
        flush_local ctx cpu ~space:(-1) ~pages:0;
        true
    | `Actions actions ->
        let touched_kernel =
          List.exists
            (function
              | Action.Invalidate_range { space; _ }
              | Action.Flush_space space ->
                  space = 0)
            actions
        in
        let total_pages =
          List.fold_left
            (fun acc -> function
              | Action.Invalidate_range { lo; hi; _ } -> acc + (hi - lo)
              | Action.Flush_space _ -> acc)
            0 actions
        in
        (* Batching-aware responder (docs/BATCHING.md): a drained burst of
           range actions whose combined size crosses the flush threshold
           is cheaper as one whole-buffer flush than as N range
           invalidations.  Gated on [batch_shootdowns] so that unbatched
           runs execute the historical per-action path unchanged. *)
        (* Seeded bug for the model checker's self-test (Pmap.mutant):
           the responder drains its queue — clearing action_needed,
           satisfying the initiator — but never touches its TLB, leaving
           the stale mapping live.  Never set outside checker runs. *)
        if ctx.Pmap.mutant = Pmap.Skip_responder_invalidate then ()
        else if
          ctx.Pmap.params.batch_shootdowns
          && List.length actions > 1
          && total_pages >= ctx.Pmap.params.tlb_flush_threshold
        then flush_local ctx cpu ~space:(-1) ~pages:total_pages
        else List.iter (perform_action ctx cpu) actions;
        touched_kernel
  in
  ctx.Pmap.draining.(id) <- false;
  Sim.Cpu.prof_leave cpu;
  touched_kernel

(* ------------------------------------------------------------------ *)
(* Responders (phases 2 and 4). *)

(* With software-reloaded TLBs whose ref/mod updates cannot corrupt a
   mid-update pmap (interlocked, or writeback eliminated), responders can
   invalidate and return immediately instead of stalling: the reload
   handler performs any necessary stall itself (section 9). *)
let responder_must_stall (params : Sim.Params.t) =
  match params.Sim.Params.tlb_reload with
  | Sim.Params.Software_reload
    when params.Sim.Params.tlb_interlocked_refmod
         || not params.Sim.Params.tlb_refmod_writeback ->
      false
  | Sim.Params.Software_reload | Sim.Params.Hardware_reload -> true

let relevant_pmap_locked ctx (cpu : Sim.Cpu.t) =
  let id = Sim.Cpu.id cpu in
  Sim.Spinlock.is_locked ctx.Pmap.kernel_pmap.Pmap.lock
  || (match ctx.Pmap.current_user.(id) with
     | Some p -> Sim.Spinlock.is_locked p.Pmap.lock
     | None -> false)
  || List.exists
       (fun (p : Pmap.t) ->
         p.Pmap.in_use.(id) && Sim.Spinlock.is_locked p.Pmap.lock)
       ctx.Pmap.kernel_pool_pmaps

(* The shootdown interrupt service routine.  A single activation services
   every shootdown in progress (the while loop), which is also why further
   shootdown interrupts are blocked while it runs. *)
let responder ctx (cpu : Sim.Cpu.t) =
  let id = Sim.Cpu.id cpu in
  ctx.Pmap.phase.(id) <- Pmap.Responding;
  if Probe.attached ctx then Probe.emit ctx ~cpu:id Probe.Enter;
  let entered = Sim.Cpu.now cpu in
  let saved = Sim.Cpu.set_ipl cpu Sim.Interrupt.ipl_high in
  (* Rejoin the set we were found in: an interrupt caught by an idle
     processor (raced against going idle) must not mark it active, or a
     later initiator would wait forever for an ack the idle loop never
     gives. *)
  let was_active = ctx.Pmap.active.(id) in
  let touched_kernel = ref false in
  let did_work = ref false in
  while ctx.Pmap.action_needed.(id) do
    did_work := true;
    (* Phase 2: acknowledge by leaving the active set, then spin until no
       relevant pmap is being updated.  (Figure 1 prints this condition
       with &&; the prose of phases 2-4 and the production sources require
       ||, which is what we implement — see DESIGN.md.) *)
    ctx.Pmap.active.(id) <- false;
    (* the active set is kernel shared state, homed on node 0 *)
    Sim.Bus.access ctx.Pmap.bus ~who:id ~home:0 ();
    cpu.Sim.Cpu.note <- "responder-spin";
    if Probe.attached ctx then Probe.emit ctx ~cpu:id Probe.Ack;
    if responder_must_stall ctx.Pmap.params then begin
      Sim.Cpu.prof_enter cpu Instrument.Profile.Ack_wait;
      while relevant_pmap_locked ctx cpu do
        Sim.Cpu.spin_poll_masked cpu
      done;
      Sim.Cpu.prof_leave cpu
    end;
    (* Phase 4: drain the queued invalidations and rejoin. *)
    if Probe.attached ctx then Probe.emit ctx ~cpu:id Probe.Drain;
    if process_queued_actions ctx cpu then touched_kernel := true;
    ctx.Pmap.active.(id) <- was_active;
    Sim.Bus.access ctx.Pmap.bus ~who:id ~home:0 ()
  done;
  ctx.Pmap.phase.(id) <- Pmap.Responded;
  if !did_work && Probe.attached ctx then Probe.emit ctx ~cpu:id Probe.Done;
  Sim.Cpu.restore_ipl cpu saved;
  let elapsed = Sim.Cpu.now cpu -. entered in
  ctx.Pmap.shootdown_responder_time <- ctx.Pmap.shootdown_responder_time +. elapsed;
  if !did_work then Sim.Cpu.prof_observe cpu ~name:"shoot/responder_us" elapsed;
  (* Spurious activations (the action was already drained by the idle
     check before the interrupt landed) are not responses to anything and
     are not recorded. *)
  if !did_work && id < ctx.Pmap.params.responder_sample_cpus then
    Xpr.record ctx.Pmap.xpr ~code:Xpr.Shoot_responder ~cpu:id
      ~timestamp:(Sim.Cpu.now cpu)
      ~arg1:(if !touched_kernel then 1 else 0)
      ~farg:elapsed ()

(* Whether [idle_check] has queued actions to execute on this CPU; while
   it has none, [idle_check] does nothing. *)
let idle_pending ctx (cpu : Sim.Cpu.t) = ctx.Pmap.action_needed.(Sim.Cpu.id cpu)

(* Flag CPU [oid]'s queued actions.  [idle_pending] reads the flag, so
   the write disturbs the engine: an idle [oid] must stop counting as
   quiet (Sim.Engine.idle_suspension). *)
let need_action ctx oid =
  ctx.Pmap.action_needed.(oid) <- true;
  Sim.Engine.disturb ctx.Pmap.eng

(* Idle processors are not interrupted, but must execute queued actions
   before (re)joining the active set; the scheduler's idle loop calls this
   before dispatching a thread. *)
let idle_check ctx (cpu : Sim.Cpu.t) =
  let id = Sim.Cpu.id cpu in
  if idle_pending ctx cpu then begin
    let saved = Sim.Cpu.set_ipl cpu Sim.Interrupt.ipl_high in
    while ctx.Pmap.action_needed.(id) do
      cpu.Sim.Cpu.note <- "idle-check-spin";
      Sim.Cpu.prof_enter cpu Instrument.Profile.Ack_wait;
      while relevant_pmap_locked ctx cpu do
        Sim.Cpu.spin_poll_masked cpu
      done;
      Sim.Cpu.prof_leave cpu;
      ignore (process_queued_actions ctx cpu)
    done;
    if Probe.attached ctx then Probe.emit ctx ~cpu:id Probe.Idle_drain;
    cpu.Sim.Cpu.note <- "idle-check-done";
    Sim.Cpu.restore_ipl cpu saved
  end

(* Wire the responder into every CPU's interrupt dispatch. *)
let install ctx =
  Array.iter
    (fun cpu -> cpu.Sim.Cpu.shootdown_handler <- (fun c -> responder ctx c))
    ctx.Pmap.cpus

(* ------------------------------------------------------------------ *)
(* Initiator. *)

let send_ipis ctx (cpu : Sim.Cpu.t) targets =
  let params = ctx.Pmap.params in
  let eng = ctx.Pmap.eng in
  let me = Sim.Cpu.id cpu in
  let post target =
    if Probe.attached ctx then
      Probe.emit ctx ~cpu:me (Probe.Ipi (Sim.Cpu.id target));
    Sim.Engine.after eng params.ipi_latency (fun () ->
        Sim.Cpu.post target Sim.Interrupt.Shootdown)
  in
  match params.ipi_mode with
  | Sim.Params.Unicast ->
      List.iter
        (fun target ->
          Sim.Cpu.raw_delay cpu params.ipi_send_cost;
          Sim.Bus.access ctx.Pmap.bus ~who:me ~home:(Sim.Cpu.id target) ();
          ctx.Pmap.ipis_sent <- ctx.Pmap.ipis_sent + 1;
          post target)
        targets
  | Sim.Params.Multicast ->
      if targets <> [] then
        if Sim.Bus.clustered ctx.Pmap.bus then begin
          (* Cluster-targeted shootdown: one multicast bus operation per
             cluster that actually holds a target, so nodes where the pmap
             is not resident see no interrupt traffic at all.  The delivery
             order within each cluster preserves the flat target order. *)
          let bus = ctx.Pmap.bus in
          let groups = Array.make (Sim.Bus.clusters bus) [] in
          List.iter
            (fun target ->
              let c = Sim.Bus.cluster_of_cpu bus (Sim.Cpu.id target) in
              groups.(c) <- target :: groups.(c))
            targets;
          Array.iter
            (fun group ->
              match List.rev group with
              | [] -> ()
              | first :: _ as group ->
                  Sim.Cpu.raw_delay cpu params.ipi_send_cost;
                  Sim.Bus.access bus ~who:me ~home:(Sim.Cpu.id first) ();
                  ctx.Pmap.ipis_sent <- ctx.Pmap.ipis_sent + List.length group;
                  List.iter post group)
            groups
        end
        else begin
          Sim.Cpu.raw_delay cpu params.ipi_send_cost;
          Sim.Bus.access ctx.Pmap.bus ~who:me ();
          ctx.Pmap.ipis_sent <- ctx.Pmap.ipis_sent + List.length targets;
          List.iter post targets
        end
  | Sim.Params.Broadcast ->
      if targets <> [] then begin
        Sim.Cpu.raw_delay cpu params.ipi_send_cost;
        let bus = ctx.Pmap.bus in
        if Sim.Bus.clustered bus then
          (* a broadcast must reach every node: one bus operation per
             cluster, resident or not — the cost the targeted mode avoids *)
          for c = 0 to Sim.Bus.clusters bus - 1 do
            Sim.Bus.access bus ~who:me ~home:(Sim.Bus.home_cpu bus ~cluster:c)
              ()
          done
        else Sim.Bus.access bus ~who:me ();
        (* every other CPU is interrupted, wanted or not *)
        Array.iter
          (fun (target : Sim.Cpu.t) ->
            if Sim.Cpu.id target <> Sim.Cpu.id cpu then begin
              ctx.Pmap.ipis_sent <- ctx.Pmap.ipis_sent + 1;
              post target
            end)
          ctx.Pmap.cpus
      end

(* The Mach shootdown initiator proper (phases 1-3). Caller holds the pmap
   lock and has decided an inconsistency is possible.  Queues one range
   action per coalesced range — a batched flush therefore needs only this
   single round for all its deferred operations, and a large batch
   naturally overflows the fixed-size queues into the responders'
   flush-everything path.  Returns the ids of responders abandoned by the
   watchdog (empty in any healthy run): their TLBs must be
   force-invalidated after the update, before the caller releases the
   pmap lock. *)
let shoot ctx (cpu : Sim.Cpu.t) (pmap : Pmap.t) ~ranges ~pages ~started =
  let params = ctx.Pmap.params in
  let me = Sim.Cpu.id cpu in
  ctx.Pmap.shootdowns_initiated <- ctx.Pmap.shootdowns_initiated + 1;
  if Probe.attached ctx then Probe.emit ctx ~cpu:me Probe.Shoot;
  (* Local TLB first: the initiator's own buffer may hold the mapping. *)
  if pmap.Pmap.in_use.(me) then
    invalidate_local_ranges ctx cpu ~space:pmap.Pmap.space_id ~ranges;
  if Probe.attached ctx then Probe.emit ctx ~cpu:me Probe.Start;
  let shot_at = ref 0 in
  let abandoned = ref [] in
  if Pmap.other_users ctx pmap ~me then begin
    (* Phase 1: queue actions for every user of the pmap; interrupt the
       non-idle ones (idle processors get actions but no interrupt). *)
    let shoot_list = ref [] in
    Array.iter
      (fun (other : Sim.Cpu.t) ->
        let oid = Sim.Cpu.id other in
        if oid <> me && pmap.Pmap.in_use.(oid) then begin
          let q = ctx.Pmap.queues.(oid) in
          let saved = Sim.Spinlock.acquire q.Action.lock cpu in
          (* Injected overflow: pretend the queue just filled, forcing the
             responder down the flush-everything path. *)
          (match cpu.Sim.Cpu.fault with
          | Some f when Sim.Fault.forced_overflow f -> Action.force_overflow q
          | _ -> ());
          List.iter
            (fun (lo, hi) ->
              Action.enqueue q
                (Action.Invalidate_range
                   { space = pmap.Pmap.space_id; lo; hi });
              need_action ctx oid;
              Sim.Cpu.raw_delay cpu params.queue_action_cost;
              (* the action record and flag are uncached remote writes,
                 homed on the responder's node *)
              Sim.Bus.access ctx.Pmap.bus ~n:4 ~who:me ~home:oid ())
            ranges;
          if Probe.attached ctx then Probe.emit ctx ~cpu:me (Probe.Queue oid);
          Sim.Spinlock.release q.Action.lock cpu ~saved_ipl:saved;
          if not other.Sim.Cpu.idle then begin
            incr shot_at;
            (* omitted detail 3: skip CPUs with an interrupt already
               pending — they will service our action anyway *)
            if not (Sim.Cpu.pending_interrupt other Sim.Interrupt.Shootdown)
            then shoot_list := other :: !shoot_list
          end
        end)
      ctx.Pmap.cpus;
    let shoot_list = List.rev !shoot_list in
    send_ipis ctx cpu shoot_list;
    (* Seeded bug for the model checker's self-test (Pmap.mutant): skip
       the phase-2 acknowledgement barrier entirely and update the pmap
       while responders may still translate through the old mapping.
       Never set outside checker runs. *)
    if ctx.Pmap.mutant = Pmap.Skip_barrier then ()
    else begin
    (* Phase 2 barrier: wait for every interrupted processor to leave the
       active set or stop using the pmap.  When responders need not stall
       (software-reloaded TLB with safe ref/mod, section 9), they rejoin
       the active set immediately after invalidating, so the initiator
       instead waits for the queued action to have been processed. *)
    let acked =
      if responder_must_stall params then fun oid ->
        (not ctx.Pmap.active.(oid)) || not pmap.Pmap.in_use.(oid)
      else fun oid ->
        (not ctx.Pmap.action_needed.(oid)) || not pmap.Pmap.in_use.(oid)
    in
    let timeout = params.shoot_watchdog_timeout in
    let barrier_started = Sim.Cpu.now cpu in
    if Probe.attached ctx then Probe.emit ctx ~cpu:me Probe.Barrier;
    Sim.Cpu.prof_enter cpu Instrument.Profile.Ack_wait;
    List.iter
      (fun (other : Sim.Cpu.t) ->
        let oid = Sim.Cpu.id other in
        cpu.Sim.Cpu.note <- Pmap.await_ack_note;
        ctx.Pmap.awaiting.(me) <- oid;
        if timeout <= 0.0 then
          (* watchdog disabled: the paper's original unbounded spin *)
          while not (acked oid) do
            Sim.Cpu.spin_poll_masked cpu
          done
        else begin
          (* Watchdog: the identical spin loop, except that sim time is
             compared against a deadline after each poll (no extra cost,
             no PRNG draws).  A timeout re-sends the IPI — the original
             may have been lost — and the deadline rearms; after
             [shoot_watchdog_retries] re-sends the responder is abandoned
             and reported to the caller for forced invalidation. *)
          let deadline = ref (Sim.Cpu.now cpu +. timeout) in
          let retries = ref 0 in
          let waiting = ref true in
          while !waiting && not (acked oid) do
            Sim.Cpu.spin_poll_masked cpu;
            if (not (acked oid)) && Sim.Cpu.now cpu >= !deadline then
              if !retries < params.shoot_watchdog_retries then begin
                incr retries;
                ctx.Pmap.watchdog_retries <- ctx.Pmap.watchdog_retries + 1;
                if Probe.attached ctx then
                  Probe.emit ctx ~cpu:me (Probe.Retry oid);
                Sim.Cpu.raw_delay cpu params.ipi_send_cost;
                Sim.Bus.access ctx.Pmap.bus ~who:me ~home:oid ();
                ctx.Pmap.ipis_sent <- ctx.Pmap.ipis_sent + 1;
                Sim.Engine.after ctx.Pmap.eng params.ipi_latency (fun () ->
                    Sim.Cpu.post other Sim.Interrupt.Shootdown);
                deadline := Sim.Cpu.now cpu +. timeout
              end
              else begin
                (* escalate instead of the paper's silent infinite spin:
                   report the missing CPU, then force-invalidate it *)
                ctx.Pmap.watchdog_escalations <-
                  ctx.Pmap.watchdog_escalations + 1;
                if Probe.attached ctx then
                  Probe.emit ctx ~cpu:me
                    (Probe.Escalate
                       { target = other; pmap; retries = !retries });
                abandoned := oid :: !abandoned;
                waiting := false
              end
          done;
          if !waiting && !retries > 0 then
            ctx.Pmap.watchdog_recoveries <- ctx.Pmap.watchdog_recoveries + 1
        end)
      shoot_list;
    Sim.Cpu.prof_leave cpu;
    Sim.Cpu.prof_observe cpu ~name:"shoot/barrier_us"
      (Sim.Cpu.now cpu -. barrier_started);
    if Probe.attached ctx then Probe.emit ctx ~cpu:me Probe.Barrier_done
    end
  end;
  (* A round with no remote users (or the checker's skip-barrier mutant)
     never reached the barrier: Flight collapses Post/Ack_wait here. *)
  if Probe.attached ctx then Probe.emit ctx ~cpu:me Probe.Shoot_done;
  let elapsed = Sim.Cpu.now cpu -. started in
  (* A shootdown event proper requires somebody to shoot at; invocations
     that found no other processor using the pmap only did local work. *)
  if !shot_at > 0 then begin
    ctx.Pmap.shootdown_initiator_time <-
      ctx.Pmap.shootdown_initiator_time +. elapsed;
    Sim.Cpu.prof_observe cpu ~name:"shoot/initiator_us" elapsed;
    Xpr.record ctx.Pmap.xpr ~code:Xpr.Shoot_initiator ~cpu:me
      ~timestamp:(Sim.Cpu.now cpu)
      ~arg1:(if pmap.Pmap.is_kernel then 1 else 0)
      ~arg2:pages ~arg3:!shot_at ~farg:elapsed ()
  end;
  List.rev !abandoned

(* MC88200-style hardware remote invalidation (section 9): the initiator
   shoots entries directly out of CPU [oid]'s TLB; no interrupts, no
   barrier.  Requires an MMU whose ref/mod updates are interlocked.
   [report] puts the invalidation on the probe stream. *)
let remote_invalidate ctx (cpu : Sim.Cpu.t) (pmap : Pmap.t) ~ranges ~report
    oid =
  let params = ctx.Pmap.params in
  if pmap.Pmap.in_use.(oid) then begin
    let tlb = Mmu.tlb ctx.Pmap.mmus.(oid) in
    let space = pmap.Pmap.space_id in
    let pages = range_pages ranges in
    let flush = pages >= params.tlb_flush_threshold in
    if flush then Tlb.flush_space tlb ~space
    else
      List.iter
        (fun (lo, hi) -> Tlb.invalidate_range tlb ~space ~lo ~hi)
        ranges;
    if report && Probe.attached ctx then
      Probe.emit ctx ~cpu:oid (Probe.Tlb { space; pages; flush });
    (* one bus invalidation transaction per page (or one for a flush) *)
    let n = min pages params.tlb_flush_threshold in
    Sim.Cpu.raw_delay cpu (params.tlb_entry_invalidate_cost *. float_of_int n);
    Sim.Bus.access ctx.Pmap.bus ~n ~who:(Sim.Cpu.id cpu) ~home:oid ()
  end

let hw_remote_invalidate ctx cpu pmap ~ranges =
  for oid = 0 to Pmap.ncpus ctx - 1 do
    remote_invalidate ctx cpu pmap ~ranges ~report:false oid
  done

(* Recovery for abandoned responders: with the pmap already updated (and
   still locked), shoot the affected range out of each abandoned CPU's TLB
   directly, Hw_remote-style.  Safe at this point for the same reason
   Hw_remote is safe after the update: a hardware reload racing us reads
   the already-final PTE, and any stale cached entry is destroyed before
   the pmap lock is released.  Doing this *before* the update would be
   unsound — the un-acknowledged CPU could re-cache the old mapping. *)
let force_remote_invalidate ctx cpu pmap ~ranges targets =
  List.iter (remote_invalidate ctx cpu pmap ~ranges ~report:true) targets

(* ------------------------------------------------------------------ *)
(* Generation-tagged flush elision (docs/ELISION.md).

   When an unmap would have to run a shootdown round only because remote
   TLBs might cache the dying range, the initiator can instead bump the
   space's generation counter and publish it to every TLB: entries
   stamped with an older generation are rejected (and evicted) at their
   next lookup, before any access is granted or any ref/mod bit written
   back — so the tag mismatch is as good as an invalidate.  The round,
   its IPIs and the ack barrier all disappear; the price is one coherent
   version-word store and later reload misses on pages that were going
   away anyway.

   The counter must never wrap onto a stamp that is still resident: at
   [gen_limit] the space is flushed for real everywhere and the counter
   restarts (a 2^30 budget makes this a never-in-practice repair). *)

let gen_limit = 1 lsl 30

let elide_round ctx (cpu : Sim.Cpu.t) (pmap : Pmap.t) =
  let params = ctx.Pmap.params in
  ctx.Pmap.elision_rounds_elided <- ctx.Pmap.elision_rounds_elided + 1;
  (* The seeded mutant skips the bump but still skips the round: remote
     stale entries stay fully live, which the model checker must catch. *)
  if ctx.Pmap.mutant <> Pmap.Skip_generation_bump then begin
    if pmap.Pmap.generation + 1 >= gen_limit then begin
      ctx.Pmap.elision_wrap_flushes <- ctx.Pmap.elision_wrap_flushes + 1;
      Array.iter
        (fun mmu -> Tlb.flush_space (Mmu.tlb mmu) ~space:pmap.Pmap.space_id)
        ctx.Pmap.mmus;
      pmap.Pmap.generation <- 1
    end
    else pmap.Pmap.generation <- pmap.Pmap.generation + 1;
    ctx.Pmap.elision_gen_bumps <- ctx.Pmap.elision_gen_bumps + 1;
    Array.iter
      (fun mmu ->
        Tlb.set_generation (Mmu.tlb mmu) ~space:pmap.Pmap.space_id
          ~gen:pmap.Pmap.generation)
      ctx.Pmap.mmus;
    Sim.Cpu.raw_delay cpu params.gen_bump_cost;
    Sim.Bus.access ctx.Pmap.bus ~who:(Sim.Cpu.id cpu) ()
  end

(* ------------------------------------------------------------------ *)
(* The initiator entry point used by every pmap operation.

   [may_be_inconsistent] decides — under the pmap lock — whether the update
   can leave stale rights in any TLB (it embodies the lazy-evaluation
   check).  [update] performs the actual page-table modification.

   [with_update_ranges] is the general form used by [Gather.flush]: all
   the listed ranges are retired in one protocol round.  [with_update] is
   the historical single-range form every unbatched pmap operation uses;
   it delegates with a singleton list, which executes the exact same
   sequence of costs, bus accesses and trace events as it always did.

   [elide_reuse] marks call sites whose update only *removes* mappings
   (unmap / unmap-heavy batch): for those — and only with
   [Params.elide_reuse_flushes] on, for a user pmap with remote users —
   the round is elided via [elide_round] above. *)
let with_update_ranges ?(elide_reuse = false)
    ?(origin = Instrument.Flight.Round) ctx (cpu : Sim.Cpu.t) (pmap : Pmap.t)
    ~ranges ~may_be_inconsistent ~update =
  let params = ctx.Pmap.params in
  let me = Sim.Cpu.id cpu in
  (* Completion hook for the consistency oracle (cost-free when absent).
     Called after the protocol finishes, in every policy branch — which is
     exactly how the oracle proves Shootdown right and No_consistency
     wrong. *)
  let check_oracle reason =
    match ctx.Pmap.oracle_check with Some f -> f reason | None -> ()
  in
  match params.consistency with
  | Sim.Params.No_consistency | Sim.Params.Deferred_free _ ->
      (* Local invalidation only; remote TLBs are left inconsistent.  For
         Deferred_free the safety comes from the VM layer quarantining
         freed frames until every TLB has flushed — sufficient only under
         System V restrictions (section 10, Thompson et al.). *)
      let saved = Sim.Spinlock.acquire pmap.Pmap.lock cpu in
      if may_be_inconsistent () && pmap.Pmap.in_use.(me) then
        invalidate_local_ranges ctx cpu ~space:pmap.Pmap.space_id ~ranges;
      update ();
      Sim.Spinlock.release pmap.Pmap.lock cpu ~saved_ipl:saved;
      check_oracle "update-complete"
  | Sim.Params.Timer_flush period ->
      let saved = Sim.Spinlock.acquire pmap.Pmap.lock cpu in
      let inconsistent = may_be_inconsistent () in
      if inconsistent && pmap.Pmap.in_use.(me) then
        invalidate_local_ranges ctx cpu ~space:pmap.Pmap.space_id ~ranges;
      update ();
      Sim.Spinlock.release pmap.Pmap.lock cpu ~saved_ipl:saved;
      (* Technique 2 (section 3): every CPU flushes its TLB on a periodic
         timer; the changed mapping may not be relied upon until a full
         period has elapsed.  The cost is this delay.  (The oracle is
         checked only after the wait: mid-window staleness is the policy's
         documented semantics, not a bug.) *)
      if inconsistent && Pmap.other_users ctx pmap ~me then
        Sim.Cpu.step cpu period;
      check_oracle "update-complete"
  | Sim.Params.Hw_remote ->
      (* Section 9: change the page tables first, then shoot the entries
         out of every TLB.  A hardware reload racing the update reads the
         already-final PTE; a stale cached entry is destroyed before the
         operation returns.  (Requires interlocked ref/mod writeback, as
         on the MC88200 — a stale writeback during the window must not
         blindly corrupt the updated PTE.) *)
      let saved = Sim.Spinlock.acquire pmap.Pmap.lock cpu in
      let inconsistent = may_be_inconsistent () in
      update ();
      if inconsistent then hw_remote_invalidate ctx cpu pmap ~ranges;
      Sim.Spinlock.release pmap.Pmap.lock cpu ~saved_ipl:saved;
      check_oracle "update-complete"
  | Sim.Params.Shootdown ->
      (* The flight record opens where the algorithm is entered, before
         the active-set leave and the lock acquire, so Lock_wait covers
         the full entry-to-locked interval. *)
      if Probe.attached ctx then
        Probe.emit ctx ~cpu:me
          (Probe.Round_start
             { kind = origin; pmap; pages = range_pages ranges });
      (* Figure 1: disable interrupts and leave the active set first, so a
         concurrent initiator shooting at us cannot deadlock with our wait
         (we will service its actions when we re-enable interrupts). *)
      let s = Sim.Cpu.set_ipl cpu Sim.Interrupt.ipl_high in
      let was_active = ctx.Pmap.active.(me) in
      ctx.Pmap.active.(me) <- false;
      (* the initiator phases below, up to Done, all name this pmap *)
      ctx.Pmap.phase_pmap.(me) <- pmap;
      ctx.Pmap.phase.(me) <- Pmap.Acquiring;
      let saved = Sim.Spinlock.acquire pmap.Pmap.lock cpu in
      ctx.Pmap.phase.(me) <- Pmap.Locked;
      (* The measured "invocation" starts here: the paper's elapsed time
         runs from entering the algorithm to being able to change the
         pmap, including the fixed bookkeeping below. *)
      let started = Sim.Cpu.now cpu in
      if Probe.attached ctx then Probe.emit ctx ~cpu:me Probe.Lock;
      Sim.Cpu.raw_delay cpu params.shoot_entry_cost;
      let inconsistent = may_be_inconsistent () in
      (* Elide the round when the caller vouches the update only removes
         mappings: a generation bump retires remote staleness without
         IPIs.  The kernel pmap is excluded (its generation never moves:
         bumping it would logically flush every CPU's kernel working
         set), and without remote users the plain path is already
         IPI-free and cheaper. *)
      let elide =
        elide_reuse
        && params.elide_reuse_flushes
        && (not pmap.Pmap.is_kernel)
        && inconsistent
        && Pmap.other_users ctx pmap ~me
      in
      let abandoned =
        if inconsistent && not elide then begin
          ctx.Pmap.phase.(me) <- Pmap.Shooting;
          shoot ctx cpu pmap ~ranges ~pages:(range_pages ranges) ~started
        end
        else begin
          if not inconsistent then begin
            ctx.Pmap.shootdowns_skipped_lazy <-
              ctx.Pmap.shootdowns_skipped_lazy + 1;
            (* the lazy check proved no consistency round necessary —
               nothing to attribute, drop the open record *)
            if Probe.attached ctx then Probe.emit ctx ~cpu:me Probe.Lazy_skip
          end
          else if Probe.attached ctx then
            (* elided round: no IPIs, no barrier — Post and Ack_wait
               collapse to zero width at the decision point *)
            Probe.emit ctx ~cpu:me Probe.Elided;
          []
        end
      in
      (* Phase 3: the pmap change itself. *)
      ctx.Pmap.phase.(me) <- Pmap.Updating;
      let update_started = Sim.Cpu.now cpu in
      update ();
      if Probe.attached ctx then Probe.emit ctx ~cpu:me Probe.Updated;
      if inconsistent then
        Sim.Cpu.prof_observe cpu ~name:"shoot/update_us"
          (Sim.Cpu.now cpu -. update_started);
      (* An elided round publishes its generation bump after the PTEs are
         gone (mirroring Hw_remote's update-then-invalidate order): a
         hardware reload racing the update reads the already-cleared PTE
         and caches nothing, so no entry under the *new* generation can
         resurrect the dead mapping.  Still under the pmap lock, which
         serializes concurrent bumps of the same space. *)
      if elide then begin
        ctx.Pmap.phase.(me) <- Pmap.Gen_bump;
        elide_round ctx cpu pmap
      end;
      (* Recovery: responders the watchdog abandoned never acknowledged,
         so their TLBs may still hold the old mapping — destroy it
         directly while the pmap lock still serializes against reloads
         through a half-changed table. *)
      if abandoned <> [] then begin
        ctx.Pmap.phase.(me) <- Pmap.Force_invalidate;
        force_remote_invalidate ctx cpu pmap ~ranges abandoned
      end;
      Sim.Spinlock.release pmap.Pmap.lock cpu ~saved_ipl:saved;
      if inconsistent && (not elide) && Probe.attached ctx then
        Probe.emit ctx ~cpu:me Probe.Unlocked;
      ctx.Pmap.phase.(me) <- Pmap.Done;
      ctx.Pmap.active.(me) <- was_active;
      (* The record closes here, *before* interrupts are re-enabled:
         restore_ipl services any device interrupt that arrived while the
         initiator ran masked, and that deferred handler time belongs to
         the device, not to this round's Finish residual. *)
      if Probe.attached ctx then Probe.emit ctx ~cpu:me Probe.Round_end;
      Sim.Cpu.restore_ipl cpu s;
      check_oracle "shootdown-complete"

let with_update ?(elide_reuse = false) ctx cpu pmap ~lo ~hi
    ~may_be_inconsistent ~update =
  with_update_ranges ~elide_reuse ctx cpu pmap
    ~ranges:[ (lo, hi) ]
    ~may_be_inconsistent ~update
