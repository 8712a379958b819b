(* A simulated processor.

   A CPU is not itself a coroutine: whichever coroutine currently executes
   on the CPU (a thread, or the per-CPU idle loop) advances time through
   [step]/[spin_poll]/[raw_delay] and thereby also takes the CPU's pending
   interrupts.  Interrupt handlers run inline in that coroutine, exactly as
   an interrupt service routine borrows the interrupted context on real
   hardware. *)

(* A CPU's float state.  A record of floats only stores its fields
   unboxed, so the hot paths update them without allocating. *)
type acct = {
  mutable busy_time : float;
  mutable spin_time : float;
  mutable store_backlog : float; (* fractional store-traffic accumulator *)
  mutable sleep_dt : float; (* argument slot of the interruptible sleep *)
}

type t = {
  id : int;
  eng : Engine.t;
  bus : Bus.t;
  params : Params.t;
  prng : Prng.t;
  ctl : Interrupt.controller;
  mutable ipl : Interrupt.level;
  mutable sleeper : Engine.wakener; (* current interruptible sleep;
                                       [Engine.no_wakener] when awake *)
  mutable sleep : Engine.suspension;
      (* [interruptible_sleep]'s suspend request, built once *)
  mutable idle : bool;
  mutable in_interrupt : bool;
  mutable shootdown_handler : t -> unit;
  mutable device_handler : t -> unit;
  fault : Fault.t option; (* per-CPU fault injector; None = healthy *)
  acct : acct; (* accounting, and the sleep duration *)
  mutable interrupts_taken : int;
  mutable note : string; (* diagnostic: what this CPU is currently doing *)
  mutable profile : Instrument.Profile.t option;
      (* contention profiler; None (and cost-free) unless attached *)
  mutable last_shoot_posted_at : float;
      (* raise time of the shootdown IPI currently being dispatched
         (earliest post when coalesced); nan outside a dispatch.  Read by
         the flight recorder's responder_enter hook to split delivery
         latency from handler time (docs/TAIL.md). *)
}

let id t = t.id
let now t = Engine.now t.eng
let params t = t.params

(* Contention-profiler brackets and samples, for this module and the
   layers above (Spinlock, the shootdown algorithm).  Each is one branch
   of cost while no profiler is attached — the same contract as
   tracing. *)
let prof_enter t cat =
  match t.profile with
  | Some prof -> Instrument.Profile.enter prof ~cpu:t.id ~at:(now t) cat
  | None -> ()

let prof_leave t =
  match t.profile with
  | Some prof -> Instrument.Profile.leave prof ~cpu:t.id ~at:(now t)
  | None -> ()

let prof_observe t ~name v =
  match t.profile with
  | Some prof -> Instrument.Profile.observe prof ~name v
  | None -> ()

(* Multiplicative cost noise; models cycle-level nondeterminism. *)
let jittered t cost =
  if t.params.cost_jitter <= 0.0 then cost
  else cost *. Prng.jitter t.prng t.params.cost_jitter

(* Advance time without checking interrupts: used inside handlers and
   explicitly-disabled regions. *)
let raw_delay t cost =
  let cost = jittered t cost in
  t.acct.busy_time <- t.acct.busy_time +. cost;
  (match t.profile with
  | Some prof -> Instrument.Profile.account prof ~cpu:t.id cost
  | None -> ());
  Engine.delay cost

(* Advance time interruptibly: if an interrupt is posted mid-sleep, the
   sleep is cut short so the handler's latency is the dispatch cost, not
   the remaining sleep.  Every [step] slice sleeps through it, so the
   suspend request is built once per CPU and the duration travels through
   [acct.sleep_dt].  The idle loop parks through its own request, with
   the poll-lane registration ([arm_poll]). *)
let[@inline] interruptible_sleep t dt =
  t.acct.sleep_dt <- dt;
  Engine.suspend_with t.sleep;
  t.sleeper <- Engine.no_wakener

(* The idle loop's interruptible sleep registration: record the wakener,
   so that a posted interrupt cuts the sleep short, and arm the timer
   that ends the sleep after [acct.sleep_dt], in the engine's poll lane. *)
let arm_poll t w =
  t.sleeper <- w;
  Engine.poll_after t.eng t.acct.sleep_dt w

let has_deliverable t =
  match Interrupt.deliverable t.ctl ~ipl:t.ipl with
  | Some _ -> true
  | None -> false

(* Interrupt nesting follows priority: inside a handler the IPL equals the
   handler's level, so only strictly higher-priority interrupts (e.g. the
   section 9 high-priority shootdown during a device handler) preempt. *)
let rec check_interrupts t =
    match Interrupt.deliverable t.ctl ~ipl:t.ipl with
    | None -> ()
    | Some p ->
        (* Model-checker choice point: hardware gives no lower bound on
           delivery latency, so a deliverable interrupt may be deferred
           past this poll.  Deferral leaves it pending — the next poll
           offers the choice again, and simulated time always advances
           between polls, so a schedule cannot defer forever within its
           event budget. *)
        let deliver =
          match Engine.explore t.eng with
          | None -> true
          | Some ex -> Explore.choose ex Explore.Intr 2 = 0
        in
        if deliver then begin
        Interrupt.take t.ctl p;
        let saved_ipl = t.ipl in
        t.ipl <- p.level;
        let was_in_interrupt = t.in_interrupt in
        t.in_interrupt <- true;
        t.interrupts_taken <- t.interrupts_taken + 1;
        (match t.profile with
        | Some prof ->
            (* Delivery latency runs from the line being raised at this
               CPU (earliest post when coalesced) to dispatch. *)
            (match p.kind with
            | Interrupt.Shootdown ->
                Instrument.Profile.observe prof ~name:"ipi/delivery_us"
                  (Engine.now t.eng -. p.posted_at)
            | Interrupt.Device -> ());
            Instrument.Profile.enter prof ~cpu:t.id ~at:(Engine.now t.eng)
              Instrument.Profile.Intr_dispatch
        | None -> ());
        (* Injected responder stall: the interrupt was taken but the CPU
           sits in an overlong masked section before servicing it — the
           section 6 worry about device-level interrupt disablement. *)
        (match (t.fault, p.kind) with
        | Some f, Interrupt.Shootdown -> (
            match Fault.responder_stall f with
            | Some stall -> raw_delay t stall
            | None -> ())
        | _ -> ());
        (* Vectoring plus register save; the save is a burst of writes
           through the write-through cache onto the bus. *)
        raw_delay t t.params.intr_dispatch_cost;
        Bus.access t.bus ~n:t.params.intr_dispatch_bus_writes ~who:t.id ();
        (match p.kind with
        | Interrupt.Shootdown ->
            t.last_shoot_posted_at <- p.posted_at;
            t.shootdown_handler t;
            t.last_shoot_posted_at <- nan
        | Interrupt.Device -> t.device_handler t);
        raw_delay t t.params.intr_return_cost;
        prof_leave t;
        t.in_interrupt <- was_in_interrupt;
        t.ipl <- saved_ipl;
        (* Lowering the level may expose further pending interrupts. *)
        check_interrupts t
        end

(* Service time that passes at a raised IPL but still lets strictly
   higher-priority interrupts in at short intervals — how real handlers
   and spl-protected sections behave. *)
let masked_service t cost =
  let remaining = ref cost in
  while !remaining > 1e-6 do
    let chunk = Float.min 40.0 !remaining in
    raw_delay t chunk;
    remaining := !remaining -. chunk;
    check_interrupts t
  done

(* A device interrupt handler: exponential service time at device IPL,
   preemptible by strictly higher-priority interrupts. *)
let default_device_handler cpu =
  masked_service cpu (Prng.exponential cpu.prng cpu.params.device_intr_service)

let create eng bus (params : Params.t) ~id =
  let t =
  {
    id;
    eng;
    bus;
    params;
    prng = Prng.create (Int64.add params.seed (Int64.of_int (0x1000 * (id + 1))));
    ctl = Interrupt.make_controller ();
    ipl = Interrupt.ipl_none;
    sleeper = Engine.no_wakener;
    sleep = Engine.suspension ignore;
    idle = true;
    in_interrupt = false;
    shootdown_handler = (fun _ -> ());
    device_handler = default_device_handler;
    fault =
      Fault.injector params.faults
        ~seed:(Int64.logxor params.seed (Int64.of_int (0xFA017 * (id + 1))));
    acct =
      { busy_time = 0.0; spin_time = 0.0; store_backlog = 0.0; sleep_dt = 0.0 };
    interrupts_taken = 0;
    note = "boot";
    profile = None;
    last_shoot_posted_at = nan;
  }
  in
  t.sleep <-
    Engine.suspension (fun w ->
        t.sleeper <- w;
        Engine.wake_after t.eng t.acct.sleep_dt w);
  t

(* Post an interrupt to this CPU (from any coroutine).  If the CPU is in an
   interruptible sleep and the interrupt is deliverable, cut the sleep
   short so it is noticed immediately. *)
let really_post t kind =
  let level = Interrupt.level_of t.params kind in
  Interrupt.post t.ctl { kind; level; posted_at = Engine.now t.eng };
  if level > t.ipl then Engine.wake t.eng t.sleeper

(* The fault injector intercepts shootdown IPIs on the *target* side of
   the wire: the initiator has already paid the send cost and bus access,
   but the interrupt may be lost or arrive late. *)
let post t kind =
  match (t.fault, kind) with
  | Some f, Interrupt.Shootdown -> (
      match Fault.ipi_fate f with
      | Fault.Deliver -> really_post t kind
      | Fault.Drop -> ()
      | Fault.Delay extra ->
          Engine.after ~label:"fault-ipi-delay" t.eng extra (fun () ->
              really_post t kind))
  | _ -> really_post t kind

let pending_interrupt t kind = Interrupt.has_pending t.ctl kind

(* Advance [cost] microseconds of computation, taking deliverable
   interrupts at slice boundaries. *)
let step t cost =
  check_interrupts t;
  (* Track remaining *work*, not a deadline: time spent in interrupt
     handlers does not count against the interrupted computation.  The
     10^-6 us threshold (and the no-progress guard below) keep float
     round-off from leaving a sub-ULP remainder that could never elapse.
     A loop over local float refs, which stay unboxed. *)
  let remaining = ref (jittered t cost) in
  let progressing = ref true in
  let a = t.acct in
  while !progressing && !remaining > 1e-6 do
    let t0 = now t in
    interruptible_sleep t !remaining;
    let elapsed = now t -. t0 in
    if elapsed <= 0.0 then progressing := false (* below clock resolution *)
    else begin
      a.busy_time <- a.busy_time +. elapsed;
      (match t.profile with
      | Some prof -> Instrument.Profile.account prof ~cpu:t.id elapsed
      | None -> ());
      (* Write-through stores from this computation occupy the shared bus
         (without stalling us): the source of multi-CPU congestion. *)
      a.store_backlog <-
        a.store_backlog +. (elapsed *. t.params.store_traffic_rate);
      let stores = int_of_float a.store_backlog in
      if stores > 0 then begin
        a.store_backlog <- a.store_backlog -. float_of_int stores;
        Bus.post_async t.bus ~who:t.id ~n:stores ()
      end;
      check_interrupts t;
      remaining := !remaining -. elapsed
    end
  done

(* One spin-loop iteration on a shared flag.  Most polls hit the local
   write-through cache; a fraction miss and go to the bus. *)
let spin_poll t =
  check_interrupts t;
  let t0 = now t in
  raw_delay t t.params.spin_poll;
  if Prng.float t.prng < t.params.spin_miss_rate then
    Bus.access t.bus ~who:t.id ();
  t.acct.spin_time <- t.acct.spin_time +. (now t -. t0)

(* Spin with interrupts implicitly disabled (no [check_interrupts]); used
   by the shootdown algorithm whose spins occur at raised IPL. *)
let spin_poll_masked t =
  let t0 = now t in
  raw_delay t t.params.spin_poll;
  if Prng.float t.prng < t.params.spin_miss_rate then
    Bus.access t.bus ~who:t.id ();
  t.acct.spin_time <- t.acct.spin_time +. (now t -. t0)

let set_ipl t level =
  let old = t.ipl in
  t.ipl <- level;
  if level < old then check_interrupts t;
  old

let ipl t = t.ipl

(* splx: restore a saved level, delivering anything it unmasks. *)
let restore_ipl t saved =
  t.ipl <- saved;
  check_interrupts t

(* Run [f] with all interrupts masked. *)
let with_disabled t f =
  let saved = set_ipl t Interrupt.ipl_high in
  let finish () = restore_ipl t saved in
  (try f ()
   with e ->
     finish ();
     raise e);
  finish ()

(* Kernel-mode computation: like [step], but sprinkled with short sections
   run at device IPL, modelling the kernel's widespread interrupt
   disablement that the paper identifies as the cause of the extra latency
   and skew of kernel-pmap shootdowns. *)
let kernel_step t cost =
  let rate = t.params.spl_section_rate in
  if rate <= 0.0 then step t cost
  else begin
    let remaining = ref cost in
    while !remaining > 1e-6 do
      let until_section = Prng.exponential t.prng rate in
      if until_section >= !remaining then begin
        step t !remaining;
        remaining := 0.0
      end
      else begin
        step t until_section;
        remaining := !remaining -. until_section;
        let saved = set_ipl t Interrupt.ipl_device in
        masked_service t (Prng.exponential t.prng t.params.spl_section_mean);
        restore_ipl t saved
      end
    done
  end
