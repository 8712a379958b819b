(* The seeded trial grid every sweep in this directory runs on.

   Figure 2's method — k = 1..15 tester children, several seeded runs per
   point, a fresh machine per run — is reused by the knee and tail
   analyses, the scale ladder, and the scaling, resilience and
   hardware-option sweeps.  What they share lives here, once: the
   (point, run) grid fanned out over the domain pool, the Figure 2 seed,
   one tester trial with a recorder attached, the ordered per-point merge
   of recorders, and the contention-profile shares. *)

module Profile = Instrument.Profile
module Flight = Instrument.Flight
module Histogram = Instrument.Histogram
module Tester = Workloads.Tlb_tester

(* Run [trial] on every (point, run) pair, [runs] runs per point, over
   [jobs] domains; return each point with its trials in run order.  A
   trial must derive everything from its (point, run) pair, which is
   what makes the result identical at any [jobs]. *)
let grid ~jobs ~runs points trial =
  if runs < 1 then invalid_arg "Sweep.grid: runs must be >= 1";
  let results =
    Array.of_list
      (Sim.Domain_pool.map_trials ~jobs trial
         (List.concat_map (fun p -> List.init runs (fun r -> (p, r))) points))
  in
  List.mapi
    (fun i p -> (p, List.init runs (fun r -> results.((i * runs) + r))))
    points

(* The Figure 2 seed of run [r] at the point with [k] children (or, on
   the scale ladder, [k] CPUs): every point is reproducible alone. *)
let seed k r = Int64.of_int ((1000 * k) + r + 1)

(* Figure 2's points: 1..max_procs tester children. *)
let procs max_procs = List.init max_procs succ

type recorder = Bare | Profiled of Profile.t | Recorded of Flight.t

(* One tester trial on a fresh machine booted from [params] with [seed],
   [recorder] attached.  A profile's total is set to the final clock so
   its idle share is exact.  The machine is returned for the counters the
   result does not carry. *)
let tester ?churn_rounds ~params ~recorder ~children seed =
  let machine = Vm.Machine.create ~params:{ params with Sim.Params.seed } () in
  (match recorder with
  | Bare -> ()
  | Profiled p -> Vm.Machine.attach_profile machine p
  | Recorded f -> Vm.Machine.attach_flight machine f);
  let res = Tester.run ?churn_rounds machine ~children () in
  (match recorder with
  | Profiled p -> Profile.set_total p (Vm.Machine.now machine)
  | Bare | Recorded _ -> ());
  (res, machine)

let elapsed trials =
  List.map (fun ((res : Tester.result), _) -> res.initiator_elapsed) trials

let all_consistent grid =
  List.for_all
    (fun (_, trials) ->
      List.for_all (fun ((res : Tester.result), _) -> res.consistent) trials)
    grid

(* Merge a point's recorders into the first, in run order — the same
   result at any job count. *)
let merge merge_into = function
  | [] -> invalid_arg "Sweep.merge: empty point"
  | first :: rest ->
      List.iter (fun x -> merge_into ~into:first x) rest;
      first

(* The point at [cpus] CPUs, if the sweep reached it. *)
let at cpus_of cpus points = List.find_opt (fun p -> cpus_of p = cpus) points

(* The points at [lo] and [hi] CPUs, if the sweep reached both. *)
let bracket cpus_of ~lo ~hi points =
  match (at cpus_of lo points, at cpus_of hi points) with
  | Some a, Some b -> Some (a, b)
  | _ -> None

let frac num den = if den > 0.0 then num /. den else 0.0

(* Where a profile's attributed (non-idle) CPU time went, and the mean
   bus queue depth seen at enqueue. *)
type shares = {
  bus_wait : float;
  interconnect_wait : float;
  lock_spin : float;
  ack_wait : float;
  queue_depth : float;
}

let shares profile =
  let attributed = Profile.attributed_total profile in
  let share c = frac (Profile.category_total profile c) attributed in
  {
    bus_wait = share Profile.Bus_wait;
    interconnect_wait = share Profile.Interconnect_wait;
    lock_spin = share Profile.Lock_spin;
    ack_wait = share Profile.Ack_wait;
    queue_depth =
      (match Profile.histogram profile ~name:"bus/queue_depth" with
      | Some h when Histogram.count h > 0 -> Histogram.mean h
      | Some _ | None -> 0.0);
  }

(* One bar per (cpus, share), scaled to the largest share. *)
let share_bars title bars =
  let width = 48 in
  let maxv = List.fold_left (fun m (_, v) -> Float.max m v) 1e-9 bars in
  String.concat ""
    (Printf.sprintf "\n%s:\n" title
    :: List.map
         (fun (cpus, v) ->
           let bar = int_of_float (v /. maxv *. float_of_int width) in
           Printf.sprintf "%2d %s %5.1f%%\n" cpus (String.make bar '#')
             (100.0 *. v))
         bars)
