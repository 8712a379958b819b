(* Scale sweep: Figure 2 pushed from the Multimax's 4-16 CPUs to a
   64-1024-CPU hierarchical NUMA machine (docs/TOPOLOGY.md).

   Section 8 of the paper extrapolates the measured shootdown cost as
   430 us + 55 us/processor and asks whether the software protocol
   survives on much larger machines.  Each point here boots a fresh
   clustered machine of n CPUs (cluster buses joined by one
   interconnect), runs the section 5.1 tester with n-1 children — one
   shootdown involving every processor — and compares the measured
   initiator elapsed against that linear extrapolation.  The contention
   profiler rides along, so every point carries the knee attribution:
   the shares of attributed CPU time spent on the cluster buses, on the
   interconnect and at the ack barrier.  The deviation column is the
   headline: where it grows with n, the curve has left the paper's
   line and the growth is super-linear in the processor count.

   A numaPTE-style ablation rides along at the largest scale <= 256:
   with the pmap resident on a single cluster, cluster-targeted
   multicast (interrupt only the clusters in the pmap's active set) is
   compared against broadcast (every node pays bus traffic and an
   interrupt).  The gate checks that targeting strictly reduces IPIs. *)

module Json = Instrument.Json
module Profile = Instrument.Profile
module Stats = Instrument.Stats
module Tablefmt = Instrument.Tablefmt

type point = {
  cpus : int;
  clusters : int;
  mean_elapsed : float; (* mean initiator elapsed over the runs, us *)
  extrapolated : float; (* the paper's 430 + 55/processor line *)
  deviation : float; (* mean_elapsed / extrapolated *)
  shares : Sweep.shares; (* of the merged profile; cluster-bus depth *)
  profile : Profile.t; (* merged across the point's runs *)
}

type ablation = {
  ablation_cpus : int; (* machine size the ablation ran at *)
  resident_cpus : int; (* tester children + initiator, all on cluster 0 *)
  targeted_elapsed : float; (* mean, cluster-targeted multicast *)
  targeted_ipis : int;
  broadcast_elapsed : float; (* mean, broadcast *)
  broadcast_ipis : int;
}

type t = {
  points : point list;
  runs_per_point : int;
  cluster_size : int;
  all_consistent : bool;
  ablation : ablation option;
}

let quick_scales = [ 4; 16; 64; 256 ]
let full_scales = [ 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

(* Derive a machine of [n] CPUs in clusters of [cluster_size] from the
   default parameters.  The watchdog budget scales with n: a shootdown
   with ~1000 responders serialising acks over shared buses
   legitimately outlives the 16-CPU default timeout, and a spurious
   escalation would force-invalidate TLBs and distort the very curve
   being measured. *)
let scale_params ~cluster_size n =
  let base = Sim.Params.default in
  {
    base with
    Sim.Params.ncpus = n;
    topology = { base.Sim.Params.topology with Sim.Params.cluster_size };
    shoot_watchdog_timeout =
      Float.max base.Sim.Params.shoot_watchdog_timeout
        (200.0 *. float_of_int n);
  }

let extrapolate n = 430.0 +. (55.0 *. float_of_int n)

let run ?(jobs = 1) ?(scales = quick_scales) ?(runs_per_point = 3)
    ?(cluster_size = 16) () =
  if scales = [] then invalid_arg "Scale1024.run: empty scale list";
  if cluster_size < 2 then invalid_arg "Scale1024.run: cluster_size must be >= 2";
  let scales = List.sort_uniq compare scales in
  (* One (n CPUs, run r) trial: the tester with n-1 children — the
     maximum one counter page supports is 1023 children, which is exactly
     the 1024-CPU point.  The Figure 2 seed takes n in k's place. *)
  let grid =
    Sweep.grid ~jobs ~runs:runs_per_point scales (fun (n, r) ->
        let profile = Profile.create ~ncpus:n () in
        let res, _ =
          Sweep.tester ~params:(scale_params ~cluster_size n)
            ~recorder:(Sweep.Profiled profile) ~children:(n - 1)
            (Sweep.seed n r)
        in
        (res, profile))
  in
  let point (cpus, trials) =
    let mean_elapsed = Stats.mean (Sweep.elapsed trials) in
    let extrapolated = extrapolate cpus in
    let profile = Sweep.merge Profile.merge (List.map snd trials) in
    {
      cpus;
      clusters = (cpus + cluster_size - 1) / cluster_size;
      mean_elapsed;
      extrapolated;
      deviation = mean_elapsed /. extrapolated;
      shares = Sweep.shares profile;
      profile;
    }
  in
  (* Ablation at the largest swept scale <= 256 with at least two
     clusters: a tester task resident on cluster 0 only, targeted
     multicast vs. broadcast, with ipis = the most any run sent. *)
  let abl_n =
    List.fold_left
      (fun acc n -> if n <= 256 && n >= 2 * cluster_size then n else acc)
      0 scales
  in
  let ablation, ablation_consistent =
    if abl_n = 0 then (None, true)
    else begin
      let modes = [ Sim.Params.Multicast; Sim.Params.Broadcast ] in
      let abl =
        Sweep.grid ~jobs ~runs:runs_per_point modes (fun (mode, r) ->
            let res, machine =
              Sweep.tester
                ~params:
                  { (scale_params ~cluster_size abl_n) with
                    Sim.Params.ipi_mode = mode }
                ~recorder:Sweep.Bare ~children:(cluster_size - 1)
                (Int64.of_int ((1_000_000 * abl_n) + r + 1))
            in
            (res, machine.Vm.Machine.ctx.Core.Pmap.ipis_sent))
      in
      let mean mode = Stats.mean (Sweep.elapsed (List.assoc mode abl)) in
      let ipis mode =
        List.fold_left (fun acc (_, i) -> max acc i) 0 (List.assoc mode abl)
      in
      ( Some
          {
            ablation_cpus = abl_n;
            resident_cpus = cluster_size;
            targeted_elapsed = mean Sim.Params.Multicast;
            targeted_ipis = ipis Sim.Params.Multicast;
            broadcast_elapsed = mean Sim.Params.Broadcast;
            broadcast_ipis = ipis Sim.Params.Broadcast;
          },
        Sweep.all_consistent abl )
    end
  in
  {
    points = List.map point grid;
    runs_per_point;
    cluster_size;
    all_consistent = Sweep.all_consistent grid && ablation_consistent;
    ablation;
  }

(* ------------------------------------------------------------------ *)
(* The CI gate. *)

(* The measured curve has left the paper's line when the deviation at
   the largest point is clearly above the deviation at the smallest —
   the threshold leaves room for small-machine noise while still
   requiring genuine super-linear growth. *)
let superlinear_threshold = 1.3

let first_last = function
  | [] -> None
  | first :: _ as l -> Some (first, List.nth l (List.length l - 1))

let superlinear t =
  match first_last t.points with
  | None -> false
  | Some (first, last) ->
      last.deviation > superlinear_threshold *. first.deviation

(* Exit-1 gate: every run consistent; the sweep reaches >= 256 CPUs;
   the measured curve deviates super-linearly from the extrapolation
   there; and cluster-targeted shootdown strictly reduces IPI count
   against broadcast. *)
let gate_holds t =
  t.all_consistent
  && (match first_last t.points with
     | Some (_, last) -> last.cpus >= 256
     | None -> false)
  && superlinear t
  && match t.ablation with
     | None -> false
     | Some a -> a.targeted_ipis < a.broadcast_ipis

let point_json p =
  Json.Obj
    [
      ("cpus", Json.Int p.cpus);
      ("clusters", Json.Int p.clusters);
      ("mean_elapsed_us", Json.Float p.mean_elapsed);
      ("extrapolated_us", Json.Float p.extrapolated);
      ("deviation", Json.Float p.deviation);
      ("bus_wait_frac", Json.Float p.shares.bus_wait);
      ("interconnect_wait_frac", Json.Float p.shares.interconnect_wait);
      ("ack_wait_frac", Json.Float p.shares.ack_wait);
      ("mean_queue_depth", Json.Float p.shares.queue_depth);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str "tlbshoot-scale-v1");
      ("runs_per_point", Json.Int t.runs_per_point);
      ("cluster_size", Json.Int t.cluster_size);
      ("all_consistent", Json.Bool t.all_consistent);
      ("points", Json.List (List.map point_json t.points));
      ( "ablation",
        match t.ablation with
        | None -> Json.Null
        | Some a ->
            Json.Obj
              [
                ("cpus", Json.Int a.ablation_cpus);
                ("resident_cpus", Json.Int a.resident_cpus);
                ("targeted_elapsed_us", Json.Float a.targeted_elapsed);
                ("targeted_ipis", Json.Int a.targeted_ipis);
                ("broadcast_elapsed_us", Json.Float a.broadcast_elapsed);
                ("broadcast_ipis", Json.Int a.broadcast_ipis);
              ] );
      ("superlinear", Json.Bool (superlinear t));
      ("gate_holds", Json.Bool (gate_holds t));
    ]

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "Scale sweep: Figure 2 on a hierarchical machine (clusters of %d)\n\
        deviation = measured / (430 us + 55 us x processors)\n\n"
       t.cluster_size);
  let table =
    Tablefmt.create ~title:""
      ~headers:
        [
          "cpus";
          "clusters";
          "mean (us)";
          "paper (us)";
          "deviation";
          "bus";
          "xbar";
          "ack";
        ]
  in
  List.iter
    (fun p ->
      Tablefmt.add_row table
        [
          string_of_int p.cpus;
          string_of_int p.clusters;
          Printf.sprintf "%.0f" p.mean_elapsed;
          Printf.sprintf "%.0f" p.extrapolated;
          Printf.sprintf "%.2fx" p.deviation;
          Printf.sprintf "%.1f%%" (100.0 *. p.shares.bus_wait);
          Printf.sprintf "%.1f%%" (100.0 *. p.shares.interconnect_wait);
          Printf.sprintf "%.1f%%" (100.0 *. p.shares.ack_wait);
        ])
    t.points;
  Buffer.add_string buf (Tablefmt.render table);
  (match t.ablation with
  | None -> ()
  | Some a ->
      Buffer.add_string buf
        (Printf.sprintf
           "\n\
            cluster-targeted shootdown ablation at %d CPUs (task resident \
            on one %d-CPU cluster):\n\
           \  targeted multicast: %.0f us, %d IPIs\n\
           \  broadcast:          %.0f us, %d IPIs\n"
           a.ablation_cpus a.resident_cpus a.targeted_elapsed a.targeted_ipis
           a.broadcast_elapsed a.broadcast_ipis));
  Buffer.add_string buf
    (Printf.sprintf
       "\n\
        super-linear deviation from the paper's extrapolation: %b\n\
        consistency maintained in every run: %b\n\
        gate: %s\n"
       (superlinear t) t.all_consistent
       (if gate_holds t then "PASS" else "FAIL"));
  Buffer.contents buf
