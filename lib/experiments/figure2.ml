(* Figure 2: basic costs of TLB shootdown.

   The section 5.1 consistency tester is run with k = 1..15 child threads
   (each pinned to its own processor of a 16-CPU machine), ten times per
   point with different seeds; each run produces exactly one shootdown on
   the tester's pmap involving exactly k processors.  A least-squares
   trend is fitted through the points for 1..12 processors, excluding the
   13-15 range where bus congestion pulls the data off the line — exactly
   the methodology of the paper, whose fit was 430 us + 55 us/processor. *)

module Stats = Instrument.Stats
module Tablefmt = Instrument.Tablefmt

type point = {
  processors : int;
  mean : float;
  std : float;
  samples : float list;
}

type t = {
  points : point list;
  fit : Stats.fit; (* through processors <= fit_limit *)
  fit_limit : int;
  all_consistent : bool;
}

let paper_fit = { Stats.slope = 55.0; intercept = 430.0; r2 = 1.0 }

(* Each (k children, run r) trial boots a fresh machine from the Figure
   2 seed of (k, r) alone, so the sweep is identical at any job count. *)
let run ?(jobs = 1) ?(max_procs = 15) ?(runs_per_point = 10) ?(fit_limit = 12)
    () =
  let grid =
    Sweep.grid ~jobs ~runs:runs_per_point (Sweep.procs max_procs)
      (fun (k, r) ->
        let res, _ =
          Sweep.tester ~params:Sim.Params.default ~recorder:Sweep.Bare
            ~children:k (Sweep.seed k r)
        in
        if res.Workloads.Tlb_tester.processors <> k then
          failwith
            (Printf.sprintf "figure2: expected %d processors involved, got %d"
               k res.Workloads.Tlb_tester.processors);
        (res, ()))
  in
  let points =
    List.map
      (fun (k, trials) ->
        let samples = Sweep.elapsed trials in
        { processors = k; mean = Stats.mean samples;
          std = Stats.std samples; samples })
      grid
  in
  let fit_points =
    List.filter_map
      (fun p ->
        if p.processors <= fit_limit then
          Some (float_of_int p.processors, p.mean)
        else None)
      points
  in
  { points; fit = Stats.linear_fit fit_points; fit_limit;
    all_consistent = Sweep.all_consistent grid }

(* ASCII rendering: the data table plus a bar plot with the trend line. *)
let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Figure 2: Basic Costs of TLB Shootdown (tester, one shootdown per run)\n\n";
  let table =
    Tablefmt.create ~title:""
      ~headers:[ "procs"; "mean (us)"; "std"; "trend (us)"; "" ]
  in
  let trend n = t.fit.Stats.intercept +. (t.fit.Stats.slope *. float_of_int n) in
  List.iter
    (fun p ->
      let marker = if p.processors > t.fit_limit then "(excluded)" else "" in
      Tablefmt.add_row table
        [
          string_of_int p.processors;
          Printf.sprintf "%.0f" p.mean;
          Printf.sprintf "%.0f" p.std;
          Printf.sprintf "%.0f" (trend p.processors);
          marker;
        ])
    t.points;
  Buffer.add_string buf (Tablefmt.render table);
  Buffer.add_char buf '\n';
  (* bar plot *)
  let maxv =
    List.fold_left (fun m p -> Float.max m (p.mean +. p.std)) 0.0 t.points
  in
  let width = 56 in
  let scale v = int_of_float (v /. maxv *. float_of_int width) in
  List.iter
    (fun p ->
      let bar = scale p.mean in
      let tr = scale (trend p.processors) in
      let line = Bytes.make (width + 1) ' ' in
      for i = 0 to bar - 1 do
        Bytes.set line i '#'
      done;
      if tr >= 0 && tr <= width then Bytes.set line tr '|';
      Buffer.add_string buf
        (Printf.sprintf "%2d %s %6.0f\xc2\xb1%.0f\n" p.processors
           (Bytes.to_string line) p.mean p.std))
    t.points;
  Buffer.add_string buf
    (Printf.sprintf
       "\nleast-squares fit (1..%d procs): %.0f us + %.1f us/processor \
        (r2=%.3f)\npaper:                         430 us + 55.0 us/processor\n\
        consistency maintained in every run: %b\n"
       t.fit_limit t.fit.Stats.intercept t.fit.Stats.slope t.fit.Stats.r2
       t.all_consistent);
  Buffer.contents buf
