(* The model-checking matrix (docs/MODELCHECK.md): run the Check
   explorer over every scenario and report, per scenario, how much of
   the schedule space was covered and whether any schedule violated the
   protocol's safety properties.

   Unlike the sampling experiments this one is inherently sequential
   per scenario — the DFS worklist and the fingerprint table are shared
   state — so there is no [jobs] fan-out; the scenarios themselves are
   small enough that the whole matrix runs in seconds at the CI
   settings. *)

module Tablefmt = Instrument.Tablefmt
module Json = Instrument.Json

type row = { result : Check.Explorer.result }

type t = {
  rows : row list;
  cpus : int; (* requested; each scenario may round up *)
  depth : int;
  max_schedules : int; (* per scenario *)
  prune : bool;
  mutant : Core.Pmap.mutant;
}

let run ?(cpus = 2) ?(depth = 16)
    ?(max_schedules = Check.Explorer.default_max_schedules) ?(prune = true)
    ?(mutant = Core.Pmap.No_mutant) ?scenario () =
  let specs =
    match scenario with None -> Check.Scenario.all | Some s -> [ s ]
  in
  let rows =
    List.map
      (fun spec ->
        {
          result =
            Check.Explorer.explore ~mutant ~cpus ~depth ~max_schedules ~prune
              spec;
        })
      specs
  in
  { rows; cpus; depth; max_schedules; prune; mutant }

let total_schedules t =
  List.fold_left
    (fun acc r -> acc + r.result.Check.Explorer.stats.Check.Explorer.schedules)
    0 t.rows

let all_ok t =
  List.for_all
    (fun r ->
      match r.result.Check.Explorer.verdict with
      | Check.Scenario.Pass -> true
      | Check.Scenario.Violation _ -> false)
    t.rows

let first_violation t =
  List.find_opt
    (fun r ->
      match r.result.Check.Explorer.verdict with
      | Check.Scenario.Violation _ -> true
      | Check.Scenario.Pass -> false)
    t.rows

let verdict_cell (r : Check.Explorer.result) =
  match r.Check.Explorer.verdict with
  | Check.Scenario.Pass ->
      if r.Check.Explorer.stats.Check.Explorer.capped then "pass (capped)"
      else "pass (exhausted)"
  | Check.Scenario.Violation { kind; _ } -> "VIOLATION: " ^ kind

let render t =
  let table =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Model checker: exhaustive interleavings, %d-CPU matrix, depth \
            %d, <=%d schedules/scenario, pruning %s%s"
           t.cpus t.depth t.max_schedules
           (if t.prune then "on" else "off")
           (match t.mutant with
           | Core.Pmap.No_mutant -> ""
           | m -> ", mutant " ^ Check.Scenario.mutant_name m))
      ~headers:
        [
          "scenario";
          "cpus";
          "schedules";
          "states";
          "revisits";
          "elided";
          "max depth";
          "verdict";
        ]
  in
  List.iter
    (fun { result = r } ->
      let s = r.Check.Explorer.stats in
      Tablefmt.add_row table
        [
          Check.Scenario.key r.Check.Explorer.spec;
          string_of_int r.Check.Explorer.cpus;
          string_of_int s.Check.Explorer.schedules;
          string_of_int s.Check.Explorer.states;
          string_of_int s.Check.Explorer.revisits;
          string_of_int s.Check.Explorer.elided;
          string_of_int s.Check.Explorer.max_depth;
          verdict_cell r;
        ])
    t.rows;
  let b = Buffer.create 1024 in
  Buffer.add_string b (Tablefmt.render table);
  (match first_violation t with
  | Some { result = r } -> (
      match r.Check.Explorer.verdict with
      | Check.Scenario.Violation { kind; detail } ->
          Buffer.add_string b
            (Printf.sprintf
               "\n%s/%s: %s violation after %d schedules\n  %s\n  choices: %s\n"
               (Check.Scenario.key r.Check.Explorer.spec)
               (Check.Scenario.mutant_name r.Check.Explorer.mutant)
               kind
               r.Check.Explorer.stats.Check.Explorer.schedules detail
               (String.concat ","
                  (List.map string_of_int r.Check.Explorer.witness)))
      | Check.Scenario.Pass -> ())
  | None ->
      Buffer.add_string b
        (Printf.sprintf "\n%d schedules explored, no violations\n"
           (total_schedules t)));
  Buffer.contents b

let to_json t =
  let scenario_json { result = r } =
    let s = r.Check.Explorer.stats in
    Json.Obj
      [
        ("scenario", Json.Str (Check.Scenario.key r.Check.Explorer.spec));
        ("cpus", Json.Int r.Check.Explorer.cpus);
        ("pages", Json.Int (Check.Scenario.pages r.Check.Explorer.spec));
        ("schedules", Json.Int s.Check.Explorer.schedules);
        ("states", Json.Int s.Check.Explorer.states);
        ("revisits", Json.Int s.Check.Explorer.revisits);
        ("pruned", Json.Int s.Check.Explorer.pruned);
        ("elided", Json.Int s.Check.Explorer.elided);
        ("max_depth", Json.Int s.Check.Explorer.max_depth);
        ("capped", Json.Bool s.Check.Explorer.capped);
        ("truncated", Json.Bool s.Check.Explorer.truncated);
        ( "verdict",
          match r.Check.Explorer.verdict with
          | Check.Scenario.Pass -> Json.Str "pass"
          | Check.Scenario.Violation { kind; detail } ->
              Json.Obj
                [ ("kind", Json.Str kind); ("detail", Json.Str detail) ] );
        ( "choices",
          Json.List (List.map (fun c -> Json.Int c) r.Check.Explorer.witness)
        );
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "tlbshoot-check-v1");
      ("cpus", Json.Int t.cpus);
      ("depth", Json.Int t.depth);
      ("max_schedules", Json.Int t.max_schedules);
      ("prune", Json.Bool t.prune);
      ("mutant", Json.Str (Check.Scenario.mutant_name t.mutant));
      ("total_schedules", Json.Int (total_schedules t));
      ("all_ok", Json.Bool (all_ok t));
      ("scenarios", Json.List (List.map scenario_json t.rows));
    ]
