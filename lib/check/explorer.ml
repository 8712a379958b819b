(* Stateless DFS over the schedule space (see explorer.mli).

   The worklist holds choice prefixes; popping one re-runs the whole
   scenario under it.  Positions [0, |prefix|) of a run are forced;
   every later recorded decision below the depth bound spawns one new
   prefix per untried alternative.  Prefixes always end in the untried
   alternative itself, so a prefix is never a duplicate of the run that
   spawned it.

   Fingerprint pruning observes the machine state just before each free
   choice.  A run is never aborted mid-flight (an exception thrown
   through the effect handlers would run cleanup code — spinlock
   releases, IPL restores — against a state the simulation never
   reached); instead the first revisited position becomes the run's
   expansion ceiling. *)

module Json = Instrument.Json

(* The visited table, keyed by (position, state) as raw bytes. *)
module Visited = Hashtbl.Make (String)

type stats = {
  mutable schedules : int;
  mutable states : int;
  mutable revisits : int;
  mutable pruned : int;
  mutable elided : int;
  mutable max_depth : int;
  mutable truncated : bool;
  mutable capped : bool;
}

let zero_stats () =
  {
    schedules = 0;
    states = 0;
    revisits = 0;
    pruned = 0;
    elided = 0;
    max_depth = 0;
    truncated = false;
    capped = false;
  }

type result = {
  spec : Scenario.spec;
  mutant : Core.Pmap.mutant;
  cpus : int;
  depth : int;
  verdict : Scenario.verdict;
  witness : int list;
  stats : stats;
}

exception Stop

let default_max_schedules = 5000

let explore ?(mutant = Core.Pmap.No_mutant) ?(cpus = 2) ?(depth = 16)
    ?(max_schedules = default_max_schedules) ?(prune = true)
    ?(max_decisions = 4096) spec =
  let actual_cpus = Scenario.cpus spec ~requested:cpus in
  let stats = zero_stats () in
  let visited : unit Visited.t = Visited.create 1024 in
  let key = Buffer.create 1024 in
  let stack : int array Stack.t = Stack.create () in
  Stack.push [||] stack;
  let verdict = ref Scenario.Pass in
  let witness = ref [] in
  (try
     while not (Stack.is_empty stack) do
       if stats.schedules >= max_schedules then begin
         stats.capped <- true;
         raise Stop
       end;
       let prefix = Stack.pop stack in
       let forced = Array.length prefix in
       (* Expansion ceiling for this run: lowered to the first position
          (beyond the forced part) whose pre-choice state was already
          visited — everything from there on was explored elsewhere. *)
       let ceiling = ref max_int in
       let observe =
         if not prune then None
         else
           Some
             (fun machine pos ->
               if pos >= forced && pos < depth && pos < !ceiling then begin
                 (* Key on (position, state): a merge at the same depth
                    position has an identical explored subtree shape, so
                    clamping there loses nothing the first visitor did
                    not cover. *)
                 Buffer.clear key;
                 Buffer.add_int64_le key (Int64.of_int pos);
                 Scenario.add_fingerprint key machine;
                 let fp = Buffer.contents key in
                 if Visited.mem visited fp then begin
                   stats.revisits <- stats.revisits + 1;
                   ceiling := pos
                 end
                 else begin
                   Visited.add visited fp ();
                   stats.states <- stats.states + 1
                 end
               end)
       in
       let out =
         Scenario.run ~mutant ~max_decisions ?observe ~cpus spec ~prefix ()
       in
       stats.schedules <- stats.schedules + 1;
       stats.elided <- stats.elided + out.Scenario.elided;
       if out.Scenario.truncated then stats.truncated <- true;
       let ds = Array.of_list out.Scenario.decisions in
       let n = Array.length ds in
       if n > stats.max_depth then stats.max_depth <- n;
       match out.Scenario.verdict with
       | Scenario.Violation _ ->
           verdict := out.Scenario.verdict;
           witness :=
             List.map (fun d -> d.Sim.Explore.d_chosen) out.Scenario.decisions;
           raise Stop
       | Scenario.Pass ->
           let hi = min n (min depth !ceiling) in
           if !ceiling < min n depth then stats.pruned <- stats.pruned + 1;
           (* Push deepest positions first so the stack pops shallow
              divergences earlier — closer to breadth across the early
              choices, depth within them. *)
           for i = hi - 1 downto forced do
             for alt = ds.(i).Sim.Explore.d_chosen + 1
                 to ds.(i).Sim.Explore.d_alts - 1 do
               let p =
                 Array.init (i + 1) (fun j ->
                     if j = i then alt else ds.(j).Sim.Explore.d_chosen)
               in
               Stack.push p stack
             done
           done
     done
   with Stop -> ());
  {
    spec;
    mutant;
    cpus = actual_cpus;
    depth;
    verdict = !verdict;
    witness = !witness;
    stats;
  }

(* --- counterexamples ---------------------------------------------------- *)

let schema = "tlbshoot-check-counterexample-v1"

let counterexample_json r =
  let kind, detail =
    match r.verdict with
    | Scenario.Violation { kind; detail } -> (kind, detail)
    | Scenario.Pass -> ("none", "")
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("scenario", Json.Str (Scenario.key r.spec));
      ("mutant", Json.Str (Scenario.mutant_name r.mutant));
      ("cpus", Json.Int r.cpus);
      ("pages", Json.Int (Scenario.pages r.spec));
      ("depth", Json.Int r.depth);
      ( "verdict",
        Json.Obj [ ("kind", Json.Str kind); ("detail", Json.Str detail) ] );
      ("choices", Json.List (List.map (fun c -> Json.Int c) r.witness));
    ]

type replay = {
  r_scenario : Scenario.spec;
  r_mutant : Core.Pmap.mutant;
  r_cpus : int;
  r_choices : int list;
}

let parse_counterexample text =
  let ( let* ) = Result.bind in
  let* j = Json.of_string text in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "counterexample: missing or bad %S" name)
  in
  let* s = field "schema" Json.get_string in
  let* () =
    if s = schema then Ok ()
    else Error (Printf.sprintf "counterexample: schema %S, want %S" s schema)
  in
  let* key = field "scenario" Json.get_string in
  let* r_scenario =
    match Scenario.find key with
    | Some sp -> Ok sp
    | None -> Error (Printf.sprintf "counterexample: unknown scenario %S" key)
  in
  let* mname = field "mutant" Json.get_string in
  let* r_mutant = Scenario.mutant_of_string mname in
  let* r_cpus = field "cpus" Json.get_int in
  let* choices = field "choices" Json.get_list in
  let* r_choices =
    List.fold_left
      (fun acc c ->
        let* acc = acc in
        match Json.get_int c with
        | Some i -> Ok (i :: acc)
        | None -> Error "counterexample: non-integer choice")
      (Ok []) choices
  in
  Ok { r_scenario; r_mutant; r_cpus; r_choices = List.rev r_choices }

let run_replay ?trace r =
  Scenario.run ~mutant:r.r_mutant ?trace ~cpus:r.r_cpus r.r_scenario
    ~prefix:(Array.of_list r.r_choices) ()
