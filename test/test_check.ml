(* Tests for the model checker (lib/check): seeded protocol mutants must
   produce counterexamples, counterexamples must survive a JSON round
   trip and reproduce under replay, exploration must be deterministic,
   and fingerprint pruning must never change a verdict (it may only
   skip redundant schedules). *)

module Scenario = Check.Scenario
module Explorer = Check.Explorer
module Json = Instrument.Json

let find_spec key =
  match Scenario.find key with
  | Some sp -> sp
  | None -> Alcotest.failf "scenario %S not registered" key

let verdict_kind = function
  | Scenario.Pass -> "pass"
  | Scenario.Violation { kind; _ } -> kind

let check_kind = Alcotest.testable (Fmt.of_to_string Fun.id) String.equal

(* ------------------------------------------------------------------ *)
(* The healthy protocol survives exploration. *)

let healthy_plain_passes () =
  let r = Explorer.explore ~depth:6 ~max_schedules:80 (find_spec "plain") in
  Alcotest.(check check_kind)
    "no violation" "pass"
    (verdict_kind r.Explorer.verdict);
  Alcotest.(check bool)
    "explored more than the baseline schedule" true
    (r.Explorer.stats.Explorer.schedules > 1)

let exploration_is_deterministic () =
  let go () = Explorer.explore ~depth:5 ~max_schedules:40 (find_spec "plain") in
  let a = go () and b = go () in
  Alcotest.(check int)
    "same schedule count" a.Explorer.stats.Explorer.schedules
    b.Explorer.stats.Explorer.schedules;
  Alcotest.(check int)
    "same state count" a.Explorer.stats.Explorer.states
    b.Explorer.stats.Explorer.states;
  Alcotest.(check check_kind)
    "same verdict" (verdict_kind a.Explorer.verdict)
    (verdict_kind b.Explorer.verdict)

(* ------------------------------------------------------------------ *)
(* Seeded mutants: each must be caught with a concrete counterexample. *)

let expect_violation ~scenario ~mutant ~kind =
  let r =
    Explorer.explore ~mutant ~depth:8 ~max_schedules:120 (find_spec scenario)
  in
  Alcotest.(check check_kind)
    (scenario ^ " catches the mutant") kind
    (verdict_kind r.Explorer.verdict);
  Alcotest.(check bool)
    "counterexample has a recorded schedule" true
    (r.Explorer.witness <> []);
  r

let mutant_responder_invalidate () =
  ignore
    (expect_violation ~scenario:"plain"
       ~mutant:Core.Pmap.Skip_responder_invalidate ~kind:"stale-write")

let mutant_responder_invalidate_batch () =
  ignore
    (expect_violation ~scenario:"batch"
       ~mutant:Core.Pmap.Skip_responder_invalidate ~kind:"stale-write")

let mutant_skip_barrier () =
  (* A total IPI blackout (the escalation scenario) maximises deferral,
     so the missing phase-2 wait is exposed on the very first schedule
     instead of needing a ~40-deep defer chain (docs/MODELCHECK.md). *)
  ignore
    (expect_violation ~scenario:"escalate" ~mutant:Core.Pmap.Skip_barrier
       ~kind:"stale-write")

(* ------------------------------------------------------------------ *)
(* Counterexample JSON round trip + replay reproduction. *)

let replay_roundtrip () =
  let r =
    expect_violation ~scenario:"plain"
      ~mutant:Core.Pmap.Skip_responder_invalidate ~kind:"stale-write"
  in
  let text = Json.to_string (Explorer.counterexample_json r) in
  match Explorer.parse_counterexample text with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok replay ->
      Alcotest.(check check_kind)
        "replay scenario survives the round trip" "plain"
        (Scenario.key replay.Explorer.r_scenario);
      Alcotest.(check (list int))
        "choices survive the round trip" r.Explorer.witness
        replay.Explorer.r_choices;
      let out = Explorer.run_replay replay in
      Alcotest.(check check_kind)
        "replay reproduces the violation" "stale-write"
        (verdict_kind out.Scenario.verdict)

let parse_rejects_garbage () =
  let reject text =
    match Explorer.parse_counterexample text with
    | Ok _ -> Alcotest.failf "accepted bad counterexample %s" text
    | Error _ -> ()
  in
  reject "not json at all";
  reject {|{"schema":"wrong-schema"}|};
  reject
    {|{"schema":"tlbshoot-check-counterexample-v1","scenario":"nope",
       "mutant":"none","cpus":2,"choices":[]}|};
  reject
    {|{"schema":"tlbshoot-check-counterexample-v1","scenario":"plain",
       "mutant":"bogus","cpus":2,"choices":[]}|}

(* Fingerprints are exact: two machines whose only difference is a
   pending delay past the sixth significant digit are different states. *)
let fingerprint_keeps_every_digit () =
  let with_pending dt =
    let m = Vm.Machine.create () in
    Sim.Engine.after ~label:"probe" m.Vm.Machine.eng dt ignore;
    Scenario.fingerprint m
  in
  Alcotest.(check bool)
    "delays 1.0000001 and 1.0000002 fingerprint apart" false
    (String.equal (with_pending 1.0000001) (with_pending 1.0000002))

(* ------------------------------------------------------------------ *)
(* Pruning is a reduction, not an approximation of the verdict: on any
   small configuration the pruned and unpruned explorations must agree
   on whether the schedule space contains a violation. *)

let prune_verdict_equivalence =
  QCheck.Test.make ~name:"pruned and unpruned verdicts agree" ~count:6
    QCheck.(pair (int_range 0 2) (int_range 0 2))
    (fun (which_scenario, which_mutant) ->
      let scenario =
        List.nth [ "plain"; "lazy"; "batch" ] which_scenario
      in
      let mutant =
        List.nth
          [
            Core.Pmap.No_mutant;
            Core.Pmap.Skip_barrier;
            Core.Pmap.Skip_responder_invalidate;
          ]
          which_mutant
      in
      let go prune =
        Explorer.explore ~mutant ~depth:3 ~max_schedules:25 ~prune
          (find_spec scenario)
      in
      let pruned = go true and full = go false in
      verdict_kind pruned.Explorer.verdict
      = verdict_kind full.Explorer.verdict)

let () =
  Alcotest.run "check"
    [
      ( "explore",
        [
          Alcotest.test_case "healthy plain passes" `Quick
            healthy_plain_passes;
          Alcotest.test_case "exploration is deterministic" `Quick
            exploration_is_deterministic;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "skip-responder-invalidate via plain" `Quick
            mutant_responder_invalidate;
          Alcotest.test_case "skip-responder-invalidate via batch" `Quick
            mutant_responder_invalidate_batch;
          Alcotest.test_case "skip-barrier via escalate" `Quick
            mutant_skip_barrier;
        ] );
      ( "counterexample",
        [
          Alcotest.test_case "json/replay round trip" `Quick replay_roundtrip;
          Alcotest.test_case "parser rejects garbage" `Quick
            parse_rejects_garbage;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "fingerprints keep every digit" `Quick
            fingerprint_keeps_every_digit;
          QCheck_alcotest.to_alcotest prune_verdict_equivalence;
        ] );
    ]
