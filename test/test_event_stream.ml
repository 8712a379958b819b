(* The event stream, pinned.  Each run below boots a production machine
   and checks how many events it processed, how many of each label, and
   where the clock ended, against constants captured before the engine
   learned to re-park quiet idle loops and to queue polls beside the
   heap.  Those two changes must not move a single event; neither may
   any later change to the engine or the scheduler, unless the pins are
   re-captured on purpose. *)

let scale = 2

type pin = {
  events : int;
  clock : float; (* exact, as a hex float *)
  labels : (string * int) list;
}

let check name (m : Vm.Machine.t) pin =
  let eng = m.Vm.Machine.eng in
  Alcotest.(check int)
    (name ^ ": events processed")
    pin.events
    (Sim.Engine.events_processed eng);
  Alcotest.(check (list (pair string int)))
    (name ^ ": events by label")
    (List.sort compare pin.labels)
    (List.sort compare (Sim.Engine.label_counts eng));
  Alcotest.(check (float 0.0)) (name ^ ": final clock") pin.clock
    (Sim.Engine.now eng)

(* Run one application at [scale] % and keep its machine. *)
let app name run pin () =
  let machine = ref None in
  ignore (run ~attach:(fun m -> machine := Some m));
  check name (Option.get !machine) pin

let params = Sim.Params.production

let mach =
  app "mach"
    (fun ~attach ->
      Workloads.Mach_build.run ~params ~attach
        ~cfg:(Experiments.Apps.scaled_mach scale) ())
    {
      events = 594773;
      clock = 0x1.c29ac82a65c4ap+18;
      labels =
        [
          ("spawn", 38);
          ("delay", 165206);
          ("after", 214485);
          ("at", 0);
          ("wake", 215044);
        ];
    }

let parthenon =
  app "parthenon"
    (fun ~attach ->
      Workloads.Parthenon.run ~params ~attach
        ~cfg:(Experiments.Apps.scaled_parthenon scale) ())
    {
      events = 94160;
      clock = 0x1.6fefdefcc18a6p+16;
      labels =
        [
          ("spawn", 49);
          ("delay", 25355);
          ("after", 34140);
          ("at", 0);
          ("wake", 34616);
        ];
    }

let agora =
  app "agora"
    (fun ~attach ->
      Workloads.Agora.run ~params ~attach
        ~cfg:(Experiments.Apps.scaled_agora scale) ())
    {
      events = 571195;
      clock = 0x1.2bebd2b4eda1ap+19;
      labels =
        [
          ("spawn", 49);
          ("delay", 118485);
          ("after", 226226);
          ("at", 0);
          ("wake", 226435);
        ];
    }

let camelot =
  app "camelot"
    (fun ~attach ->
      Workloads.Camelot.run ~params ~attach
        ~cfg:(Experiments.Apps.scaled_camelot scale) ())
    {
      events = 3947508;
      clock = 0x1.ab873ab2967e5p+21;
      labels =
        [
          ("spawn", 42);
          ("delay", 191578);
          ("after", 1877933);
          ("at", 0);
          ("wake", 1877955);
        ];
    }

(* The Section 5.1 tester with four responders. *)
let tester () =
  let m = Vm.Machine.create ~params:{ params with seed = 42L } () in
  ignore (Workloads.Tlb_tester.run m ~children:4 ());
  check "tester k=4" m
    {
      events = 24807;
      clock = 0x1.3407c4915bbcp+14;
      labels =
        [
          ("spawn", 38);
          ("delay", 931);
          ("after", 11911);
          ("at", 0);
          ("wake", 11927);
        ];
    }

(* The span stream, pinned.  Counts cannot see two events trade places;
   the bytes of [tlbshoot trace --workload W --scale 2 --json] often can.
   Each stream is pinned by its span count and the MD5 digest of those
   bytes (the tester with the CLI's default four children), captured
   before the engine re-armed runs of quiet idle polls in place. *)
let stream workload ~spans ~digest () =
  let tr = Instrument.Trace.create () in
  Experiments.Apps.trace tr ~children:4 ~scale workload;
  Alcotest.(check int) "spans" spans (Instrument.Trace.length tr);
  Alcotest.(check string)
    "digest of the JSON report" digest
    (Digest.to_hex
       (Digest.string
          (Instrument.Json.to_string (Instrument.Trace.report_json tr))))

let () =
  Alcotest.run "event-stream"
    [
      ( "pinned",
        [
          Alcotest.test_case "mach build" `Quick mach;
          Alcotest.test_case "parthenon" `Quick parthenon;
          Alcotest.test_case "agora" `Quick agora;
          Alcotest.test_case "camelot" `Quick camelot;
          Alcotest.test_case "tester k=4" `Quick tester;
        ] );
      ( "trace streams",
        [
          Alcotest.test_case "tester" `Quick
            (stream Experiments.Apps.Tester ~spans:66
               ~digest:"78b91ee64e43aeec2c9295297bc7a443");
          Alcotest.test_case "mach" `Quick
            (stream Experiments.Apps.Mach ~spans:2448
               ~digest:"cc290cf54a05a653bf3963a82a034aa7");
          Alcotest.test_case "parthenon" `Quick
            (stream Experiments.Apps.Parthenon ~spans:52
               ~digest:"bd453f374f085bad5091e887b4b6909b");
          Alcotest.test_case "agora" `Quick
            (stream Experiments.Apps.Agora ~spans:2309
               ~digest:"7c3833c23e69213d5acc3b4cd6c6a0f4");
          Alcotest.test_case "camelot" `Quick
            (stream Experiments.Apps.Camelot ~spans:510
               ~digest:"3f6ab1cdbf937318fdd41e555537be18");
        ] );
    ]
