(* Tests for the measurement substrate: the xpr circular buffer, the
   statistics used to build the paper's tables (with qcheck properties for
   the estimators), the least-squares fit, and the table renderer. *)

module Xpr = Instrument.Xpr
module Stats = Instrument.Stats
module Summary = Instrument.Summary
module Tablefmt = Instrument.Tablefmt

let feq ?(eps = 1e-9) a b = abs_float (a -. b) <= eps

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_mean_std () =
  Alcotest.(check bool) "mean" true (feq (Stats.mean [ 1.0; 2.0; 3.0 ]) 2.0);
  Alcotest.(check bool) "mean empty is nan" true
    (Float.is_nan (Stats.mean []));
  (* sample std of 2,4,4,4,5,5,7,9 is ~2.138 *)
  let xs = [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check bool) "sample std" true
    (feq ~eps:1e-3 (Stats.std xs) 2.13809);
  Alcotest.(check bool) "std of singleton" true (feq (Stats.std [ 5.0 ]) 0.0)

let test_percentiles () =
  let xs = [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  Alcotest.(check bool) "median" true (feq (Stats.median xs) 5.5);
  Alcotest.(check bool) "p0 is min" true (feq (Stats.percentile xs 0.0) 1.0);
  Alcotest.(check bool) "p100 is max" true
    (feq (Stats.percentile xs 100.0) 10.0);
  Alcotest.(check bool) "p10 interpolates" true
    (feq ~eps:1e-6 (Stats.percentile xs 10.0) 1.9);
  (* order independence *)
  let shuffled = [ 7.; 1.; 10.; 3.; 5.; 9.; 2.; 8.; 4.; 6. ] in
  Alcotest.(check bool) "unsorted input" true
    (feq (Stats.median shuffled) 5.5)

let test_percentile_edges () =
  (* singleton: every percentile is the one sample *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "n=1 p%g" p)
        true
        (feq (Stats.percentile [ 42.0 ] p) 42.0))
    [ 0.0; 10.0; 50.0; 90.0; 100.0 ];
  let s1 = Stats.summarize [ 7.0 ] in
  Alcotest.(check int) "singleton n" 1 s1.Stats.n;
  Alcotest.(check bool) "singleton median" true (feq s1.Stats.median 7.0);
  Alcotest.(check bool) "singleton p10 = p90" true (feq s1.Stats.p10 s1.Stats.p90);
  (* ties: interpolating between equal ranks stays at the tied value *)
  let ties = [ 5.0; 5.0; 5.0; 5.0 ] in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "ties p%g" p)
        true
        (feq (Stats.percentile ties p) 5.0))
    [ 0.0; 10.0; 50.0; 90.0; 100.0 ];
  (* empty input: nan percentiles, n = 0 summary *)
  Alcotest.(check bool) "empty percentile nan" true
    (Float.is_nan (Stats.percentile [] 50.0));
  Alcotest.(check bool) "empty median nan" true (Float.is_nan (Stats.median []));
  Alcotest.(check int) "empty summary n" 0 (Stats.summarize []).Stats.n

let percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 30) (float_bound_exclusive 1000.0))
        (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile xs p in
      let lo = List.fold_left min infinity xs in
      let hi = List.fold_left max neg_infinity xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let mean_between_extremes =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let m = Stats.mean xs in
      m >= List.fold_left min infinity xs -. 1e-9
      && m <= List.fold_left max neg_infinity xs +. 1e-9)

let test_linear_fit_exact () =
  (* y = 430 + 55x recovered exactly *)
  let pts = List.init 12 (fun i ->
      let x = float_of_int (i + 1) in
      (x, 430.0 +. (55.0 *. x)))
  in
  let f = Stats.linear_fit pts in
  Alcotest.(check bool) "slope" true (feq ~eps:1e-6 f.Stats.slope 55.0);
  Alcotest.(check bool) "intercept" true (feq ~eps:1e-6 f.Stats.intercept 430.0);
  Alcotest.(check bool) "r2 = 1" true (feq ~eps:1e-9 f.Stats.r2 1.0)

let fit_recovers_line =
  QCheck.Test.make ~name:"least squares recovers noiseless lines" ~count:100
    QCheck.(pair (float_range (-100.) 100.) (float_range (-100.) 100.))
    (fun (a, b) ->
      let pts = List.init 8 (fun i ->
          let x = float_of_int i in
          (x, a +. (b *. x)))
      in
      let f = Stats.linear_fit pts in
      feq ~eps:1e-5 f.Stats.slope b && feq ~eps:1e-4 f.Stats.intercept a)

let test_summarize_and_skew () =
  let s = Stats.summarize [ 1.; 1.; 1.; 2.; 2.; 3.; 10.; 30. ] in
  Alcotest.(check int) "n" 8 s.Stats.n;
  Alcotest.(check bool) "right skewed" true (Stats.right_skewed s);
  let sym = Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check bool) "not skewed" false (Stats.right_skewed sym)

let test_histogram () =
  let h = Stats.histogram ~bins:4 [ 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7. ] in
  Alcotest.(check int) "bins" 4 (Array.length h.Stats.counts);
  Alcotest.(check int) "total preserved" 8
    (Array.fold_left ( + ) 0 h.Stats.counts)

let test_bimodal () =
  let unimodal = List.init 60 (fun i -> 100.0 +. float_of_int (i mod 10)) in
  Alcotest.(check bool) "unimodal not flagged" false (Stats.bimodal unimodal);
  let bimodal =
    List.init 30 (fun i -> 100.0 +. float_of_int (i mod 5))
    @ List.init 30 (fun i -> 900.0 +. float_of_int (i mod 5))
  in
  Alcotest.(check bool) "bimodal flagged" true (Stats.bimodal bimodal)

(* ------------------------------------------------------------------ *)
(* Xpr *)

let test_xpr_record_and_filter () =
  let x = Xpr.create ~capacity:16 () in
  for i = 1 to 5 do
    Xpr.record x ~code:Xpr.Shoot_initiator ~cpu:(i mod 2)
      ~timestamp:(float_of_int i) ~arg1:1 ~arg2:i ~farg:(float_of_int (i * 10))
      ()
  done;
  Xpr.record x ~code:Xpr.Shoot_responder ~cpu:3 ~timestamp:9.0 ~farg:7.0 ();
  Alcotest.(check int) "recorded" 6 (Xpr.recorded x);
  Alcotest.(check int) "initiators" 5
    (List.length (Xpr.events_with_code x Xpr.Shoot_initiator));
  Alcotest.(check int) "responders" 1
    (List.length (Xpr.events_with_code x Xpr.Shoot_responder));
  let on_cpu0 = Xpr.filter x (fun e -> e.Xpr.cpu = 0) in
  Alcotest.(check int) "cpu filter" 2 (List.length on_cpu0)

let test_xpr_circular_overflow () =
  let x = Xpr.create ~capacity:4 () in
  for i = 1 to 10 do
    Xpr.record x ~code:(Xpr.Custom 0) ~cpu:0 ~timestamp:(float_of_int i) ()
  done;
  Alcotest.(check bool) "overflowed" true (Xpr.overflowed x);
  let ts = List.map (fun e -> e.Xpr.timestamp) (Xpr.to_list x) in
  (* only the newest [capacity] survive, oldest first *)
  Alcotest.(check (list (float 1e-9))) "newest survive" [ 7.; 8.; 9.; 10. ] ts

(* Overflow bookkeeping: [recorded] counts every event ever logged while
   [to_list] only returns the survivors, and the flag flips exactly when
   the buffer wraps — a full-but-not-wrapped buffer is not an overflow. *)
let test_xpr_overflow_semantics () =
  let cap = 4 in
  let x = Xpr.create ~capacity:cap () in
  for i = 1 to cap do
    Xpr.record x ~code:(Xpr.Custom 0) ~cpu:0 ~timestamp:(float_of_int i) ()
  done;
  Alcotest.(check bool) "full but not overflowed" false (Xpr.overflowed x);
  Alcotest.(check int) "recorded = capacity" cap (Xpr.recorded x);
  Alcotest.(check int) "all survive" cap (List.length (Xpr.to_list x));
  Xpr.record x ~code:(Xpr.Custom 0) ~cpu:0 ~timestamp:5.0 ();
  Alcotest.(check bool) "overflowed at capacity+1" true (Xpr.overflowed x);
  Alcotest.(check int) "recorded keeps counting" (cap + 1) (Xpr.recorded x);
  Alcotest.(check int) "survivors capped" cap (List.length (Xpr.to_list x));
  let ts = List.map (fun e -> e.Xpr.timestamp) (Xpr.to_list x) in
  Alcotest.(check (list (float 1e-9))) "oldest dropped" [ 2.; 3.; 4.; 5. ] ts;
  Xpr.reset x;
  Alcotest.(check bool) "reset clears overflow" false (Xpr.overflowed x);
  Alcotest.(check int) "reset clears survivors" 0
    (List.length (Xpr.to_list x))

let test_xpr_disable_reset () =
  let x = Xpr.create ~capacity:8 () in
  Xpr.disable x;
  Xpr.record x ~code:(Xpr.Custom 1) ~cpu:0 ~timestamp:1.0 ();
  Alcotest.(check int) "disabled drops" 0 (Xpr.recorded x);
  Xpr.enable x;
  Xpr.record x ~code:(Xpr.Custom 1) ~cpu:0 ~timestamp:2.0 ();
  Alcotest.(check int) "enabled records" 1 (Xpr.recorded x);
  Xpr.reset x;
  Alcotest.(check int) "reset clears" 0 (Xpr.recorded x)

(* Xpr against a reference ring: every event recorded since the last
   reset, of which the newest [capacity] survive.  Event [i] carries [i]
   in [arg1] and its code cycles, so order and content are both checked. *)

type xpr_op = X_record of int (* this many events *) | X_reset | X_toggle

let xpr_capacities = [ 1; 3; 64; 65; 200 ]

let xpr_matches_reference ~capacity ops =
  let x = Xpr.create ~capacity () in
  let log = ref [] (* newest first *) and n = ref 0 and enabled = ref true in
  let agrees () =
    let surviving = List.rev (List.filteri (fun i _ -> i < capacity) !log) in
    List.map (fun e -> e.Xpr.arg1) (Xpr.to_list x) = surviving
    && Xpr.recorded x = List.length !log
    && Xpr.overflowed x = (List.length !log > capacity)
  in
  List.for_all
    (fun op ->
      (match op with
      | X_record k ->
          for _ = 1 to k do
            incr n;
            let code =
              match !n mod 3 with
              | 0 -> Xpr.Shoot_initiator
              | 1 -> Xpr.Shoot_responder
              | _ -> Xpr.Custom !n
            in
            Xpr.record x ~code ~cpu:0 ~timestamp:(float_of_int !n) ~arg1:!n ();
            if !enabled then log := !n :: !log
          done
      | X_reset ->
          Xpr.reset x;
          log := []
      | X_toggle ->
          if !enabled then Xpr.disable x else Xpr.enable x;
          enabled := not !enabled);
      agrees ())
    ops

(* Counts on both sides of every growth point (64, 128, ...) and every
   wrap point (capacity, 2 x capacity), each on a fresh ring and again
   after a reset. *)
let test_xpr_growth_and_wrap () =
  List.iter
    (fun capacity ->
      let points =
        [ 0; 1; 64; 128; 256; capacity; 2 * capacity; (3 * capacity) + 5 ]
      in
      List.iter
        (fun p ->
          List.iter
            (fun k ->
              if k >= 0 then
                Alcotest.(check bool)
                  (Printf.sprintf "capacity %d, %d events" capacity k)
                  true
                  (xpr_matches_reference ~capacity
                     [ X_record k; X_reset; X_record k ]))
            [ p - 1; p; p + 1 ])
        points)
    xpr_capacities

let xpr_qcheck =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun k -> X_record k) (int_range 0 150));
          (1, return X_reset);
          (1, return X_toggle);
        ])
  in
  let show = function
    | X_record k -> Printf.sprintf "record %d" k
    | X_reset -> "reset"
    | X_toggle -> "toggle"
  in
  QCheck.Test.make ~name:"xpr matches reference ring" ~count:200
    QCheck.(
      make
        ~print:(fun (c, ops) ->
          Printf.sprintf "capacity %d: %s" c
            (String.concat "; " (List.map show ops)))
        Gen.(pair (oneofl xpr_capacities) (list_size (int_range 0 12) gen_op)))
    (fun (capacity, ops) -> xpr_matches_reference ~capacity ops)

let test_summary_extraction () =
  let x = Xpr.create () in
  Xpr.record x ~code:Xpr.Shoot_initiator ~cpu:0 ~timestamp:1.0 ~arg1:1 ~arg2:3
    ~arg3:5 ~farg:100.0 ();
  Xpr.record x ~code:Xpr.Shoot_initiator ~cpu:1 ~timestamp:2.0 ~arg1:0 ~arg2:1
    ~arg3:2 ~farg:50.0 ();
  Xpr.record x ~code:Xpr.Shoot_responder ~cpu:0 ~timestamp:3.0 ~arg1:1
    ~farg:30.0 ();
  Xpr.record x ~code:Xpr.Shoot_responder ~cpu:1 ~timestamp:4.0 ~arg1:0
    ~farg:20.0 ();
  Alcotest.(check int) "kernel initiators" 1
    (List.length (Summary.kernel_initiators x));
  Alcotest.(check int) "user initiators" 1
    (List.length (Summary.user_initiators x));
  (match Summary.kernel_initiators x with
  | [ i ] ->
      Alcotest.(check int) "pages" 3 i.Summary.pages;
      Alcotest.(check int) "procs" 5 i.Summary.processors;
      Alcotest.(check bool) "elapsed" true (feq i.Summary.elapsed 100.0)
  | _ -> Alcotest.fail "expected one kernel initiator");
  let k, u = Summary.responders_partitioned x in
  Alcotest.(check (list (float 1e-9))) "kernel responders" [ 30.0 ] k;
  Alcotest.(check (list (float 1e-9))) "user responders" [ 20.0 ] u;
  Alcotest.(check bool) "total overhead" true
    (feq (Summary.total_overhead (Summary.initiators x)) 150.0)

(* ------------------------------------------------------------------ *)
(* Tablefmt *)

let test_tablefmt_render () =
  let t = Tablefmt.create ~title:"T" ~headers:[ "a"; "bb"; "ccc" ] in
  Tablefmt.add_row t [ "1"; "22"; "333" ];
  Tablefmt.add_row t [ "x" ];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "title present" true
    (String.length s > 0 && String.sub s 0 1 = "T");
  (* all rows render; short rows are padded *)
  Alcotest.(check int) "line count" 5
    (List.length (String.split_on_char '\n' (String.trim s)))

let test_tablefmt_cells () =
  Alcotest.(check string) "mean_std" "100\xc2\xb15" (Tablefmt.mean_std 100.2 5.4);
  Alcotest.(check string) "nan is NM" "NM" (Tablefmt.mean_std nan nan);
  Alcotest.(check string) "us" "42" (Tablefmt.us 42.4);
  Alcotest.(check string) "us nan" "NM" (Tablefmt.us nan)

let () =
  Alcotest.run "instrument"
    [
      ( "stats",
        [
          Alcotest.test_case "mean/std" `Quick test_mean_std;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
          Alcotest.test_case "linear fit exact" `Quick test_linear_fit_exact;
          Alcotest.test_case "summarize/skew" `Quick test_summarize_and_skew;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "bimodal" `Quick test_bimodal;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ percentile_bounds; mean_between_extremes; fit_recovers_line ] );
      ( "xpr",
        [
          Alcotest.test_case "record/filter" `Quick test_xpr_record_and_filter;
          Alcotest.test_case "circular overflow" `Quick
            test_xpr_circular_overflow;
          Alcotest.test_case "overflow semantics" `Quick
            test_xpr_overflow_semantics;
          Alcotest.test_case "disable/reset" `Quick test_xpr_disable_reset;
          Alcotest.test_case "growth and wrap" `Quick test_xpr_growth_and_wrap;
          QCheck_alcotest.to_alcotest xpr_qcheck;
          Alcotest.test_case "summary extraction" `Quick
            test_summary_extraction;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_tablefmt_render;
          Alcotest.test_case "cells" `Quick test_tablefmt_cells;
        ] );
    ]
