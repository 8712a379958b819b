(* The hierarchical NUMA topology (docs/TOPOLOGY.md).

   Two families of properties.  Equivalence: a cluster size of 0 (or >=
   ncpus) must reproduce the historical flat machine exactly — same
   floats, same event order.  Behaviour: on a genuinely clustered
   machine, remote accesses cross the interconnect and cost more,
   cluster-targeted multicast interrupts only resident clusters, and the
   shootdown protocol keeps the consistency oracle green on random kernel
   map/unmap histories. *)

module Oracle = Core.Consistency_oracle

let flat = Sim.Params.flat_topology

(* 12 CPUs in clusters of 4: the smallest machine where the initiator,
   a same-cluster responder and two remote clusters all coexist. *)
let clustered_params =
  {
    Sim.Params.default with
    ncpus = 12;
    topology = { flat with Sim.Params.cluster_size = 4 };
    ipi_mode = Sim.Params.Multicast;
  }

(* ------------------------------------------------------------------ *)
(* Flat equivalence: cluster_size 0 and cluster_size >= ncpus are the
   same machine, float for float. *)

let tester_snapshot ~topology ~seed =
  let params = { Sim.Params.default with topology } in
  let r = Workloads.Tlb_tester.run_fresh ~params ~children:6 ~seed () in
  ( r.Workloads.Tlb_tester.initiator_elapsed,
    r.Workloads.Tlb_tester.increments_total,
    r.Workloads.Tlb_tester.processors,
    r.Workloads.Tlb_tester.consistent )

let test_flat_equivalence () =
  let a = tester_snapshot ~topology:flat ~seed:42L in
  let b =
    tester_snapshot
      ~topology:{ flat with Sim.Params.cluster_size = Sim.Params.default.ncpus }
      ~seed:42L
  in
  let c =
    tester_snapshot
      ~topology:{ flat with Sim.Params.cluster_size = 1024 }
      ~seed:42L
  in
  Alcotest.(check bool) "cluster_size = ncpus is the flat machine" true (a = b);
  Alcotest.(check bool) "cluster_size > ncpus is the flat machine" true (a = c)

(* ------------------------------------------------------------------ *)
(* Clustered behaviour. *)

(* A remote access serialises through local bus, interconnect and remote
   bus; it must book interconnect transactions and cost more than the
   same-cluster access it follows. *)
let test_remote_access_accounting () =
  let params =
    {
      Sim.Params.default with
      ncpus = 8;
      topology = { flat with Sim.Params.cluster_size = 4 };
    }
  in
  let eng = Sim.Engine.create () in
  let bus = Sim.Bus.create eng params in
  Alcotest.(check int) "two cluster buses" 2 (Sim.Bus.clusters bus);
  let local_cost = ref 0.0 and remote_cost = ref 0.0 in
  Sim.Engine.spawn eng (fun () ->
      let t0 = Sim.Engine.now eng in
      Sim.Bus.access bus ~who:0 ~home:1 ();
      local_cost := Sim.Engine.now eng -. t0;
      let t1 = Sim.Engine.now eng in
      Sim.Bus.access bus ~who:0 ~home:5 ();
      remote_cost := Sim.Engine.now eng -. t1);
  Sim.Engine.run eng;
  Alcotest.(check bool)
    "remote access costs more" true
    (!remote_cost > !local_cost);
  Alcotest.(check int)
    "remote access crossed the interconnect" 1
    (Sim.Bus.interconnect_transactions bus);
  Alcotest.(check int)
    "remote bus served the remote hop" 1
    (Sim.Bus.cluster_transactions bus ~cluster:1);
  Alcotest.(check int)
    "per-cluster counts sum to the total"
    (Sim.Bus.transactions bus)
    (Sim.Bus.cluster_transactions bus ~cluster:0
    + Sim.Bus.cluster_transactions bus ~cluster:1)

(* Cluster-targeted multicast: a task resident on one cluster interrupts
   that cluster only, where broadcast pays one IPI per other CPU. *)
let test_targeted_fewer_ipis () =
  let ipis mode =
    let params =
      {
        clustered_params with
        Sim.Params.ncpus = 16;
        ipi_mode = mode;
        seed = 11L;
      }
    in
    let machine = Vm.Machine.create ~params () in
    let r = Workloads.Tlb_tester.run machine ~children:3 () in
    Alcotest.(check bool) "consistent" true r.Workloads.Tlb_tester.consistent;
    machine.Vm.Machine.ctx.Core.Pmap.ipis_sent
  in
  let targeted = ipis Sim.Params.Multicast in
  let broadcast = ipis Sim.Params.Broadcast in
  Alcotest.(check bool)
    (Printf.sprintf "targeted (%d) < broadcast (%d)" targeted broadcast)
    true
    (targeted < broadcast)

(* The profiler on a clustered machine: per-cluster attribution
   partitions the per-CPU buckets, and remote traffic shows up in the
   Interconnect_wait bucket. *)
let test_clustered_profile () =
  let params = { clustered_params with Sim.Params.seed = 5L } in
  let machine = Vm.Machine.create ~params () in
  let profile = Instrument.Profile.create ~ncpus:params.Sim.Params.ncpus () in
  Vm.Machine.attach_profile machine profile;
  let r = Workloads.Tlb_tester.run machine ~children:8 () in
  Alcotest.(check bool) "consistent" true r.Workloads.Tlb_tester.consistent;
  Alcotest.(check int) "three clusters mapped" 3
    (Instrument.Profile.nclusters profile);
  Alcotest.(check bool)
    "interconnect wait observed" true
    (Instrument.Profile.category_total profile
       Instrument.Profile.Interconnect_wait
    > 0.0);
  List.iter
    (fun cat ->
      let by_cluster = ref 0.0 in
      for c = 0 to 2 do
        by_cluster :=
          !by_cluster +. Instrument.Profile.cluster_total profile ~cluster:c cat
      done;
      Alcotest.(check (float 1e-9))
        ("cluster totals partition " ^ Instrument.Profile.category_name cat)
        (Instrument.Profile.category_total profile cat)
        !by_cluster)
    Instrument.Profile.categories

(* ------------------------------------------------------------------ *)
(* QCheck: cluster-targeted shootdown keeps the oracle green on random
   kernel map/unmap histories (the kernel pmap is in use on every
   cluster, so each flush exercises the multicast grouping). *)

let nth l i = match List.nth_opt l i with Some v -> v | None -> 0

let kernel_history_trial l =
  let bufs = 1 + (nth l 0 mod 10) in
  let pages = 1 + (nth l 1 mod 3) in
  let spinners = nth l 2 mod 4 in
  let seed = Int64.of_int (1 + nth l 3) in
  let params = { clustered_params with Sim.Params.seed } in
  let machine = Vm.Machine.create ~params () in
  let oracle = Oracle.attach machine.Vm.Machine.ctx in
  Vm.Machine.run machine (fun self ->
      let vms = machine.Vm.Machine.vms in
      let kmap = machine.Vm.Machine.kernel_map in
      let sched = machine.Vm.Machine.sched in
      (* spinners pinned on distinct clusters keep remote TLBs warm *)
      let threads =
        List.init spinners (fun i ->
            Sim.Sched.create_thread sched
              ~bound:(1 + (i * 4 mod 11))
              ~name:(Printf.sprintf "spin%d" i)
              (fun th ->
                for _ = 1 to 100 do
                  Sim.Cpu.kernel_step (Sim.Sched.current_cpu th) 50.0
                done))
      in
      for _ = 1 to bufs do
        let buf = Vm.Kmem.alloc_pageable vms self kmap ~pages in
        (match
           Vm.Task.touch_range vms self kmap ~lo_vpn:buf ~pages
             ~access:Hw.Addr.Write_access
         with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "buffer fault");
        Vm.Kmem.free vms self kmap ~vpn:buf ~pages
      done;
      List.iter (fun th -> Sim.Sched.join sched self th) threads);
  Oracle.consistent oracle && Oracle.checks oracle > 0

let fuzz_targeted_shootdown_oracle_green =
  QCheck.Test.make ~count:15
    ~name:"cluster-targeted shootdown keeps oracle green on random histories"
    (QCheck.make
       ~print:(fun l -> String.concat "," (List.map string_of_int l))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (0 -- 4) small_nat))
    kernel_history_trial

let () =
  Alcotest.run "topology"
    [
      ( "equivalence",
        [
          Alcotest.test_case "flat topology reproduces the single bus" `Quick
            test_flat_equivalence;
        ] );
      ( "clustered",
        [
          Alcotest.test_case "remote access crosses the interconnect" `Quick
            test_remote_access_accounting;
          Alcotest.test_case "targeted multicast interrupts fewer CPUs" `Quick
            test_targeted_fewer_ipis;
          Alcotest.test_case "per-cluster profile attribution" `Quick
            test_clustered_profile;
          QCheck_alcotest.to_alcotest fuzz_targeted_shootdown_oracle_green;
        ] );
    ]
