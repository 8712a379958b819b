(* One instrumented run of each evaluation application (section 5.2), from
   which Tables 2, 3 and 4 and the section 8 overhead analysis are all
   derived — mirroring the paper, which collected one data set and sliced
   it three ways.

   [scale] shrinks the workloads for quick test runs. *)

type t = {
  mach : Workloads.Driver.report;
  parthenon : Workloads.Driver.report;
  agora : Workloads.Driver.report;
  camelot : Workloads.Driver.report;
}

let scaled_mach scale =
  let c = Workloads.Mach_build.default_config in
  { c with Workloads.Mach_build.jobs = max 4 (c.Workloads.Mach_build.jobs * scale / 100) }

let scaled_parthenon scale =
  let c = Workloads.Parthenon.default_config in
  {
    c with
    Workloads.Parthenon.runs = max 1 (c.Workloads.Parthenon.runs * scale / 100);
    max_items = max 30 (c.Workloads.Parthenon.max_items * scale / 100);
  }

let scaled_churn scale =
  let c = Workloads.Mmap_churn.default_config in
  {
    c with
    Workloads.Mmap_churn.requests =
      max 5 (c.Workloads.Mmap_churn.requests * scale / 100);
  }

let scaled_agora scale =
  let c = Workloads.Agora.default_config in
  { c with Workloads.Agora.runs = max 1 (c.Workloads.Agora.runs * scale / 100) }

let scaled_camelot scale =
  let c = Workloads.Camelot.default_config in
  {
    c with
    Workloads.Camelot.transactions =
      max 20 (c.Workloads.Camelot.transactions * scale / 100);
  }

(* Each application boots its own production machine, so the four runs
   are independent trials for the domain pool. *)
let run ?(jobs = 1) ?(scale = 100) () =
  let params = Sim.Params.production in
  match
    Sim.Domain_pool.map_trials ~jobs
      (fun run -> run ())
      [
        (fun () -> Workloads.Mach_build.run ~params ~cfg:(scaled_mach scale) ());
        (fun () ->
          Workloads.Parthenon.run ~params ~cfg:(scaled_parthenon scale) ());
        (fun () -> Workloads.Agora.run ~params ~cfg:(scaled_agora scale) ());
        (fun () -> Workloads.Camelot.run ~params ~cfg:(scaled_camelot scale) ());
      ]
  with
  | [ mach; parthenon; agora; camelot ] -> { mach; parthenon; agora; camelot }
  | _ -> assert false

let all t = [ t.mach; t.parthenon; t.agora; t.camelot ]

(* The workloads [tlbshoot trace] replays, by CLI name. *)
type trace_workload = Tester | Mach | Parthenon | Agora | Camelot

let trace_workloads =
  [
    ("tester", Tester);
    ("mach", Mach);
    ("parthenon", Parthenon);
    ("agora", Agora);
    ("camelot", Camelot);
  ]

(* Replay one workload with the span tracer [tr] attached: the tester
   with [children] responders on the default machine, an application at
   [scale] %.  The tester also attaches the contention profiler, so the
   stream carries its prof.<category> attribution slices. *)
let trace tr ~children ~scale = function
  | Tester ->
      let machine = Vm.Machine.create ~params:Sim.Params.default () in
      machine.Vm.Machine.ctx.Core.Pmap.trace <- Some tr;
      Sim.Engine.set_tracer machine.Vm.Machine.eng (Some tr);
      let profile =
        Instrument.Profile.create ~ncpus:Sim.Params.default.Sim.Params.ncpus ()
      in
      Instrument.Profile.set_tracer profile (Some tr);
      Vm.Machine.attach_profile machine profile;
      ignore (Workloads.Tlb_tester.run machine ~children ())
  | Mach ->
      ignore (Workloads.Mach_build.run ~trace:tr ~cfg:(scaled_mach scale) ())
  | Parthenon ->
      ignore
        (Workloads.Parthenon.run ~trace:tr ~cfg:(scaled_parthenon scale) ())
  | Agora ->
      ignore (Workloads.Agora.run ~trace:tr ~cfg:(scaled_agora scale) ())
  | Camelot ->
      ignore (Workloads.Camelot.run ~trace:tr ~cfg:(scaled_camelot scale) ())
