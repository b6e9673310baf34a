(* The two batch workloads: one library call does the whole job, so the
   benchmark times the call and checks its result.

   - [timeshare]: [Workload.run] on an E17-style session mix — MLF
     scheduler, gate calls on, 1 CPU, no sites.  The only workload that
     runs lib/sched, the lib/proc event loop and lib/vm/lib/mm page
     control.  Set-up is the same spec with no load (interactions and
     absentee jobs zeroed): simulator, memory, page control, scheduler,
     booted kernel, pool logins and session spawns.
   - [mc_explore]: [Mc.explore ~jobs:1] at a fixed depth.  Every replay
     reboots the plant, so snapshot/restore or partial-order reduction
     moves this workload only.  Set-up is the depth-0 exploration: one
     plant boot and the checks of its root state. *)

module Workload = Multics_sched.Workload
module Mc = Multics_mc.Mc
module Obs = Multics_obs.Obs
module Audit_log = Multics_kernel.Audit_log
module Gate = Multics_kernel.Gate
module Config = Multics_kernel.Config

(* A batch job: its set-up (run [setup_reps] times, the median timed),
   the timed call, the units of work it completes, a fingerprint every
   episode of a run must reproduce, and the check (attempted, failed). *)
type 'r job = {
  prepare : unit -> 'r;
  setup_reps : int;
  work : unit -> 'r;
  units : 'r -> int;
  fingerprint : 'r -> string;
  verify : setup:'r -> 'r -> int * int;
}

type episode = {
  setup_s : float;
  wall_ns : int;
  units : int;
  fingerprint : string;
  attempted : int;
  failed : int;
  heap_mb : float;
}

let timed_setup job =
  let times = ref [] and last = ref None in
  for _ = 1 to job.setup_reps do
    let t0 = Meter.now_ns () in
    last := Some (job.prepare ());
    times := Meter.seconds_since t0 :: !times
  done;
  (Meter.median_of_list !times, Option.get !last)

let episode job =
  let setup_s, setup = timed_setup job in
  let t0 = Meter.now_ns () in
  let result = job.work () in
  let wall_ns = Meter.now_ns () - t0 in
  let attempted, failed = job.verify ~setup result in
  let heap_mb = Meter.heap_peak_mb () in
  {
    setup_s;
    wall_ns;
    units = job.units result;
    fingerprint = job.fingerprint result;
    attempted;
    failed;
    heap_mb;
  }

(* Every job of a run is the same deterministic computation, so the
   job-latency distribution has one true value and the spread between
   jobs is the host's: both latency figures are the median job wall. *)
let end_to_end eps ~unit_name =
  let sum f = List.fold_left (fun a e -> a + f e) 0 eps in
  let median f = Meter.median_of_list (List.map f eps) in
  let consistent =
    match eps with [] -> true | e :: rest -> List.for_all (fun e' -> e'.fingerprint = e.fingerprint) rest
  in
  let job_us = median (fun e -> float_of_int e.wall_ns /. 1e3) in
  {
    Report.attempted = sum (fun e -> e.attempted);
    failed = sum (fun e -> e.failed) + if consistent then 0 else 1;
    metrics =
      [
        ("setup_s", median (fun e -> e.setup_s), "s");
        ("ops_per_s", median (fun e -> float_of_int e.units /. (float_of_int e.wall_ns *. 1e-9)), "1/s");
        ("op_p50_us", job_us, "us");
        ("op_p99_us", job_us, "us");
        ("heap_peak_mb", median (fun e -> e.heap_mb), "MB");
      ];
    notes =
      [
        Printf.sprintf
          "%d identical jobs, each in a fresh process; ops are %s, %d per job; op latency is the \
           median job wall"
          (List.length eps) unit_name (List.hd eps).units;
        "job walls (s): "
        ^ String.concat " "
            (List.rev_map (fun e -> Printf.sprintf "%.3f" (float_of_int e.wall_ns *. 1e-9)) eps);
      ];
  }

(* Audit_log.length at a given depth, on a trail of that many records:
   the batch workloads keep their kernels to themselves, and the cost of
   the walk depends on nothing but the depth. *)
let audit_length_ns ~depth =
  let log = Audit_log.create () in
  let subject = Multics_kernel.System.initializer_subject in
  for _ = 1 to depth do
    Audit_log.log log ~subject ~operation:"probe" ~target:"" ~verdict:Audit_log.Granted
  done;
  Meter.per_call_ns ~reps:16 (fun () -> Audit_log.length log)

let gate_find_ns gates =
  let config = Config.kernel_6180 in
  Meter.median_of_list
    (List.map
       (fun gate -> Meter.per_call_ns ~reps:1_000 (fun () -> Gate.find config ~gate_name:gate))
       gates)

let dispatch_zeros =
  Report.not_measured ~why:"the library call owns its kernel; the benchmark dispatches nothing itself"
    [
      ("core.dispatch_read_ns", "ns"); ("core.dispatch_refused_ns", "ns");
      ("core.dispatch_mutate_ns", "ns"); ("core.gate_mask_ns", "ns"); ("core.proc_lookup_ns", "ns");
      ("core.boot_ms", "ms"); ("core.login_ms", "ms"); ("core.populate_ms", "ms");
      ("core.initiate_ms", "ms"); ("obs.dispatch_off_ns", "ns"); ("obs.overhead_ratio", "ratio");
      ("fs.check_access_ns", "ns"); ("fs.av_rebuild_ms", "ms"); ("access.policy_check_ns", "ns");
    ]

(* ----- timeshare ----- *)

let timeshare_spec ~seed =
  {
    Workload.default with
    seed;
    users = 1_024;
    interactions = 16;
    think = 30_000;
    service = 1_500;
    working_set = 3;
    passes = 2;
    batch = 2;
    daemons = 1;
    gate_calls = true;
    vps = 4;
    cap = 0;
    policy = Workload.Use_mlf;
    fault_spec = "";
    cost = Multics_machine.Cost.h6180;
    cpus = 1;
    sites = 0;
  }

let gate_calls (r : Workload.result) = r.Workload.r_audit_granted + r.Workload.r_audit_refused

let timeshare_job ~seed =
  let spec = timeshare_spec ~seed in
  let interactions = spec.Workload.users * spec.Workload.interactions in
  {
    prepare = (fun () -> Workload.run { spec with interactions = 0; batch = 0 });
    setup_reps = 3;
    work = (fun () -> Workload.run spec);
    units = (fun r -> r.Workload.r_completed);
    fingerprint =
      (fun r ->
        Printf.sprintf "%d/%d/%d/%d" r.Workload.r_signature r.Workload.r_completed
          r.Workload.r_cycles r.Workload.r_page_faults);
    verify =
      (fun ~setup r ->
        (* One gate call per interaction, every third refused, on top of
           the set-up's own calls. *)
        let refused = spec.Workload.users * (spec.Workload.interactions / 3) in
        let audit_ok =
          gate_calls r = gate_calls setup + interactions
          && r.Workload.r_audit_refused = setup.Workload.r_audit_refused + refused
        in
        (interactions, interactions - r.Workload.r_completed + if audit_ok then 0 else 1));
  }

let timeshare ~seed ~seconds =
  end_to_end
    (Fresh.repeat ~seconds (fun () -> episode (timeshare_job ~seed)))
    ~unit_name:"completed interactions"

let untraced_ns (plain : episode) = int_of_float (plain.setup_s *. 1e9) + plain.wall_ns

let overhead_ratio trace root plain =
  float_of_int (Trace.duration trace root) /. float_of_int (untraced_ns plain)

let timeshare_traced ~seed ~trace_path =
  let job = timeshare_job ~seed in
  let spec = timeshare_spec ~seed in
  let plain = Fresh.run (fun () -> episode { job with setup_reps = 1 }) in
  let trace = Trace.create () in
  let root = Trace.enter trace ~name:"bench.episode" ~req:0 in
  let setup = Trace.with_span trace ~name:"sched.run_idle" ~req:0 job.prepare in
  let before = Obs.Snapshot.capture () in
  let r = Trace.with_span trace ~name:"sched.run" ~req:1 job.work in
  let after = Obs.Snapshot.capture () in
  Trace.leave trace root;
  let attempted, failed = job.verify ~setup r in
  let sim_only =
    Trace.with_span trace ~name:"sched.run_sim_only" ~req:2 (fun () ->
        Workload.run { spec with gate_calls = false })
  in
  Trace.write trace ~path:trace_path;
  let secs name = List.fold_left ( +. ) 0. (Trace.durations trace ~name) /. 1e9 in
  let run_s = secs "sched.run" and sim_s = secs "sched.run_sim_only" in
  let sched key = float_of_int (Option.value ~default:0 (List.assoc_opt key r.Workload.r_sched)) in
  let depth = gate_calls r in
  let zeros, zero_note = dispatch_zeros in
  let mc_zeros, mc_note =
    Report.not_measured ~why:"no SMP plant or model checker"
      [
        ("smp.cam_hit_ratio", "ratio"); ("smp.connects_per_mutation", "ratio");
        ("mc.states", "count"); ("mc.expansions", "count"); ("mc.new_state_ratio", "ratio");
        ("mc.replay_d0_us", "us"); ("mc.replay_dmax_us", "us"); ("mc.replay_share", "ratio");
      ]
  in
  {
    Report.attempted = plain.attempted + attempted + spec.Workload.users * spec.Workload.interactions;
    failed =
      plain.failed + failed
      + (spec.Workload.users * spec.Workload.interactions) - sim_only.Workload.r_completed;
    metrics =
      [
        ("core.audit_length_ns", audit_length_ns ~depth, "ns");
        ("core.audit_depth", float_of_int depth, "count");
        ("core.gate_find_ns", gate_find_ns [ "send_wakeup"; "read_word" ], "ns");
        ("core.refusal_ratio", Report.ratio r.Workload.r_audit_refused depth, "ratio");
        ("machine.assoc_hit_ratio", Report.hit_ratio ~before ~after "hw.assoc", "ratio");
        ("access.av_hit_ratio", Report.hit_ratio ~before ~after "policy", "ratio");
        ("sched.dispatches", sched "dispatches", "count");
        ("sched.preemptions", sched "preemptions", "count");
        ("vm.page_faults", float_of_int r.Workload.r_page_faults, "count");
        ("proc.sim_cycles", float_of_int r.Workload.r_cycles, "count");
        ("sched.sim_only_s", sim_s, "s");
        ("core.gate_share", 1. -. (sim_s /. run_s), "ratio");
        ("bench.trace_overhead_ratio", overhead_ratio trace root plain, "ratio");
      ]
      @ zeros @ mc_zeros;
    notes =
      Report.self_time_lines trace ~root ~untraced_ns:(untraced_ns plain)
      @ [
          Printf.sprintf "Workload.run %.3f s with gate calls, %.3f s without: mediation %.0f%%"
            run_s sim_s
            (100. *. (1. -. (sim_s /. run_s)));
          zero_note;
          mc_note;
          "core.audit_length_ns: Audit_log.length on a trail of the run's final depth";
        ];
  }

(* ----- mc_explore ----- *)

let mc_depth = 4

(* (states, replays) at [mc_depth], as E21 reports them. *)
let mc_known = (686, 3_766)

let mc_job =
  {
    prepare = (fun () -> Mc.explore ~jobs:1 ~depth:0 ());
    setup_reps = 9;
    work = (fun () -> Mc.explore ~jobs:1 ~depth:mc_depth ());
    units = (fun o -> o.Mc.o_states);
    fingerprint = Mc.summary;
    verify =
      (fun ~setup o ->
        let bad_setup = if setup.Mc.o_counterexamples = [] && setup.Mc.o_states = 1 then 0 else 1 in
        let bad_counts = if (o.Mc.o_states, o.Mc.o_expansions) = mc_known then 0 else 1 in
        (o.Mc.o_expansions, List.length o.Mc.o_counterexamples + bad_counts + bad_setup));
  }

let mc_explore ~seconds =
  end_to_end (Fresh.repeat ~seconds (fun () -> episode mc_job)) ~unit_name:"distinct states"

let mc_gates = [ "read_word"; "write_word"; "set_acl"; "set_brackets"; "create_segment"; "salvage" ]

(* Seeded traces over the clean alphabet, [count] of each length. *)
let seeded_traces ~seed ~length ~count =
  let prng =
    Multics_util.Prng.create_labeled ~seed ~label:(Printf.sprintf "perfbench.mc.%d" length)
  in
  let alphabet = Array.of_list (Mc.alphabet ~bug:false) in
  List.init count (fun _ ->
      List.init length (fun _ -> alphabet.(Multics_util.Prng.int prng (Array.length alphabet))))

(* Median replay (boot, trace, canonical state, predicates) at each
   depth 0..mc_depth, in a fresh process so no earlier boot's leftovers
   weigh on it; with the violations found. *)
let replay_probes ~seed =
  Fresh.run (fun () ->
      let violations = ref 0 in
      let medians =
        List.init (mc_depth + 1) (fun d ->
            let times =
              List.map
                (fun t ->
                  let t0 = Meter.now_ns () in
                  let _, found = Mc.violations_of_trace ~bug:false t in
                  let dt = Meter.now_ns () - t0 in
                  violations := !violations + List.length found;
                  float_of_int dt)
                (seeded_traces ~seed ~length:d ~count:24)
            in
            (d, Meter.median_of_list times /. 1e3))
      in
      (medians, !violations))

let mc_traced ~seed ~trace_path =
  let plain = Fresh.run (fun () -> episode { mc_job with setup_reps = 1 }) in
  let replays, replay_violations = replay_probes ~seed in
  let trace = Trace.create () in
  let root = Trace.enter trace ~name:"bench.episode" ~req:0 in
  let setup = Trace.with_span trace ~name:"mc.explore_d0" ~req:0 mc_job.prepare in
  let before = Obs.Snapshot.capture () in
  let o = Trace.with_span trace ~name:"mc.explore" ~req:1 mc_job.work in
  let after = Obs.Snapshot.capture () in
  Trace.leave trace root;
  let attempted, failed = mc_job.verify ~setup o in
  Trace.write trace ~path:trace_path;
  let explore_us = List.fold_left ( +. ) 0. (Trace.durations trace ~name:"mc.explore") /. 1e3 in
  let replay_share =
    List.fold_left
      (fun acc row ->
        acc +. (float_of_int row.Mc.row_expansions *. List.assoc row.Mc.row_depth replays))
      0. o.Mc.o_rows
    /. explore_us
  in
  let new_states = List.fold_left (fun a row -> a + row.Mc.row_new_states) 0 o.Mc.o_rows in
  let d = Report.delta ~before ~after in
  let depth = Option.value ~default:0 (List.assoc_opt "audit.depth" after.Obs.Snapshot.counters) in
  let zeros, zero_note = dispatch_zeros in
  let sched_zeros, sched_note =
    Report.not_measured ~why:"no scheduler or page control"
      [
        ("sched.dispatches", "count"); ("sched.preemptions", "count"); ("vm.page_faults", "count");
        ("proc.sim_cycles", "count"); ("sched.sim_only_s", "s"); ("core.gate_share", "ratio");
        ("smp.connects_per_mutation", "ratio");
      ]
  in
  {
    Report.attempted = plain.attempted + attempted + (24 * List.length replays);
    failed = plain.failed + failed + replay_violations;
    metrics =
      [
        ("core.audit_length_ns", audit_length_ns ~depth, "ns");
        ("core.audit_depth", float_of_int depth, "count");
        ("core.gate_find_ns", gate_find_ns mc_gates, "ns");
        ("core.refusal_ratio", Report.ratio (d "gate.refusals") (d "gate.calls"), "ratio");
        ("machine.assoc_hit_ratio", Report.hit_ratio ~before ~after "hw.assoc", "ratio");
        ("smp.cam_hit_ratio", Report.hit_ratio ~before ~after "smp.assoc", "ratio");
        ("access.av_hit_ratio", Report.hit_ratio ~before ~after "policy", "ratio");
        ("mc.states", float_of_int o.Mc.o_states, "count");
        ("mc.expansions", float_of_int o.Mc.o_expansions, "count");
        ("mc.new_state_ratio", Report.ratio new_states o.Mc.o_expansions, "ratio");
        ("mc.replay_d0_us", List.assoc 0 replays, "us");
        ("mc.replay_dmax_us", List.assoc mc_depth replays, "us");
        ("mc.replay_share", replay_share, "ratio");
        ("bench.trace_overhead_ratio", overhead_ratio trace root plain, "ratio");
      ]
      @ zeros @ sched_zeros;
    notes =
      Report.self_time_lines trace ~root ~untraced_ns:(untraced_ns plain)
      @ [
          Printf.sprintf "depth %d: %d states, %d replays, %d counterexamples" mc_depth o.Mc.o_states
            o.Mc.o_expansions
            (List.length o.Mc.o_counterexamples);
          Printf.sprintf
            "replays timed in a fresh process explain %.0f%% of the explore wall; the rest is \
             the visited set and frontier, and boots slowed by earlier boots' leftovers"
            (100. *. replay_share);
          "median replay by depth (us): "
          ^ String.concat " " (List.map (fun (d, us) -> Printf.sprintf "d%d=%.0f" d us) replays);
          zero_note;
          sched_note;
          "core.audit_depth: the audit.depth gauge after the last replay";
        ];
  }
