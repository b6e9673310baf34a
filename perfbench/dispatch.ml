(* Running the dispatch workloads (gate_mix, revoke_churn): episodes of
   set-up plus a fixed call stream, timed per call on the monotonic
   clock, every reply checked outside the timed region. *)

open Multics_kernel
open Population
module Obs = Multics_obs.Obs
module Samples = Meter.Samples

type episode = {
  setup_s : float;
  attempted : int;
  failed : int;
  latencies : float array;  (** ns, one per call *)
  heap_mb : float;
}

(* One timed call: pin the CPU, build the request and compute the
   oracle's expectation (untimed), dispatch (timed), check (untimed).
   [timed] brackets the dispatch and receives the reply. *)
let call pop op ~timed =
  let u = user_of op in
  let request = request pop op in
  let expectation = expect pop op in
  on_cpu pop.plant u;
  let reply = timed (fun () -> Call.dispatch pop.system ~handle:pop.handles.(u) request) in
  (reply, check pop op expectation reply)

let refusals_ok inputs refused =
  Option.fold ~none:true ~some:(Int.equal refused) inputs.expected_refusals

let episode kind inputs =
  let lat = Samples.create (Array.length inputs.ops) in
  let t0 = Meter.now_ns () in
  let pop = setup kind in
  let setup_s = Meter.seconds_since t0 in
  let failed = ref 0 and refused = ref 0 in
  let timed f =
    let t0 = Meter.now_ns () in
    let reply = f () in
    Samples.add lat (float_of_int (Meter.now_ns () - t0));
    reply
  in
  Array.iter
    (fun op ->
      let reply, ok = call pop op ~timed in
      if Result.is_error reply then incr refused;
      if not ok then incr failed)
    inputs.ops;
  if not (refusals_ok inputs !refused) then incr failed;
  let heap_mb = Meter.heap_peak_mb () in
  {
    setup_s;
    attempted = Array.length inputs.ops;
    failed = !failed;
    latencies = Samples.to_array lat;
    heap_mb;
  }

(* Every episode replays the same call stream in a fresh process, so
   the same call's latency differs between episodes only by what the
   host did meanwhile.  Each call's typical latency is its median over
   the run's episodes; the latency percentiles and the throughput are
   taken over these typical latencies, which leaves the kernel's own
   costs (trail depth, call class, GC) and drops interference. *)
let typical_latencies episodes =
  let eps = Array.of_list episodes in
  let column = Array.make (Array.length eps) 0. in
  let typical =
    Array.init (Array.length eps.(0).latencies) (fun i ->
        Array.iteri (fun k e -> column.(k) <- e.latencies.(i)) eps;
        Array.sort Float.compare column;
        Meter.percentile column 0.5)
  in
  Array.sort Float.compare typical;
  typical

let run kind ~seed ~seconds =
  let inputs = inputs kind ~seed in
  let episodes = Fresh.repeat ~seconds (fun () -> episode kind inputs) in
  let sum f = List.fold_left (fun a e -> a + f e) 0 episodes in
  let median f = Meter.median_of_list (List.map f episodes) in
  let typical = typical_latencies episodes in
  let checked_per_episode =
    float_of_int (sum (fun e -> e.attempted - e.failed)) /. float_of_int (List.length episodes)
  in
  {
    Report.attempted = sum (fun e -> e.attempted);
    failed = sum (fun e -> e.failed);
    metrics =
      [
        ("setup_s", median (fun e -> e.setup_s), "s");
        ("ops_per_s", checked_per_episode /. (Array.fold_left ( +. ) 0. typical *. 1e-9), "1/s");
        ("op_p50_us", Meter.percentile typical 0.50 /. 1e3, "us");
        ("op_p99_us", Meter.percentile typical 0.99 /. 1e3, "us");
        ("heap_peak_mb", median (fun e -> e.heap_mb), "MB");
      ];
    notes =
      [
        Printf.sprintf
          "%d episodes of %d calls, each in a fresh process; figures over each call's median \
           latency across episodes"
          (List.length episodes) (Array.length inputs.ops);
      ];
  }

(* ----- The traced run ----- *)

let class_of op (reply : Call.response) =
  match (op, reply) with
  | _, Error _ -> "core.dispatch.refused"
  | Read _, Ok _ -> "core.dispatch.read"
  | Write _, Ok _ -> "core.dispatch.write"
  | (Set_acl _ | Set_brackets _), Ok _ -> "core.dispatch.mutate"
  | _, Ok _ -> "core.dispatch.dir"

(* Probe every [probe_every]-th call, batching [reps] calls per probe:
   single probe calls are tens of ns. *)
let probe_every = 8
let reps = 32

let segment_of = function
  | Read { u; j; _ } -> Some (u, j, Multics_machine.Mode.r)
  | Write { u; j; _ } -> Some (u, j, Multics_machine.Mode.w)
  | Set_acl { u; j; _ } | Set_brackets { u; j; _ } -> Some (u, j, Multics_machine.Mode.w)
  | _ -> None

(* Side-effect-free public functions called with this call's own
   arguments, each in its layer's span; the span covers [reps] calls. *)
let probes trace pop op ~req =
  let probe name f =
    Trace.with_span trace ~name ~req (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  let u = user_of op in
  let handle = pop.handles.(u) in
  let config = System.config pop.system in
  let gate = Call.operation_name pop.system (request pop op) in
  probe "core.proc_lookup" (fun () -> System.proc pop.system handle);
  probe "core.gate_find" (fun () -> Gate.find config ~gate_name:gate);
  probe "core.gate_mask" (fun () -> System.gate_admitted pop.system ~gate);
  Trace.with_span trace ~name:"core.audit_length" ~req (fun () ->
      ignore (Sys.opaque_identity (Audit_log.length (System.audit pop.system))));
  match segment_of op with
  | None -> ()
  | Some (u, j, requested) ->
      let hierarchy = System.hierarchy pop.system in
      let subject = System.subject_of (proc pop u) in
      let uid = pop.uids.(global_seg u j) in
      probe "fs.check_access" (fun () -> Hierarchy.check_access hierarchy ~subject ~uid ~requested);
      probe "access.policy_check" (fun () ->
          Hierarchy.check_access_fresh hierarchy ~subject ~uid ~requested)

let median_ns trace name ~per =
  match Trace.durations trace ~name with
  | [] -> 0.
  | ds -> Meter.median_of_list ds /. float_of_int per

(* Granted reads sent again at the final depth, alternating obs on and
   off, so both medians see the same audit trail. *)
let obs_pairs pop inputs ~count =
  let reads = List.filter (function Read _ -> true | _ -> false) (Array.to_list inputs.ops) in
  let reads = Array.of_list reads in
  let on = Samples.create count and off = Samples.create count in
  let failed = ref 0 in
  for k = 0 to count - 1 do
    let enabled = k mod 2 = 0 in
    let timed f =
      Obs.set_enabled enabled;
      let t0 = Meter.now_ns () in
      let reply = f () in
      let dt = Meter.now_ns () - t0 in
      Obs.set_enabled true;
      if Result.is_ok reply then Samples.add (if enabled then on else off) (float_of_int dt);
      reply
    in
    let _, ok = call pop reads.(k mod Array.length reads) ~timed in
    if not ok then incr failed
  done;
  let med s = Meter.percentile (Samples.sorted s) 0.5 in
  (med on, med off, count, !failed)

let traced kind ~seed ~trace_path =
  let inputs = inputs kind ~seed in
  let plain, plain_ns =
    Fresh.run (fun () ->
        let t0 = Meter.now_ns () in
        let e = episode kind inputs in
        (e, Meter.now_ns () - t0))
  in
  let trace = Trace.create () in
  let root = Trace.enter trace ~name:"bench.episode" ~req:0 in
  let pop =
    Trace.with_span trace ~name:"bench.setup" ~req:0 (fun () -> setup ~trace kind)
  in
  let before = Obs.Snapshot.capture () in
  let failed = ref 0 and refused = ref 0 and mutations = ref 0 in
  Trace.with_span trace ~name:"bench.calls" ~req:0 (fun () ->
      Array.iteri
        (fun i op ->
          let req = i + 1 in
          let timed f =
            let id = Trace.enter trace ~name:"core.dispatch" ~req in
            let reply = f () in
            Trace.leave trace id ~name:(class_of op reply);
            reply
          in
          let reply, ok = call pop op ~timed in
          if Result.is_error reply then incr refused
          else if is_mutation op then incr mutations;
          if not ok then incr failed;
          if i mod probe_every = 0 then probes trace pop op ~req)
        inputs.ops);
  let after = Obs.Snapshot.capture () in
  if not (refusals_ok inputs !refused) then incr failed;
  let audit = System.audit pop.system in
  let depth = Audit_log.length audit in
  let audit_length_ns =
    Trace.with_span trace ~name:"core.audit_length_final" ~req:0 (fun () ->
        Meter.per_call_ns ~reps:16 (fun () -> Audit_log.length audit))
  in
  let on_ns, off_ns, pairs, pair_failed =
    Trace.with_span trace ~name:"obs.on_off_pairs" ~req:0 (fun () -> obs_pairs pop inputs ~count:2_000)
  in
  Trace.leave trace root;
  Trace.write trace ~path:trace_path;
  let traced_ns = Trace.duration trace root in
  let span_ms name =
    List.fold_left ( +. ) 0. (Trace.durations trace ~name) /. 1e6
  in
  let d = Report.delta ~before ~after in
  let calls = d "gate.calls" in
  let read_ns = median_ns trace "core.dispatch.read" ~per:1 in
  let probe name = median_ns trace name ~per:reps in
  let mutate_ns = median_ns trace "core.dispatch.mutate" ~per:1 in
  let audit_per_call = median_ns trace "core.audit_length" ~per:1 in
  let attributed =
    [
      ("core.proc_lookup", probe "core.proc_lookup");
      ("core.gate_find", probe "core.gate_find");
      ("core.gate_mask", probe "core.gate_mask");
      ("core.audit_length (at the call's depth)", audit_per_call);
      ("fs.check_access (AV-table decision)", probe "fs.check_access");
    ]
  in
  let remainder = read_ns -. List.fold_left (fun a (_, v) -> a +. v) 0. attributed in
  let smp_metrics, smp_note =
    match kind with
    | Revoke_churn ->
        ( [
            ("smp.cam_hit_ratio", Report.hit_ratio ~before ~after "smp.assoc", "ratio");
            ( "smp.connects_per_mutation",
              Report.ratio (d "smp.connects.sent") !mutations,
              "ratio" );
          ],
          [] )
    | Gate_mix ->
        let zeros, note =
          Report.not_measured ~why:"uniprocessor kernel, no ACL or bracket edits"
            [ ("smp.cam_hit_ratio", "ratio"); ("smp.connects_per_mutation", "ratio");
              ("core.dispatch_mutate_ns", "ns") ]
        in
        (zeros, [ note ])
  in
  let batch_zeros, batch_note =
    Report.not_measured ~why:"no scheduler, page control or model checker on this path"
      [
        ("sched.dispatches", "count"); ("sched.preemptions", "count"); ("vm.page_faults", "count");
        ("proc.sim_cycles", "count"); ("sched.sim_only_s", "s"); ("core.gate_share", "ratio");
        ("mc.states", "count"); ("mc.expansions", "count"); ("mc.new_state_ratio", "ratio");
        ("mc.replay_d0_us", "us"); ("mc.replay_dmax_us", "us"); ("mc.replay_share", "ratio");
      ]
  in
  let metrics =
    [
      ("core.dispatch_read_ns", read_ns, "ns");
      ("core.dispatch_refused_ns", median_ns trace "core.dispatch.refused" ~per:1, "ns");
      ("core.audit_length_ns", audit_length_ns, "ns");
      ("core.audit_depth", float_of_int depth, "count");
      ("core.gate_find_ns", probe "core.gate_find", "ns");
      ("core.gate_mask_ns", probe "core.gate_mask", "ns");
      ("core.proc_lookup_ns", probe "core.proc_lookup", "ns");
      ("core.boot_ms", span_ms "core.boot", "ms");
      ("core.login_ms", span_ms "core.login", "ms");
      ("core.populate_ms", span_ms "core.populate", "ms");
      ("core.initiate_ms", span_ms "core.initiate", "ms");
      ("core.refusal_ratio", Report.ratio (d "gate.refusals") calls, "ratio");
      ("obs.dispatch_off_ns", off_ns, "ns");
      ("obs.overhead_ratio", on_ns /. off_ns, "ratio");
      ("machine.assoc_hit_ratio", Report.hit_ratio ~before ~after "hw.assoc", "ratio");
      ("fs.check_access_ns", probe "fs.check_access", "ns");
      ("fs.av_rebuild_ms", span_ms "fs.av_rebuild", "ms");
      ("access.policy_check_ns", probe "access.policy_check", "ns");
      ("access.av_hit_ratio", Report.hit_ratio ~before ~after "policy", "ratio");
      ("bench.trace_overhead_ratio", float_of_int traced_ns /. float_of_int plain_ns, "ratio");
    ]
    @ (match kind with Revoke_churn -> [ ("core.dispatch_mutate_ns", mutate_ns, "ns") ] | Gate_mix -> [])
    @ smp_metrics @ batch_zeros
  in
  let expected_share =
    match inputs.expected_refusals with
    | Some n -> Printf.sprintf "generator expects %d of %d" n (Array.length inputs.ops)
    | None -> "no fixed share: refusals follow the revocations"
  in
  {
    Report.attempted = plain.attempted + Array.length inputs.ops + pairs;
    failed = plain.failed + !failed + pair_failed;
    metrics;
    notes =
      (Printf.sprintf "refusals: kernel %d of %d calls (%s)" (d "gate.refusals") calls expected_share
      :: Report.self_time_lines trace ~root ~untraced_ns:plain_ns)
      @ [
          Printf.sprintf "granted read_word dispatch, median %.0f ns at the episode's depths:" read_ns;
        ]
      @ List.map (fun (name, ns) -> Printf.sprintf "  %-42s %10.0f ns" name ns) attributed
      @ [
          Printf.sprintf "  %-42s %10.0f ns" "unattributed remainder" remainder;
          Printf.sprintf "obs on/off at the final depth (%d records): %.0f / %.0f ns" depth on_ns
            off_ns;
          batch_note;
        ]
      @ smp_note;
  }
