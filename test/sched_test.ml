(* Tests for the traffic controller (lib/sched): quantum expiry and
   preemption, the eligibility cap, MLF aging, the preempt-storm fault
   site, the Sched_status/Sched_tune gates, event-queue stability, and
   the schedule-invariance parity property E17 leans on. *)

open Multics_sched
module Sim = Multics_proc.Sim
module Event_queue = Multics_proc.Event_queue
module Cost = Multics_machine.Cost
module Fault = Multics_fault.Fault
module System = Multics_kernel.System
module Api = Multics_kernel.Api
module Config = Multics_kernel.Config
module Prng = Multics_util.Prng

let make_sim ?(vps = 1) () = Sim.create ~cost:Cost.h6180 ~virtual_processors:vps

let sched_stat sched name =
  match List.assoc_opt name (Sched.status sched) with
  | Some v -> v
  | None -> Alcotest.failf "missing sched counter %s" name

(* ----- Quantum expiry and preemption ----- *)

let test_quantum_preempts_and_interleaves () =
  (* One VP, tiny quantum: two equal compute-bound processes must
     preempt each other and finish close together, not serially. *)
  let sim = make_sim () in
  let sched =
    Sched.create ~policy:(Sched.Mlf { levels = 4; base_quantum = 100; age_after = 1_000_000 }) sim
  in
  let finish = Array.make 2 0 in
  for i = 0 to 1 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "cruncher.%d" i) (fun _ ->
           Sim.compute 1_000;
           finish.(i) <- Sim.now sim))
  done;
  Sim.run sim;
  Alcotest.(check bool) "preemptions happened" true (sched_stat sched "preemptions" > 0);
  Alcotest.(check bool) "expiries counted" true (sched_stat sched "quantum_expiries" > 0);
  (* Serial execution finishes the first at 1900 (1000 compute + one
     900-cycle process switch); interleaving pushes both well past the
     other's full demand. *)
  Alcotest.(check bool) "first finisher was interleaved" true (min finish.(0) finish.(1) > 2_500)

let test_fifo_never_preempts () =
  let sim = make_sim () in
  let sched = Sched.create ~policy:Sched.Fifo sim in
  let finish = Array.make 2 0 in
  for i = 0 to 1 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "cruncher.%d" i) (fun _ ->
           Sim.compute 1_000;
           finish.(i) <- Sim.now sim))
  done;
  Sim.run sim;
  Alcotest.(check int) "no preemptions" 0 (sched_stat sched "preemptions");
  Alcotest.(check int) "no expiries" 0 (sched_stat sched "quantum_expiries");
  (* Run-to-block: strictly serial, spawn order — the first finisher
     paid exactly one process switch, not an interleaving's worth. *)
  Alcotest.(check bool) "fifo order" true (finish.(0) < finish.(1));
  Alcotest.(check bool) "first finished serially" true (finish.(0) < 2_500)

let test_preemption_preserves_results () =
  (* The same computation, with and without a storm of preemptions,
     must produce identical process-visible results — preemption moves
     time, never values. *)
  let run ~quantum =
    let sim = make_sim () in
    ignore (Sched.create ~policy:(Sched.Mlf { levels = 2; base_quantum = quantum; age_after = 1_000_000 }) sim);
    let acc = ref [] in
    for i = 0 to 2 do
      ignore
        (Sim.spawn sim ~name:(Printf.sprintf "w.%d" i) (fun _ ->
             for step = 1 to 4 do
               Sim.compute 250;
               acc := (i, step) :: !acc
             done))
    done;
    Sim.run sim;
    List.sort compare !acc
  in
  Alcotest.(check (list (pair int int)))
    "results schedule-invariant" (run ~quantum:1_000_000) (run ~quantum:64)

(* ----- Eligibility ----- *)

let test_eligibility_cap_serializes () =
  (* Two VPs but cap 1: the second process must wait for the first to
     retire, even though a processor sits idle. *)
  let sim = make_sim ~vps:2 () in
  let sched = Sched.create ~eligibility_cap:1 sim in
  let span = Array.make 2 (0, 0) in
  for i = 0 to 1 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "job.%d" i) (fun _ ->
           let t0 = Sim.now sim in
           Sim.compute 500;
           span.(i) <- (t0, Sim.now sim)))
  done;
  Sim.run sim;
  Alcotest.(check bool) "second stalled" true (sched_stat sched "eligibility.stalls" >= 1);
  let _, end0 = span.(0) and start1, _ = span.(1) in
  Alcotest.(check bool) "no overlap under cap 1" true (start1 >= end0);
  Alcotest.(check int) "eligibility drained" 0 (Sched.eligible_count sched)

let test_release_eligibility_admits_stalled () =
  (* Holder surrenders eligibility mid-life (a terminal wait): the
     stalled process must run DURING the holder's wait, not after it. *)
  let sim = make_sim ~vps:2 () in
  let sched = Sched.create ~eligibility_cap:1 sim in
  let waiter_ran_at = ref (-1) in
  let holder_done_at = ref (-1) in
  let tty = Sim.new_channel sim ~name:"tty" in
  ignore
    (Sim.spawn sim ~name:"holder" (fun pid ->
         Sim.compute 200;
         Sched.release_eligibility sched pid;
         Sim.at sim ~delay:5_000 (fun () -> Sim.wakeup sim tty);
         Sim.block tty;
         Sim.compute 100;
         holder_done_at := Sim.now sim));
  ignore
    (Sim.spawn sim ~name:"stalled" (fun _ ->
         Sim.compute 100;
         waiter_ran_at := Sim.now sim));
  Sim.run sim;
  Alcotest.(check bool) "stalled process ran" true (!waiter_ran_at > 0);
  Alcotest.(check bool) "ran during the terminal wait" true (!waiter_ran_at < !holder_done_at)

let test_negotiated_cap () =
  Alcotest.(check int) "24 frames / ws 6" 4 (Sched.negotiated_cap ~core_frames:24 ~working_set:6);
  Alcotest.(check int) "never zero" 1 (Sched.negotiated_cap ~core_frames:2 ~working_set:6)

(* ----- MLF aging ----- *)

let test_mlf_aging_promotes () =
  let m = Sched.Mlf.create ~levels:2 ~base_quantum:10 ~age_after:100 in
  (* Sink pid 1 to level 1. *)
  Sched.Mlf.enqueue m ~now:0 1;
  Alcotest.(check (option int)) "select 1" (Some 1) (Sched.Mlf.select m ~now:0);
  Sched.Mlf.expired m 1;
  Sched.Mlf.enqueue m ~now:0 1;
  Sched.Mlf.enqueue m ~now:0 2;
  Alcotest.(check int) "doubled quantum at level 1" 20 (Sched.Mlf.quantum m 1);
  (* Level 0 wins while pid 1 is young... *)
  Alcotest.(check (option int)) "level 0 first" (Some 2) (Sched.Mlf.select m ~now:50);
  Sched.Mlf.enqueue m ~now:50 2;
  (* ... but once it has waited past age_after it is promoted and, at
     level 0, reachable ahead of fresh arrivals behind it. *)
  Alcotest.(check (option int)) "aged select" (Some 2) (Sched.Mlf.select m ~now:150);
  Alcotest.(check bool) "promotion counted" true (Sched.Mlf.promotions m >= 1);
  Alcotest.(check (option int)) "promoted pid surfaces" (Some 1) (Sched.Mlf.select m ~now:150)

let test_mlf_block_boosts () =
  let m = Sched.Mlf.create ~levels:3 ~base_quantum:10 ~age_after:1_000 in
  Sched.Mlf.enqueue m ~now:0 7;
  ignore (Sched.Mlf.select m ~now:0);
  Sched.Mlf.expired m 7;
  Sched.Mlf.expired m 7;
  Alcotest.(check int) "sunk to level 2" 40 (Sched.Mlf.quantum m 7);
  Sched.Mlf.blocked m 7;
  Alcotest.(check int) "interactive boost to level 0" 10 (Sched.Mlf.quantum m 7)

let test_aging_under_daemon_flood () =
  (* Sustained interactive+daemon load over one VP: the batch job sinks
     to the bottom queue but still completes, with aging engaged. *)
  let r =
    Workload.run
      {
        Workload.default with
        seed = 7;
        users = 6;
        interactions = 6;
        think = 500;
        service = 800;
        working_set = 2;
        passes = 1;
        batch = 1;
        batch_chunks = 4;
        batch_chunk = 2_000;
        daemons = 2;
        gate_calls = false;
        vps = 1;
        policy = Workload.Use_mlf;
      }
  in
  Alcotest.(check int) "batch completed despite flood" 1 r.Workload.r_batch_turnaround.count;
  Alcotest.(check int) "all interactions served" 36 r.Workload.r_completed

(* ----- The preempt-storm fault site ----- *)

let test_preempt_storm_is_fail_secure () =
  let base = { Workload.default with seed = 11; users = 4; interactions = 3; batch = 1; daemons = 1 } in
  let calm = Workload.run base in
  let storm = Workload.run { base with fault_spec = "sched.preempt_storm=every:2" } in
  Alcotest.(check bool) "storm forced preemptions" true
    (List.assoc "preempt.storms" storm.Workload.r_sched > 0);
  (* The storm may only slow things down: same work completed, same
     mediation decisions, same audit totals. *)
  Alcotest.(check int) "same interactions" calm.Workload.r_completed storm.Workload.r_completed;
  Alcotest.(check int) "same grants" calm.Workload.r_audit_granted storm.Workload.r_audit_granted;
  Alcotest.(check int) "same refusals" calm.Workload.r_audit_refused storm.Workload.r_audit_refused;
  Alcotest.(check int) "same mediation digest" calm.Workload.r_signature storm.Workload.r_signature

let test_storm_site_named () =
  Alcotest.(check (option string))
    "site name round-trips" (Some "sched.preempt_storm")
    (Option.map Fault.site_name (Fault.site_of_name "sched.preempt_storm"))

(* ----- The gates ----- *)

let login_operator system =
  ignore
    (System.add_account system ~person:"Op" ~project:"Sys" ~password:"pw"
       ~clearance:Multics_access.Label.unclassified);
  match System.login system ~person:"Op" ~project:"Sys" ~password:"pw" with
  | Ok handle -> handle
  | Error e -> failwith (System.login_error_to_string e)

let test_gates_without_scheduler () =
  let system = System.create Config.kernel_6180 in
  let handle = login_operator system in
  (match Gate_calls.sched_status system ~handle with
  | Error Api.No_scheduler -> ()
  | Ok _ -> Alcotest.fail "sched_status succeeded with no scheduler"
  | Error e -> Alcotest.failf "unexpected error: %s" (Api.error_to_string e));
  match Gate_calls.sched_tune system ~handle ~param:"cap" ~value:4 with
  | Error Api.No_scheduler -> ()
  | _ -> Alcotest.fail "sched_tune should refuse with no scheduler"

let test_gates_with_scheduler () =
  let system = System.create Config.kernel_6180 in
  let handle = login_operator system in
  let sim = make_sim () in
  let sched = Sched.create sim in
  Sched.register sched system;
  (match Gate_calls.sched_status system ~handle with
  | Ok (policy, counters) ->
      Alcotest.(check string) "policy name" "mlf" policy;
      Alcotest.(check bool) "counters present" true (List.mem_assoc "dispatches" counters)
  | Error e -> Alcotest.failf "sched_status: %s" (Api.error_to_string e));
  (match Gate_calls.sched_tune system ~handle ~param:"cap" ~value:3 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sched_tune cap: %s" (Api.error_to_string e));
  Alcotest.(check int) "cap took effect" 3 (Sched.eligibility_cap sched);
  (match Gate_calls.sched_tune system ~handle ~param:"cap" ~value:(-1) with
  | Error (Api.Bad_tune _) -> ()
  | _ -> Alcotest.fail "negative cap must be refused");
  (match Gate_calls.sched_tune system ~handle ~param:"warp" ~value:9 with
  | Error (Api.Bad_tune _) -> ()
  | _ -> Alcotest.fail "unknown parameter must be refused");
  (* Gate traffic is audited like any other operator surface. *)
  let ops =
    Multics_kernel.Audit_log.records (System.audit system)
    |> List.filter (fun (r : Multics_kernel.Audit_log.record) ->
           String.length r.operation >= 5 && String.sub r.operation 0 5 = "sched")
  in
  Alcotest.(check bool) "sched gate calls audited" true (List.length ops >= 4)

let test_tune_rejects_policy_mismatch () =
  let sim = make_sim () in
  let sched = Sched.create ~policy:Sched.Fifo sim in
  (match Sched.tune sched ~param:"quantum" ~value:100 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "fifo has no quantum");
  match Sched.tune sched ~param:"cap" ~value:2 with
  | Ok () -> Alcotest.(check int) "cap tunable everywhere" 2 (Sched.eligibility_cap sched)
  | Error why -> Alcotest.failf "cap tune: %s" why

(* ----- Event-queue stability (satellite) ----- *)

let test_event_queue_stable_100_seeds () =
  for seed = 0 to 99 do
    let prng = Prng.create_labeled ~seed ~label:"eq.stability" in
    let q = Event_queue.create () in
    let n = 200 in
    for i = 0 to n - 1 do
      (* Few distinct timestamps: plenty of ties to get wrong. *)
      Event_queue.push q ~time:(Prng.int prng 8) i
    done;
    let rec drain acc = match Event_queue.pop q with
      | None -> List.rev acc
      | Some (time, i) -> drain ((time, i) :: acc)
    in
    let drained = drain [] in
    Alcotest.(check int) "all popped" n (List.length drained);
    ignore
      (List.fold_left
         (fun (pt, pi) (time, i) ->
           if time < pt then Alcotest.failf "seed %d: time went backwards" seed;
           if time = pt && i < pi then
             Alcotest.failf "seed %d: tie broke insertion order (%d before %d)" seed pi i;
           (time, i))
         (-1, -1) drained)
  done

(* ----- The schedule-invariance parity oracle (100 seeds) ----- *)

let parity_spec seed policy =
  {
    Workload.default with
    seed;
    users = 3;
    interactions = 2;
    think = 2_000;
    service = 300;
    working_set = 2;
    passes = 2;
    batch = 1;
    batch_chunks = 2;
    batch_chunk = 500;
    daemons = 1;
    vps = 2;
    cap = 1;
    (* binding cap: policies diverge hard on admission order *)
    policy;
  }

let test_parity_100_seeds () =
  for seed = 0 to 99 do
    let mlf = Workload.run (parity_spec seed Workload.Use_mlf) in
    let fifo = Workload.run (parity_spec seed Workload.Use_fifo) in
    let ext = Workload.run (parity_spec seed Workload.Use_external) in
    List.iter
      (fun (name, (r : Workload.result)) ->
        if r.r_signature <> mlf.Workload.r_signature then
          Alcotest.failf "seed %d: %s mediation digest diverged" seed name;
        Alcotest.(check int)
          (Printf.sprintf "seed %d: %s grants" seed name)
          mlf.Workload.r_audit_granted r.r_audit_granted;
        Alcotest.(check int)
          (Printf.sprintf "seed %d: %s refusals" seed name)
          mlf.Workload.r_audit_refused r.r_audit_refused;
        Alcotest.(check int)
          (Printf.sprintf "seed %d: %s completed" seed name)
          mlf.Workload.r_completed r.r_completed)
      [ ("fifo", fifo); ("external", ext) ]
  done

let test_workload_deterministic () =
  let spec = { Workload.default with seed = 5; users = 4; interactions = 3 } in
  let a = Workload.run spec and b = Workload.run spec in
  Alcotest.(check int) "same cycles" a.Workload.r_cycles b.Workload.r_cycles;
  Alcotest.(check int) "same faults" a.Workload.r_page_faults b.Workload.r_page_faults;
  Alcotest.(check int) "same digest" a.Workload.r_signature b.Workload.r_signature;
  Alcotest.(check (float 0.0001)) "same p99" a.Workload.r_response.p99 b.Workload.r_response.p99

let test_thrashing_knee_shape () =
  (* Cap within the frame budget vs. far beyond it: over-admission must
     multiply page faults per interaction — the knee E17 charts. *)
  let spec cap =
    {
      Workload.default with
      seed = 3;
      users = 12;
      interactions = 2;
      think = 1_000;
      service = 500;
      working_set = 6;
      passes = 3;
      batch = 0;
      daemons = 0;
      gate_calls = false;
      vps = 4;
      core = 26;
      bulk = 40;
      disk = 200;
      cap;
    }
  in
  let fit = Workload.run (spec 4) in
  let thrash = Workload.run (spec 12) in
  let per_interaction (r : Workload.result) =
    float_of_int r.r_page_faults /. float_of_int (max 1 r.r_completed)
  in
  Alcotest.(check bool) "both completed" true
    (fit.Workload.r_completed = 24 && thrash.Workload.r_completed = 24);
  Alcotest.(check bool) "over-admission thrashes" true
    (per_interaction thrash > 2. *. per_interaction fit)

let suite =
  [
    Alcotest.test_case "quantum: preempts and interleaves" `Quick test_quantum_preempts_and_interleaves;
    Alcotest.test_case "quantum: fifo never preempts" `Quick test_fifo_never_preempts;
    Alcotest.test_case "quantum: preemption preserves results" `Quick test_preemption_preserves_results;
    Alcotest.test_case "eligibility: cap serializes" `Quick test_eligibility_cap_serializes;
    Alcotest.test_case "eligibility: release admits stalled" `Quick test_release_eligibility_admits_stalled;
    Alcotest.test_case "eligibility: negotiated cap" `Quick test_negotiated_cap;
    Alcotest.test_case "mlf: aging promotes" `Quick test_mlf_aging_promotes;
    Alcotest.test_case "mlf: block boosts" `Quick test_mlf_block_boosts;
    Alcotest.test_case "mlf: aging under daemon flood" `Quick test_aging_under_daemon_flood;
    Alcotest.test_case "fault: preempt storm fail-secure" `Quick test_preempt_storm_is_fail_secure;
    Alcotest.test_case "fault: storm site named" `Quick test_storm_site_named;
    Alcotest.test_case "gates: refused without scheduler" `Quick test_gates_without_scheduler;
    Alcotest.test_case "gates: status and tune" `Quick test_gates_with_scheduler;
    Alcotest.test_case "gates: tune policy mismatch" `Quick test_tune_rejects_policy_mismatch;
    Alcotest.test_case "event queue: stable over 100 seeds" `Quick test_event_queue_stable_100_seeds;
    Alcotest.test_case "parity: 100 seeds x 3 policies" `Slow test_parity_100_seeds;
    Alcotest.test_case "workload: deterministic" `Quick test_workload_deterministic;
    Alcotest.test_case "workload: thrashing knee" `Quick test_thrashing_knee_shape;
  ]
