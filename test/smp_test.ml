(* The multiprocessor plant: the coherence-parity oracle (an N-CPU run
   must produce the same mediation verdicts and audit digest as the
   1-CPU run, for every seed, including under lost-connect and
   cache-flush storms), plus a directed race — a connect arriving
   while another CPU holds a warm associative-memory entry must never
   let that CPU replay a stale Permit. *)

open Multics_access
open Multics_machine
open Multics_kernel
module Smp = Multics_smp.Smp
module Fault = Multics_fault.Fault
module Workload = Multics_sched.Workload
module Obs = Multics_obs.Obs
module Kst = Multics_fs.Kst
module Hierarchy = Multics_fs.Hierarchy

(* ----- Plant mechanics ----- *)

let test_lock_contention_model () =
  let lock = Smp.Lock.create ~name:"t.smp.lock" in
  Alcotest.(check int) "uncontended wait" 0 (Smp.Lock.acquire lock ~now:100 ~hold:50);
  (* Held until 150; an acquirer at 120 waits out the remainder. *)
  Alcotest.(check int) "contended wait" 30 (Smp.Lock.acquire lock ~now:120 ~hold:10);
  Alcotest.(check int) "falls free at" 160 (Smp.Lock.free_at lock);
  Alcotest.(check int) "late acquirer sails through" 0 (Smp.Lock.acquire lock ~now:1000 ~hold:5)

let test_cpu_for_deterministic () =
  let plant = Smp.create ~ncpus:4 ~cost:Cost.h6180 () in
  for key = 0 to 100 do
    let home = Smp.cpu_for plant ~key in
    Alcotest.(check bool) "home CPU in range" true (home >= 0 && home < 4);
    Alcotest.(check int) "home CPU is a pure function" home (Smp.cpu_for plant ~key)
  done

let test_ncpus_env_parsing () =
  (* default_ncpus reads MULTICS_NCPU for the shell's boot;
     out-of-range and garbage fall back to 1 rather than crashing it.
     We can't mutate the environment portably here, so just pin the
     unset behaviour and the bounds. *)
  let n = Smp.default_ncpus () in
  Alcotest.(check bool) "default in range" true (n >= 1 && n <= Smp.max_cpus);
  Alcotest.check_raises "ncpus 0 rejected"
    (Invalid_argument (Printf.sprintf "Smp.create: ncpus must be in 1..%d" Smp.max_cpus))
    (fun () -> ignore (Smp.create ~ncpus:0 ~cost:Cost.h6180 ()));
  Alcotest.check_raises "ncpus 9 rejected"
    (Invalid_argument (Printf.sprintf "Smp.create: ncpus must be in 1..%d" Smp.max_cpus))
    (fun () -> ignore (Smp.create ~ncpus:(Smp.max_cpus + 1) ~cost:Cost.h6180 ()))

let test_ptw_front_per_cpu () =
  (* Each CPU's PTW memory is its own: a walk on CPU 0 warms nothing
     on CPU 1.  An eviction's revocation reaches every CPU without a
     connect, and a whole-system flush empties every CPU's memory. *)
  let plant = Smp.create ~ncpus:2 ~cost:Cost.h6180 () in
  let page = Sid.of_int 7 and other = Sid.of_int 8 in
  let holds cpu p = List.mem (Sid.to_int p) (Smp.ptw_keys plant ~cpu) in
  Alcotest.(check bool) "cold memory misses" false (Smp.ptw_lookup plant ~cpu:0 ~page);
  Smp.ptw_install plant ~cpu:0 ~page;
  Alcotest.(check bool) "warm memory hits" true (Smp.ptw_lookup plant ~cpu:0 ~page);
  Alcotest.(check bool) "other CPU's memory is its own" false (Smp.ptw_lookup plant ~cpu:1 ~page);
  Smp.ptw_install plant ~cpu:1 ~page;
  Smp.ptw_install plant ~cpu:1 ~page:other;
  let received () = List.assoc "connects_received" (Smp.cpu_status plant 1) in
  let before = received () in
  Smp.ptw_invalidate plant ~page;
  Alcotest.(check (list bool)) "an invalidation reaches every CPU" [ false; false ]
    [ holds 0 page; holds 1 page ];
  Alcotest.(check bool) "and only that page" true (holds 1 other);
  Alcotest.(check int) "without a connect" before (received ());
  Alcotest.(check bool) "a revoked entry misses" false (Smp.ptw_lookup plant ~cpu:1 ~page);
  Smp.ptw_install plant ~cpu:0 ~page;
  Smp.connect_flush_all plant;
  Alcotest.(check (list int)) "flush empties every CPU's memory" [ 0; 0 ]
    (List.map (fun cpu -> List.assoc "ptw_size" (Smp.cpu_status plant cpu)) [ 0; 1 ])

let test_deferred_connects_are_data () =
  (* Bug mode queues what each connect clears, not a closure over the
     CPU it clears: a copied plant delivers its own queue and leaves
     the source's alone. *)
  let plant = Smp.create ~ncpus:2 ~cost:Cost.h6180 () in
  Smp.set_deferred_connects plant true;
  Smp.set_current plant 0;
  Smp.connect_invalidate plant ~handle:1 ~segno:8;
  Smp.connect_flush_all plant;
  let queued = [ (1, "inval:4104"); (1, "flush") ] in
  let pending = Alcotest.(list (pair int string)) in
  Alcotest.(check pending) "queued in arrival order" queued (Smp.pending_connects plant);
  let copy = Smp.copy plant in
  Alcotest.(check pending) "the copy holds the same queue" queued (Smp.pending_connects copy);
  Alcotest.(check int) "the copy delivers both" 2 (Smp.deliver_connects copy ~cpu:1);
  let received p = List.assoc "connects_received" (Smp.cpu_status p 1) in
  Alcotest.(check int) "received on the copy" 2 (received copy);
  Alcotest.(check pending) "the source still queues both" queued (Smp.pending_connects plant);
  Alcotest.(check int) "nothing received on the source" 0 (received plant);
  Smp.set_deferred_connects plant false;
  Alcotest.(check int) "leaving bug mode delivers the source's" 2 (received plant)

(* ----- The directed stale-Permit race -----

   Warm two CPUs' associative memories on the same segment, revoke the
   ACL from one CPU, then reference from the other.  The connect must
   have cleared the second CPU's memory before set_acl returned, so
   the reference recomputes — and refuses.  Then the same race under a
   plan that drops every connect on the wire: the sender stalls,
   re-signals, eventually rescues — cycles are lost, the Permit still
   is not. *)

let login_alice system =
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
  | Ok h -> h
  | Error e -> Alcotest.fail (System.login_error_to_string e)

let boot_two_cpus ?faults () =
  Obs.set_enabled true;
  let system = System.create Config.kernel_6180 in
  let plant = Smp.create ~ncpus:2 ~cost:Cost.h6180 () in
  Smp.set_faults plant faults;
  System.attach_plant system (Some plant);
  let handle = login_alice system in
  let segno =
    match
      User_env.create_segment_at system ~handle ~path:">udd>Dev>Alice>scratch"
        ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ])
        ~label:Label.unclassified
    with
    | Ok segno -> segno
    | Error e -> Alcotest.fail (User_env.error_to_string e)
  in
  (system, plant, handle, segno)

let read_ok what system ~handle ~segno =
  match Gate_calls.read_word system ~handle ~segno ~offset:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %s" what (Api.error_to_string e)

let stale_permit_race ?faults () =
  let system, plant, handle, segno = boot_two_cpus ?faults () in
  (match Gate_calls.write_word system ~handle ~segno ~offset:0 ~value:7 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Api.error_to_string e));
  (* Warm both CPUs' associative memories on the segment. *)
  Smp.set_current plant 0;
  read_ok "warm CPU 0" system ~handle ~segno;
  Smp.set_current plant 1;
  read_ok "warm CPU 1" system ~handle ~segno;
  let warm = List.assoc "cam_size" (Smp.cpu_status plant 1) in
  Alcotest.(check bool) "CPU 1's CAM is warm" true (warm > 0);
  (* Revoke from CPU 0.  set_acl must not return before CPU 1's
     memory has been cleared. *)
  Smp.set_current plant 0;
  (match
     Gate_calls.set_acl system ~handle ~segno ~acl:(Acl.of_strings [ ("Operator.*.*", "rw") ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Api.error_to_string e));
  Alcotest.(check bool) "CPU 1 received the connect" true
    (List.assoc "connects_received" (Smp.cpu_status plant 1) > 0);
  (* The in-flight lookup on CPU 1: with a stale CAM entry this would
     replay the revoked Permit.  It must recompute and refuse. *)
  Smp.set_current plant 1;
  (match Gate_calls.read_word system ~handle ~segno ~offset:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "CPU 1 replayed a stale Permit after revocation");
  plant

let test_connect_revokes_remote_cam () = ignore (stale_permit_race ())

let test_lost_connect_fails_secure () =
  let lost_before =
    Obs.set_enabled true;
    Obs.Counter.get (Obs.Registry.counter (Obs.Registry.global ()) "smp.connects.lost")
  in
  let plan =
    match Fault.Plan.parse ~seed:1 "smp.lost_connect=every:1" with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  let plant = stale_permit_race ~faults:(Fault.Injector.create plan) () in
  let global, _ = Smp.status plant in
  let lost_after = List.assoc "connects.lost" global in
  Alcotest.(check bool) "connects were dropped on the wire" true (lost_after > lost_before);
  Alcotest.(check bool) "dropped connects were rescued" true
    (List.assoc "connects.rescues" global > 0)

(* ----- The system-controller rescue path, directed -----

   E18 exercises the 8-loss escalation statistically; these pin the
   state machine down.  First the delivery discipline in isolation:
   the budget is spent attempt by attempt, and the escalation hook
   runs exactly once, only after the final loss. *)

let test_connect_deliver_retry_budget () =
  (* A link that never acks: every attempt is lost, so deliver must
     walk attempts 1..max_retries in order and then escalate once. *)
  let attempts_seen = ref [] in
  let escalations = ref 0 in
  let outcome =
    Smp.Connect.deliver ~max_retries:Smp.max_retries
      ~attempt:(fun n ->
        attempts_seen := n :: !attempts_seen;
        `Lost 10)
      ~escalate:(fun () ->
        incr escalations;
        100)
  in
  Alcotest.(check (list int))
    "attempts numbered 1..8 in order"
    (List.init Smp.max_retries (fun i -> i + 1))
    (List.rev !attempts_seen);
  Alcotest.(check int) "escalate ran exactly once" 1 !escalations;
  (match outcome with
  | Smp.Connect.Escalated { attempts; cycles } ->
      Alcotest.(check int) "attempts counts the losses plus the rescue" (Smp.max_retries + 1)
        attempts;
      Alcotest.(check int) "cycles bill the stalls plus the rescue"
        ((Smp.max_retries * 10) + 100)
        cycles
  | Smp.Connect.Delivered _ -> Alcotest.fail "a never-acking target cannot be Delivered");
  (* A target that acks on the last allowed attempt stays inside the
     budget: no escalation, and the acknowledgement cost is billed. *)
  let outcome =
    Smp.Connect.deliver ~max_retries:Smp.max_retries
      ~attempt:(fun n -> if n < Smp.max_retries then `Lost 10 else `Acked 7)
      ~escalate:(fun () -> Alcotest.fail "an acked target must not escalate")
  in
  match outcome with
  | Smp.Connect.Delivered { attempts; cycles } ->
      Alcotest.(check int) "delivered on the final attempt" Smp.max_retries attempts;
      Alcotest.(check int) "cycles bill the stalls plus the ack" (((Smp.max_retries - 1) * 10) + 7)
        cycles
  | Smp.Connect.Escalated _ -> Alcotest.fail "delivery inside the budget escalated anyway"

let test_lost_connect_rescue_exhausts_budget () =
  (* The full plant path: with every connect dropped, one revocation
     against one remote CPU must burn the whole retry budget (8
     losses), rescue through the system controller exactly once, and
     still leave the remote CAM clear. *)
  let plan =
    match Fault.Plan.parse ~seed:3 "smp.lost_connect=every:1" with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  let system, plant, handle, segno = boot_two_cpus ~faults:(Fault.Injector.create plan) () in
  Smp.set_current plant 1;
  read_ok "warm CPU 1" system ~handle ~segno;
  let counters () =
    let global, _ = Smp.status plant in
    ( List.assoc "connects.lost" global,
      List.assoc "connects.retries" global,
      List.assoc "connects.rescues" global )
  in
  let lost0, retries0, rescues0 = counters () in
  Smp.set_current plant 0;
  (match
     Gate_calls.set_acl system ~handle ~segno ~acl:(Acl.of_strings [ ("Operator.*.*", "rw") ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Api.error_to_string e));
  let lost1, retries1, rescues1 = counters () in
  Alcotest.(check int) "all 8 signalling attempts were lost" Smp.max_retries (lost1 - lost0);
  Alcotest.(check int) "each loss stalled and re-signalled" Smp.max_retries (retries1 - retries0);
  Alcotest.(check int) "one system-controller rescue for the one remote CPU" 1
    (rescues1 - rescues0);
  Alcotest.(check bool) "the rescue cleared the target anyway" true
    (List.assoc "connects_received" (Smp.cpu_status plant 1) > 0);
  Smp.set_current plant 1;
  match Gate_calls.read_word system ~handle ~segno ~offset:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "CPU 1 replayed a stale Permit after the rescue path"

(* ----- The coherence-parity oracle -----

   The same workload at 1, 2 and 4 CPUs: timing may change, mediation
   results never.  One hundred seeds, then a directed sweep under a
   plan that both drops connects and storms the access cache. *)

let parity_spec seed cpus fault_spec =
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
    vps = 4;
    (* more VPs than some CPU counts: run selection maps VPs onto CPUs *)
    cpus;
    fault_spec;
  }

let check_parity seed fault_spec =
  let base = Workload.run (parity_spec seed 1 fault_spec) in
  List.iter
    (fun cpus ->
      let r = Workload.run (parity_spec seed cpus fault_spec) in
      if r.Workload.r_signature <> base.Workload.r_signature then
        Alcotest.failf "seed %d, %d CPUs: mediation digest diverged" seed cpus;
      Alcotest.(check int)
        (Printf.sprintf "seed %d, %d CPUs: grants" seed cpus)
        base.Workload.r_audit_granted r.Workload.r_audit_granted;
      Alcotest.(check int)
        (Printf.sprintf "seed %d, %d CPUs: refusals" seed cpus)
        base.Workload.r_audit_refused r.Workload.r_audit_refused;
      Alcotest.(check int)
        (Printf.sprintf "seed %d, %d CPUs: completed" seed cpus)
        base.Workload.r_completed r.Workload.r_completed;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d, %d CPUs: plant readings present" seed cpus)
        true
        (List.mem_assoc "connects.sent" r.Workload.r_smp))
    [ 2; 4 ]

let test_parity_100_seeds () =
  for seed = 0 to 99 do
    check_parity seed ""
  done

let test_parity_under_fault_storm () =
  (* Drop connects and storm the access cache at once: both are
     timing events; neither may move a verdict. *)
  for seed = 0 to 24 do
    check_parity seed "smp.lost_connect=every:2,cache.flush=every:7"
  done

let test_multi_cpu_run_deterministic () =
  let spec = parity_spec 13 4 "smp.lost_connect=every:3" in
  let a = Workload.run spec and b = Workload.run spec in
  Alcotest.(check int) "same cycles" a.Workload.r_cycles b.Workload.r_cycles;
  Alcotest.(check int) "same digest" a.Workload.r_signature b.Workload.r_signature;
  Alcotest.(check int) "same faults" a.Workload.r_page_faults b.Workload.r_page_faults

(* ----- CAM keys never alias segment numbers -----

   A CAM key keeps a segment number's low 12 bits under the process
   handle.  A segment number of 4,096 or more must therefore never be
   installed: Alice's [rw] at 4,096 above her read-only [ro] would
   otherwise share [ro]'s key, and a write to [ro] would be granted
   from the cached [rw] descriptor.  Run on a 2-CPU plant and on the
   plant [System.create] boots with. *)

let cam_alias_refused ?ncpus () =
  let system = System.create Config.kernel_6180 in
  Option.iter
    (fun ncpus -> System.attach_plant system (Some (Smp.create ~ncpus ~cost:Cost.h6180 ())))
    ncpus;
  let handle = login_alice system in
  let create name mode =
    match
      User_env.create_segment_at system ~handle ~path:(">udd>Dev>Alice>" ^ name)
        ~acl:(Acl.of_strings [ ("Alice.Dev.*", mode) ])
        ~label:Label.unclassified
    with
    | Ok segno -> segno
    | Error e -> Alcotest.fail (User_env.error_to_string e)
  in
  let ro = create "ro" "r" and rw = create "rw" "rw" in
  let p = Option.get (System.proc system handle) in
  let uid segno = Result.get_ok (Kst.uid_of_segno p.System.kst segno) in
  let ro_uid = uid ro and rw_uid = uid rw in
  (* Re-initiate [rw] until its segment number is 4,096 above [ro]'s. *)
  let rec land_rw segno =
    if segno = ro + 4096 then segno
    else begin
      ignore (Kst.terminate p.System.kst segno);
      land_rw (System.install_known system p ~uid:rw_uid)
    end
  in
  let rw = land_rw rw in
  let word0 () = Hierarchy.raw_read_word (System.hierarchy system) ~uid:ro_uid ~offset:0 in
  let before = word0 () in
  (match Gate_calls.write_word system ~handle ~segno:rw ~offset:0 ~value:1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write to rw at %d: %s" rw (Api.error_to_string e));
  (match Gate_calls.write_word system ~handle ~segno:ro ~offset:0 ~value:666 with
  | Error (Api.Hardware_denied (Hardware.Missing_permission _)) -> ()
  | Error e ->
      Alcotest.failf "write to ro refused, but not by the hardware: %s" (Api.error_to_string e)
  | Ok () -> Alcotest.failf "write to ro at %d granted from rw's descriptor at %d" ro rw);
  Alcotest.(check (option int)) "ro's word unchanged" before (word0 ())

let test_cam_keys_never_alias () =
  cam_alias_refused ~ncpus:2 ();
  cam_alias_refused ()

(* ----- Every kernel has a plant ----- *)

let test_boot_plant_is_one_cpu () =
  (* MULTICS_NCPU reaches the shell's boot alone: the CI legs that set
     it run this too. *)
  let plant = System.plant (System.create Config.kernel_6180) in
  Alcotest.(check int) "one CPU" 1 (Smp.ncpus plant);
  Alcotest.(check int) "running on it" 0 (Smp.current plant)

let test_smp_status_on_uniprocessor () =
  let system = System.create Config.kernel_6180 in
  let handle = login_alice system in
  match Api.Call.dispatch system ~handle Api.Call.Smp_status with
  | Ok (Api.Call.Smp_report { ncpus; plant; cpus }) ->
      Alcotest.(check int) "one CPU" 1 ncpus;
      Alcotest.(check int) "plant-wide ncpus" 1 (List.assoc "ncpus" plant);
      Alcotest.(check (list int)) "one per-CPU block" [ 0 ] (List.map fst cpus)
  | Ok _ -> Alcotest.fail "unexpected reply to Smp_status"
  | Error e -> Alcotest.fail (Api.error_to_string e)

let test_cache_status_reads_current_cam () =
  (* Warm CPU 0's CAM only: the report's size follows the CPU the
     caller runs on. *)
  let system, plant, handle, segno = boot_two_cpus () in
  Smp.set_current plant 0;
  read_ok "warm CPU 0" system ~handle ~segno;
  let reported cpu =
    Smp.set_current plant cpu;
    match Api.Call.dispatch system ~handle Api.Call.Cache_status with
    | Ok (Api.Call.Cache_report { assoc; _ }) -> assoc
    | Ok _ -> Alcotest.fail "unexpected reply to Cache_status"
    | Error e -> Alcotest.fail (Api.error_to_string e)
  in
  let cam_size cpu = List.assoc "cam_size" (Smp.cpu_status plant cpu) in
  Alcotest.(check bool) "CPU 0 is warm, CPU 1 cold" true (cam_size 0 > 0 && cam_size 1 = 0);
  List.iter
    (fun cpu ->
      let assoc = reported cpu in
      Alcotest.(check int) (Printf.sprintf "cpu %d's size" cpu) (cam_size cpu)
        (List.assoc "size" assoc);
      Alcotest.(check bool) (Printf.sprintf "cpu %d's counters" cpu) true
        (List.mem_assoc "hits" assoc && List.mem_assoc "misses" assoc))
    [ 0; 1 ]

let suite =
  [
    Alcotest.test_case "lock contention model" `Quick test_lock_contention_model;
    Alcotest.test_case "home CPU deterministic" `Quick test_cpu_for_deterministic;
    Alcotest.test_case "ncpus bounds" `Quick test_ncpus_env_parsing;
    Alcotest.test_case "per-CPU PTW fronts" `Quick test_ptw_front_per_cpu;
    Alcotest.test_case "connect revokes remote CAM" `Quick test_connect_revokes_remote_cam;
    Alcotest.test_case "lost connect fails secure" `Quick test_lost_connect_fails_secure;
    Alcotest.test_case "connect delivery retry budget" `Quick test_connect_deliver_retry_budget;
    Alcotest.test_case "8-loss system-controller rescue" `Quick
      test_lost_connect_rescue_exhausts_budget;
    Alcotest.test_case "coherence parity, 100 seeds x {1,2,4} CPUs" `Slow test_parity_100_seeds;
    Alcotest.test_case "coherence parity under fault storm" `Quick test_parity_under_fault_storm;
    Alcotest.test_case "multi-CPU run deterministic" `Quick test_multi_cpu_run_deterministic;
    Alcotest.test_case "deferred connects are data" `Quick test_deferred_connects_are_data;
    Alcotest.test_case "CAM keys never alias segment numbers" `Quick test_cam_keys_never_alias;
    Alcotest.test_case "System.create's plant has one CPU" `Quick test_boot_plant_is_one_cpu;
    Alcotest.test_case "smp status on a uniprocessor" `Quick test_smp_status_on_uniprocessor;
    Alcotest.test_case "cache status reads the current CPU's CAM" `Quick
      test_cache_status_reads_current_cam;
  ]
