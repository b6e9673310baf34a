(* The benchmark harness: one Bechamel test per experiment's hot
   mechanism, followed by the full experiment tables (the same rows
   EXPERIMENTS.md records).

   The Bechamel micro-benchmarks measure the REPRODUCTION's own code
   (simulated gate validation, fault storms, buffer traffic, attack
   corpus, ...); the experiment tables report the simulated-machine
   results.  Both are printed by this one executable:

     dune exec bench/main.exe
*)

open Bechamel
open Toolkit

(* ----- E1/E3: gate-table construction and validation ----- *)

let bench_gate_catalog =
  Test.make ~name:"e1_e3/gate_catalog_baseline"
    (Staged.stage (fun () -> Multics_kernel.Gate.count Multics_kernel.Config.baseline_645))

let bench_gate_lookup =
  Test.make ~name:"e1_e3/gate_lookup"
    (Staged.stage (fun () ->
         Multics_kernel.Gate.find Multics_kernel.Config.kernel_6180 ~gate_name:"initiate"))

(* ----- E2: the live protected-footprint workload ----- *)

let bench_kst_unified =
  Test.make ~name:"e2/kst_unified_64segs"
    (Staged.stage (fun () ->
         Multics_experiments.E2_naming_removal.live_protected_words
           ~kst_variant:Multics_fs.Kst.Unified ~rnt_placement:Multics_link.Rnt.In_kernel
           ~segments:64))

let bench_kst_split =
  Test.make ~name:"e2/kst_split_64segs"
    (Staged.stage (fun () ->
         Multics_experiments.E2_naming_removal.live_protected_words
           ~kst_variant:Multics_fs.Kst.Split ~rnt_placement:Multics_link.Rnt.In_user_ring
           ~segments:64))

(* ----- E4: the hardware access check itself ----- *)

let bench_hardware_check =
  let sdw = Multics_machine.Sdw.kernel_gate_segment ~gate_bound:8 in
  Test.make ~name:"e4/hardware_gate_check"
    (Staged.stage (fun () ->
         Multics_machine.Hardware.check sdw ~ring:Multics_machine.Ring.user
           ~operation:(Multics_machine.Hardware.Call 3)))

(* ----- E16/E4: the access-decision cache and the SDW associative
   memory on the mediation hot path -----

   [avc_hit] is the hit-heavy steady state (one warm object, checked
   repeatedly); [avc_miss_recompute] invalidates the object's
   generation before every check, so each iteration pays the
   stale-drop plus the full policy recomputation and re-insert;
   [hardware_check_assoc_hit] is the 6180-style reference with the SDW
   already in the CAM.  The [--smoke] mode below asserts the hit path
   beats fresh recomputation by at least 5x. *)

(* The fixture models the heavy end of realistic mediation: a project
   segment carrying a 66-entry ACL and an 18-compartment label (the
   AIM ceiling), accessed read-write by a subject cleared at the
   object's own level — so the fresh path pays the most-specific ACL
   scan plus both dominance subset checks on every reference, exactly
   the work the associative memory exists to bypass. *)
let avc_bench_compartments =
  [
    "crypto"; "nuclear"; "payroll"; "sigint"; "tempest"; "comsec"; "nofor"; "orcon"; "limdis";
    "propin"; "relido"; "imcon"; "medical"; "fiscal"; "audit"; "census"; "budget"; "treaty";
  ]

let avc_bench_hierarchy, avc_bench_uid =
  let open Multics_access in
  let open Multics_fs in
  let operator =
    Policy.subject ~trusted:true
      ~principal:(Principal.make ~person:"Initializer" ~project:"SysDaemon" ~tag:"z")
      ~clearance:(Label.system_high []) ~ring:(Multics_machine.Ring.of_int 1) ()
  in
  let people =
    [| "Jones"; "Smith"; "Quinn"; "Marley"; "Ames"; "Ortiz"; "Patel"; "Weiss" |]
  in
  let acl =
    Acl.of_strings
      (List.init 64 (fun i ->
           (Printf.sprintf "%s%d.Perf.*" people.(i mod Array.length people) i, "rw"))
      @ [ ("Bench.Perf.*", "rw"); ("*.SysDaemon.*", "r") ])
  in
  let h = Hierarchy.create () in
  let uid =
    match
      Hierarchy.create_segment h ~subject:operator ~dir:Uid.root ~name:"hot" ~acl
        ~label:(Label.make Label.Secret avc_bench_compartments)
    with
    | Ok uid -> uid
    | Error e -> failwith (Hierarchy.error_to_string e)
  in
  (h, uid)

let avc_bench_subject =
  Multics_access.Policy.subject
    ~principal:(Multics_access.Principal.make ~person:"Bench" ~project:"Perf" ~tag:"a")
    ~clearance:(Multics_access.Label.make Multics_access.Label.Secret avc_bench_compartments)
    ~ring:(Multics_machine.Ring.of_int 4) ()

let bench_avc_hit =
  (* Warm the entry once; every measured iteration is a hit. *)
  ignore
    (Multics_fs.Hierarchy.check_access avc_bench_hierarchy ~subject:avc_bench_subject
       ~uid:avc_bench_uid ~requested:Multics_machine.Mode.rw);
  Test.make ~name:"e16/avc_hit"
    (Staged.stage (fun () ->
         Multics_fs.Hierarchy.check_access avc_bench_hierarchy ~subject:avc_bench_subject
           ~uid:avc_bench_uid ~requested:Multics_machine.Mode.rw))

let bench_avc_miss_recompute =
  Test.make ~name:"e16/avc_miss_recompute"
    (Staged.stage (fun () ->
         Multics_fs.Hierarchy.invalidate_cached_verdicts avc_bench_hierarchy;
         Multics_fs.Hierarchy.check_access avc_bench_hierarchy ~subject:avc_bench_subject
           ~uid:avc_bench_uid ~requested:Multics_machine.Mode.rw))

let bench_hardware_check_assoc_hit =
  let open Multics_machine in
  let assoc = Hardware.Assoc.create () in
  let sdw = Sdw.make ~mode:Mode.rew ~brackets:Brackets.user_data () in
  Hardware.Assoc.install assoc ~segno:7 sdw;
  Test.make ~name:"e4/hardware_check_assoc_hit"
    (Staged.stage (fun () ->
         Hardware.check_via_assoc assoc ~segno:7 ~fetch:(fun () -> Some sdw) ~ring:Ring.user
           ~operation:Hardware.Read))

(* ----- E5: the boundary sweep ----- *)

let bench_boundary_sweep =
  Test.make ~name:"e5/boundary_sweep"
    (Staged.stage (fun () ->
         Multics_kernel.Boundary.sweep ~inner_calls_list:[ 0; 1; 2; 5; 10; 20; 50; 100 ] ()))

(* ----- E6: one full page-fault storm per discipline ----- *)

let bench_page_storm_sequential =
  Test.make ~name:"e6/page_storm_sequential"
    (Staged.stage (fun () ->
         Multics_experiments.E6_page_control.run_storm ~core:8 ~bulk:12
           ~discipline:Multics_vm.Page_control.Sequential ~processes:4 ~pages_per_process:10
           ~sweeps:2 ()))

let bench_page_storm_parallel =
  Test.make ~name:"e6/page_storm_parallel"
    (Staged.stage (fun () ->
         Multics_experiments.E6_page_control.run_storm ~core:8 ~bulk:12
           ~discipline:Multics_vm.Page_control.Parallel_processes ~processes:4
           ~pages_per_process:10 ~sweeps:2 ()))

(* ----- E7: buffer mechanisms under burst traffic ----- *)

let bench_buffer_circular =
  Test.make ~name:"e7/buffer_circular"
    (Staged.stage (fun () ->
         Multics_io.Network.run ~seed:7
           (Multics_io.Network.Circular (Multics_io.Circular_buffer.create ~capacity:16))))

let bench_buffer_infinite =
  Test.make ~name:"e7/buffer_infinite"
    (Staged.stage (fun () ->
         Multics_io.Network.run ~seed:7
           (Multics_io.Network.Infinite (Multics_io.Infinite_buffer.create ()))))

(* ----- E8: interrupt storms per discipline ----- *)

let bench_interrupts_inline =
  Test.make ~name:"e8/interrupt_storm_inline"
    (Staged.stage (fun () ->
         Multics_experiments.E8_interrupts.run_storm ~discipline:Multics_proc.Interrupt.Inline
           ~interrupts:40 ~gap:4_000))

let bench_interrupts_processes =
  Test.make ~name:"e8/interrupt_storm_processes"
    (Staged.stage (fun () ->
         Multics_experiments.E8_interrupts.run_storm
           ~discipline:Multics_proc.Interrupt.Handler_processes ~interrupts:40 ~gap:4_000))

(* ----- E9: the policy/mechanism attack matrix ----- *)

let bench_policy_matrix =
  Test.make ~name:"e9/policy_attack_matrix"
    (Staged.stage (fun () -> Multics_kernel.Page_policy.attack_matrix ()))

(* ----- E10: lattice checks ----- *)

let bench_lattice_trace =
  Test.make ~name:"e10/lattice_flow_trace"
    (Staged.stage (fun () ->
         Multics_experiments.E10_lattice_flow.measure ~seed:7 ~operations:1_000 ()))

(* ----- E11: the full corpus against the kernel ----- *)

let bench_pentest_kernel =
  Test.make ~name:"e11/corpus_vs_kernel"
    (Staged.stage (fun () -> Multics_audit.Pentest.run_corpus Multics_kernel.Config.kernel_6180))

(* ----- E12: inventory metrics ----- *)

let bench_inventory_stages =
  Test.make ~name:"e12/inventory_stages"
    (Staged.stage (fun () -> Multics_audit.Metrics.stages ()))

(* ----- E13: the full-system session ----- *)

let bench_session_kernel =
  Test.make ~name:"e13/full_system_session"
    (Staged.stage (fun () ->
         Multics_experiments.E13_cost_of_security.measure ()))

(* ----- E14: the exhaustive verifier ----- *)

let bench_verifier =
  Test.make ~name:"e14/exhaustive_verifier"
    (Staged.stage (fun () -> Multics_audit.Verifier.run_all ()))

(* ----- E17: the traffic controller's dispatch path -----

   One full MLF scheduling decision — select (with its aging pass),
   quantum lookup, expiry demotion, re-enqueue — against a deep ready
   backlog.  The [--smoke] gate below checks the same cycle stays
   near-constant as the backlog grows 1000x: the dispatch path must be
   O(1) in the number of ready processes. *)

let sched_mlf_with_backlog n =
  let m = Multics_sched.Sched.Mlf.create ~levels:4 ~base_quantum:4_000 ~age_after:1_000_000 in
  for pid = 1 to n do
    Multics_sched.Sched.Mlf.enqueue m ~now:0 pid
  done;
  m

let sched_dispatch_cycle m =
  match Multics_sched.Sched.Mlf.select m ~now:0 with
  | None -> ()
  | Some pid ->
      ignore (Multics_sched.Sched.Mlf.quantum m pid);
      Multics_sched.Sched.Mlf.expired m pid;
      Multics_sched.Sched.Mlf.enqueue m ~now:0 pid

let bench_sched_dispatch =
  let m = sched_mlf_with_backlog 10_000 in
  Test.make ~name:"e17/dispatch_10k_ready"
    (Staged.stage (fun () -> sched_dispatch_cycle m))

(* ----- E18: the multiprocessor plant's hot paths -----

   The connect broadcast (one descriptor mutation's synchronous
   coherence round over 3 remote CPUs), the per-CPU CAM front of the
   SDW check, and one dispatcher-lock acquisition.  All three sit on
   mediation or dispatch hot paths, so their cost is the price of
   running the kernel on more than one processor. *)

module Smp = Multics_smp.Smp

let smp_bench_plant =
  let plant = Smp.create ~ncpus:4 ~cost:Multics_machine.Cost.h6180 () in
  Smp.set_current plant 0;
  plant

let bench_smp_connect_broadcast =
  Test.make ~name:"e18/connect_broadcast_4cpu"
    (Staged.stage (fun () -> Smp.connect_invalidate smp_bench_plant ~handle:1 ~segno:8))

let smp_bench_sdw =
  Multics_machine.Sdw.make ~mode:Multics_machine.Mode.rw
    ~brackets:(Multics_machine.Brackets.make ~r1:4 ~r2:4 ~r3:4)
    ()

let smp_bench_assoc = Multics_machine.Hardware.Assoc.create ~name:"bench.smp.assoc" ()

let bench_smp_check_sdw_hit =
  (* Warm the CAM once; every iteration is then the per-CPU hit path. *)
  ignore
    (Smp.check_sdw smp_bench_plant ~handle:1 ~segno:8 ~assoc:smp_bench_assoc
       ~fetch:(fun () -> Some smp_bench_sdw)
       ~ring:Multics_machine.Ring.user ~operation:Multics_machine.Hardware.Read);
  Test.make ~name:"e18/check_sdw_cam_hit"
    (Staged.stage (fun () ->
         Smp.check_sdw smp_bench_plant ~handle:1 ~segno:8 ~assoc:smp_bench_assoc
           ~fetch:(fun () -> Some smp_bench_sdw)
           ~ring:Multics_machine.Ring.user ~operation:Multics_machine.Hardware.Read))

let bench_smp_dispatch_lock =
  Test.make ~name:"e18/dispatch_lock_4cpu"
    (Staged.stage (fun () -> Smp.dispatch_lock smp_bench_plant ~now:0))

(* ----- E20: the distributed fleet -----

   One replicated revocation on a 4-site fleet: resolve the path at
   the home site, apply the edit, then replay it at 3 peers over the
   links and wait for every acknowledgement before returning — the
   cross-kernel analogue of [e18/connect_broadcast_4cpu].  Audit
   recording is off so iterations measure the broadcast, not log
   growth; the backlog compacts to empty while the fleet is healthy,
   so the loop is steady-state. *)

module Site = Multics_site.Site

let site_bench_fleet, site_bench_handle =
  let fleet = Site.create ~nsites:4 () in
  for s = 0 to Site.nsites fleet - 1 do
    Multics_kernel.Audit_log.set_enabled
      (Multics_kernel.System.audit (Site.member_system fleet s))
      false
  done;
  Site.add_account fleet ~person:"Bench" ~project:"Site" ~password:"pw"
    ~clearance:Multics_access.Label.unclassified;
  let handle =
    match Site.login fleet ~person:"Bench" ~project:"Site" ~password:"pw" with
    | Ok handle -> handle
    | Error e -> failwith (Multics_kernel.System.login_error_to_string e)
  in
  let user = 0 in
  (match
     Site.dispatch fleet ~user ~handle
       (Multics_kernel.Api.Call.Create_segment_by_path
          {
            path = ">udd>Site>Bench>scratch";
            acl = Multics_access.Acl.of_strings [ ("Bench.Site.*", "rw") ];
            label = Multics_access.Label.unclassified;
            brackets = None;
          })
   with
  | Ok _ -> ()
  | Error e -> failwith (Multics_kernel.Api.error_to_string e));
  (fleet, handle)

let site_bench_revoke () =
  Site.dispatch site_bench_fleet ~user:0 ~handle:site_bench_handle
    (Multics_kernel.Api.Call.Set_acl_by_path
       {
         path = ">udd>Site>Bench>scratch";
         acl = Multics_access.Acl.of_strings [ ("Bench.Site.*", "rw") ];
       })

let bench_site_revocation_broadcast =
  (match site_bench_revoke () with
  | Ok _ -> ()
  | Error e -> failwith (Multics_kernel.Api.error_to_string e));
  Test.make ~name:"e20/revocation_broadcast_4site" (Staged.stage site_bench_revoke)

(* ----- E19: the dense-SID flat-table mediation path -----

   [bench_avc_hit] above already measures the redesigned decision path
   (the hierarchy serves [check_access] from the compiled
   [Av_table]).  This section puts that hit head to head against the
   work it compiled away — a fresh structured [Policy.check] over the
   same label and ACL — plus the two costs the compilation introduces:
   recalling a subject's dense SID (the memo-stamp fast path and the
   cold re-intern) and an eager whole-table rebuild.  The [--smoke]
   gate below requires the flat-table hit to beat the fresh check and
   records all of these in BENCH_e19_sid.json. *)

let sid_bench_label, sid_bench_acl =
  ( Option.get (Multics_fs.Hierarchy.label_of avc_bench_hierarchy avc_bench_uid),
    Option.get (Multics_fs.Hierarchy.acl_of avc_bench_hierarchy avc_bench_uid) )

(* Separate subject records per path: the SID memo stamp is
   per-registry, so sharing one record across registries would
   re-intern on every call and measure stamp churn instead of the hit
   paths. *)
let sid_bench_subject_for tag =
  ignore tag;
  Multics_access.Policy.subject
    ~principal:(Multics_access.Principal.make ~person:"Bench" ~project:"Perf" ~tag:"a")
    ~clearance:(Multics_access.Label.make Multics_access.Label.Secret avc_bench_compartments)
    ~ring:(Multics_machine.Ring.of_int 4) ()

let sid_bench_check_subject = sid_bench_subject_for `Check
let sid_bench_obj = Multics_fs.Uid.to_int avc_bench_uid

(* The compiled path against the work it replaced, node fetch excluded
   from both: the table's find (SID memo recall, two array loads, a
   bit test) against a fresh structured verdict (label dominance plus
   the ACL match walk). *)
let sid_bench_avtab = Multics_fs.Hierarchy.av_table avc_bench_hierarchy
let sid_bench_need = Multics_access.Av_table.required Multics_machine.Mode.rw

let sid_bench_flat_hit () =
  let subj = Multics_access.Av_table.subject_sid sid_bench_avtab avc_bench_subject in
  let av = Multics_access.Av_table.find sid_bench_avtab ~subj ~obj:sid_bench_obj in
  av >= 0 && Multics_access.Av_table.covers ~av ~need:sid_bench_need

let bench_sid_flat_find =
  ignore (sid_bench_flat_hit ());
  Test.make ~name:"e19/flat_table_find_hit" (Staged.stage sid_bench_flat_hit)

let sid_bench_fresh_check () =
  Multics_access.Policy.check ~subject:sid_bench_check_subject ~object_label:sid_bench_label
    ~acl:sid_bench_acl ~requested:Multics_machine.Mode.rw

let bench_sid_fresh_check =
  ignore (sid_bench_fresh_check ());
  Test.make ~name:"e19/policy_check_fresh" (Staged.stage sid_bench_fresh_check)

let sid_bench_intern_subject = sid_bench_subject_for `Flat

let bench_sid_intern_memo =
  ignore (Multics_fs.Hierarchy.subject_sid avc_bench_hierarchy sid_bench_intern_subject);
  Test.make ~name:"e19/subject_sid_memo_hit"
    (Staged.stage (fun () ->
         Multics_fs.Hierarchy.subject_sid avc_bench_hierarchy sid_bench_intern_subject))

let sid_bench_intern_cold () =
  (* Clearing the stamp forces the registry walk (hash + bucket scan +
     restamp) a process pays on its first reference after login or a
     ring change. *)
  sid_bench_intern_subject.Multics_access.Policy.sid_memo <- (0, -1);
  Multics_fs.Hierarchy.subject_sid avc_bench_hierarchy sid_bench_intern_subject

let bench_sid_intern_cold =
  Test.make ~name:"e19/subject_sid_intern_cold" (Staged.stage sid_bench_intern_cold)

(* A populated hierarchy for the rebuild: 64 objects under churn-free
   attributes, a handful of interned subjects — the rebuild recompiles
   every (subject, object) pair. *)
let sid_rebuild_hierarchy =
  let open Multics_access in
  let open Multics_fs in
  let operator =
    Policy.subject ~trusted:true
      ~principal:(Principal.make ~person:"Initializer" ~project:"SysDaemon" ~tag:"z")
      ~clearance:(Label.system_high []) ~ring:(Multics_machine.Ring.of_int 1) ()
  in
  let h = Hierarchy.create () in
  let acl = Acl.of_strings [ ("*.Perf.*", "rw"); ("Initializer.*.*", "rew") ] in
  let uids =
    Array.init 64 (fun i ->
        match
          Hierarchy.create_segment h ~subject:operator ~dir:Uid.root
            ~name:(Printf.sprintf "seg_%02d" i) ~acl ~label:Label.unclassified
        with
        | Ok uid -> uid
        | Error e -> failwith (Hierarchy.error_to_string e))
  in
  List.iter
    (fun person ->
      let s =
        Policy.subject
          ~principal:(Principal.make ~person ~project:"Perf" ~tag:"a")
          ~clearance:(Label.make Label.Secret []) ~ring:(Multics_machine.Ring.of_int 4) ()
      in
      ignore (Hierarchy.check_access h ~subject:s ~uid:uids.(0) ~requested:Multics_machine.Mode.r))
    [ "Ames"; "Bell"; "Cook"; "Dale" ];
  h

let sid_bench_rebuild () = Multics_fs.Hierarchy.rebuild_av_table sid_rebuild_hierarchy

let bench_sid_rebuild =
  Test.make ~name:"e19/table_rebuild_5subj_64obj" (Staged.stage sid_bench_rebuild)

(* ----- Observability overhead -----

   The same full gate call (a [Read_word] through [Api.Call.dispatch]:
   process lookup, gate discipline, SDW check, content fetch, metering
   branch) with the observability switch on and off.  The off row is the seed-equivalent
   path: its only extra cost is the single disabled branch, so the two
   rows must land within noise of each other.  The audit log is
   disabled for both rows so neither accumulates records across
   iterations. *)

module Obs = Multics_obs.Obs

let obs_bench_system, obs_bench_handle, obs_bench_segno =
  let open Multics_kernel in
  let system = System.create Config.kernel_6180 in
  Audit_log.set_enabled (System.audit system) false;
  ignore
    (System.add_account system ~person:"Bench" ~project:"Perf" ~password:"pw"
       ~clearance:Multics_access.Label.unclassified);
  let handle =
    match System.login system ~person:"Bench" ~project:"Perf" ~password:"pw" with
    | Ok handle -> handle
    | Error e -> failwith (System.login_error_to_string e)
  in
  let segno =
    match
      User_env.create_segment_at system ~handle ~path:">udd>Perf>Bench>hot"
        ~acl:(Multics_access.Acl.of_strings [ ("Bench.Perf.*", "rew") ])
        ~label:Multics_access.Label.unclassified
    with
    | Ok segno -> segno
    | Error e -> failwith (User_env.error_to_string e)
  in
  (match
     Api.Call.dispatch system ~handle (Api.Call.Write_word { segno; offset = 0; value = 42 })
   with
  | Ok _ -> ()
  | Error e -> failwith (Api.error_to_string e));
  (system, handle, segno)

let obs_bench_request =
  Multics_kernel.Api.Call.Read_word { segno = obs_bench_segno; offset = 0 }

let bench_obs_gate_call_on =
  Test.make ~name:"obs/gate_call_obs_on"
    (Staged.stage (fun () ->
         Obs.set_enabled true;
         Multics_kernel.Api.Call.dispatch obs_bench_system ~handle:obs_bench_handle
           obs_bench_request))

let bench_obs_gate_call_off =
  Test.make ~name:"obs/gate_call_obs_off"
    (Staged.stage (fun () ->
         Obs.set_enabled false;
         Multics_kernel.Api.Call.dispatch obs_bench_system ~handle:obs_bench_handle
           obs_bench_request))

let obs_bench_counter = Obs.Local.counter "bench.counter"
let bench_obs_counter_incr =
  Test.make ~name:"obs/counter_incr"
    (Staged.stage (fun () -> Obs.Counter.incr (obs_bench_counter ())))

let obs_bench_histogram = Obs.Local.histogram "bench.histogram"
let bench_obs_histogram_observe =
  Test.make ~name:"obs/histogram_observe"
    (Staged.stage (fun () -> Obs.Histogram.observe (obs_bench_histogram ()) 1234))

(* ----- The parallel harness (lib/par) ----- *)

module Par = Multics_par.Par

(* The task unit the domain pool schedules: one seeded E19 churn run,
   sized down so Bechamel can sample it. *)
let harness_seed_refs = 30

let bench_harness_seed_run =
  Test.make ~name:"harness/e19_seed_run"
    (Staged.stage (fun () ->
         Multics_experiments.E19_sid.run_seed ~seed:7 ~refs:harness_seed_refs))

let bench_harness_pool_seq =
  Test.make ~name:"harness/run_seeds_1dom"
    (Staged.stage (fun () ->
         Par.run_seeds ~jobs:1 8 (fun seed ->
             Multics_experiments.E19_sid.run_seed ~seed ~refs:harness_seed_refs)))

let bench_harness_pool_4dom =
  Test.make ~name:"harness/run_seeds_4dom"
    (Staged.stage (fun () ->
         Par.run_seeds ~jobs:4 8 (fun seed ->
             Multics_experiments.E19_sid.run_seed ~seed ~refs:harness_seed_refs)))

let bench_harness_spawn_join =
  Test.make ~name:"harness/pool_spawn_join"
    (Staged.stage (fun () -> Par.map ~jobs:4 Fun.id [ 1; 2; 3; 4 ]))

(* ----- Ablations ----- *)

let bench_ablation_policies =
  Test.make ~name:"a1/eviction_policies"
    (Staged.stage (fun () -> Multics_experiments.Ablations.A1.measure ()))

let bench_ablation_watermark =
  Test.make ~name:"a3/watermark_sweep"
    (Staged.stage (fun () -> Multics_experiments.Ablations.A3.measure ()))

let tests =
  [
    bench_gate_catalog;
    bench_gate_lookup;
    bench_kst_unified;
    bench_kst_split;
    bench_hardware_check;
    bench_avc_hit;
    bench_avc_miss_recompute;
    bench_hardware_check_assoc_hit;
    bench_sid_flat_find;
    bench_sid_fresh_check;
    bench_sid_intern_memo;
    bench_sid_intern_cold;
    bench_sid_rebuild;
    bench_boundary_sweep;
    bench_page_storm_sequential;
    bench_page_storm_parallel;
    bench_buffer_circular;
    bench_buffer_infinite;
    bench_interrupts_inline;
    bench_interrupts_processes;
    bench_policy_matrix;
    bench_lattice_trace;
    bench_pentest_kernel;
    bench_inventory_stages;
    bench_session_kernel;
    bench_verifier;
    bench_sched_dispatch;
    bench_smp_connect_broadcast;
    bench_smp_check_sdw_hit;
    bench_smp_dispatch_lock;
    bench_site_revocation_broadcast;
    bench_obs_gate_call_on;
    bench_obs_gate_call_off;
    bench_obs_counter_incr;
    bench_obs_histogram_observe;
    bench_harness_seed_run;
    bench_harness_pool_seq;
    bench_harness_pool_4dom;
    bench_harness_spawn_join;
    bench_ablation_policies;
    bench_ablation_watermark;
  ]

let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let grouped = Test.make_grouped ~name:"multics" ~fmt:"%s %s" tests in
  let raw_results = Benchmark.all cfg instances grouped in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  Analyze.merge ols instances results

let print_bench_table results =
  let open Notty_unix in
  let window =
    match winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 120; h = 1 }
  in
  Bechamel_notty.Unit.add Instance.monotonic_clock (Measure.unit Instance.monotonic_clock);
  let image =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run results
  in
  output_image (eol image)

(* ----- The cache smoke gate (--smoke) -----

   A fast regression check for CI: on a hit-heavy workload the cached
   decision path must beat recomputing the verdict from scratch by at
   least 5x, and the cache must actually be hitting.  Wall-clock
   timed, no Bechamel machinery, exits nonzero on regression. *)

let smoke_required_speedup = 5.0

let time_iters n f =
  let start = Unix.gettimeofday () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  Unix.gettimeofday () -. start

let smoke () =
  let iters = 300_000 and trials = 5 in
  (* Every trajectory row records the host's core count, so rows from
     different hosts can be told apart. *)
  let cores = Domain.recommended_domain_count () in
  let check () =
    Multics_fs.Hierarchy.check_access avc_bench_hierarchy ~subject:avc_bench_subject
      ~uid:avc_bench_uid ~requested:Multics_machine.Mode.rw
  in
  let fresh () =
    Multics_fs.Hierarchy.check_access_fresh avc_bench_hierarchy ~subject:avc_bench_subject
      ~uid:avc_bench_uid ~requested:Multics_machine.Mode.rw
  in
  ignore (check ());
  (* Warm-up pass for both paths, then several paired trials; the
     median pair rides out scheduler and frequency jitter that a
     single measurement is exposed to on shared CI machines. *)
  ignore (time_iters 10_000 check);
  ignore (time_iters 10_000 fresh);
  let pairs =
    List.init trials (fun _ ->
        let cached = time_iters iters check in
        let uncached = time_iters iters fresh in
        (cached, uncached))
  in
  let median xs =
    let sorted = List.sort compare xs in
    List.nth sorted (trials / 2)
  in
  let cached = median (List.map fst pairs) in
  let uncached = median (List.map snd pairs) in
  let speedup = uncached /. cached in
  let hit_ratio = Multics_fs.Hierarchy.cache_hit_ratio avc_bench_hierarchy in
  Printf.printf
    "bench smoke: %d hit-heavy decisions — cached %.1f ns/ref, fresh %.1f ns/ref, speedup %.1fx (required >= %.0fx), hit ratio %.1f%%\n"
    iters
    (cached *. 1e9 /. float_of_int iters)
    (uncached *. 1e9 /. float_of_int iters)
    speedup smoke_required_speedup (hit_ratio *. 100.0);
  if speedup < smoke_required_speedup then begin
    print_endline "bench smoke: FAIL — cached decision path lost its edge over recomputation";
    exit 1
  end;
  if hit_ratio < 0.99 then begin
    print_endline "bench smoke: FAIL — hit-heavy workload is not hitting the cache";
    exit 1
  end;
  (* The dispatch path must not scale with the ready backlog: a full
     MLF decision against 10,000 ready processes may cost at most a
     small constant factor over the same decision against 10.  The
     seed's O(P) dedicated-process scan would fail this gate. *)
  let dispatch_iters = 200_000 in
  let shallow = sched_mlf_with_backlog 10 in
  let deep = sched_mlf_with_backlog 10_000 in
  ignore (time_iters 10_000 (fun () -> sched_dispatch_cycle shallow));
  ignore (time_iters 10_000 (fun () -> sched_dispatch_cycle deep));
  let dispatch_pairs =
    List.init trials (fun _ ->
        let s = time_iters dispatch_iters (fun () -> sched_dispatch_cycle shallow) in
        let d = time_iters dispatch_iters (fun () -> sched_dispatch_cycle deep) in
        (s, d))
  in
  let shallow_t = median (List.map fst dispatch_pairs) in
  let deep_t = median (List.map snd dispatch_pairs) in
  let blowup = deep_t /. shallow_t in
  let max_blowup = 20.0 in
  Printf.printf
    "bench smoke: dispatch with 10k ready %.1f ns/op vs 10 ready %.1f ns/op — x%.1f (allowed <= x%.0f)\n"
    (deep_t *. 1e9 /. float_of_int dispatch_iters)
    (shallow_t *. 1e9 /. float_of_int dispatch_iters)
    blowup max_blowup;
  if blowup > max_blowup then begin
    print_endline "bench smoke: FAIL — scheduler dispatch is scaling with the ready backlog";
    exit 1
  end;
  (* The dense-SID gate: the compiled flat-table hit (what [check]
     above measures) must beat the fresh structured verdict it
     compiled away.  Also record the redesign's own costs — SID
     recall, cold re-intern, eager rebuild — in BENCH_e19_sid.json for
     the CI artifact. *)
  let ns_per t iters = t *. 1e9 /. float_of_int iters in
  let flat = sid_bench_flat_hit and fresh_check = sid_bench_fresh_check in
  ignore (flat ());
  ignore (fresh_check ());
  ignore (time_iters 10_000 flat);
  ignore (time_iters 10_000 fresh_check);
  let sid_pairs =
    List.init trials (fun _ ->
        let f = time_iters iters flat in
        let a = time_iters iters fresh_check in
        (f, a))
  in
  let flat_t = median (List.map fst sid_pairs) in
  let fresh_check_t = median (List.map snd sid_pairs) in
  let sid_speedup = fresh_check_t /. flat_t in
  let sid_required_speedup = 2.0 in
  Printf.printf
    "bench smoke: flat-table hit %.1f ns/ref vs fresh policy check %.1f ns/ref — speedup %.2fx (required >= %.1fx)\n"
    (ns_per flat_t iters) (ns_per fresh_check_t iters) sid_speedup sid_required_speedup;
  if sid_speedup < sid_required_speedup then begin
    print_endline "bench smoke: FAIL — the compiled table lost to the fresh check it replaced";
    exit 1
  end;
  ignore (sid_bench_intern_cold ());
  ignore (time_iters 10_000 (fun () -> Multics_fs.Hierarchy.subject_sid avc_bench_hierarchy sid_bench_intern_subject));
  let memo_t =
    median
      (List.init trials (fun _ ->
           time_iters iters (fun () ->
               Multics_fs.Hierarchy.subject_sid avc_bench_hierarchy sid_bench_intern_subject)))
  in
  let cold_t = median (List.init trials (fun _ -> time_iters iters sid_bench_intern_cold)) in
  let rebuild_iters = 2_000 in
  let rebuild_cells = sid_bench_rebuild () in
  let rebuild_t =
    median (List.init trials (fun _ -> time_iters rebuild_iters sid_bench_rebuild))
  in
  Printf.printf
    "bench smoke: subject SID memo %.1f ns, cold re-intern %.1f ns, rebuild (%d cells) %.1f ns\n"
    (ns_per memo_t iters) (ns_per cold_t iters) rebuild_cells (ns_per rebuild_t rebuild_iters);
  (* The trajectory file is append-only (one JSON object per line, a
     JSON-Lines log) and committed with each PR, so the growth of the
     hot paths stays reviewable across the stack instead of each run
     clobbering the last. *)
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_e19_sid.json" in
  Printf.fprintf oc
    {|{"bench": "e19_sid", "unix_time": %.0f, "trials": %d, "iters": %d, "flat_table_hit_ns": %.2f, "fresh_policy_check_ns": %.2f, "fresh_recompute_ns": %.2f, "speedup_flat_vs_fresh_check": %.3f, "speedup_cached_vs_fresh": %.3f, "required_speedup_flat_vs_fresh_check": %.2f, "subject_intern_memo_ns": %.2f, "subject_intern_cold_ns": %.2f, "table_rebuild_ns": %.2f, "table_rebuild_cells": %d, "hit_ratio": %.4f, "cores": %d}
|}
    (Unix.time ()) trials iters (ns_per flat_t iters) (ns_per fresh_check_t iters)
    (ns_per uncached iters) sid_speedup speedup sid_required_speedup (ns_per memo_t iters)
    (ns_per cold_t iters) (ns_per rebuild_t rebuild_iters) rebuild_cells hit_ratio cores;
  close_out oc;
  print_endline "bench smoke: appended to BENCH_e19_sid.json";
  (* The parallel-harness gate: the 100-seed E19 oracle must produce
     the same results at every pool size, and on a machine with at
     least 4 cores the 4-domain run must at least halve the sequential
     wall-clock.  Single-core runners still check determinism — only
     the speedup assertion is conditional on the hardware. *)
  let harness_refs = 2_000 and harness_trials = 3 in
  let time_oracle jobs =
    let start = Unix.gettimeofday () in
    let runs = Multics_experiments.E19_sid.parity_runs ~jobs ~refs:harness_refs () in
    (Unix.gettimeofday () -. start, runs)
  in
  let seq_samples = List.init harness_trials (fun _ -> time_oracle 1) in
  let median3 xs = List.nth (List.sort compare xs) (harness_trials / 2) in
  let seq_t = median3 (List.map fst seq_samples) in
  let reference = snd (List.hd seq_samples) in
  let oracle_divergences =
    List.fold_left
      (fun acc (r : Multics_experiments.E19_sid.run_stats) ->
        acc + r.Multics_experiments.E19_sid.divergences)
      0 reference
  in
  if cores < 2 then begin
    (* A 4-domain pool on one core measures scheduler thrash, not the
       harness: skip the timing, keep the determinism check over the
       sequential samples, and record the skip explicitly so the
       trajectory shows a gap instead of a fabricated speedup. *)
    let identical = List.for_all (fun (_, runs) -> runs = reference) seq_samples in
    Printf.printf
      "bench smoke: [harness] 100-seed E19 oracle (%d refs/seed, %d divergences) — sequential %.3f s, 4-domain timing skipped (%d core), results %s across trials\n"
      harness_refs oracle_divergences seq_t cores
      (if identical then "identical" else "DIVERGENT");
    if not identical then begin
      print_endline "bench smoke: FAIL — repeated sequential runs disagreed";
      exit 1
    end;
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_harness.json" in
    Printf.fprintf oc
      {|{"bench": "harness", "unix_time": %.0f, "trials": %d, "seeds": 100, "refs_per_seed": %d, "sequential_s": %.4f, "skipped": true, "cores": %d, "results_identical": %b}
|}
      (Unix.time ()) harness_trials harness_refs seq_t cores identical;
    close_out oc
  end
  else begin
    let par_samples = List.init harness_trials (fun _ -> time_oracle 4) in
    let par_t = median3 (List.map fst par_samples) in
    let identical =
      List.for_all (fun (_, runs) -> runs = reference) (seq_samples @ par_samples)
    in
    let harness_speedup = seq_t /. par_t in
    let harness_required_speedup = 2.0 in
    let enforce_speedup = cores >= 4 in
    Printf.printf
      "bench smoke: [harness] 100-seed E19 oracle (%d refs/seed, %d divergences) — sequential %.3f s, 4-domain %.3f s, speedup %.2fx%s, results %s across pool sizes\n"
      harness_refs oracle_divergences seq_t par_t harness_speedup
      (if enforce_speedup then Printf.sprintf " (required >= %.1fx)" harness_required_speedup
       else Printf.sprintf " (speedup gate skipped: %d core%s)" cores (if cores = 1 then "" else "s"))
      (if identical then "identical" else "DIVERGENT");
    if not identical then begin
      print_endline "bench smoke: FAIL — pool size changed the oracle's results";
      exit 1
    end;
    if enforce_speedup && harness_speedup < harness_required_speedup then begin
      print_endline "bench smoke: FAIL — the 4-domain oracle run lost its wall-clock edge";
      exit 1
    end;
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_harness.json" in
    Printf.fprintf oc
      {|{"bench": "harness", "unix_time": %.0f, "trials": %d, "seeds": 100, "refs_per_seed": %d, "sequential_s": %.4f, "four_domain_s": %.4f, "speedup": %.3f, "required_speedup": %.2f, "cores": %d, "skipped": false, "speedup_gate_enforced": %b, "results_identical": %b}
|}
      (Unix.time ()) harness_trials harness_refs seq_t par_t harness_speedup
      harness_required_speedup cores enforce_speedup identical;
    close_out oc
  end;
  print_endline "bench smoke: appended to BENCH_harness.json";

  (* ----- the model checker's exploration throughput -----

     A bounded exhaustive run at depth 3 (one boot into a memory image,
     every state a canonical re-execution on a copy of it): the healthy
     plant must come back with zero violations, and the replay rate
     lands in BENCH_mc.json so a regression in the canonical-replay hot
     path shows up as a states-per-second collapse between runs. *)
  let mc_depth = 3 in
  let mc_start = Unix.gettimeofday () in
  let mc_outcome = Multics_mc.Mc.explore ~depth:mc_depth () in
  let mc_t = Unix.gettimeofday () -. mc_start in
  let mc_states = mc_outcome.Multics_mc.Mc.o_states in
  let mc_expansions = mc_outcome.Multics_mc.Mc.o_expansions in
  let mc_violations = List.length mc_outcome.Multics_mc.Mc.o_counterexamples in
  let mc_states_per_sec = float_of_int mc_states /. mc_t in
  (* Medians of 200 runs: the once-per-exploration boot into an image,
     and one empty-trace replay on a copy of it (copy, canonical capture
     and predicates) — the fixed cost every state of an exploration
     pays. *)
  let median_us f =
    let runs = 200 in
    let samples =
      List.init runs (fun _ ->
          let start = Unix.gettimeofday () in
          ignore (Sys.opaque_identity (f ()));
          (Unix.gettimeofday () -. start) *. 1e6)
    in
    List.nth (List.sort compare samples) (runs / 2)
  in
  let image_boot_us = median_us (fun () -> Multics_mc.Mc.Image.build ~bug:false) in
  let image = Multics_mc.Mc.Image.build ~bug:false in
  let replay_d0_us = median_us (fun () -> Multics_mc.Mc.Image.violations_of_trace image []) in
  Printf.printf
    "bench smoke: [mc] exhaustive to depth %d — %d states, %d replays in %.3f s (%.0f states/s), %d violations; image boot %.1f us, empty-trace replay %.1f us\n"
    mc_depth mc_states mc_expansions mc_t mc_states_per_sec mc_violations image_boot_us replay_d0_us;
  if mc_violations <> 0 then begin
    print_endline "bench smoke: FAIL — the healthy plant produced a counterexample";
    exit 1
  end;
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_mc.json" in
  Printf.fprintf oc
    {|{"bench": "mc", "unix_time": %.0f, "depth": %d, "states": %d, "expansions": %d, "wall_s": %.4f, "states_per_sec": %.1f, "image_boot_us": %.1f, "replay_d0_us": %.1f, "violations": %d, "cores": %d}
|}
    (Unix.time ()) mc_depth mc_states mc_expansions mc_t mc_states_per_sec image_boot_us
    replay_d0_us mc_violations cores;
  close_out oc;
  print_endline "bench smoke: appended to BENCH_mc.json";

  (* ----- the specialised gate table's dispatch overhead (E22) -----

     The gate mask sits on the dispatch hot path, so it must stay
     cheap: an admitted call under a specialised table may not cost
     more than 3x the unmasked call, and a stripped call's Gate_absent
     refusal is timed alongside (it is the fail-secure fast path — no
     kernel state is touched). *)
  let module Spec = Multics_spec.Spec in
  let spec_config = Multics_kernel.Config.kernel_6180 in
  let spec_system = Multics_kernel.System.create spec_config in
  (* Retaining half a million audit records would time the GC, not the
     mask: this system's trail is disabled like the other hot-loop
     bench systems'. *)
  Multics_kernel.Audit_log.set_enabled (Multics_kernel.System.audit spec_system) false;
  ignore
    (Multics_kernel.System.add_account spec_system ~person:"Bench" ~project:"Spec" ~password:"pw"
       ~clearance:Multics_access.Label.unclassified);
  let spec_handle =
    match Multics_kernel.System.login spec_system ~person:"Bench" ~project:"Spec" ~password:"pw" with
    | Ok h -> h
    | Error _ -> failwith "bench: spec login"
  in
  let spec_home =
    match
      Multics_kernel.User_env.resolve_path spec_system ~handle:spec_handle ~path:">udd>Spec>Bench"
    with
    | Ok segno -> segno
    | Error _ -> failwith "bench: spec home"
  in
  let spec_data =
    match
      Multics_kernel.Api.Call.dispatch spec_system ~handle:spec_handle
        (Multics_kernel.Api.Call.Create_segment
           {
             dir_segno = spec_home;
             name = "data";
             acl = Multics_access.Acl.of_strings [ ("Bench.Spec.*", "rew") ];
             label = Multics_access.Label.unclassified;
             brackets = None;
           })
    with
    | Ok (Multics_kernel.Api.Call.Segno segno) -> segno
    | _ -> failwith "bench: spec data segment"
  in
  let read_once () =
    ignore
      (Multics_kernel.Api.Call.dispatch spec_system ~handle:spec_handle
         (Multics_kernel.Api.Call.Read_word { segno = spec_data; offset = 0 }))
  in
  let spec_iters = 20_000 in
  ignore (time_iters 1_000 read_once);
  let unmasked_t = median (List.init trials (fun _ -> time_iters spec_iters read_once)) in
  let profile, () =
    Spec.Profile.observe ~name:"bench-read" (fun () ->
        read_once ();
        ())
  in
  let spec =
    Spec.Specialisation.compile ~name:"bench-read" spec_config profile
  in
  Spec.Specialisation.apply spec_system spec;
  let masked_t = median (List.init trials (fun _ -> time_iters spec_iters read_once)) in
  let refuse_once () =
    ignore
      (Multics_kernel.Api.Call.dispatch spec_system ~handle:spec_handle
         (Multics_kernel.Api.Call.List_directory { dir_segno = spec_home }))
  in
  let refusal_t = median (List.init trials (fun _ -> time_iters spec_iters refuse_once)) in
  Spec.Specialisation.clear spec_system;
  let spec_overhead = masked_t /. unmasked_t in
  let spec_max_overhead = 3.0 in
  Printf.printf
    "bench smoke: [e22] admitted dispatch %.1f ns unmasked vs %.1f ns under a %d-of-%d-gate table (%.2fx, required <= %.1fx); stripped-gate refusal %.1f ns\n"
    (ns_per unmasked_t spec_iters) (ns_per masked_t spec_iters)
    (Spec.Specialisation.gate_count spec)
    (Spec.Specialisation.full_count spec)
    spec_overhead spec_max_overhead (ns_per refusal_t spec_iters);
  if spec_overhead > spec_max_overhead then begin
    print_endline "bench smoke: FAIL — the gate mask made admitted dispatch too expensive";
    exit 1
  end;
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_e22_spec.json" in
  Printf.fprintf oc
    {|{"bench": "e22_spec", "unix_time": %.0f, "trials": %d, "iters": %d, "unmasked_dispatch_ns": %.2f, "masked_dispatch_ns": %.2f, "overhead_ratio": %.3f, "max_overhead_ratio": %.2f, "stripped_refusal_ns": %.2f, "gates_kept": %d, "gates_full": %d, "cores": %d}
|}
    (Unix.time ()) trials spec_iters (ns_per unmasked_t spec_iters)
    (ns_per masked_t spec_iters) spec_overhead spec_max_overhead
    (ns_per refusal_t spec_iters)
    (Spec.Specialisation.gate_count spec)
    (Spec.Specialisation.full_count spec)
    cores;
  close_out oc;
  print_endline "bench smoke: appended to BENCH_e22_spec.json";
  print_endline "bench smoke: OK"

let () =
  if Array.exists (fun a -> a = "--smoke") Sys.argv then smoke ()
  else begin
    print_endline "=== Bechamel micro-benchmarks (one per experiment mechanism) ===";
    let results = benchmark () in
    Obs.set_enabled true;
    print_bench_table results;
    print_newline ();
    print_endline "=== Experiment tables (E1..E18 + ablations) ===";
    print_newline ();
    print_string (Multics_experiments.Registry.render_all ());
    print_newline ()
  end
