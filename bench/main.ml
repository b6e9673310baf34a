(* The bench smoke runner: six gated legs, wall-clock timed.

     dune exec bench/main.exe

   [cache], [dispatch], [e19], [harness], [mc] and [e22] each print one
   verdict line tagged with the leg's name and fail the run through
   [gate] on a missed threshold; the last line is [bench smoke: OK].
   Four legs append a row to a committed BENCH_*.json trajectory in the
   current directory, so run it in a copy of the tree unless the rows
   are meant to be committed.  The experiment tables themselves are
   bin/experiments.exe's; perfbench/ measures the kernel end to end and
   layer by layer. *)

(* ----- Fixtures -----

   The mediation fixture models the heavy end of realistic mediation: a
   project segment carrying a 66-entry ACL and an 18-compartment label
   (the AIM ceiling), accessed read-write by a subject cleared at the
   object's own level — so the fresh path pays the most-specific ACL
   scan plus both dominance subset checks on every reference, exactly
   the work the associative memory exists to bypass. *)
let avc_bench_compartments =
  [
    "crypto"; "nuclear"; "payroll"; "sigint"; "tempest"; "comsec"; "nofor"; "orcon"; "limdis";
    "propin"; "relido"; "imcon"; "medical"; "fiscal"; "audit"; "census"; "budget"; "treaty";
  ]

(* The trusted operator that builds each fixture hierarchy. *)
let bench_operator () =
  let open Multics_access in
  Policy.subject ~trusted:true
    ~principal:(Principal.make ~person:"Initializer" ~project:"SysDaemon" ~tag:"z")
    ~clearance:(Label.system_high []) ~ring:(Multics_machine.Ring.of_int 1) ()

(* The subject every mediation fixture times: Bench.Perf, cleared at
   the hot object's own level. *)
let bench_subject () =
  Multics_access.Policy.subject
    ~principal:(Multics_access.Principal.make ~person:"Bench" ~project:"Perf" ~tag:"a")
    ~clearance:(Multics_access.Label.make Multics_access.Label.Secret avc_bench_compartments)
    ~ring:(Multics_machine.Ring.of_int 4) ()

let avc_bench_hierarchy, avc_bench_uid =
  let open Multics_access in
  let open Multics_fs in
  let operator = bench_operator () in
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

let avc_bench_subject = bench_subject ()

(* The redesigned decision path: the hierarchy serves [check_access]
   from the compiled [Av_table]. *)
let avc_bench_check () =
  Multics_fs.Hierarchy.check_access avc_bench_hierarchy ~subject:avc_bench_subject
    ~uid:avc_bench_uid ~requested:Multics_machine.Mode.rw

(* One full MLF scheduling decision — select (with its aging pass),
   quantum lookup, expiry demotion, re-enqueue — against a ready
   backlog of [n]. *)
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

(* The dense-SID path against the work it compiled away — a fresh
   structured [Policy.check] over the same label and ACL — plus the two
   costs the compilation introduces: recalling a subject's dense SID
   (the memo-stamp fast path and the cold re-intern) and an eager
   whole-table rebuild. *)
let sid_bench_label, sid_bench_acl =
  ( Option.get (Multics_fs.Hierarchy.label_of avc_bench_hierarchy avc_bench_uid),
    Option.get (Multics_fs.Hierarchy.acl_of avc_bench_hierarchy avc_bench_uid) )

(* Separate subject records per path: the SID memo stamp is
   per-registry, so sharing one record across registries would
   re-intern on every call and measure stamp churn instead of the hit
   paths. *)
let sid_bench_check_subject = bench_subject ()
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

let sid_bench_fresh_check () =
  Multics_access.Policy.check ~subject:sid_bench_check_subject ~object_label:sid_bench_label
    ~acl:sid_bench_acl ~requested:Multics_machine.Mode.rw

let sid_bench_intern_subject = bench_subject ()

let sid_bench_intern_memo () =
  Multics_fs.Hierarchy.subject_sid avc_bench_hierarchy sid_bench_intern_subject

let sid_bench_intern_cold () =
  (* Clearing the stamp forces the registry walk (hash + bucket scan +
     restamp) a process pays on its first reference after login or a
     ring change. *)
  sid_bench_intern_subject.Multics_access.Policy.sid_memo <- (0, -1);
  Multics_fs.Hierarchy.subject_sid avc_bench_hierarchy sid_bench_intern_subject

(* A populated hierarchy for the rebuild: 64 objects under churn-free
   attributes, a handful of interned subjects — the rebuild recompiles
   every (subject, object) pair. *)
let sid_rebuild_hierarchy =
  let open Multics_access in
  let open Multics_fs in
  let operator = bench_operator () in
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

(* One booted kernel for gate-call timing: [kernel_6180] with audit
   retention off (a hot loop would otherwise time the trail's growth
   and the GC, not the call), one logged-in user, Bench.Perf, and one
   [rew] segment, >udd>Perf>Bench>hot, whose word 0 holds 42.  The e22
   leg boots it inside the leg, so the kernel it times is fresh. *)

type bench_kernel = {
  system : Multics_kernel.System.t;
  handle : int;
  home : int;  (** segno of >udd>Perf>Bench *)
  segno : int;  (** segno of the segment *)
}

let kernel_6180 () =
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
  let home =
    match User_env.resolve_path system ~handle ~path:">udd>Perf>Bench" with
    | Ok segno -> segno
    | Error e -> failwith (User_env.error_to_string e)
  in
  let dispatch request =
    match Api.Call.dispatch system ~handle request with
    | Ok reply -> reply
    | Error e -> failwith (Api.error_to_string e)
  in
  let segno =
    match
      dispatch
        (Api.Call.Create_segment
           {
             dir_segno = home;
             name = "hot";
             acl = Multics_access.Acl.of_strings [ ("Bench.Perf.*", "rew") ];
             label = Multics_access.Label.unclassified;
             brackets = None;
           })
    with
    | Api.Call.Segno segno -> segno
    | _ -> failwith "bench: create_segment replied without a segment number"
  in
  ignore (dispatch (Api.Call.Write_word { segno; offset = 0; value = 42 }));
  { system; handle; home; segno }

(* ----- Timing, gates and trajectory rows ----- *)

let trials = 5

(* Every trajectory row records the host's core count, so rows from
   different hosts can be told apart. *)
let cores = Domain.recommended_domain_count ()

let median xs = List.nth (List.sort compare xs) (List.length xs / 2)

(* Wall seconds of one call, with its result. *)
let timed f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (Unix.gettimeofday () -. start, result)

let time_iters iters f =
  fst
    (timed (fun () ->
         for _ = 1 to iters do
           ignore (Sys.opaque_identity (f ()))
         done))

(* ns per call: the median of [trials] runs of [iters] calls. *)
let ns_per_call ?(trials = trials) ~iters f =
  median (List.init trials (fun _ -> time_iters iters f)) *. 1e9 /. float_of_int iters

(* Two paths head to head: warm both, then time them back to back in
   every trial, so the two medians ride out the same scheduler and
   frequency jitter a single measurement on a shared machine is
   exposed to.  ns per call of each. *)
let paired ~iters a b =
  ignore (time_iters 10_000 a);
  ignore (time_iters 10_000 b);
  let pairs =
    List.init trials (fun _ ->
        let ta = time_iters iters a in
        (ta, time_iters iters b))
  in
  let ns ts = median ts *. 1e9 /. float_of_int iters in
  (ns (List.map fst pairs), ns (List.map snd pairs))

let gate ok why =
  if not ok then begin
    Printf.printf "bench smoke: FAIL — %s\n" why;
    exit 1
  end

(* A trajectory is append-only JSON Lines, one object per run,
   committed with the code, so the growth of the hot paths stays
   reviewable across commits instead of each run clobbering the
   last. *)
let append file bench fields =
  let fields =
    (("bench", Printf.sprintf "%S" bench) :: ("unix_time", Printf.sprintf "%.0f" (Unix.time ()))
    :: fields)
    @ [ ("cores", string_of_int cores) ]
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  Printf.fprintf oc "{%s}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields));
  close_out oc;
  Printf.printf "bench smoke: appended to %s\n" file

let int key v = (key, string_of_int v)
let num decimals key v = (key, Printf.sprintf "%.*f" decimals v)
let bool key v = (key, string_of_bool v)

(* ----- The legs ----- *)

(* [cache] (E16): on the hit-heavy fixture the cached decision path
   must beat recomputing the verdict from scratch by at least 5x, and
   the cache must actually be hitting.  Returns the fresh path's ns,
   the speedup and the hit ratio for the e19 row. *)
let cache_leg () =
  let iters = 300_000 and required = 5.0 in
  let fresh () =
    Multics_fs.Hierarchy.check_access_fresh avc_bench_hierarchy ~subject:avc_bench_subject
      ~uid:avc_bench_uid ~requested:Multics_machine.Mode.rw
  in
  ignore (avc_bench_check ());
  let cached, uncached = paired ~iters avc_bench_check fresh in
  let speedup = uncached /. cached in
  let hit_ratio = Multics_fs.Hierarchy.cache_hit_ratio avc_bench_hierarchy in
  Printf.printf
    "bench smoke: [cache] %d hit-heavy decisions — cached %.1f ns/ref, fresh %.1f ns/ref, speedup %.1fx (required >= %.0fx), hit ratio %.1f%%\n"
    iters cached uncached speedup required (hit_ratio *. 100.0);
  gate (speedup >= required) "cached decision path lost its edge over recomputation";
  gate (hit_ratio >= 0.99) "hit-heavy workload is not hitting the cache";
  (uncached, speedup, hit_ratio)

(* [dispatch] (E17): a full MLF decision against 10,000 ready
   processes may cost at most a small constant factor over the same
   decision against 10.  The seed's O(P) dedicated-process scan would
   fail this gate. *)
let dispatch_leg () =
  let iters = 200_000 and allowed = 20.0 in
  let shallow = sched_mlf_with_backlog 10 and deep = sched_mlf_with_backlog 10_000 in
  let shallow_ns, deep_ns =
    paired ~iters (fun () -> sched_dispatch_cycle shallow) (fun () -> sched_dispatch_cycle deep)
  in
  let blowup = deep_ns /. shallow_ns in
  Printf.printf
    "bench smoke: [dispatch] MLF decision with 10k ready %.1f ns/op vs 10 ready %.1f ns/op — x%.1f (allowed <= x%.0f)\n"
    deep_ns shallow_ns blowup allowed;
  gate (blowup <= allowed) "scheduler dispatch is scaling with the ready backlog"

(* [e19]: the compiled flat-table hit must beat the fresh structured
   verdict it compiled away by 2x.  The row also records the
   redesign's own costs (SID recall, cold re-intern, eager rebuild)
   and the cache leg's figures. *)
let e19_leg (fresh_recompute_ns, speedup_cached_vs_fresh, hit_ratio) =
  let iters = 300_000 and required = 2.0 in
  ignore (sid_bench_flat_hit ());
  ignore (sid_bench_fresh_check ());
  let flat, fresh = paired ~iters sid_bench_flat_hit sid_bench_fresh_check in
  let speedup = fresh /. flat in
  Printf.printf
    "bench smoke: [e19] flat-table hit %.1f ns/ref vs fresh policy check %.1f ns/ref — speedup %.2fx (required >= %.1fx)\n"
    flat fresh speedup required;
  gate (speedup >= required) "the compiled table lost to the fresh check it replaced";
  ignore (sid_bench_intern_cold ());
  ignore (time_iters 10_000 sid_bench_intern_memo);
  let memo_ns = ns_per_call ~iters sid_bench_intern_memo in
  let cold_ns = ns_per_call ~iters sid_bench_intern_cold in
  let rebuild_iters = 2_000 in
  let rebuild_cells = sid_bench_rebuild () in
  let rebuild_ns = ns_per_call ~iters:rebuild_iters sid_bench_rebuild in
  Printf.printf
    "bench smoke: subject SID memo %.1f ns, cold re-intern %.1f ns, rebuild (%d cells) %.1f ns\n"
    memo_ns cold_ns rebuild_cells rebuild_ns;
  append "BENCH_e19_sid.json" "e19_sid"
    [
      int "trials" trials;
      int "iters" iters;
      num 2 "flat_table_hit_ns" flat;
      num 2 "fresh_policy_check_ns" fresh;
      num 2 "fresh_recompute_ns" fresh_recompute_ns;
      num 3 "speedup_flat_vs_fresh_check" speedup;
      num 3 "speedup_cached_vs_fresh" speedup_cached_vs_fresh;
      num 2 "required_speedup_flat_vs_fresh_check" required;
      num 2 "subject_intern_memo_ns" memo_ns;
      num 2 "subject_intern_cold_ns" cold_ns;
      num 2 "table_rebuild_ns" rebuild_ns;
      int "table_rebuild_cells" rebuild_cells;
      num 4 "hit_ratio" hit_ratio;
    ]

(* [harness]: the 100-seed E19 oracle must produce the same results at
   every pool size, and on a machine with at least 4 cores a 4-domain
   run must at least halve the sequential wall-clock.  The pool gets
   [min 4 cores] domains: more domains than cores would time scheduler
   thrash, not the harness, so a 2-core host records what 2 domains
   buy and skips the gate.  On one core no pool can help: the timing
   is skipped (and the row says so, a gap rather than a fabricated
   speedup) while the sequential runs must still agree. *)
let harness_leg () =
  let refs = 2_000 and runs = 3 and required = 2.0 and domains = min 4 cores in
  let oracle jobs = timed (fun () -> Multics_experiments.E19_sid.parity_runs ~jobs ~refs ()) in
  let seq = List.init runs (fun _ -> oracle 1) in
  let seq_s = median (List.map fst seq) and reference = snd (List.hd seq) in
  let divergences =
    List.fold_left (fun acc r -> acc + r.Multics_experiments.E19_sid.divergences) 0 reference
  in
  let agree samples = List.for_all (fun (_, r) -> r = reference) samples in
  let verdict identical = if identical then "identical" else "DIVERGENT" in
  let head =
    Printf.sprintf
      "bench smoke: [harness] 100-seed E19 oracle (%d refs/seed, %d divergences) — sequential %.3f s"
      refs divergences seq_s
  in
  let common =
    [ int "trials" runs; int "seeds" 100; int "refs_per_seed" refs; num 4 "sequential_s" seq_s ]
  in
  if domains < 2 then begin
    let identical = agree seq in
    Printf.printf "%s, parallel timing skipped (%d core), results %s across trials\n" head cores
      (verdict identical);
    gate identical "repeated sequential runs disagreed";
    append "BENCH_harness.json" "harness"
      (common @ [ bool "skipped" true; bool "results_identical" identical ])
  end
  else begin
    let par = List.init runs (fun _ -> oracle domains) in
    let par_s = median (List.map fst par) in
    let identical = agree (seq @ par) and speedup = seq_s /. par_s and enforce = domains >= 4 in
    Printf.printf "%s, %d-domain %.3f s, speedup %.2fx%s, results %s across pool sizes\n" head
      domains par_s speedup
      (if enforce then Printf.sprintf " (required >= %.1fx)" required
       else Printf.sprintf " (speedup gate skipped: %d cores)" cores)
      (verdict identical);
    gate identical "pool size changed the oracle's results";
    gate ((not enforce) || speedup >= required) "the 4-domain oracle run lost its wall-clock edge";
    append "BENCH_harness.json" "harness"
      (common
      @ [
          int "domains" domains;
          num 4 "parallel_s" par_s;
          num 3 "speedup" speedup;
          num 2 "required_speedup" required;
          bool "skipped" false;
          bool "speedup_gate_enforced" enforce;
          bool "results_identical" identical;
        ])
  end

(* [mc] (E21): a bounded exhaustive run at depth 3 (one boot into a
   memory image, each frontier state replayed once on a copy of it,
   each candidate its last action fired on a copy of that replay and
   only the components that action changed rendered) must find no
   violation on the healthy plant.  The row records the explore's
   states/s, and, as medians of 200 runs, the image boot and one
   empty-trace replay on a copy of it: a copy, a full canonical capture
   and the predicates, which a candidate pays only in part, since its
   capture renders what its one action changed and it re-probes P4 only
   for the pairs whose inputs moved. *)
let mc_leg () =
  let module Mc = Multics_mc.Mc in
  let depth = 3 in
  let runs = List.init trials (fun _ -> timed (fun () -> Mc.explore ~depth ())) in
  let wall = median (List.map fst runs) and o = snd (List.hd runs) in
  let states_per_sec = float_of_int o.Mc.o_states /. wall in
  let violations = List.length o.Mc.o_counterexamples in
  let us f = ns_per_call ~trials:200 ~iters:1 f /. 1e3 in
  let image_boot_us = us (fun () -> Mc.Image.build ~bug:false) in
  let image = Mc.Image.build ~bug:false in
  let replay_d0_us = us (fun () -> Mc.Image.violations_of_trace image []) in
  Printf.printf
    "bench smoke: [mc] exhaustive to depth %d — %d states, %d candidates in %.3f s (%.0f states/s, median of %d), %d violations; image boot %.1f us, empty-trace replay %.1f us\n"
    depth o.Mc.o_states o.Mc.o_expansions wall states_per_sec trials violations image_boot_us
    replay_d0_us;
  gate (violations = 0) "the healthy plant produced a counterexample";
  append "BENCH_mc.json" "mc"
    [
      int "trials" trials;
      int "depth" depth;
      int "states" o.Mc.o_states;
      int "expansions" o.Mc.o_expansions;
      num 4 "wall_s" wall;
      num 1 "states_per_sec" states_per_sec;
      num 1 "image_boot_us" image_boot_us;
      num 1 "replay_d0_us" replay_d0_us;
      int "violations" violations;
    ]

(* [e22]: the gate mask sits on the dispatch hot path, so an admitted
   call under a specialised table may cost at most 3x the unmasked
   call.  The unmasked read is timed again with observability off: the
   difference is what metering a gate call costs (recorded, not
   gated).  A stripped call's Gate_absent refusal is timed alongside:
   it is the fail-secure fast path, touching no kernel state. *)
let e22_leg () =
  let module Spec = Multics_spec.Spec in
  let module Call = Multics_kernel.Api.Call in
  let iters = 20_000 and allowed = 3.0 in
  let k = kernel_6180 () in
  let call request () = ignore (Call.dispatch k.system ~handle:k.handle request) in
  let read = call (Call.Read_word { segno = k.segno; offset = 0 }) in
  let list = call (Call.List_directory { dir_segno = k.home }) in
  ignore (time_iters 1_000 read);
  let unmasked = ns_per_call ~iters read in
  let obs_off = Multics_obs.Obs.with_disabled (fun () -> ns_per_call ~iters read) in
  let profile, () = Spec.Profile.observe ~name:"bench-read" read in
  let spec =
    Spec.Specialisation.compile ~name:"bench-read" Multics_kernel.Config.kernel_6180 profile
  in
  Spec.Specialisation.apply k.system spec;
  let masked = ns_per_call ~iters read in
  let refusal = ns_per_call ~iters list in
  Spec.Specialisation.clear k.system;
  let overhead = masked /. unmasked in
  let kept = Spec.Specialisation.gate_count spec and full = Spec.Specialisation.full_count spec in
  Printf.printf
    "bench smoke: [e22] admitted dispatch %.1f ns unmasked (%.1f ns obs off) vs %.1f ns under a %d-of-%d-gate table (%.2fx, required <= %.1fx); stripped-gate refusal %.1f ns\n"
    unmasked obs_off masked kept full overhead allowed refusal;
  gate (overhead <= allowed) "the gate mask made admitted dispatch too expensive";
  append "BENCH_e22_spec.json" "e22_spec"
    [
      int "trials" trials;
      int "iters" iters;
      num 2 "unmasked_dispatch_ns" unmasked;
      num 2 "obs_off_dispatch_ns" obs_off;
      num 2 "masked_dispatch_ns" masked;
      num 3 "overhead_ratio" overhead;
      num 2 "max_overhead_ratio" allowed;
      num 2 "stripped_refusal_ns" refusal;
      int "gates_kept" kept;
      int "gates_full" full;
    ]

let () =
  let cache = cache_leg () in
  dispatch_leg ();
  e19_leg cache;
  harness_leg ();
  mc_leg ();
  e22_leg ();
  print_endline "bench smoke: OK"
