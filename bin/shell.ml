(* An interactive shell over the kernel API — the reproduction as a
   drivable system.

     dune exec bin/shell.exe                      # interactive, kernel config
     dune exec bin/shell.exe -- --config baseline # the flawed 645 supervisor
     echo 'help' | dune exec bin/shell.exe        # scriptable
     dune exec bin/shell.exe -- -c 'login Alice Dev pw; ls >udd'

   Commands operate through exactly the same gates user programs use;
   every one lands in the audit trail ([audit] shows it). *)

open Multics_access
open Multics_kernel
module Obs = Multics_obs.Obs
module Smp = Multics_smp.Smp
module Site = Multics_site.Site
module Cmd = Multics_shellcmd.Shellcmd.Command
module Mc = Multics_mc.Mc
module Spec = Multics_spec.Spec

(* [fleet] is the distributed plant ([MULTICS_SITES] > 1): the [site]
   operator family drives it.  The single-site shell carries [None]
   and stays the seed, byte for byte.  [last_mc] holds the most recent
   model-checker outcome for [mc status]. *)
type shell = {
  system : System.t;
  mutable handle : int option;
  fleet : Site.t option;
  mutable last_mc : Mc.outcome option;
  mutable profiling : Obs.Snapshot.t option;  (* baseline of an open [spec profile] *)
  mutable profile : Spec.Profile.t option;  (* last captured gate-usage profile *)
}

let say fmt = Printf.printf (fmt ^^ "\n%!")

let require_login shell k =
  match shell.handle with
  | Some handle -> k handle
  | None -> say "not logged in (use: login Person Project password [level])"

let parse_level = function
  | "unclassified" -> Some Label.unclassified
  | "confidential" -> Some (Label.make Label.Confidential [])
  | "secret" -> Some (Label.make Label.Secret [])
  | "topsecret" -> Some (Label.make Label.Top_secret [])
  | _ -> None

let on_api shell what result =
  match result with
  | Ok v -> Some v
  | Error e ->
      ignore shell;
      say "%s: %s" what (Fmt.str "%a" Api.pp e);
      None

(* Every shell command goes through the typed dispatch surface — same
   mediation, audit and metering as any user program's gate call. *)
let gate shell what ~handle request = on_api shell what (Api.Call.dispatch shell.system ~handle request)

let on_env shell what result =
  match result with
  | Ok v -> Some v
  | Error e ->
      ignore shell;
      say "%s: %s" what (User_env.error_to_string e);
      None

let resolve shell handle path = on_env shell "resolve" (User_env.resolve_path shell.system ~handle ~path)

let cmd_help () =
  say
    "commands:\n\
    \  login PERSON PROJECT PASSWORD [unclassified|confidential|secret|topsecret]\n\
    \  adduser PERSON PROJECT PASSWORD [level]   register an account (admin)\n\
    \  logout | whoami | gates | audit [N]\n\
    \  ls PATH | mkdir PATH | create PATH | delete PATH\n\
    \  write PATH OFFSET VALUE | read PATH OFFSET | status PATH NAME\n\
    \  acl PATH PATTERN MODE   (e.g. acl >udd>Dev>A>x '*.Dev.*' r)\n\
    \  quota PATH PAGES | bind NAME PATH | lookup NAME\n\
    \  stats [json|reset]      live kernel counters (gates, VM, IPC, fault.*, salvage.*,\n\
    \                          backup.*) plus cache hit ratios (policy/hw.assoc/vm.ptw)\n\
    \                          and the traffic-controller section (queues, preemptions,\n\
    \                          response-time p50/p99)\n\
    \  sched status            traffic-controller policy + counters (via the Sched_status gate)\n\
    \  sched tune PARAM VALUE  adjust cap | quantum | age_after (via the Sched_tune gate)\n\
    \  sched demo [USERS]      run the deterministic timesharing workload, print latencies\n\
    \  cache status            policy-cache and this CPU's associative-memory counters\n\
    \  cache clear             invalidate every cached access decision\n\
    \  smp status              the plant: CPUs (1 unless MULTICS_NCPU), connects, lock\n\
    \  jobs status             experiment-harness domain pool: size, tasks, per-worker\n\
    \                          counts (set MULTICS_JOBS)\n\
    \  site status             distributed fleet: per-site epochs, links (set MULTICS_SITES)\n\
    \  site partition A B      operator-sever the link between two sites\n\
    \  site heal               heal severed links, rejoin fenced sites via salvage-and-resync\n\
    \  fault plan SEED SPEC    install a fault plan, e.g. fault plan 7 gate.deny=every:5\n\
    \  fault status            active plan + injector counters\n\
    \  fault clear             remove the active plan\n\
    \  mc run DEPTH [bug]      exhaustively model-check the reference monitor to DEPTH\n\
    \                          ('bug' re-enables the pre-PR 5 deferred-connect window)\n\
    \  mc status               the last exploration's states/depth table and verdicts\n\
    \  mc replay TRACE [bug]   replay a comma-separated action trace, report violations\n\
    \  spec profile start      record the per-gate dispatch counters from here on\n\
    \  spec profile stop NAME  snapshot the recording into a named gate-usage profile\n\
    \  spec apply              compile the captured profile, strip every unused gate\n\
    \                          (stripped gates refuse with Gate_absent; login survives)\n\
    \  spec clear              restore the full gate surface\n\
    \  spec status             the installed mask and the captured profile\n\
    \  salvage                 roll back aborted creates, drop dangling KST entries,\n\
    \                          re-derive descriptors from the access records\n\
    \  help | exit"

let cmd_adduser shell args =
  match args with
  | person :: project :: password :: rest ->
      let clearance =
        match rest with
        | [ level ] -> Option.value (parse_level level) ~default:Label.unclassified
        | _ -> Label.unclassified
      in
      (try
         ignore (System.add_account shell.system ~person ~project ~password ~clearance);
         say "account %s.%s created (clearance %s)" person project (Label.to_string clearance)
       with Invalid_argument m -> say "adduser: %s" m)
  | _ -> say "usage: adduser PERSON PROJECT PASSWORD [level]"

let cmd_login shell args =
  match args with
  | person :: project :: password :: rest -> (
      let level = match rest with [ l ] -> parse_level l | _ -> None in
      match System.login ?level shell.system ~person ~project ~password with
      | Ok handle ->
          shell.handle <- Some handle;
          say "logged in as %s.%s (process %d)" person project handle
      | Error e -> say "login: %s" (System.login_error_to_string e))
  | _ -> say "usage: login PERSON PROJECT PASSWORD [level]"

let cmd_logout shell =
  require_login shell (fun handle ->
      ignore (System.logout shell.system ~handle);
      shell.handle <- None;
      say "logged out")

let cmd_whoami shell =
  require_login shell (fun handle ->
      match gate shell "whoami" ~handle Api.Call.Proc_info with
      | Some (Api.Call.Info info) ->
          say "%s | ring %d | level %s | %d segments known | authenticated in ring %d"
            info.Api.info_principal info.Api.info_ring
            (Label.to_string info.Api.info_level)
            info.Api.info_known_segments info.Api.info_login_ring
      | Some _ | None -> ())

let cmd_ls shell path =
  require_login shell (fun handle ->
      match resolve shell handle path with
      | None -> ()
      | Some dir_segno -> (
          match gate shell "ls" ~handle (Api.Call.List_directory { dir_segno }) with
          | Some (Api.Call.Names names) ->
              if names = [] then say "(empty)" else List.iter (fun n -> say "  %s" n) names
          | Some _ | None -> ()))

let default_acl shell handle =
  match System.proc shell.system handle with
  | Some p ->
      Acl.of_strings
        [
          ( Printf.sprintf "%s.%s.*" (Principal.person p.System.principal)
              (Principal.project p.System.principal),
            "rew" );
        ]
  | None -> Acl.empty

let cmd_mkdir shell path =
  require_login shell (fun handle ->
      match
        on_env shell "mkdir"
          (User_env.create_directory_at shell.system ~handle ~path ~acl:(default_acl shell handle)
             ~label:Label.unclassified)
      with
      | Some segno -> say "created %s (segment %d)" path segno
      | None -> ())

let cmd_create shell path =
  require_login shell (fun handle ->
      match
        on_env shell "create"
          (User_env.create_segment_at shell.system ~handle ~path ~acl:(default_acl shell handle)
             ~label:Label.unclassified)
      with
      | Some segno -> say "created %s (segment %d)" path segno
      | None -> ())

let cmd_delete shell path =
  require_login shell (fun handle ->
      match on_env shell "delete" (User_env.delete_at shell.system ~handle ~path) with
      | Some () -> say "deleted %s" path
      | None -> ())

let cmd_write shell path offset value =
  require_login shell (fun handle ->
      match resolve shell handle path with
      | None -> ()
      | Some segno -> (
          match gate shell "write" ~handle (Api.Call.Write_word { segno; offset; value }) with
          | Some Api.Call.Done -> say "ok"
          | Some _ | None -> ()))

let cmd_read shell path offset =
  require_login shell (fun handle ->
      match resolve shell handle path with
      | None -> ()
      | Some segno -> (
          match gate shell "read" ~handle (Api.Call.Read_word { segno; offset }) with
          | Some (Api.Call.Word value) -> say "%d" value
          | Some _ | None -> ()))

let cmd_status shell dir_path name =
  require_login shell (fun handle ->
      match resolve shell handle dir_path with
      | None -> ()
      | Some dir_segno -> (
          match gate shell "status" ~handle (Api.Call.Status_entry { dir_segno; name }) with
          | Some (Api.Call.Status st) ->
              say "%s: %s, label %s, %d pages" st.Api.status_name
                (match st.Api.status_kind with
                | Multics_fs.Hierarchy.Segment -> "segment"
                | Multics_fs.Hierarchy.Directory -> "directory")
                (Label.to_string st.Api.status_label)
                st.Api.status_pages
          | Some _ | None -> ()))

let cmd_acl shell path pattern mode =
  require_login shell (fun handle ->
      match resolve shell handle path with
      | None -> ()
      | Some segno -> (
          (* Add/replace one entry on top of the current ACL. *)
          let hierarchy = System.hierarchy shell.system in
          match System.proc shell.system handle with
          | None -> ()
          | Some p -> (
              match Multics_fs.Kst.uid_of_segno p.System.kst segno with
              | Error e -> say "acl: %s" (Multics_fs.Kst.error_to_string e)
              | Ok uid -> (
                  let current =
                    Option.value (Multics_fs.Hierarchy.acl_of hierarchy uid) ~default:Acl.empty
                  in
                  match
                    (try
                       Ok
                         (Acl.add current
                            ~pattern:(Principal.pattern_of_string pattern)
                            ~mode:(Multics_machine.Mode.of_string mode))
                     with Invalid_argument m -> Error m)
                  with
                  | Error m -> say "acl: %s" m
                  | Ok acl -> (
                      match gate shell "acl" ~handle (Api.Call.Set_acl { segno; acl }) with
                      | Some Api.Call.Done ->
                          say "acl updated (revocation applied to cached descriptors)"
                      | Some _ | None -> ())))))

let cmd_quota shell path pages =
  require_login shell (fun handle ->
      match resolve shell handle path with
      | None -> ()
      | Some segno -> (
          match gate shell "quota" ~handle (Api.Call.Set_quota { segno; quota = Some pages }) with
          | Some Api.Call.Done -> say "quota cell of %d pages installed on %s" pages path
          | Some _ | None -> ()))

let cmd_bind shell name path =
  require_login shell (fun handle ->
      match resolve shell handle path with
      | None -> ()
      | Some segno -> (
          match on_env shell "bind" (User_env.bind_name shell.system ~handle ~name ~segno) with
          | Some () -> say "%s -> segment %d" name segno
          | None -> ()))

let cmd_lookup shell name =
  require_login shell (fun handle ->
      match on_env shell "lookup" (User_env.lookup_name shell.system ~handle ~name) with
      | Some segno -> say "segment %d" segno
      | None -> ())

let cmd_gates shell =
  let config = System.config shell.system in
  say "configuration: %s" config.Config.name;
  List.iter
    (fun (subsystem, n) -> say "  %-16s %d gates" subsystem n)
    (Gate.count_by_subsystem config);
  say "  %-16s %d gates total" "" (Gate.count config)

(* Hit ratios for the three associative memories, derived from the same
   obs counters the caches themselves register ("cache.<name>.*"). *)
let say_cache_ratios () =
  say "cache hit ratios:";
  List.iter
    (fun name ->
      let get field =
        Obs.Counter.get
          (Obs.Registry.counter (Obs.Registry.global ()) (Printf.sprintf "cache.%s.%s" name field))
      in
      let hits = get "hits" and misses = get "misses" in
      let total = hits + misses in
      if total = 0 then say "  %-10s no lookups yet" name
      else
        say "  %-10s %5.1f%%  (%d hits / %d lookups, %d invalidations, %d flushes)" name
          (100.0 *. float_of_int hits /. float_of_int total)
          hits total (get "invalidations") (get "flushes"))
    [ "policy"; "hw.assoc"; "vm.ptw" ]

(* The scheduler section of [stats]: the traffic controller's live
   counters and the response-time histogram the workload driver fills,
   all out of the same global obs registry the section above uses. *)
let say_sched_section () =
  let get name = Obs.Counter.get (Obs.Registry.counter (Obs.Registry.global ()) ("sched." ^ name)) in
  let dispatches = get "dispatches" in
  say "traffic controller:";
  if dispatches = 0 then say "  no dispatches yet (try: sched demo)"
  else begin
    say "  %-22s %d" "dispatches" dispatches;
    say "  %-22s %d" "preemptions" (get "preemptions");
    say "  %-22s %d" "quantum expiries" (get "quantum_expiries");
    say "  %-22s %d" "eligibility stalls" (get "eligibility.stalls");
    say "  %-22s %d" "aging promotions" (get "aging.promotions");
    say "  %-22s %d ready / %d awaiting admission" "queue depths" (get "queue.ready")
      (get "queue.admission");
    let h = Obs.Registry.histogram (Obs.Registry.global ()) "sched.response.cycles" in
    if Obs.Histogram.count h > 0 then
      say "  %-22s p50 %d / p99 %d cycles (%d interactions)" "response time"
        (Obs.Histogram.quantile h 0.5) (Obs.Histogram.quantile h 0.99) (Obs.Histogram.count h)
  end

let cmd_stats mode =
  match mode with
  | Cmd.Stats_text ->
      say "%s" (Obs.Snapshot.to_text (Obs.Snapshot.capture ()));
      say_cache_ratios ();
      say_sched_section ()
  | Cmd.Stats_json -> say "%s" (Obs.Snapshot.to_json (Obs.Snapshot.capture ()))
  | Cmd.Stats_reset ->
      Obs.Registry.reset (Obs.Registry.global ());
      say "observability counters reset"

(* The operator actions (fault, cache, smp) go through the typed
   dispatch surface directly — same mediation, audit and metering as
   every other gate call. *)
let operator_dispatch shell what request k =
  require_login shell (fun handle ->
      match on_api shell what (Api.Call.dispatch shell.system ~handle request) with
      | Some reply -> k reply
      | None -> ())

let cmd_fault_plan shell ~seed ~spec =
  operator_dispatch shell "fault plan" (Api.Call.Set_fault_plan { seed; spec }) (function
    | Api.Call.Done -> say "fault plan installed: %s (seed %d)" spec seed
    | _ -> ())

let cmd_fault_status shell =
  operator_dispatch shell "fault status" Api.Call.Fault_status (function
    | Api.Call.Fault_report { plan; counts } ->
        say "plan: %s" plan;
        List.iter (fun (name, v) -> say "  %-28s %d" name v) counts
    | _ -> ())

let cmd_fault_clear shell =
  operator_dispatch shell "fault clear" Api.Call.Clear_faults (function
    | Api.Call.Done -> say "fault plan cleared"
    | _ -> ())

let cmd_cache_status shell =
  operator_dispatch shell "cache status" Api.Call.Cache_status (function
    | Api.Call.Cache_report { policy; assoc } ->
        say "policy verdict cache:";
        List.iter (fun (name, v) -> say "  %-16s %d" name v) policy;
        say "SDW associative memory (this CPU):";
        List.iter (fun (name, v) -> say "  %-16s %d" name v) assoc
    | _ -> ())

let cmd_cache_clear shell =
  operator_dispatch shell "cache clear" Api.Call.Cache_clear (function
    | Api.Call.Done ->
        say "caches invalidated (generations bumped, associative memories flushed)"
    | _ -> ())

let cmd_smp_status shell =
  operator_dispatch shell "smp status" Api.Call.Smp_status (function
    | Api.Call.Smp_report { ncpus; plant; cpus } ->
        say "multiprocessor plant: %d CPU%s" ncpus (if ncpus = 1 then "" else "s");
        List.iter (fun (name, v) -> say "  %-22s %d" name v) plant;
        List.iter
          (fun (id, readings) ->
            say "  cpu %d:" id;
            List.iter (fun (name, v) -> say "    %-20s %d" name v) readings)
          cpus
    | _ -> ())

(* The harness domain pool is host-side machinery (it schedules whole
   kernel boots, not kernel work), so its status is read directly from
   [Par.Stats] rather than through a gate. *)
let cmd_jobs_status () =
  let module Par = Multics_par.Par in
  let s = Par.Stats.snapshot () in
  (if s.Par.Stats.runs = 0 then
     say "harness domain pool: MULTICS_JOBS=%d, no runs yet" (Par.default_jobs ())
   else
     say "harness domain pool: MULTICS_JOBS=%d, last run used %d domain%s"
       (Par.default_jobs ()) s.Par.Stats.pool_size
       (if s.Par.Stats.pool_size = 1 then " (inline)" else "s"));
  say "  %-22s %d" "parallel.runs" s.Par.Stats.runs;
  say "  %-22s %d" "parallel.tasks" s.Par.Stats.tasks;
  List.iter
    (fun (slot, n) -> say "  %-22s %d" (Printf.sprintf "worker.%d.tasks" slot) n)
    s.Par.Stats.per_worker

(* The traffic-controller operator surface: status and tuning go
   through the typed [Sched_status]/[Sched_tune] gates (mediated,
   audited, metered); [sched demo] runs the deterministic timesharing
   workload, prints its latency table, and registers the demo's
   controller on this system so status/tune have a live target. *)
let cmd_sched_status shell =
  require_login shell (fun handle ->
      match gate shell "sched status" ~handle Api.Call.Sched_status with
      | Some (Api.Call.Sched_report { policy; counters }) ->
          say "policy: %s" policy;
          List.iter (fun (name, v) -> say "  %-22s %d" name v) counters
      | Some _ | None -> ())

let cmd_sched_tune shell ~param ~value =
  require_login shell (fun handle ->
      match gate shell "sched tune" ~handle (Api.Call.Sched_tune { param; value }) with
      | Some Api.Call.Done -> say "scheduler %s set to %d" param value
      | Some _ | None -> ())

let cmd_sched_demo shell ~users =
  let module Sched = Multics_sched.Sched in
  let module Workload = Multics_sched.Workload in
  (* The demo runs at the plant's CPU count (MULTICS_NCPU), so a
     multiprocessor shell demos the multiprocessor schedule. *)
  let cpus = Smp.ncpus (System.plant shell.system) in
  let spec = { Workload.default with users; cpus; policy = Workload.Use_mlf } in
  let r = Workload.run spec in
  say "timesharing demo: %d users, %d CPU%s, %s policy — %d interactions in %d cycles" users
    cpus
    (if cpus = 1 then "" else "s")
    r.Workload.r_policy r.Workload.r_completed r.Workload.r_cycles;
  say "  %-22s %.2f interactions/Mcycle" "throughput" r.Workload.r_throughput;
  say "  %-22s p50 %.0f / p99 %.0f cycles" "response time"
    r.Workload.r_response.Multics_util.Stats.p50 r.Workload.r_response.Multics_util.Stats.p99;
  say "  %-22s %d" "page faults" r.Workload.r_page_faults;
  List.iter (fun (name, v) -> say "  %-22s %d" ("sched." ^ name) v) r.Workload.r_sched;
  List.iter (fun (name, v) -> say "  %-22s %d" ("smp." ^ name) v) r.Workload.r_smp;
  (* Leave a live controller registered so sched status/tune
     against THIS system's gates have a target. *)
  let sim = Multics_proc.Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:2 in
  Sched.register (Sched.create sim) shell.system;
  say "controller registered (try: sched status, sched tune cap 4)"

(* The distributed-fleet operator surface.  Every command degrades
   gracefully on a single-site shell instead of failing: the fleet is
   an opt-in plant (MULTICS_SITES), not a mode switch. *)
let require_fleet shell k =
  match shell.fleet with
  | Some fleet -> k fleet
  | None -> say "single-site shell (set MULTICS_SITES=2..8 to boot a fleet)"

let cmd_site_status shell =
  require_fleet shell (fun fleet ->
      say "distributed fleet: %d sites, epoch %d, %d revocations broadcast, %d cross-site cycles"
        (Site.nsites fleet) (Site.epoch fleet) (Site.revocations fleet) (Site.now fleet);
      List.iter
        (fun (id, status, epoch, readings) ->
          say "  site %d: %s, epoch %d" id status epoch;
          List.iter (fun (name, v) -> say "    %-20s %d" name v) readings)
        (Site.status_table fleet);
      List.iter
        (fun ((a, b), partitioned, counters) ->
          say "  link %d-%d%s: %s" a b
            (if partitioned then " [partitioned]" else "")
            (String.concat ", "
               (List.map (fun (name, v) -> Printf.sprintf "%s %d" name v) counters)))
        (Site.link_table fleet))

let cmd_site_partition shell ~a ~b =
  require_fleet shell (fun fleet ->
      let n = Site.nsites fleet in
      if a >= n || b >= n then say "site partition: fleet has sites 0..%d" (n - 1)
      else begin
        Site.partition fleet a b;
        say "link %d-%d severed (next revocation crossing it will fence a site)" a b
      end)

let cmd_site_heal shell =
  require_fleet shell (fun fleet ->
      let links, rejoins = Site.heal_all fleet in
      say "%d link%s healed" links (if links = 1 then "" else "s");
      List.iter
        (fun (id, r) ->
          say "  site %d rejoined: %d epoch(s) replayed, %d AV cells rebuilt, epoch %d" id
            r.Site.rj_replayed r.Site.rj_av_cells r.Site.rj_epoch)
        rejoins;
      if rejoins = [] then say "no sites needed rejoin")

let cmd_salvage shell =
  require_login shell (fun handle ->
      match
        on_api shell "salvage" (Api.Call.dispatch shell.system ~handle Api.Call.Salvage)
      with
      | Some (Api.Call.Salvaged report) -> say "%s" (Salvager.render report)
      | Some _ | None -> ())

(* The model checker runs on its own 2-CPU / 2-segment plant, not the
   shell's system: an exploration never perturbs the operator's
   session state. *)
let cmd_mc_run shell ~depth ~bug =
  let outcome = Mc.explore ~bug ~depth () in
  shell.last_mc <- Some outcome;
  print_string (Mc.summary outcome);
  List.iter
    (fun c -> say "replay with:\n%s" (Mc.counterexample_script c))
    outcome.Mc.o_counterexamples

let cmd_mc_status shell =
  match shell.last_mc with
  | None -> say "no exploration this session (use: mc run DEPTH [bug])"
  | Some outcome -> print_string (Mc.summary outcome)

let cmd_mc_replay ~trace ~bug =
  match Mc.trace_of_string trace with
  | None -> say "mc replay: unknown action in trace %S" trace
  | Some actions -> (
      let canonical, violations = Mc.violations_of_trace ~bug actions in
      say "replayed %d action(s)%s: state %s" (List.length actions)
        (if bug then " (deferred-connect bug enabled)" else "")
        (Mc.fingerprint canonical);
      match violations with
      | [] -> say "0 violations: the reference monitor held"
      | vs -> List.iter (fun v -> say "  %s" (Mc.violation_to_string v)) vs)

(* Per-workload specialisation: profile the session's own gate
   traffic, compile it into a gate mask, install it.  Subsystem entry
   and logout stay alive under every mask so the operator can't strip
   the session out from under themselves. *)

let cmd_spec_profile_start shell =
  match shell.profiling with
  | Some _ -> say "profiling already in progress (use: spec profile stop NAME)"
  | None ->
      Obs.set_enabled true;
      shell.profiling <- Some (Obs.Snapshot.capture ());
      say "gate profiling started — every dispatch from here on is recorded";
      say "stop with: spec profile stop NAME"

let cmd_spec_profile_stop shell ~name =
  match shell.profiling with
  | None -> say "no profiling in progress (use: spec profile start)"
  | Some before ->
      shell.profiling <- None;
      let diff = Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ()) in
      let profile = Spec.Profile.of_snapshot ~name diff in
      shell.profile <- Some profile;
      let gates = List.length (Spec.Profile.used_gates profile) in
      if gates = 0 then
        say "profile %S captured: no gate calls observed (apply would strip everything)" name
      else begin
        say "profile %S captured: %d gates, %d calls" name gates (Spec.Profile.total_calls profile);
        print_string (Spec.Profile.to_string profile)
      end

let cmd_spec_apply shell =
  match shell.profile with
  | None -> say "no captured profile (use: spec profile start ... spec profile stop NAME)"
  | Some profile ->
      let spec =
        Spec.Specialisation.compile ~name:(Spec.Profile.name profile) (System.config shell.system)
          profile
      in
      Spec.Specialisation.apply shell.system spec;
      say "%s" (Spec.Specialisation.describe spec);
      say "%s" (Spec.Specialisation.status shell.system)

let cmd_spec_clear shell =
  Spec.Specialisation.clear shell.system;
  say "full gate surface restored"

let cmd_spec_status shell =
  say "%s" (Spec.Specialisation.status shell.system);
  (match shell.profile with
  | Some profile ->
      say "captured profile: %s (%d gates, %d calls)" (Spec.Profile.name profile)
        (List.length (Spec.Profile.used_gates profile))
        (Spec.Profile.total_calls profile)
  | None -> say "no captured profile");
  if shell.profiling <> None then say "profiling in progress (stop with: spec profile stop NAME)"

let cmd_audit shell n =
  let records = Audit_log.records (System.audit shell.system) in
  let tail =
    let len = List.length records in
    List.filteri (fun i _ -> i >= len - n) records
  in
  List.iter (fun r -> say "%s" (Fmt.str "%a" Audit_log.pp_record r)) tail

(* The operator-command families parse through [Multics_shellcmd]: a
   typed command or a typed error, never an unmatched arm or an
   exception out of the read loop. *)
let run_operator shell = function
  | Cmd.Fault_plan { seed; spec } -> cmd_fault_plan shell ~seed ~spec
  | Cmd.Fault_status -> cmd_fault_status shell
  | Cmd.Fault_clear -> cmd_fault_clear shell
  | Cmd.Cache_status -> cmd_cache_status shell
  | Cmd.Cache_clear -> cmd_cache_clear shell
  | Cmd.Sched_status -> cmd_sched_status shell
  | Cmd.Sched_tune { param; value } -> cmd_sched_tune shell ~param ~value
  | Cmd.Sched_demo { users } -> cmd_sched_demo shell ~users
  | Cmd.Smp_status -> cmd_smp_status shell
  | Cmd.Jobs_status -> cmd_jobs_status ()
  | Cmd.Site_status -> cmd_site_status shell
  | Cmd.Site_partition { a; b } -> cmd_site_partition shell ~a ~b
  | Cmd.Site_heal -> cmd_site_heal shell
  | Cmd.Stats mode -> cmd_stats mode
  | Cmd.Audit_tail { count } -> cmd_audit shell count
  | Cmd.Mc_run { depth; bug } -> cmd_mc_run shell ~depth ~bug
  | Cmd.Mc_status -> cmd_mc_status shell
  | Cmd.Mc_replay { trace; bug } -> cmd_mc_replay ~trace ~bug
  | Cmd.Spec_profile_start -> cmd_spec_profile_start shell
  | Cmd.Spec_profile_stop { name } -> cmd_spec_profile_stop shell ~name
  | Cmd.Spec_apply -> cmd_spec_apply shell
  | Cmd.Spec_clear -> cmd_spec_clear shell
  | Cmd.Spec_status -> cmd_spec_status shell

let execute shell line =
  let words =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
  in
  let int_arg what s k =
    match int_of_string_opt s with Some n -> k n | None -> say "%s: not a number: %s" what s
  in
  match Cmd.parse words with
  | Some (Ok cmd) -> run_operator shell cmd
  | Some (Error e) -> say "%s" (Cmd.error_to_string e)
  | None -> (
      match words with
      | [] -> ()
      | [ "help" ] -> cmd_help ()
      | [ "exit" ] | [ "quit" ] -> raise Exit
      | "adduser" :: args -> cmd_adduser shell args
      | "login" :: args -> cmd_login shell args
      | [ "logout" ] -> cmd_logout shell
      | [ "whoami" ] -> cmd_whoami shell
      | [ "ls"; path ] -> cmd_ls shell path
      | [ "mkdir"; path ] -> cmd_mkdir shell path
      | [ "create"; path ] -> cmd_create shell path
      | [ "delete"; path ] -> cmd_delete shell path
      | [ "write"; path; offset; value ] ->
          int_arg "offset" offset (fun o ->
              int_arg "value" value (fun v -> cmd_write shell path o v))
      | [ "read"; path; offset ] -> int_arg "offset" offset (fun o -> cmd_read shell path o)
      | [ "status"; dir_path; name ] -> cmd_status shell dir_path name
      | [ "acl"; path; pattern; mode ] -> cmd_acl shell path pattern mode
      | [ "quota"; path; pages ] -> int_arg "pages" pages (fun n -> cmd_quota shell path n)
      | [ "bind"; name; path ] -> cmd_bind shell name path
      | [ "lookup"; name ] -> cmd_lookup shell name
      | [ "salvage" ] -> cmd_salvage shell
      | [ "gates" ] -> cmd_gates shell
      | cmd :: _ -> say "unknown command %S (try: help)" cmd)

let config_of_name = function
  | "baseline" | "645" -> Config.baseline_645
  | "reviewed" | "6180" -> Config.hardware_rings
  | "kernel" | _ -> Config.kernel_6180

let () =
  let config_name = ref "kernel" in
  let script = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--config" :: name :: rest ->
        config_name := name;
        parse_args rest
    | "-c" :: commands :: rest ->
        script := Some commands;
        parse_args rest
    | arg :: rest ->
        Printf.eprintf "unknown argument %S\n" arg;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let config = config_of_name !config_name in
  (* MULTICS_SITES > 1 boots the distributed fleet alongside the
     single shell system; the [site] family drives it. *)
  let nsites = Site.default_nsites () in
  let fleet = if nsites > 1 then Some (Site.create ~nsites ~config ()) else None in
  let shell =
    {
      system = System.create config;
      handle = None;
      fleet;
      last_mc = None;
      profiling = None;
      profile = None;
    }
  in
  (* MULTICS_NCPU > 1 attaches a multiprocessor plant: per-CPU
     associative memories kept coherent by connects on every
     descriptor mutation.  At 1 CPU the kernel keeps the one-CPU plant
     it booted on; [smp status] answers either way. *)
  let ncpus = Smp.default_ncpus () in
  if ncpus > 1 then begin
    let plant = Smp.create ~ncpus ~cost:(System.cost shell.system) () in
    System.attach_plant shell.system (Some plant)
  end;
  say "multics_sk shell — configuration: %s (%d gates%s%s).  Type 'help'." config.Config.name
    (Gate.count config)
    (if ncpus > 1 then Printf.sprintf ", %d CPUs" ncpus else "")
    (if nsites > 1 then Printf.sprintf ", %d sites" nsites else "");
  match !script with
  | Some commands ->
      List.iter
        (fun line ->
          say "> %s" (String.trim line);
          try execute shell line with Exit -> exit 0)
        (String.split_on_char ';' commands)
  | None -> (
      try
        while true do
          print_string "multics> ";
          flush stdout;
          match In_channel.input_line stdin with
          | None -> raise Exit
          | Some line -> ( try execute shell line with Exit -> raise Exit)
        done
      with Exit -> say "goodbye")
