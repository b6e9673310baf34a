(* The multi-user timesharing workload driver.

   Everything a session does — think times, page touches, which gate
   it calls, whether that call is one the monitor will refuse — is
   drawn from a Prng stream keyed by (seed, role.index) or derived
   from the interaction number.  The schedule decides only WHEN those
   demands execute.  E17 leans on exactly that split: the audit-trail
   digest must come out identical under every scheduling policy. *)

module Sim = Multics_proc.Sim
module Obs = Multics_obs.Obs
module Fault = Multics_fault.Fault
module Memory = Multics_mm.Memory
module Page_id = Multics_mm.Page_id
module Page_control = Multics_vm.Page_control
module System = Multics_kernel.System
module Api = Multics_kernel.Api
module Config = Multics_kernel.Config
module Audit_log = Multics_kernel.Audit_log
module Prng = Multics_util.Prng
module Stats = Multics_util.Stats
module Cost = Multics_machine.Cost
module Label = Multics_access.Label
module Smp = Multics_smp.Smp
module Site = Multics_site.Site
module Acl = Multics_access.Acl

let obs_response = Obs.Local.histogram "sched.response.cycles"
type policy_choice = Use_mlf | Use_fifo | Use_external

let policy_choice_name = function
  | Use_mlf -> "mlf"
  | Use_fifo -> "fifo"
  | Use_external -> "external"

type spec = {
  seed : int;
  users : int;
  interactions : int;
  think : int;
  service : int;
  working_set : int;
  passes : int;
  batch : int;
  batch_chunks : int;
  batch_chunk : int;
  daemons : int;
  gate_calls : bool;
  vps : int;
  core : int;
  bulk : int;
  disk : int;
  cap : int;
  policy : policy_choice;
  fault_spec : string;
  cost : Cost.t;
  cpus : int;
      (** simulated CPUs; above 1 a multiprocessor plant is built
          (per-CPU associative memories, connect coherence, lock
          contention) — timing changes, mediation results never *)
  sites : int;
      (** kernel sites; above 0 the gate traffic runs against a
          distributed fleet (lib/site) instead of a single kernel —
          cross-site replication cycles are charged to the calling
          session, and the mediation digest must still be
          site-count-invariant (E20's oracle) *)
}

let default =
  {
    seed = 42;
    users = 8;
    interactions = 4;
    think = 20_000;
    service = 2_000;
    working_set = 4;
    passes = 3;
    batch = 2;
    batch_chunks = 6;
    batch_chunk = 4_000;
    daemons = 1;
    gate_calls = true;
    vps = 2;
    core = 0;
    bulk = 0;
    disk = 0;
    cap = 0;
    policy = Use_mlf;
    fault_spec = "";
    cost = Cost.h6180;
    (* 1, not [Smp.default_ncpus ()]: the seed workloads (and the CI
       matrix's MULTICS_NCPU sweep) must stay deterministic; tests opt
       into multi-CPU explicitly. *)
    cpus = 1;
    (* 0 = no fleet: the single-kernel seed behaviour, byte for byte.
       Fleet runs opt in explicitly (E20, the site tests). *)
    sites = 0;
  }

type result = {
  r_policy : string;
  r_users : int;
  r_completed : int;
  r_response : Stats.summary;
  r_batch_turnaround : Stats.summary;
  r_cycles : int;
  r_throughput : float;
  r_page_faults : int;
  r_sched : (string * int) list;
  r_audit_granted : int;
  r_audit_refused : int;
  r_signature : int;
  r_smp : (string * int) list;
      (** plant-wide readings (connects sent/lost/retries, lock state);
          empty on a uniprocessor run *)
  r_fleet : (string * int) list;
      (** fleet-wide readings (sites, epochs, revocation storms, link
          traffic); empty when [sites = 0] *)
}

let make_policy = function
  | Use_mlf -> Sched.default_mlf
  | Use_fifo -> Sched.Fifo
  | Use_external -> Sched.External (Sched.user_ring_mlf ())

(* Order-independent digest of the audit trail: the record multiset
   (seq numbers excluded — assignment order IS the schedule), sorted
   and folded through djb2.  Equal digests <=> mediation emitted the
   same decisions, whatever order the scheduler ran things in. *)
let mediation_signature system =
  let verdict_str = function
    | Audit_log.Granted -> "granted"
    | Audit_log.Refused why -> "refused:" ^ why
  in
  Audit_log.records (System.audit system)
  |> List.map (fun (r : Audit_log.record) ->
         Printf.sprintf "%s|%d|%s|%s|%s" r.subject r.ring r.operation r.target
           (verdict_str r.verdict))
  |> List.sort String.compare
  |> List.fold_left Site.hash_string 5381

(* The scratch segment per pool principal: the standing revocation
   target.  Re-granting its ACL is idempotent on policy but runs the
   full setfaults path — and, on a fleet, the cross-site connect
   storm. *)
let scratch_path i = Printf.sprintf ">udd>Load>User%d>scratch" i
let scratch_acl i = Acl.of_strings [ (Printf.sprintf "User%d.Load.*" i, "rw") ]

(* A fleet's principal pool for [users] sessions: up to four
   principals, each logged in fleet-wide (logins are replicated, so a
   handle is valid on every site) with its scratch segment and one IPC
   channel.  Fleet user [i] is principal [i mod pool], so sessions
   shard across every site while sharing the pool's handles. *)
let fleet_pool fleet ~users =
  Array.init
    (min 4 (max 1 users))
    (fun i ->
      let person = Printf.sprintf "User%d" i in
      Site.add_account fleet ~person ~project:"Load" ~password:"pw" ~clearance:Label.unclassified;
      let handle =
        match Site.login fleet ~person ~project:"Load" ~password:"pw" with
        | Ok handle -> handle
        | Error e -> failwith (System.login_error_to_string e)
      in
      (match
         Site.dispatch fleet ~user:i ~handle
           (Api.Call.Create_segment_by_path
              { path = scratch_path i; acl = scratch_acl i; label = Label.unclassified; brackets = None })
       with
      | Ok _ -> ()
      | Error e -> failwith (Api.error_to_string e));
      match Site.dispatch fleet ~user:i ~handle Api.Call.Create_channel with
      | Ok (Api.Call.Channel channel) -> (handle, channel)
      | Ok _ -> failwith "workload: unexpected reply to Create_channel"
      | Error e -> failwith (Api.error_to_string e))

let run spec =
  if spec.users < 0 || spec.batch < 0 || spec.daemons < 0 then
    invalid_arg "Workload.run: negative population";
  let sim = Sim.create ~cost:spec.cost ~virtual_processors:(spec.vps + 2) in
  (* Auto-size memory so the DEFAULT fits every working set (scheduling
     measurements undisturbed by paging); an explicit ~core below the
     demand is how E17 turns the thrashing knee on. *)
  let distinct = (spec.users + spec.batch) * spec.working_set in
  let core = if spec.core > 0 then spec.core else distinct + 8 in
  let bulk = if spec.bulk > 0 then spec.bulk else max 8 distinct in
  let disk = if spec.disk > 0 then spec.disk else distinct + 16 in
  let mem = Memory.create ~cost:spec.cost ~core ~bulk ~disk in
  let injector =
    if String.equal spec.fault_spec "" then None
    else
      match Fault.Plan.parse ~seed:spec.seed spec.fault_spec with
      | Ok plan -> Some (Fault.Injector.create plan)
      | Error why -> invalid_arg ("Workload.run: " ^ why)
  in
  Sim.set_faults sim injector;
  (* The multiprocessor plant, when asked for: page control's
     references, the kernel's descriptors and the scheduler's dispatch
     all run on it.  At [cpus = 1] page control and the kernel each
     keep the one-CPU plant they start on, and the scheduler runs
     without one. *)
  let plant =
    if spec.cpus <= 1 then None
    else begin
      let p = Smp.create ~ncpus:spec.cpus ~cost:spec.cost () in
      Smp.set_now p (fun () -> Sim.now sim);
      Smp.set_faults p injector;
      Some p
    end
  in
  let pc =
    Page_control.create ?faults:injector ?plant sim ~mem ~discipline:Page_control.Parallel_processes
  in
  Page_control.start pc;
  let sched =
    Sched.create ~eligibility_cap:spec.cap ~policy:(make_policy spec.policy) ?plant sim
  in
  (* Route this process's next mediated work through its home CPU, and
     bill connect/lock cycles to it.  Deterministic: the home CPU is a
     pure function of the pid. *)
  let on_cpu pid =
    match plant with
    | None -> ()
    | Some pl ->
        Smp.set_current pl (Smp.cpu_for pl ~key:pid);
        Smp.set_charge pl (fun cycles -> Sim.perturb sim pid cycles)
  in
  (* Each reference runs on the home CPU and walks that CPU's own PTW
     memory.  A reference that faults can block, and meanwhile other
     processes move the plant's current CPU, so the home CPU is set
     again before every reference. *)
  let touch_pages pid pages =
    Array.iter
      (fun page ->
        on_cpu pid;
        ignore (Page_control.reference pc ~pid ~page))
      pages
  in
  (* Gate traffic runs against a booted kernel through a small pool of
     logged-in principals — the audit subject for session i is a pure
     function of i, never of the schedule. *)
  let fleet =
    if spec.sites <= 0 || not spec.gate_calls then None
    else begin
      let f = Site.create ~nsites:spec.sites () in
      Site.set_faults f injector;
      Some f
    end
  in
  let system, handles =
    match fleet with
    | Some f ->
        (* The same principal pool as the single-kernel path, logged in
           fleet-wide; session i is fleet user i. *)
        (None, fleet_pool f ~users:spec.users)
    | None ->
    if not spec.gate_calls then (None, [||])
    else begin
      let system = System.create Config.kernel_6180 in
      (* With the plant attached, every descriptor mutation from here
         on broadcasts connects before returning. *)
      System.attach_plant system plant;
      (* The same plan storms the kernel's own sites (cache.flush and
         the gate sites): parity must hold under flush storms too.  Sites
         without a rule never fire, so an empty or unrelated plan
         leaves gate traffic untouched. *)
      if Option.is_some injector then System.set_faults system injector;
      let pool = min 4 (max 1 spec.users) in
      let handles =
        Array.init pool (fun i ->
            let person = Printf.sprintf "User%d" i in
            ignore
              (System.add_account system ~person ~project:"Load" ~password:"pw"
                 ~clearance:Label.unclassified);
            let handle =
              match System.login system ~person ~project:"Load" ~password:"pw" with
              | Ok handle -> handle
              | Error e -> failwith (System.login_error_to_string e)
            in
            (* One IPC channel per principal: the granted call below is
               a wakeup on it — IPC gates exist in every kernel
               configuration, unlike the naming gates. *)
            match Api.Call.dispatch system ~handle Api.Call.Create_channel with
            | Ok (Api.Call.Channel channel) -> (handle, channel)
            | Ok _ -> failwith "workload: unexpected reply to Create_channel"
            | Error e -> failwith (Api.error_to_string e))
      in
      (Some system, handles)
    end
  in
  let responses = ref [] in
  let completed = ref 0 in
  let turnarounds = ref [] in
  let live_sessions = ref spec.users in
  let live_batch = ref spec.batch in
  (* Interactive sessions: think at the terminal (eligibility
     surrendered), wake, make [passes] demand passes over the working
     set, call a gate, answer. *)
  for i = 0 to spec.users - 1 do
    let prng = Prng.create_labeled ~seed:spec.seed ~label:(Printf.sprintf "session.%d" i) in
    let pages =
      Array.init (max 1 spec.working_set) (fun p -> Page_id.make ~seg_uid:(1000 + i) ~page_no:p)
    in
    let tty = Sim.new_channel sim ~name:(Printf.sprintf "tty.%d" i) in
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "user.%d" i) (fun pid ->
           for n = 1 to spec.interactions do
             (* Terminal wait: the controller strips eligibility here,
                not at page waits. *)
             Sched.release_eligibility sched pid;
             let think = (spec.think / 2) + Prng.int prng (max 1 spec.think) in
             Sim.at sim ~delay:think (fun () -> Sim.wakeup sim tty);
             Sim.block tty;
             let t0 = Sim.now sim in
             for _pass = 1 to spec.passes do
               touch_pages pid pages;
               Sim.compute spec.service
             done;
             (match (system, fleet) with
             | None, None -> ()
             | _, Some f ->
                 let handle, channel = handles.(i mod Array.length handles) in
                 on_cpu pid;
                 Sim.compute (Cost.round_trip_call_cost spec.cost ~cross_ring:true);
                 let before = Site.now f in
                 (* The single-kernel call mix, plus a live revocation
                    every fifth interaction: the scratch re-grant runs
                    the cross-site connect storm inside the call. *)
                 (if n mod 3 = 0 then
                    ignore
                      (Site.dispatch f ~user:i ~handle
                         (Api.Call.Read_word { segno = 9999; offset = 0 }))
                  else if n mod 5 = 0 then
                    ignore
                      (Site.dispatch f ~user:i ~handle
                         (Api.Call.Set_acl_by_path
                            {
                              path = scratch_path (i mod Array.length handles);
                              acl = scratch_acl (i mod Array.length handles);
                            }))
                  else
                    ignore
                      (Site.dispatch f ~user:i ~handle (Api.Call.Send_wakeup { channel })));
                 (* Bill the fleet's round trips and backoff stalls to
                    the session that mutated. *)
                 let delta = Site.now f - before in
                 if delta > 0 then Sim.perturb sim pid delta
             | Some sys, None ->
                 let handle, channel = handles.(i mod Array.length handles) in
                 on_cpu pid;
                 Sim.compute (Cost.round_trip_call_cost spec.cost ~cross_ring:true);
                 (* Every third call is one the monitor refuses (a read
                    through a segment number the process never had), so
                    the parity digest covers refusals too. *)
                 if n mod 3 = 0 then
                   ignore (Api.Call.dispatch sys ~handle (Api.Call.Read_word { segno = 9999; offset = 0 }))
                 else ignore (Api.Call.dispatch sys ~handle (Api.Call.Send_wakeup { channel })));
             let rt = Sim.now sim - t0 in
             responses := rt :: !responses;
             Obs.Histogram.observe (obs_response ()) rt;
             incr completed
           done;
           decr live_sessions))
  done;
  (* Absentee jobs: no terminal, no thinking — grind chunks, keep
     eligibility until the job ends.  Under MLF they sink to the long
     quanta; aging keeps them from starving. *)
  for b = 0 to spec.batch - 1 do
    let prng = Prng.create_labeled ~seed:spec.seed ~label:(Printf.sprintf "batch.%d" b) in
    let pages =
      Array.init (max 1 spec.working_set) (fun p ->
          Page_id.make ~seg_uid:(5000 + b) ~page_no:p)
    in
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "batch.%d" b) (fun pid ->
           let t0 = Sim.now sim in
           for _chunk = 1 to spec.batch_chunks do
             touch_pages pid pages;
             Sim.compute (spec.batch_chunk + Prng.int prng 64)
           done;
           turnarounds := (Sim.now sim - t0) :: !turnarounds;
           decr live_batch))
  done;
  (* Daemons: tick in the background while any load remains, giving up
     eligibility at every sleep. *)
  for d = 0 to spec.daemons - 1 do
    let bell = Sim.new_channel sim ~name:(Printf.sprintf "daemon.%d" d) in
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "daemon.%d" d) (fun pid ->
           while !live_sessions > 0 || !live_batch > 0 do
             Sim.compute 500;
             Sched.release_eligibility sched pid;
             Sim.at sim ~delay:2_000 (fun () -> Sim.wakeup sim bell);
             Sim.block bell
           done))
  done;
  Sim.run sim;
  let cycles = Sim.now sim in
  let granted, refused =
    match (system, fleet) with
    | _, Some f -> (Site.granted f, Site.refused f)
    | Some sys, None ->
        let audit = System.audit sys in
        (Audit_log.length audit - Audit_log.refusal_count audit, Audit_log.refusal_count audit)
    | None, None -> (0, 0)
  in
  {
    r_policy = policy_choice_name spec.policy;
    r_users = spec.users;
    r_completed = !completed;
    r_response = Stats.summarize_ints !responses;
    r_batch_turnaround = Stats.summarize_ints !turnarounds;
    r_cycles = cycles;
    r_throughput = (if cycles = 0 then 0. else float_of_int !completed *. 1_000_000. /. float_of_int cycles);
    r_page_faults = Page_control.fault_count pc;
    r_sched = Sched.status sched;
    r_audit_granted = granted;
    r_audit_refused = refused;
    r_signature =
      (match (system, fleet) with
      | _, Some f ->
          (* The multiset digest: the scheduler's interleaving shifts
             with cross-site timing, and parity must not care. *)
          Site.multiset_signature f
      | Some sys, None -> mediation_signature sys
      | None, None -> 0);
    r_smp = (match plant with None -> [] | Some pl -> fst (Smp.status pl));
    r_fleet =
      (match fleet with
      | None -> []
      | Some f ->
          let sent, dropped, severed =
            List.fold_left
              (fun (s, d, v) (_, _, counters) ->
                let c name = try List.assoc name counters with Not_found -> 0 in
                (s + c "sent", d + c "dropped", v + c "severed"))
              (0, 0, 0) (Site.link_table f)
          in
          [
            ("sites", Site.nsites f);
            ("epoch", Site.epoch f);
            ("revocations", Site.revocations f);
            ("fenced.refusals", Site.fenced_refusals f);
            ("cross.cycles", Site.now f);
            ("link.sent", sent);
            ("link.dropped", dropped);
            ("link.severed", severed);
          ]);
  }

(* ----- Parity oracles ----- *)

(* Two runs made the same mediation decisions: the same audit-trail
   digest, the same grant and refusal totals, the same interactions
   completed. *)
let same_mediation (a : result) (b : result) =
  a.r_signature = b.r_signature
  && a.r_audit_granted = b.r_audit_granted
  && a.r_audit_refused = b.r_audit_refused
  && a.r_completed = b.r_completed

(* One task per seed (each covers every plan x point pair), fanned out
   over domains; per-seed divergence counts are summed in seed order,
   so the total never depends on the pool size. *)
let parity_divergences ~seeds ~plans ~points spec =
  match points with
  | [] -> 0
  | base_point :: others ->
      Multics_par.Par.run_seeds seeds (fun seed ->
          List.fold_left
            (fun divergences plan ->
              let base = run (spec seed base_point plan) in
              List.fold_left
                (fun divergences point ->
                  if same_mediation (run (spec seed point plan)) base then divergences
                  else divergences + 1)
                divergences others)
            0 plans)
      |> List.fold_left ( + ) 0

(* ----- The fleet sweep -----

   A direct (un-scheduled) driver for pricing the distribution layer
   at populations a Sim-driven session workload cannot reach: logical
   users shard across the fleet by id and share a small logged-in
   principal pool, exactly as the paper's answering service multiplexes
   daemons over terminals.  Sequential and deterministic, so the
   order-preserving fleet digest is comparable across site counts. *)

type sweep_row = {
  sw_users : int;
  sw_sites : int;
  sw_ops : int;  (** primary fleet dispatches (pool setup included) *)
  sw_granted : int;
  sw_refused : int;
  sw_revocations : int;  (** each one a fleet-wide connect storm *)
  sw_fenced : int;  (** fenced refusals (0 under recoverable plans) *)
  sw_cross_cycles : int;  (** fleet clock: round trips + backoff stalls *)
  sw_epoch : int;
  sw_signature : int;  (** order-preserving fleet digest *)
}

let run_fleet_sweep ?(revoke_every = 1_000) ?(fault_spec = "") ~users ~sites ~seed () =
  if users < 1 then invalid_arg "Workload.run_fleet_sweep: users must be positive";
  let fleet = Site.create ~nsites:sites () in
  (match fault_spec with
  | "" -> ()
  | fs -> (
      match Fault.Plan.parse ~seed fs with
      | Ok plan -> Site.set_faults fleet (Some (Fault.Injector.create plan))
      | Error why -> invalid_arg ("Workload.run_fleet_sweep: " ^ why)));
  (* Recording off, counters on: at a million users a full audit trail
     would swamp memory; the E20 oracle runs (small populations) keep
     the trail and check it.  Mediation itself is unchanged. *)
  for site = 0 to sites - 1 do
    Audit_log.set_enabled (System.audit (Site.member_system fleet site)) false
  done;
  let handles = fleet_pool fleet ~users in
  let pool = Array.length handles in
  for u = 0 to users - 1 do
    let p = u mod pool in
    let handle, channel = handles.(p) in
    if revoke_every > 0 && u mod revoke_every = 0 then
      ignore
        (Site.dispatch fleet ~user:u ~handle
           (Api.Call.Set_acl_by_path { path = scratch_path p; acl = scratch_acl p }))
    else if u mod 3 = 0 then
      ignore
        (Site.dispatch fleet ~user:u ~handle (Api.Call.Read_word { segno = 9999; offset = 0 }))
    else ignore (Site.dispatch fleet ~user:u ~handle (Api.Call.Send_wakeup { channel }))
  done;
  {
    sw_users = users;
    sw_sites = sites;
    sw_ops = Site.granted fleet + Site.refused fleet;
    sw_granted = Site.granted fleet;
    sw_refused = Site.refused fleet;
    sw_revocations = Site.revocations fleet;
    sw_fenced = Site.fenced_refusals fleet;
    sw_cross_cycles = Site.now fleet;
    sw_epoch = Site.epoch fleet;
    sw_signature = Site.signature fleet;
  }
