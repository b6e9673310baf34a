(* The distributed fleet: N booted kernels joined over network links,
   with user→site sharding and fail-secure cross-site revocation.

   The design generalizes lib/smp's connect protocol over lossy links.
   On one plant, a descriptor change sends an IPI to every CPU and
   does not return until each has cleared its associative memory; in
   the fleet, an access-control mutation replays itself on every peer
   kernel — through the peer's own audited Api.Call.dispatch, whose
   setfaults/AV-table machinery IS the remote invalidation — and does
   not return until each peer acknowledged.  The same three invariants
   carry over:

   - {b Coherence is synchronous.}  The broadcast completes inside the
     mutating call.  There is no window in which the call has returned
     while a reachable peer can still serve a pre-mutation decision.

   - {b A lost connect fails secure.}  Links lose, delay and sever
     transmissions (site.drop / site.delay / site.partition fault
     sites, plus the operator's partition flag).  The origin stalls
     and retries with exponential backoff; past the retry budget it
     cannot confirm the remote invalidation, so it fences the silent
     peer: the peer is marked Suspect and every call homed on it is
     refused until a salvage-and-resync rejoin.  A fenced site serves
     nothing — the one thing it could serve wrongly is a stale Permit,
     and refusing everything is the only refusal that surely covers
     it.

   - {b Timing may change, results never.}  Site counts and fault
     plans move cycles (round trips, backoff stalls, fencing windows)
     but never verdicts: the mediation digest of an N-site run equals
     the 1-site run — experiment E20's coherence-parity oracle.

   Why replication can be verbatim replay: every site boots the same
   Config (identical skeleton and uids), and accounts/logins are
   replicated in fleet-epoch order, so every site allocates the same
   process handles with the same principals.  A path-addressed
   mutation names its object by tree name, not by any process-local
   segment number, so the same (handle, request) pair means the same
   thing on every site. *)

module Obs = Multics_obs.Obs
module Fault = Multics_fault.Fault
module Link = Multics_io.Network.Link
module Smp = Multics_smp.Smp
module System = Multics_kernel.System
module Api = Multics_kernel.Api
module Config = Multics_kernel.Config
module Audit_log = Multics_kernel.Audit_log
module User_env = Multics_kernel.User_env
module Salvager = Multics_kernel.Salvager
module Hierarchy = Multics_fs.Hierarchy
module Label = Multics_access.Label
module Policy = Multics_access.Policy
module Ring = Multics_machine.Ring

(* Site counts a deployment could plausibly ask for; anything else in
   MULTICS_SITES is ignored rather than crashing test startup. *)
let max_sites = 8

let default_nsites () =
  match Sys.getenv_opt "MULTICS_SITES" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 && n <= max_sites -> n
      | Some _ | None -> 1)

type status = Active | Suspect | Crashed

let status_name = function
  | Active -> "active"
  | Suspect -> "suspect"
  | Crashed -> "crashed"

type rejoin_report = {
  rj_salvage : Salvager.report;
  rj_replayed : int;
  rj_av_cells : int;
  rj_epoch : int;
}

(* Everything a fenced site missed, in fleet-epoch order, so rejoin
   can replay it.  Logins and accounts ride the same log as gate
   mutations: handle allocation must replay in the one true order or
   the verbatim-replay property dies. *)
type op =
  | Gate of { handle : int; request : Api.Call.request }
  | Account of {
      person : string;
      project : string;
      password : string;
      clearance : Label.t;
    }
  | Login of {
      person : string;
      project : string;
      password : string;
      level : Label.t option;
    }
  | Logout of { handle : int }

type backlog_entry = { e_epoch : int; e_op : op }

type member = {
  id : int;
  system : System.t;
  mutable status : status;
  mutable epoch : int;  (** last fleet epoch this site has applied *)
  mutable applied : int;  (** replica operations applied here *)
  mutable mismatches : int;  (** replica replays that did not return Ok *)
}

type t = {
  nsites : int;
  members : member array;
  links : Link.t array array;  (** symmetric; diagonal unused *)
  operator : int;
  mutable epoch : int;
  mutable backlog : backlog_entry list;  (** newest first *)
  mutable clock : int;
  mutable digest : int;
  mutable msig : int;
  mutable granted : int;
  mutable refused : int;
  mutable fenced_refusals : int;
  mutable revocations : int;
}

(* ----- Observability ----- *)

let obs_connects_sent = Obs.Local.counter "site.connects.sent"
let obs_connects_lost = Obs.Local.counter "site.connects.lost"
let obs_connect_retries = Obs.Local.counter "site.connects.retries"
let obs_fenced = Obs.Local.counter "site.fenced"
let obs_fenced_refusals = Obs.Local.counter "site.fenced.refusals"
let obs_rejoins = Obs.Local.counter "site.rejoins"
let obs_replica_mismatch = Obs.Local.counter "site.replica.mismatch"
let obs_revocation_cycles = Obs.Local.histogram "site.revocation.cycles"
(* ----- Creation ----- *)

let create ~nsites ?(config = Config.kernel_6180) () =
  if nsites < 1 || nsites > max_sites then
    invalid_arg (Printf.sprintf "Site.create: nsites must be in 1..%d" max_sites);
  let members =
    Array.init nsites (fun id ->
        {
          id;
          system = System.create config;
          status = Active;
          epoch = 0;
          applied = 0;
          mismatches = 0;
        })
  in
  let self = Link.create ~name:"self" in
  let links = Array.make_matrix nsites nsites self in
  for a = 0 to nsites - 1 do
    for b = a + 1 to nsites - 1 do
      let link = Link.create ~name:(Printf.sprintf "%d-%d" a b) in
      links.(a).(b) <- link;
      links.(b).(a) <- link
    done
  done;
  (* The operator logs in on every site before any fleet traffic, so
     its handle is part of the identical boot state (not the backlog). *)
  let operator =
    let handles =
      Array.map
        (fun m ->
          ignore
            (System.add_account m.system ~person:"Operator" ~project:"SysDaemon" ~password:"op"
               ~clearance:Label.unclassified);
          match System.login m.system ~person:"Operator" ~project:"SysDaemon" ~password:"op" with
          | Ok handle -> handle
          | Error e -> failwith ("Site.create: operator login: " ^ System.login_error_to_string e))
        members
    in
    Array.iter
      (fun h -> if h <> handles.(0) then failwith "Site.create: operator handles diverged")
      handles;
    handles.(0)
  in
  {
    nsites;
    members;
    links;
    operator;
    epoch = 0;
    backlog = [];
    clock = 0;
    digest = 5381;
    msig = 0;
    granted = 0;
    refused = 0;
    fenced_refusals = 0;
    revocations = 0;
  }

let nsites t = t.nsites
let operator t = t.operator
let member t i = if i < 0 || i >= t.nsites then invalid_arg "Site: no such site" else t.members.(i)
let member_system t i = (member t i).system
let status t i = (member t i).status
let epoch t = t.epoch
let site_epoch t i = (member t i).epoch
let now t = t.clock
let link_for t a b = t.links.(a).(b)

let set_faults t inj =
  Array.iter
    (fun m ->
      System.set_faults m.system inj;
      ignore m)
    t.members;
  for a = 0 to t.nsites - 1 do
    for b = a + 1 to t.nsites - 1 do
      Link.set_faults t.links.(a).(b) inj
    done
  done

(* ----- Sharding ----- *)

let home_site t ~user = ((user land max_int) mod t.nsites + t.nsites) mod t.nsites

(* ----- The replication classification -----

   Replicated: mutations of the fleet-wide access-control state (and
   the channel-id counter), all addressed by names that mean the same
   thing on every site.  Home-local: content references, process-local
   naming (initiate/terminate/KST state), inspection.  Refused at the
   fleet surface: hierarchy mutations addressed by process-local
   segment numbers — replaying them remotely would name a different
   object (or none), so the fleet calling sequence is the
   path-addressed form. *)

let replicates = function
  | Api.Call.Set_acl_by_path _ | Api.Call.Set_brackets_by_path _
  | Api.Call.Create_segment_by_path _ | Api.Call.Create_directory_by_path _
  | Api.Call.Delete_by_path _ | Api.Call.Create_channel | Api.Call.Salvage
  | Api.Call.Cache_clear ->
      true
  | _ -> false

let is_revocation = function
  | Api.Call.Set_acl_by_path _ | Api.Call.Set_brackets_by_path _ | Api.Call.Delete_by_path _
  | Api.Call.Salvage | Api.Call.Cache_clear ->
      true
  | _ -> false

let home_local_operands = function
  | Api.Call.Set_acl _ | Api.Call.Set_brackets _ | Api.Call.Set_gate_bound _
  | Api.Call.Set_quota _ | Api.Call.Create_segment _ | Api.Call.Create_directory _
  | Api.Call.Delete_entry _ | Api.Call.Rename_entry _ ->
      true
  | _ -> false

(* ----- Executing one request on one site -----

   The fleet's distribution layer is user-ring software, so it is
   configuration-blind the same way User_env is: by-path requests are
   composed from resolution (in the user ring, post-removal) plus the
   ordinary segment-number kernel gates.  Every kernel entry underneath
   is an audited, metered gate call — the distribution layer adds no
   new way into the kernel. *)

let ue_result ~ok = function
  | Ok v -> Ok (ok v)
  | Error (User_env.Api e) -> e |> Result.error
  | Error e -> Error (Api.Not_authorized (User_env.error_to_string e))

let exec system ~handle (request : Api.Call.request) : Api.Call.response =
  match request with
  | Api.Call.Create_segment_by_path { path; acl; label; brackets } ->
      ue_result
        ~ok:(fun n -> Api.Call.Segno n)
        (User_env.create_segment_at ?brackets system ~handle ~path ~acl ~label)
  | Api.Call.Create_directory_by_path { path; acl; label } ->
      ue_result
        ~ok:(fun n -> Api.Call.Segno n)
        (User_env.create_directory_at system ~handle ~path ~acl ~label)
  | Api.Call.Delete_by_path { path } ->
      ue_result ~ok:(fun () -> Api.Call.Done) (User_env.delete_at system ~handle ~path)
  | Api.Call.Resolve_path { path } ->
      ue_result ~ok:(fun n -> Api.Call.Segno n) (User_env.resolve_path system ~handle ~path)
  | Api.Call.Set_acl_by_path { path; acl } -> (
      match User_env.resolve_path system ~handle ~path with
      | Error (User_env.Api e) -> Error e
      | Error e -> Error (Api.Not_authorized (User_env.error_to_string e))
      | Ok segno -> Api.Call.dispatch system ~handle (Api.Call.Set_acl { segno; acl }))
  | Api.Call.Set_brackets_by_path { path; brackets } -> (
      match User_env.resolve_path system ~handle ~path with
      | Error (User_env.Api e) -> Error e
      | Error e -> Error (Api.Not_authorized (User_env.error_to_string e))
      | Ok segno -> Api.Call.dispatch system ~handle (Api.Call.Set_brackets { segno; brackets }))
  | request -> Api.Call.dispatch system ~handle request

(* ----- Applying operations to one site ----- *)

let apply_op t m = function
  | Gate { handle; request } -> (
      m.applied <- m.applied + 1;
      match exec m.system ~handle request with
      | Ok _ -> ()
      | Error _ ->
          (* Replicas hold identical access-control state, so a replay
             refusing where the primary granted is a coherence bug —
             surfaced through obs, caught by the parity oracle. *)
          m.mismatches <- m.mismatches + 1;
          Obs.Counter.incr (obs_replica_mismatch ());
          ignore t)
  | Account { person; project; password; clearance } ->
      ignore (System.add_account m.system ~person ~project ~password ~clearance)
  | Login { person; project; password; level } ->
      ignore (System.login ?level m.system ~person ~project ~password)
  | Logout { handle } -> ignore (System.logout m.system ~handle)

(* Drop backlog entries every site has applied; while the whole fleet
   is healthy the backlog stays empty. *)
let compact t =
  let floor = Array.fold_left (fun acc (m : member) -> min acc m.epoch) t.epoch t.members in
  if floor >= t.epoch then t.backlog <- []
  else t.backlog <- List.filter (fun e -> e.e_epoch > floor) t.backlog

(* Log one replicated op at a fresh epoch; the origin (when given) has
   already applied it as the primary. *)
let log_op t ?origin op =
  t.epoch <- t.epoch + 1;
  t.backlog <- { e_epoch = t.epoch; e_op = op } :: t.backlog;
  (match origin with Some id -> t.members.(id).epoch <- t.epoch | None -> ());
  t.epoch

(* ----- The cross-site connect -----

   lib/smp's delivery state machine (Smp.Connect.deliver) over a lossy
   link.  The acknowledgement timeout is a few link round trips, and
   each retry backs off exponentially — a congested fleet must not add
   connect storms to its own congestion.  Escalation is the fail-secure
   branch: fence the peer. *)

let ack_timeout = 4 * Link.latency

let deliver_to_peer t ~entry_epoch ~origin peer op =
  let link = link_for t origin peer.id in
  if Obs.enabled () then Obs.Counter.incr (obs_connects_sent ());
  let outcome =
    Smp.Connect.deliver ~max_retries:Smp.max_retries
      ~attempt:(fun n ->
        match Link.transmit link with
        | Link.Delivered { cycles } ->
            apply_op t peer op;
            peer.epoch <- entry_epoch;
            `Acked cycles
        | Link.Dropped { cycles } | Link.Severed { cycles } ->
            (* No acknowledgement: stall out the timeout, back off,
               re-signal.  Never proceed — proceeding would leave the
               peer's compiled decisions stale. *)
            if Obs.enabled () then begin
              Obs.Counter.incr (obs_connects_lost ());
              Obs.Counter.incr (obs_connect_retries ())
            end;
            `Lost (cycles + (ack_timeout * (1 lsl min (n - 1) 8))))
      ~escalate:(fun () ->
        (* The peer would not acknowledge within the budget.  The one
           safe degradation is to take its shard out of service: mark
           it suspect and fence it until salvage-and-resync. *)
        peer.status <- Suspect;
        if Obs.enabled () then Obs.Counter.incr (obs_fenced ());
        0)
  in
  Smp.Connect.cycles_of outcome

let broadcast t ~origin ~handle request =
  let entry_epoch = log_op t ~origin (Gate { handle; request }) in
  if is_revocation request then t.revocations <- t.revocations + 1;
  let cycles = ref 0 in
  Array.iter
    (fun peer ->
      if peer.id <> origin && peer.status = Active then
        cycles := !cycles + deliver_to_peer t ~entry_epoch ~origin peer (Gate { handle; request }))
    t.members;
  t.clock <- t.clock + !cycles;
  if Obs.enabled () then Obs.Histogram.observe (obs_revocation_cycles ()) !cycles

(* Control-plane replication (accounts, logins, logouts): applied on
   every active site reliably — the answering service speaks over its
   own hardened channel — but still logged at a fleet epoch so fenced
   sites replay it in order at rejoin. *)
let control_plane t op =
  ignore (log_op t op);
  Array.iter (fun m -> if m.status = Active then apply_op t m op) t.members;
  compact t

(* ----- Accounts and logins ----- *)

let add_account t ~person ~project ~password ~clearance =
  control_plane t (Account { person; project; password; clearance })

let login ?level t ~person ~project ~password =
  (* Authenticate against one active site first; only a successful
     login becomes a replicated epoch. *)
  match Array.find_opt (fun m -> m.status = Active) t.members with
  | None -> failwith "Site.login: no active site"
  | Some probe -> (
      match System.login ?level probe.system ~person ~project ~password with
      | Error _ as e -> e
      | Ok handle ->
          ignore (log_op t (Login { person; project; password; level }));
          t.members.(probe.id).epoch <- t.epoch;
          Array.iter
            (fun m ->
              if m.status = Active && m.id <> probe.id then
                match System.login ?level m.system ~person ~project ~password with
                | Ok h when h = handle -> m.epoch <- t.epoch
                | Ok _ -> failwith "Site.login: handle spaces diverged"
                | Error e -> failwith ("Site.login: replica login: " ^ System.login_error_to_string e))
            t.members;
          compact t;
          Ok handle)

let logout t ~handle =
  let any = ref false in
  ignore (log_op t (Logout { handle }));
  Array.iter
    (fun m ->
      if m.status = Active then begin
        let ok = System.logout m.system ~handle in
        any := !any || ok;
        m.epoch <- t.epoch
      end)
    t.members;
  compact t;
  !any

(* ----- The fleet digest -----

   One entry per primary dispatch (fenced refusals included), folded
   in driver order through djb2.  The E20 oracle compares the digest
   of an N-site run against the 1-site run: equal digests <=> the
   fleet surface returned the same outcomes to the same users. *)

let hash_string init s =
  let h = ref init in
  String.iter (fun c -> h := ((!h * 33) + Char.code c) land 0x3FFF_FFFF) s;
  (!h * 33) land 0x3FFF_FFFF

(* Two digests over the same per-dispatch records.  [digest] is
   order-preserving — the lockstep drivers (site_test, E20's oracle
   loop) fold the exact sequence.  [msig] is a commutative sum of
   per-record hashes: the multiset digest, invariant under the
   schedule reorderings a Sim-driven workload introduces when site
   counts move timing, and O(1) memory at any population. *)
let fold_digest t s =
  t.digest <- hash_string t.digest s;
  t.msig <- (t.msig + hash_string 5381 s) land 0x3FFF_FFFF

let verdict_str = function
  | Policy.Permit -> "permit"
  | Policy.Refuse refusals ->
      "refuse:" ^ String.concat "+" (List.map Policy.refusal_to_string refusals)

let reply_str : Api.Call.reply -> string = function
  | Api.Call.Done -> "done"
  | Api.Call.Segno n -> "segno:" ^ string_of_int n
  | Api.Call.Word v -> "word:" ^ string_of_int v
  | Api.Call.Message m -> "msg:" ^ (match m with None -> "-" | Some v -> string_of_int v)
  | Api.Call.Names ns -> "names:" ^ String.concat "," ns
  | Api.Call.Status s -> "status:" ^ s.Api.status_name
  | Api.Call.Links l -> "links:" ^ string_of_int (List.length l)
  | Api.Call.Snapped { segno; offset } -> Printf.sprintf "snapped:%d:%d" segno offset
  | Api.Call.Entered ring -> "ring:" ^ string_of_int (Ring.to_int ring)
  | Api.Call.Channel c -> "chan:" ^ string_of_int c
  | Api.Call.Consumed b -> "consumed:" ^ string_of_bool b
  | Api.Call.Process h -> "proc:" ^ string_of_int h
  | Api.Call.Processes hs -> "procs:" ^ string_of_int (List.length hs)
  | Api.Call.Info i -> "info:" ^ i.Api.info_principal
  | Api.Call.Fault_report _ -> "fault_report"
  | Api.Call.Salvaged _ -> "salvaged"
  | Api.Call.Probed v -> "probed:" ^ verdict_str v
  | Api.Call.Cache_report _ -> "cache_report"
  | Api.Call.Sched_report _ -> "sched_report"
  | Api.Call.Smp_report _ -> "smp_report"

let record_primary t ~user ~request (resp : Api.Call.response) =
  let op = Api.Call.operation_name t.members.(0).system request in
  let outcome =
    match resp with Ok reply -> "ok:" ^ reply_str reply | Error e -> "err:" ^ Api.error_to_string e
  in
  (match resp with Ok _ -> t.granted <- t.granted + 1 | Error _ -> t.refused <- t.refused + 1);
  fold_digest t (Printf.sprintf "u%d|%s|%s" user op outcome)

(* ----- Dispatch ----- *)

let fence_refusal t site err =
  t.fenced_refusals <- t.fenced_refusals + 1;
  if Obs.enabled () then Obs.Counter.incr (obs_fenced_refusals ());
  ignore site;
  Error err

let dispatch t ~user ~handle request =
  let home = home_site t ~user in
  let m = t.members.(home) in
  let resp =
    match m.status with
    | Suspect -> fence_refusal t home (Api.Site_fenced { site = home })
    | Crashed -> fence_refusal t home (Api.Site_unreachable { site = home })
    | Active ->
        if home_local_operands request then
          Error
            (Api.Not_authorized
               "fleet: segment-number-addressed mutations are process-local; use the \
                path-addressed gate")
        else begin
          let resp = exec m.system ~handle request in
          (match resp with
          | Ok _ when replicates request -> broadcast t ~origin:home ~handle request
          | _ -> ());
          resp
        end
  in
  record_primary t ~user ~request resp;
  resp

let dispatch_at t ~site ~handle request =
  let m = member t site in
  match m.status with
  | Suspect ->
      t.fenced_refusals <- t.fenced_refusals + 1;
      if Obs.enabled () then Obs.Counter.incr (obs_fenced_refusals ());
      Error (Api.Site_fenced { site })
  | Crashed ->
      t.fenced_refusals <- t.fenced_refusals + 1;
      if Obs.enabled () then Obs.Counter.incr (obs_fenced_refusals ());
      Error (Api.Site_unreachable { site })
  | Active -> exec m.system ~handle request

let probe t ~site ~handle ~path ~requested =
  match dispatch_at t ~site ~handle (Api.Call.Resolve_path { path }) with
  | Error e -> Error e
  | Ok (Api.Call.Segno segno) -> (
      match dispatch_at t ~site ~handle (Api.Call.Probe_access { segno; requested }) with
      | Ok (Api.Call.Probed verdict) -> Ok verdict
      | Error e -> Error e
      | Ok _ -> invalid_arg "Site.probe: mismatched reply")
  | Ok _ -> invalid_arg "Site.probe: mismatched reply"

(* ----- Partitions, crashes, rejoin ----- *)

let check_pair t a b =
  if a < 0 || a >= t.nsites || b < 0 || b >= t.nsites || a = b then
    invalid_arg "Site: bad site pair"

let partition t a b =
  check_pair t a b;
  Link.partition (link_for t a b)

let heal_link t a b =
  check_pair t a b;
  Link.heal (link_for t a b)

let crash t i =
  let m = member t i in
  (* Volatile state dies with the site: every cached decision, every
     associative memory.  Durable state (hierarchy, accounts,
     processes-as-records) survives as on disk. *)
  System.invalidate_caches m.system;
  m.status <- Crashed

let rejoin t i =
  let m = member t i in
  match m.status with
  | Active -> None
  | Suspect | Crashed ->
      (* 1. Salvage: roll back anything half-made, drop dangling KST
         entries, repair descriptors against policy — revoke-only. *)
      let rj_salvage =
        match Api.Call.dispatch m.system ~handle:t.operator Api.Call.Salvage with
        | Ok (Api.Call.Salvaged report) -> report
        | Ok _ | Error _ -> failwith "Site.rejoin: salvage failed"
      in
      (* 2. Epoch catch-up: replay every mutation the site missed, in
         fleet order. *)
      let missed = List.filter (fun e -> e.e_epoch > m.epoch) (List.rev t.backlog) in
      List.iter (fun e -> apply_op t m e.e_op) missed;
      m.epoch <- t.epoch;
      (* 3. Full AV-table rebuild plus a whole-site invalidation: the
         site re-enters service with no decision older than the
         handshake. *)
      let rj_av_cells = Hierarchy.rebuild_av_table (System.hierarchy m.system) in
      System.invalidate_caches m.system;
      m.status <- Active;
      if Obs.enabled () then Obs.Counter.incr (obs_rejoins ());
      compact t;
      Some { rj_salvage; rj_replayed = List.length missed; rj_av_cells; rj_epoch = m.epoch }

let heal_all t =
  let healed = ref 0 in
  for a = 0 to t.nsites - 1 do
    for b = a + 1 to t.nsites - 1 do
      if Link.partitioned t.links.(a).(b) then begin
        Link.heal t.links.(a).(b);
        incr healed
      end
    done
  done;
  let rejoined = ref [] in
  Array.iter
    (fun m ->
      match rejoin t m.id with
      | Some report -> rejoined := (m.id, report) :: !rejoined
      | None -> ())
    t.members;
  (!healed, List.rev !rejoined)

(* ----- Fleet-wide accounting ----- *)

let signature t = t.digest
let multiset_signature t = t.msig
let granted t = t.granted
let refused t = t.refused
let fenced_refusals t = t.fenced_refusals
let revocations t = t.revocations

let status_table t =
  Array.to_list
    (Array.map
       (fun m ->
         let audit = System.audit m.system in
         let counters =
           [
             ("audit.records", Audit_log.length audit);
             ("audit.refused", Audit_log.refusal_count audit);
             ("processes", System.process_count m.system);
             ("replica.applied", m.applied);
             ("replica.mismatch", m.mismatches);
           ]
         in
         (m.id, status_name m.status, m.epoch, counters))
       t.members)

let link_table t =
  let rows = ref [] in
  for a = t.nsites - 1 downto 0 do
    for b = t.nsites - 1 downto a + 1 do
      let link = t.links.(a).(b) in
      rows := ((a, b), Link.partitioned link, Link.counters link) :: !rows
    done
  done;
  !rows
