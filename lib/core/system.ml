(* The simulated Multics system: one value holding the hierarchy, the
   linker, the accounts, the process table, the I/O buffers and the
   audit trail, all shaped by a {!Config.t}.

   [create] boots the system (running the configured initialization
   strategy) and builds the standard naming skeleton:

     >sl1    the system library
     >udd    user directories ( >udd>Project>Person homes )
     >pdd    per-process directories (kernel only)

   Process state lives in [proc]: the principal and clearance fixed at
   login, the current ring, the Known Segment Table, the Reference Name
   Table (kernel- or user-ring per the configuration), and the search
   rules. *)

open Multics_access
open Multics_fs
open Multics_link
open Multics_machine

type account = {
  person : string;
  project : string;
  password : string;
  clearance : Label.t;
  home : Uid.t;
}

type proc = {
  handle : int;
  principal : Principal.t;
  clearance : Label.t;
  mutable ring : Ring.t;
  kst : Kst.t;
  rnt : Rnt.t;
  mutable rules : Search_rules.t;
  mutable working_dir : Uid.t;
  login_ring : Ring.t;  (** where the authentication code executed *)
  mutable subsystem_stack : (string * Ring.t) list;
      (** entered protected subsystems: (name, ring to restore) *)
  assoc : Hardware.Assoc.t;
      (** the per-process SDW associative memory; invalidated through
          the KST's descriptor-change hook, so "setfaults" reaches it *)
  mutable subject_memo : Policy.subject option;
      (** the subject record for the CURRENT ring, rebuilt on ring
          change.  Re-presenting one record reference keeps the SID
          memo on it hot: a gate call's subject lookup is two int
          compares, no interning, no allocation *)
}

(* What the kernel managed to note before an injected gate abort: the
   crash journal is deliberately minimal — operation, caller, and
   (when the operation was mutating the hierarchy) where — because a
   real crash preserves no more.  The salvager reconciles it against
   the hierarchy afterwards. *)
type journal_entry = {
  time : int;  (** system clock at the abort *)
  handle : int;
  operation : string;
  dir : Uid.t option;  (** directory holding the partially-made entry *)
  entry_name : string option;
}

(* A specialised gate surface: the names of the gates a specialised
   kernel keeps.  Plain strings so the mask can live here, below
   lib/spec (which compiles profiles into masks) — the same layering
   trick as [scheduler_control].  The mask itself is never consulted
   per call: installing it rebuilds the gate table without the
   stripped entries. *)
type gate_mask = { mask_name : string; mask_gates : string list  (** sorted *) }

let gate_mask_make ~name ~gates =
  { mask_name = name; mask_gates = List.sort_uniq String.compare gates }

let gate_mask_name m = m.mask_name
let gate_mask_gates m = m.mask_gates

(* The running kernel's gate table: the configuration's catalog, less
   whatever an installed mask strips.  A gate the configuration removed
   and a gate the mask stripped are then the same miss. *)
let gate_table config mask =
  let catalog = Gate.catalog config in
  let table = Hashtbl.create (List.length catalog) in
  List.iter
    (fun (e : Gate.entry) ->
      match mask with
      | Some m when not (List.mem e.gate_name m.mask_gates) -> ()
      | _ -> Hashtbl.replace table e.gate_name e)
    catalog;
  table

(* An unmasked table depends on the configuration alone and is never
   written once built, so successive boots of one configuration share
   it: each domain keeps the last one it built. *)
let unmasked_table_key = Domain.DLS.new_key (fun () -> ref None)

let unmasked_gate_table config =
  let last = Domain.DLS.get unmasked_table_key in
  match !last with
  | Some (c, table) when c == config -> table
  | Some _ | None ->
      let table = gate_table config None in
      last := Some (config, table);
      table

type t = {
  config : Config.t;
  cost : Cost.t;
  hierarchy : Hierarchy.t;
  store : Object_seg.Store.t;
  linker : Linker.t;
  audit : Audit_log.t;
  accounts : (string, account) Hashtbl.t;
  procs : (int, proc) Hashtbl.t;
  mutable next_handle : int;
  init_report : Init.report;
  io_buffers : (string, Multics_io.Network.strategy) Hashtbl.t;
  ipc_channels : (int, int ref) Hashtbl.t;  (** channel id -> pending wakeups *)
  mutable next_channel : int;
  mutable lib_dir : Uid.t;
  mutable udd_dir : Uid.t;
  mutable pdd_dir : Uid.t;
  clock : Clock.t;  (** system-level time: device retries, journal stamps *)
  mutable faults : Multics_fault.Fault.Injector.t option;
  mutable crash_journal : journal_entry list;  (** reversed *)
  mutable scheduler : scheduler_control option;
  mutable plant : Multics_smp.Smp.t option;
      (** the multiprocessor plant, when attached: every descriptor
          mutation then broadcasts connects so no CPU's associative
          memory can outlive the descriptor it caches *)
  mutable gates : (string, Gate.entry) Hashtbl.t;
      (** the gate table the gate check consults: one lookup per call *)
  mutable gate_mask : gate_mask option;  (** the installed specialisation, if any *)
}

(* The traffic controller registers itself through a neutral record of
   closures — lib/sched sits above this library, so the Sched_status /
   Sched_tune gates reach it without a layering inversion (the same
   trick Sim uses for dispatch). *)
and scheduler_control = {
  sc_policy : unit -> string;
  sc_counters : unit -> (string * int) list;
  sc_tune : param:string -> value:int -> (unit, string) result;
}

let initializer_principal = Principal.system_daemon

(* The Initializer runs system-high so it can administer homes at any
   clearance in use.  Compartments are open-ended; administrative
   hierarchies here use the standard two. *)
let initializer_clearance = Label.system_high [ "crypto"; "nato" ]

let initializer_subject =
  Policy.subject ~trusted:true ~principal:initializer_principal
    ~clearance:initializer_clearance ~ring:Ring.kernel ()

let config t = t.config
let hierarchy t = t.hierarchy
let store t = t.store
let linker t = t.linker
let audit t = t.audit
let init_report t = t.init_report
let cost t = t.cost
let lib_dir t = t.lib_dir
let udd_dir t = t.udd_dir
let pdd_dir t = t.pdd_dir
let io_buffers t = t.io_buffers
let clock t = t.clock

(* ----- Fault injection and the crash journal ----- *)

let set_faults t faults =
  t.faults <- faults;
  (* The Cache_flush site storms the access-decision cache: the probe
     is consulted on every cached lookup and, when it fires, the cache
     is flushed first.  Installed here so a plan set through the fault
     gates reaches the hierarchy without the fs layer depending on the
     fault library. *)
  Hierarchy.set_cache_probe t.hierarchy
    (Option.map
       (fun inj () -> Multics_fault.Fault.Injector.fire inj Multics_fault.Fault.Cache_flush)
       faults)

let faults t = t.faults

let register_scheduler t control = t.scheduler <- control

let scheduler t = t.scheduler

(* The plant attaches after boot (the workload driver or the shell
   decides the CPU count); with none attached every coherence hook is
   a no-op and the system behaves byte-for-byte as the uniprocessor
   seed. *)
let attach_plant t plant = t.plant <- plant

let plant t = t.plant

(* ----- The gate table and specialisation ----- *)

let set_gate_mask t mask =
  t.gate_mask <- mask;
  t.gates <- gate_table t.config mask

let gate_mask t = t.gate_mask
let gate_entry t ~gate = Hashtbl.find_opt t.gates gate
let gate_admitted t ~gate = Hashtbl.mem t.gates gate

let fault_fires t site =
  match t.faults with
  | None -> false
  | Some inj -> Multics_fault.Fault.Injector.fire inj site

let journal_crash t ~handle ~operation ?dir ?entry_name () =
  t.crash_journal <-
    { time = Clock.now t.clock; handle; operation; dir; entry_name } :: t.crash_journal

let crash_journal t = List.rev t.crash_journal

let clear_crash_journal t = t.crash_journal <- []

let fail_boot what = function
  | Ok v -> v
  | Error e -> invalid_arg (Printf.sprintf "System.create: %s: %s" what (Hierarchy.error_to_string e))

let create config =
  let hierarchy = Hierarchy.create () in
  let store = Object_seg.Store.create () in
  let linker =
    Linker.create ~flaws:config.Config.linker_flaws ~placement:config.Config.linker ~store
      ~hierarchy ()
  in
  let init_report = Init.run config in
  let t =
    {
      config;
      cost = Config.cost config;
      hierarchy;
      store;
      linker;
      audit = Audit_log.create ();
      accounts = Hashtbl.create 16;
      procs = Hashtbl.create 16;
      next_handle = 1;
      init_report;
      io_buffers = Hashtbl.create 8;
      ipc_channels = Hashtbl.create 8;
      next_channel = 1;
      lib_dir = Uid.root;
      udd_dir = Uid.root;
      pdd_dir = Uid.root;
      clock = Clock.create ();
      faults = None;
      crash_journal = [];
      scheduler = None;
      plant = None;
      gates = unmasked_gate_table config;
      gate_mask = None;
    }
  in
  let sys_acl = Acl.of_strings [ ("Initializer.*.*", "rew"); ("*.*.*", "r") ] in
  let mkdir ~dir ~name ~acl =
    fail_boot name
      (Hierarchy.create_directory hierarchy ~subject:initializer_subject ~dir ~name ~acl
         ~label:Label.unclassified)
  in
  t.lib_dir <- mkdir ~dir:Uid.root ~name:"sl1" ~acl:sys_acl;
  t.udd_dir <- mkdir ~dir:Uid.root ~name:"udd" ~acl:sys_acl;
  t.pdd_dir <- mkdir ~dir:Uid.root ~name:"pdd" ~acl:(Acl.of_strings [ ("Initializer.*.*", "rew") ]);
  t

(* ----- Accounts ----- *)

let account_key ~person ~project = person ^ "." ^ project

let add_account t ~person ~project ~password ~clearance =
  let key = account_key ~person ~project in
  if Hashtbl.mem t.accounts key then invalid_arg ("System.add_account: duplicate " ^ key);
  let project_dir =
    match
      Hierarchy.lookup t.hierarchy ~subject:initializer_subject ~dir:t.udd_dir ~name:project
    with
    | Ok uid -> uid
    | Error _ ->
        fail_boot project
          (Hierarchy.create_directory t.hierarchy ~subject:initializer_subject ~dir:t.udd_dir
             ~name:project
             ~acl:(Acl.of_strings [ ("Initializer.*.*", "rew"); ("*.*.*", "r") ])
             ~label:Label.unclassified)
  in
  let owner_pattern = String.concat "." [ person; project; "*" ] in
  let project_pattern = String.concat "." [ "*"; project; "*" ] in
  (* Owner controls the home; project-mates may status it (the usual
     Multics project default); everyone else gets the No_entry lie. *)
  let home =
    fail_boot person
      (Hierarchy.create_directory t.hierarchy ~subject:initializer_subject ~dir:project_dir
         ~name:person
         ~acl:
           (Acl.of_strings
              [ (owner_pattern, "rew"); (project_pattern, "r"); ("Initializer.*.*", "rew") ])
         ~label:Label.unclassified)
  in
  let account = { person; project; password; clearance; home } in
  Hashtbl.replace t.accounts key account;
  account

let find_account t ~person ~project = Hashtbl.find_opt t.accounts (account_key ~person ~project)

(* ----- Processes ----- *)

type login_error = Unknown_account | Bad_password | Level_above_clearance

let login_error_to_string = function
  | Unknown_account -> "unknown account"
  | Bad_password -> "incorrect password"
  | Level_above_clearance -> "requested session level exceeds the account clearance"

let proc t handle = Hashtbl.find_opt t.procs handle

(* The process's subject, memoized per ring: principal and clearance
   are fixed at login, so only a ring crossing (gate call, subsystem
   entry/exit) invalidates the record.  Returning the same record
   reference is what makes the dense-SID memo on it effective. *)
let subject_of (p : proc) =
  match p.subject_memo with
  | Some s when Ring.equal s.Policy.ring p.ring -> s
  | Some _ | None ->
      let s = Policy.subject ~principal:p.principal ~clearance:p.clearance ~ring:p.ring () in
      p.subject_memo <- Some s;
      s

(* "p%03d", without interpreting a format on every login. *)
let process_dir_name ~handle =
  let digits = Multics_util.Decimal.to_string handle in
  "p" ^ String.make (max 0 (3 - String.length digits)) '0' ^ digits

(* Wire "setfaults" through to the associative memory: the KST's
   set_sdw/terminate are the only descriptor mutation points, so a
   recomputed or dropped descriptor clears its cached copy in the same
   step.  Under a multiprocessor plant the same hook broadcasts a
   connect, so every other CPU's associative memory drops its copy
   before the mutating call returns. *)
let wire_setfaults t ~handle kst assoc =
  Kst.set_on_sdw_change kst (fun segno ->
      Hardware.Assoc.invalidate assoc ~segno;
      match t.plant with
      | Some plant -> Multics_smp.Smp.connect_invalidate plant ~handle ~segno
      | None -> ())

(* Build a fresh process for an account at a session level.  Shared by
   login and by the create_process / new_proc gates. *)
let make_process t ~(account : account) ~session_level ~login_ring =
  let handle = t.next_handle in
  t.next_handle <- handle + 1;
  let kst_variant =
    match t.config.Config.naming with
    | Rnt.In_kernel -> Kst.Unified
    | Rnt.In_user_ring -> Kst.Split
  in
  let kst = Kst.create ~variant:kst_variant () in
  let assoc = Hardware.Assoc.create () in
  wire_setfaults t ~handle kst assoc;
  let p =
    {
      handle;
      principal = Principal.interactive ~person:account.person ~project:account.project;
      clearance = session_level;
      ring = Ring.user;
      kst;
      rnt = Rnt.create ~placement:t.config.Config.naming;
      rules = Search_rules.of_dirs [ ("home", account.home); ("system_library", t.lib_dir) ];
      working_dir = account.home;
      login_ring;
      subsystem_stack = [];
      assoc;
      subject_memo = None;
    }
  in
  Hashtbl.replace t.procs handle p;
  (* Every process gets a per-process directory under >pdd, owned by
     its principal, cleaned up at logout. *)
  let pdd_name = process_dir_name ~handle in
  (match
     Hierarchy.create_directory t.hierarchy ~subject:initializer_subject ~dir:t.pdd_dir
       ~name:pdd_name
       ~acl:
         (Acl.of_strings
            [
              (String.concat "." [ account.person; account.project; "*" ], "rew");
              ("Initializer.*.*", "rew");
            ])
       ~label:Label.unclassified
   with
  | Ok _ -> ()
  | Error _ -> ());
  handle

(* Authenticate and create a process.  Under [Privileged_login] the
   authentication code is part of the privileged kernel (it "executes"
   in ring 0); under [Unified_subsystem_entry] the same mechanism that
   enters any protected subsystem runs it, non-privileged, in ring 2.

   [level] is the session's sensitivity level; it defaults to the
   account's full clearance and may be any label the clearance
   dominates (logging in low to write low objects). *)
let login ?level t ~person ~project ~password =
  let login_ring =
    match t.config.Config.login with
    | Config.Privileged_login -> Ring.kernel
    | Config.Unified_subsystem_entry -> Ring.of_int 2
  in
  let principal = Principal.interactive ~person ~project in
  let attempt_subject =
    Policy.subject ~principal ~clearance:Label.unclassified ~ring:Ring.outermost ()
  in
  match find_account t ~person ~project with
  | None ->
      Audit_log.log t.audit ~subject:attempt_subject ~operation:"login" ~target:person
        ~verdict:(Audit_log.Refused "unknown account");
      Error Unknown_account
  | Some account ->
      if not (String.equal account.password password) then begin
        Audit_log.log t.audit ~subject:attempt_subject ~operation:"login" ~target:person
          ~verdict:(Audit_log.Refused "bad password");
        Error Bad_password
      end
      else begin
        let session_level = Option.value level ~default:account.clearance in
        if not (Label.dominates account.clearance session_level) then begin
          Audit_log.log t.audit ~subject:attempt_subject ~operation:"login" ~target:person
            ~verdict:(Audit_log.Refused "session level above clearance");
          Error Level_above_clearance
        end
        else begin
          let handle = make_process t ~account ~session_level ~login_ring in
          (match proc t handle with
          | Some p ->
              Audit_log.log t.audit ~subject:(subject_of p) ~operation:"login"
                ~target:(Principal.to_string principal) ~verdict:Audit_log.Granted
          | None -> ());
          Ok handle
        end
      end

let logout t ~handle =
  match proc t handle with
  | None -> false
  | Some p ->
      Audit_log.log t.audit ~subject:(subject_of p) ~operation:"logout"
        ~target:(Principal.to_string p.principal) ~verdict:Audit_log.Granted;
      (* Destroy the per-process directory and everything in it. *)
      ignore
        (Hierarchy.raw_delete_subtree t.hierarchy ~dir:t.pdd_dir
           ~name:(process_dir_name ~handle));
      Hashtbl.remove t.procs handle;
      true

let process_count t = Hashtbl.length t.procs

(* ----- Copying a booted kernel -----

   One rule per field, and no [{ r with ... }], so a field added later
   does not compile until it has one.  Immutable values (the
   configuration, the gate table, ACLs, labels, principals, audit
   records) are shared; everything the kernel writes in place is
   copied; the copy's caches record into the calling domain's
   instruments, and its hierarchy folds in the calling domain's ACL
   generation (see [Hierarchy.copy]).  A fault plan, a scheduler and
   I/O buffers are attached by drivers above a booted kernel and hold
   state this module cannot copy, so a kernel holding any of them is
   refused. *)

let copy_proc t (p : proc) =
  let kst = Kst.copy p.kst and assoc = Hardware.Assoc.copy p.assoc in
  wire_setfaults t ~handle:p.handle kst assoc;
  {
    handle = p.handle;
    principal = p.principal;
    clearance = p.clearance;
    ring = p.ring;
    kst;
    rnt = Rnt.copy p.rnt;
    rules = p.rules;
    working_dir = p.working_dir;
    login_ring = p.login_ring;
    subsystem_stack = p.subsystem_stack;
    assoc;
    (* A memo, rebuilt on first use: no subject record is shared
       between the source and the copy. *)
    subject_memo = None;
  }

let copy t =
  if Option.is_some t.faults then invalid_arg "System.copy: a fault plan is armed";
  if Option.is_some t.scheduler then invalid_arg "System.copy: a scheduler is registered";
  if Hashtbl.length t.io_buffers > 0 then invalid_arg "System.copy: I/O buffers are attached";
  let hierarchy = Hierarchy.copy t.hierarchy in
  let store = Object_seg.Store.copy t.store in
  let ipc_channels = Hashtbl.create 8 in
  Hashtbl.iter (fun id pending -> Hashtbl.replace ipc_channels id (ref !pending)) t.ipc_channels;
  let c =
    {
      config = t.config;
      cost = t.cost;
      hierarchy;
      store;
      linker = Linker.copy t.linker ~store ~hierarchy;
      audit = Audit_log.copy t.audit;
      accounts = Hashtbl.copy t.accounts;
      procs = Hashtbl.copy t.procs;
      next_handle = t.next_handle;
      init_report = t.init_report;
      io_buffers = Hashtbl.create 8;
      ipc_channels;
      next_channel = t.next_channel;
      lib_dir = t.lib_dir;
      udd_dir = t.udd_dir;
      pdd_dir = t.pdd_dir;
      clock = Clock.copy t.clock;
      faults = None;
      crash_journal = t.crash_journal;
      scheduler = None;
      plant = Option.map Multics_smp.Smp.copy t.plant;
      gates = t.gates;
      gate_mask = t.gate_mask;
    }
  in
  (* Copied in place, not refilled: [setfaults] walks the processes in
     table order, and under deferred connects that order is the order
     the connects queue in. *)
  Hashtbl.filter_map_inplace (fun _ p -> Some (copy_proc c p)) c.procs;
  c

let handles t = Hashtbl.fold (fun h _ acc -> h :: acc) t.procs [] |> List.sort Int.compare

(* Make a segment known to a process and install its descriptor.  The
   SDW is computed ONCE here, from ACL x label x brackets — this is the
   descriptor-construction point the reference monitor lives at; every
   later reference is checked against the installed SDW, as the
   hardware does. *)
let install_known t (p : proc) ~uid =
  let segno, _already = Kst.make_known p.kst ~uid in
  (match Hierarchy.sdw_for t.hierarchy ~subject:(subject_of p) ~uid with
  | Some sdw -> ignore (Kst.set_sdw p.kst segno sdw)
  | None -> ());
  segno

(* [login] primes every new process with the root, its home and the
   system library already known, so it can name starting points. *)
let login ?level t ~person ~project ~password =
  match login ?level t ~person ~project ~password with
  | Error _ as e -> e
  | Ok handle ->
      (match (proc t handle, find_account t ~person ~project) with
      | Some p, Some account ->
          ignore (install_known t p ~uid:Uid.root);
          ignore (install_known t p ~uid:account.home);
          ignore (install_known t p ~uid:t.lib_dir);
          (match
             Hierarchy.raw_lookup t.hierarchy ~dir:t.pdd_dir ~name:(process_dir_name ~handle)
           with
          | Some uid -> ignore (install_known t p ~uid)
          | None -> ())
      | _, _ -> ());
      Ok handle

(* Create another process for the same account (the create_process and
   new_proc gates): same principal, same session level, a fresh address
   space, primed like a login. *)
let clone_process t ~handle =
  match proc t handle with
  | None -> None
  | Some p -> (
      let person = Principal.person p.principal in
      let project = Principal.project p.principal in
      match find_account t ~person ~project with
      | None -> None
      | Some account ->
          let child =
            make_process t ~account ~session_level:p.clearance ~login_ring:p.login_ring
          in
          (match proc t child with
          | Some cp ->
              ignore (install_known t cp ~uid:Uid.root);
              ignore (install_known t cp ~uid:account.home);
              ignore (install_known t cp ~uid:t.lib_dir);
              (match
                 Hierarchy.raw_lookup t.hierarchy ~dir:t.pdd_dir
                   ~name:(process_dir_name ~handle:child)
               with
              | Some uid -> ignore (install_known t cp ~uid)
              | None -> ())
          | None -> ());
          Some child)

(* Handles belonging to the same principal (person.project). *)
let sibling_handles t ~handle =
  match proc t handle with
  | None -> []
  | Some p ->
      Hashtbl.fold
        (fun h (q : proc) acc ->
          if
            Principal.person q.principal = Principal.person p.principal
            && Principal.project q.principal = Principal.project p.principal
          then h :: acc
          else acc)
        t.procs []
      |> List.sort Int.compare

(* Revocation ("setfaults"): after an attribute of [uid] changes (ACL,
   brackets, gate bound), every process holding a descriptor for it
   gets that descriptor recomputed.  Without this, a revoked grant
   would survive in cached SDWs — the classic revocation hole of
   descriptor-based systems, which Multics closed exactly this way. *)
let setfaults t ~uid =
  Hashtbl.iter
    (fun _handle (p : proc) ->
      match Kst.segno_of_uid p.kst ~uid with
      | None -> ()
      | Some segno -> (
          match Hierarchy.sdw_for t.hierarchy ~subject:(subject_of p) ~uid with
          | Some sdw -> ignore (Kst.set_sdw p.kst segno sdw)
          | None -> ()))
    t.procs

(* Drop every process's SDW associative memory outright.  The KST hook
   already invalidates entry-by-entry on descriptor changes; this is
   the big hammer for whole-system events (salvage, cache clear). *)
let flush_assoc_memories t =
  Hashtbl.iter (fun _ (p : proc) -> Hardware.Assoc.flush p.assoc) t.procs;
  match t.plant with Some plant -> Multics_smp.Smp.connect_flush_all plant | None -> ()

(* Invalidate every cached access decision in the system: the policy
   verdict cache and each process's associative memory.  The salvager
   runs this after repairs — a repair is a revocation, and revocations
   must reach caches immediately. *)
let invalidate_caches t =
  Hierarchy.invalidate_cached_verdicts t.hierarchy;
  flush_assoc_memories t

(* IPC channels (functional model: counted wakeups only). *)
let new_ipc_channel t =
  let id = t.next_channel in
  t.next_channel <- id + 1;
  Hashtbl.replace t.ipc_channels id (ref 0);
  id

let ipc_channel t id = Hashtbl.find_opt t.ipc_channels id
