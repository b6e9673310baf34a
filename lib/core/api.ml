(* The kernel's gate-call interface.

   Every supervisor entry point from the {!Gate} catalog is reached
   one way: build a {!Call.request} and hand it to {!Call.dispatch} —
   THE single audited, metered entry point.  (The legacy per-gate
   wrapper functions are gone: a second door, even a thin one, is a
   second place specialisation masks and metering must hold.)

   A call is mediated three times over:

   1. the gate must be in the running kernel's gate table
      ({!System.gate_entry}): a removed mechanism's gates are simply
      absent — the caller must use the user-ring library instead — and
      a specialisation mask strips its gates from the same table, so a
      stripped gate refuses with the same [Gate_absent] before any
      kernel state is touched;
   2. the caller's ring must be within the gate's call bracket;
   3. the operation itself applies the reference monitor (ACL x
      lattice at descriptor construction, SDW checks at reference).

   [dispatch] names each request's operation once
   ({!Call.operation_name}) and every call funnels through its one
   [call] wrapper, so the audit record and the observability counters
   (per-gate call/refusal counts, mediation cycles, audit-trail depth)
   are written in exactly one place.

   Content references ([read_word]/[write_word]) deliberately check
   the SDW installed at initiate time rather than re-deriving policy,
   because that is what the hardware does — and it is why a flawed
   kernel linker that installs a too-permissive descriptor yields a
   real, exploitable unauthorized access (experiment E11). *)

open Multics_access
open Multics_fs
open Multics_link
open Multics_machine
module Obs = Multics_obs.Obs
module Decimal = Multics_util.Decimal

type error =
  | Fs of Hierarchy.error
  | Kst_error of Kst.error
  | Rnt_error of Rnt.error
  | Gate_absent of string
  | Gate_ring_denied of { gate : string; ring : int }
  | Hardware_denied of Hardware.denial
  | Link_failed of Linker.outcome
  | No_such_process of int
  | No_such_channel of int
  | Device_not_attached of string
  | Not_in_subsystem
  | Not_authorized of string
  | Fault_injected of { site : string; operation : string }
  | Bad_fault_plan of string
  | No_scheduler
  | Bad_tune of string
  | Site_fenced of { site : int }
  | Site_unreachable of { site : int }

(* ----- Error rendering -----

   [pp] is the canonical human rendering ([error_to_string] is just
   [Fmt.str "%a" pp]). *)

let pp ppf = function
  | Fs e -> Fmt.pf ppf "fs: %s" (Hierarchy.error_to_string e)
  | Kst_error e -> Fmt.pf ppf "kst: %s" (Kst.error_to_string e)
  | Rnt_error e -> Fmt.pf ppf "rnt: %s" (Rnt.error_to_string e)
  | Gate_absent gate -> Fmt.pf ppf "gate %s is not part of this kernel" gate
  | Gate_ring_denied { gate; ring } ->
      Fmt.pf ppf "gate %s may not be called from ring %d" gate ring
  | Hardware_denied d -> Fmt.pf ppf "hardware: %s" (Hardware.denial_to_string d)
  | Link_failed outcome -> Fmt.pf ppf "link: %s" (Linker.outcome_to_string outcome)
  | No_such_process handle -> Fmt.pf ppf "no process %d" handle
  | No_such_channel id -> Fmt.pf ppf "no event channel %d" id
  | Device_not_attached device -> Fmt.pf ppf "device %s not attached" device
  | Not_in_subsystem -> Fmt.string ppf "not executing in a protected subsystem"
  | Not_authorized what -> Fmt.pf ppf "not authorized: %s" what
  | Fault_injected { site; operation } ->
      Fmt.pf ppf "injected fault at %s aborted %s" site operation
  | Bad_fault_plan detail -> Fmt.pf ppf "bad fault plan: %s" detail
  | No_scheduler -> Fmt.string ppf "no traffic controller is registered"
  | Bad_tune detail -> Fmt.pf ppf "bad scheduler tuning: %s" detail
  | Site_fenced { site } ->
      Fmt.pf ppf "site %d is fenced pending salvage-and-resync; refusing rather than risk a stale decision" site
  | Site_unreachable { site } ->
      Fmt.pf ppf "site %d is unreachable (connects unacknowledged past the retry budget)" site

let error_to_string e = Fmt.str "%a" pp e

let ( let* ) r f = Result.bind r f

let fs_result r = Result.map_error (fun e -> Fs e) r
let kst_result r = Result.map_error (fun e -> Kst_error e) r
let rnt_result r = Result.map_error (fun e -> Rnt_error e) r

(* ----- Reply payload records ----- *)

type entry_status = {
  status_name : string;
  status_kind : Hierarchy.kind;
  status_label : Label.t;
  status_pages : int;
}

type link_status = {
  link_target_seg : string;
  link_target_entry : string;
  link_snapped : bool;
}

type process_info = {
  info_principal : string;
  info_ring : int;
  info_level : Label.t;
  info_known_segments : int;
  info_login_ring : int;
}

(* ----- Observability: the gate-dispatch choke point ----- *)

(* The instruments [meter] records into, resolved once per domain as
   one record: a call pays one domain-local lookup for all of them.
   Per-gate and per-configuration counters are memoised by name part.
   A refusals counter is created on the first refusal, as the registry
   has always shown it. *)
type meters = {
  calls : Obs.Counter.t;
  cycles : Obs.Counter.t;
  refusals : Obs.Counter.t Lazy.t;
  audit_depth : Obs.Gauge.t;
  op_calls : string -> Obs.Counter.t;
  op_refusals : string -> Obs.Counter.t;
  config : string -> Obs.Counter.t * Obs.Counter.t;
}

let meters =
  Obs.Local.make (fun r ->
      {
        calls = Obs.Registry.counter r "gate.calls";
        cycles = Obs.Registry.counter r "gate.cycles";
        refusals = lazy (Obs.Registry.counter r "gate.refusals");
        audit_depth = Obs.Registry.gauge r "audit.depth";
        op_calls =
          Obs.Local.family r (fun r op -> Obs.Registry.counter r ("gate." ^ op ^ ".calls"));
        op_refusals =
          Obs.Local.family r (fun r op -> Obs.Registry.counter r ("gate." ^ op ^ ".refusals"));
        config =
          Obs.Local.family r (fun r config ->
              ( Obs.Registry.counter r ("config." ^ config ^ ".gate.calls"),
                Obs.Registry.counter r ("config." ^ config ^ ".gate.cycles") ));
      })

(* One record per mediated call, written after the audit record so the
   audit-depth gauge includes it.  Mediation cycles are charged at the
   configured processor's cross-ring round-trip price — the same
   accounting {!Session} applies, so snapshot totals and the E13 table
   agree. *)
let meter system ~operation ~refused =
  let m = meters () in
  if Obs.Counter.recording m.calls then begin
    let cycles = Cost.round_trip_call_cost (System.cost system) ~cross_ring:true in
    Obs.Counter.incr m.calls;
    Obs.Counter.incr ~by:cycles m.cycles;
    Obs.Counter.incr (m.op_calls operation);
    let config_calls, config_cycles = m.config (System.config system).Config.name in
    Obs.Counter.incr config_calls;
    Obs.Counter.incr ~by:cycles config_cycles;
    if refused then begin
      Obs.Counter.incr (Lazy.force m.refusals);
      Obs.Counter.incr (m.op_refusals operation)
    end;
    Obs.Gauge.set m.audit_depth (Audit_log.length (System.audit system))
  end

(* ----- The gate discipline ----- *)

(* How a call is admitted before its body runs.  A supervisor entry
   ([Gate]) must be in the gate table and within its call bracket.  A
   hardware gate call or an operator action ([Ungated]) is not a
   supervisor entry: only its body decides.

   A specialised kernel simply does not have its stripped gates: they
   are missing from the same table a removed mechanism's gates are
   missing from, so one lookup — before the ring check and before any
   body runs — refuses both alike: [Gate_absent], audited, no kernel
   state touched.

   Fault injection hooks into the gate side on the refusing side only:
   an injected [Gate_deny] turns an admitted call away before the body
   runs (a clean refusal, audited like any other), and the mutating
   dispatch arms consult [Gate_abort] after their hierarchy update (a
   mid-dispatch crash, leaving partial state for the salvager).
   Neither path can widen what the reference monitor granted. *)
type admission = Gate | Ungated

let admit system (p : System.proc) ~operation = function
  | Ungated -> Ok ()
  | Gate -> (
      let ring = Ring.to_int p.System.ring in
      match System.gate_entry system ~gate:operation with
      | None -> Error (Gate_absent operation)
      | Some entry when ring > Ring.to_int entry.Gate.call_top ->
          Error (Gate_ring_denied { gate = operation; ring })
      | Some _ when System.fault_fires system Multics_fault.Fault.Gate_deny ->
          Error (Fault_injected { site = "gate.deny"; operation })
      | Some _ -> Ok ())

(* Wrap one call: locate the process, admit the call, run the body,
   and write the audit and observability records. *)
let call system ~handle ~operation admission ~target body =
  match System.proc system handle with
  | None ->
      meter system ~operation ~refused:true;
      Error (No_such_process handle)
  | Some p ->
      let subject = System.subject_of p in
      let result =
        let* () = admit system p ~operation admission in
        body p subject
      in
      let audit = System.audit system in
      (* A refusal's text is rendered only for a trail that keeps it. *)
      if Audit_log.enabled audit then
        Audit_log.log audit ~subject ~operation ~target
          ~verdict:
            (match result with
            | Ok _ -> Audit_log.Granted
            | Error e -> Audit_log.Refused (error_to_string e));
      meter system ~operation ~refused:(Result.is_error result);
      result

(* Consulted by the mutating dispatch arms right after their hierarchy
   update succeeded: an injected abort records what the kernel knew in
   the crash journal and fails the call — the caller never learns the
   object exists, and the salvager later rolls the orphan back. *)
let abort_after_mutation system ~handle ~operation ?dir ?entry_name () =
  if System.fault_fires system Multics_fault.Fault.Gate_abort then begin
    System.journal_crash system ~handle ~operation ?dir ?entry_name ();
    Error (Fault_injected { site = "gate.abort"; operation })
  end
  else Ok ()

(* Device transients: each fired fault costs one backoff period on the
   system clock (doubled per retry); three consecutive failures give
   the operation up with a typed refusal. *)
let device_transient_attempts = 3

let device_transient_guard system ~device ~operation =
  match System.faults system with
  | None -> Ok ()
  | Some inj ->
      let site = Multics_fault.Fault.Device_transient in
      let base = Multics_io.Device.service_cycles device in
      let rec attempt i =
        if not (Multics_fault.Fault.Injector.fire inj site) then Ok ()
        else begin
          Clock.advance (System.clock system) (base * (1 lsl (i - 1)));
          if i >= device_transient_attempts then begin
            Multics_fault.Fault.Injector.count_giveup inj site;
            Error (Fault_injected { site = Multics_fault.Fault.site_name site; operation })
          end
          else begin
            Multics_fault.Fault.Injector.count_retry inj site;
            attempt (i + 1)
          end
        end
      in
      attempt 1

let uid_of_segno (p : System.proc) segno = kst_result (Kst.uid_of_segno p.System.kst segno)

(* Process-management operations are supervisor gates under the
   privileged-login configuration, ordinary subsystem entries under the
   unified configuration.  The path follows the configuration, never
   the gate table: a mask that strips [create_process] must refuse it,
   not turn it into a subsystem entry. *)
let login_admission system =
  match (System.config system).Config.login with
  | Config.Privileged_login -> Gate
  | Config.Unified_subsystem_entry -> Ungated

let login_operation system gate =
  match login_admission system with Gate -> gate | Ungated -> "subsystem_entry:" ^ gate

let naming_in_kernel system = (System.config system).Config.naming = Multics_link.Rnt.In_kernel

(* ----- Shared helpers for gate bodies ----- *)

(* Every content reference goes through the current CPU's associative
   memory: a hit reuses the cached SDW, a miss fetches it from the KST
   (the simulated descriptor-segment walk) and installs it.  The KST's
   descriptor-change hook clears the entry on every CPU on setfaults,
   terminate, and salvage, so a revoked descriptor can never be
   re-checked from a CAM — which CPU runs the reference can change
   which cache answers, never what it answers. *)
let check_sdw system (p : System.proc) ~segno ~operation =
  let fetch () = Kst.sdw_of p.System.kst segno in
  match
    Multics_smp.Smp.check_sdw (System.plant system) ~handle:p.System.handle ~segno ~fetch
      ~ring:p.System.ring ~operation
  with
  | None -> Error (Kst_error (Kst.Unknown_segno segno))
  | Some (Hardware.Granted grant) -> Ok grant
  | Some (Hardware.Denied denial) -> Error (Hardware_denied denial)

(* The longest segment bounds every content reference: an offset
   outside it is refused before the reference is served or any growth
   is charged, so a refused write cannot consume quota. *)
let in_bounds offset =
  if offset < 0 || offset >= Hierarchy.max_segment_words then
    Error (Fs (Hierarchy.Out_of_bounds offset))
  else Ok ()

let parent_path path =
  match String.rindex_opt path '>' with
  | None | Some 0 -> (">", String.sub path 1 (max 0 (String.length path - 1)))
  | Some i -> (String.sub path 0 i, String.sub path (i + 1) (String.length path - i - 1))

(* The historical escalation: when the flawed ring-0 linker snaps a
   link it found with supervisor authority, it also installs a
   supervisor-grade descriptor for the target — the user ends up with
   read/write access the reference monitor never granted. *)
let install_after_flawed_snap (p : System.proc) ~target =
  let segno, _ = Kst.make_known p.System.kst ~uid:target in
  let sdw = Sdw.make ~mode:Mode.rew ~brackets:Multics_machine.Brackets.user_data () in
  ignore (Kst.set_sdw p.System.kst segno sdw);
  segno

(* Which gate serves a device depends on the configuration: per-device
   drivers each have their own gates; under network-only I/O every
   external device reaches the system through the network attachment. *)
let io_gate_for system device op =
  match (System.config system).Config.io with
  | Config.Device_drivers -> Printf.sprintf "%s_%s" (Multics_io.Device.name device) op
  | Config.Network_only -> "net_" ^ op

let buffer_for_config system () =
  match (System.config system).Config.buffer with
  | Config.Circular_ring capacity ->
      Multics_io.Network.Circular (Multics_io.Circular_buffer.create ~capacity)
  | Config.Infinite_vm -> Multics_io.Network.Infinite (Multics_io.Infinite_buffer.create ())

(* ----- The typed gate-call surface ----- *)

module Call = struct
  type request =
    (* directory control *)
    | Initiate of { dir_segno : int; name : string }
    | Terminate of { segno : int }
    | Create_segment of {
        dir_segno : int;
        name : string;
        acl : Acl.t;
        label : Label.t;
        brackets : Brackets.t option;
      }
    | Create_directory of { dir_segno : int; name : string; acl : Acl.t; label : Label.t }
    | Delete_entry of { dir_segno : int; name : string }
    | Rename_entry of { dir_segno : int; name : string; new_name : string }
    | List_directory of { dir_segno : int }
    | Status_entry of { dir_segno : int; name : string }
    | Set_acl of { segno : int; acl : Acl.t }
    | Set_brackets of { segno : int; brackets : Brackets.t }
    | Set_gate_bound of { segno : int; gate_bound : int }
    | Set_quota of { segno : int; quota : int option }
    (* content references *)
    | Read_word of { segno : int; offset : int }
    | Write_word of { segno : int; offset : int; value : int }
    (* naming (kernel-resident naming only) *)
    | Initiate_by_path of { path : string }
    | Create_segment_by_path of {
        path : string;
        acl : Acl.t;
        label : Label.t;
        brackets : Brackets.t option;
      }
    | Create_directory_by_path of { path : string; acl : Acl.t; label : Label.t }
    | Delete_by_path of { path : string }
    | Set_acl_by_path of { path : string; acl : Acl.t }
    | Set_brackets_by_path of { path : string; brackets : Brackets.t }
    | Resolve_path of { path : string }
    | Terminate_by_path of { path : string }
    | Rnt_bind of { name : string; segno : int }
    | Rnt_lookup of { name : string }
    | Rnt_unbind of { name : string }
    | List_reference_names of { segno : int }
    | Get_working_dir
    | Set_working_dir of { dir_segno : int }
    | Initiate_count
    (* linker (kernel-resident linker only) *)
    | Snap_link of { segno : int; link_index : int }
    | List_links of { segno : int }
    | Set_search_rules of { dir_segnos : int list }
    | Get_search_rules
    (* protected subsystems (hardware gate calls) *)
    | Enter_subsystem of { segno : int; entry_offset : int; name : string }
    | Exit_subsystem
    (* IPC *)
    | Create_channel
    | Send_wakeup of { channel : int }
    | Block of { channel : int }
    (* external I/O *)
    | Attach_device of { device : Multics_io.Device.kind }
    | Detach_device of { device : Multics_io.Device.kind }
    | Device_write of { device : Multics_io.Device.kind; message : int }
    | Device_read of { device : Multics_io.Device.kind }
    (* process management *)
    | Create_process
    | Destroy_process of { target : int }
    | New_proc
    | Proc_info
    | List_processes
    | Operator_message of { message : string }
    (* fault injection and salvage (operator/hardware surface) *)
    | Set_fault_plan of { seed : int; spec : string }
    | Fault_status
    | Clear_faults
    | Salvage
    (* cache inspection and control (operator/hardware surface) *)
    | Probe_access of { segno : int; requested : Mode.t }
    | Cache_status
    | Cache_clear
    (* traffic controller (operator/hardware surface) *)
    | Sched_status
    | Sched_tune of { param : string; value : int }
    (* multiprocessor plant (operator/hardware surface) *)
    | Smp_status

  type reply =
    | Done
    | Segno of int
    | Word of int
    | Message of int option
    | Names of string list
    | Status of entry_status
    | Links of link_status list
    | Snapped of { segno : int; offset : int }
    | Entered of Ring.t
    | Channel of int
    | Consumed of bool
    | Process of int
    | Processes of int list
    | Info of process_info
    | Fault_report of { plan : string; counts : (string * int) list }
    | Salvaged of Salvager.report
    | Probed of Policy.verdict
    | Cache_report of { policy : (string * int) list; assoc : (string * int) list }
    | Sched_report of { policy : string; counters : (string * int) list }
    | Smp_report of {
        ncpus : int;
        plant : (string * int) list;  (** plant-wide readings, sorted *)
        cpus : (int * (string * int) list) list;  (** per-CPU readings *)
      }

  type response = (reply, error) result

  (* The operation name a request is mediated, audited and metered
     under — configuration-dependent for device I/O, process management
     and the by-path attribute edits.  [dispatch] derives it once per
     call; its arms never restate it. *)
  let operation_name system = function
    | Initiate _ -> "initiate"
    | Terminate _ -> "terminate"
    | Create_segment _ -> "create_segment"
    | Create_directory _ -> "create_directory"
    | Delete_entry _ -> "delete_entry"
    | Rename_entry _ -> "rename_entry"
    | List_directory _ -> "list_directory"
    | Status_entry _ -> "status_entry"
    | Set_acl _ -> "set_acl"
    | Set_brackets _ -> "set_brackets"
    | Set_gate_bound _ -> "set_gate_bound"
    | Set_quota _ -> "set_quota"
    | Read_word _ -> "read_word"
    | Write_word _ -> "write_word"
    | Initiate_by_path _ -> "initiate_by_path"
    | Create_segment_by_path _ -> "create_segment_by_path"
    | Create_directory_by_path _ -> "create_directory_by_path"
    | Delete_by_path _ -> "delete_by_path"
    (* The by-path attribute edits are the [set_acl]/[set_brackets]
       entries while naming is in the kernel; once it is out they name
       gates the kernel does not have, so the gate check refuses them. *)
    | Set_acl_by_path _ -> if naming_in_kernel system then "set_acl" else "set_acl_by_path"
    | Set_brackets_by_path _ ->
        if naming_in_kernel system then "set_brackets" else "set_brackets_by_path"
    | Resolve_path _ -> "resolve_path"
    | Terminate_by_path _ -> "terminate_by_path"
    | Rnt_bind _ -> "rnt_bind"
    | Rnt_lookup _ -> "rnt_lookup"
    | Rnt_unbind _ -> "rnt_unbind"
    | List_reference_names _ -> "list_reference_names"
    | Get_working_dir -> "get_working_dir"
    | Set_working_dir _ -> "set_working_dir"
    | Initiate_count -> "initiate_count"
    | Snap_link _ -> "snap_link"
    | List_links _ -> "list_links"
    | Set_search_rules _ -> "set_search_rules"
    | Get_search_rules -> "get_search_rules"
    | Enter_subsystem _ -> "subsystem_entry"
    | Exit_subsystem -> "subsystem_exit"
    | Create_channel -> "create_channel"
    | Send_wakeup _ -> "send_wakeup"
    | Block _ -> "block"
    | Attach_device { device } -> io_gate_for system device "attach"
    | Detach_device { device } -> io_gate_for system device "detach"
    | Device_write { device; _ } -> io_gate_for system device "io"
    | Device_read { device } -> io_gate_for system device "io"
    | Create_process -> login_operation system "create_process"
    | Destroy_process _ -> login_operation system "destroy_process"
    | New_proc -> login_operation system "new_proc"
    | Proc_info -> login_operation system "proc_info"
    | List_processes -> login_operation system "list_processes"
    | Operator_message _ -> login_operation system "operator_message"
    | Set_fault_plan _ -> "fault_control"
    | Fault_status -> "fault_status"
    | Clear_faults -> "fault_clear"
    | Salvage -> "salvage"
    | Probe_access _ -> "probe_access"
    | Cache_status -> "cache_status"
    | Cache_clear -> "cache_clear"
    | Sched_status -> "sched_status"
    | Sched_tune _ -> "sched_tune"
    | Smp_status -> "smp_status"

  let dispatch system ~handle (request : request) : response =
    let operation = operation_name system request in
    let call admission ~target body = call system ~handle ~operation admission ~target body in
    match request with
    (* ----- Directory control ----- *)
    | Initiate { dir_segno; name } ->
        call Gate ~target:name (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let* uid =
              fs_result (Hierarchy.lookup (System.hierarchy system) ~subject ~dir ~name)
            in
            Ok (Segno (System.install_known system p ~uid)))
    | Terminate { segno } ->
        call Gate ~target:(Decimal.to_string segno) (fun p _subject ->
            let* () = kst_result (Kst.terminate p.System.kst segno) in
            Ok Done)
    | Create_segment { dir_segno; name; acl; label; brackets } ->
        call Gate ~target:name (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let* uid =
              fs_result
                (Hierarchy.create_segment ?brackets (System.hierarchy system) ~subject ~dir
                   ~name ~acl ~label)
            in
            let* () =
              abort_after_mutation system ~handle ~operation ~dir ~entry_name:name ()
            in
            Ok (Segno (System.install_known system p ~uid)))
    | Create_directory { dir_segno; name; acl; label } ->
        call Gate ~target:name (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let* uid =
              fs_result
                (Hierarchy.create_directory (System.hierarchy system) ~subject ~dir ~name ~acl
                   ~label)
            in
            let* () =
              abort_after_mutation system ~handle ~operation ~dir ~entry_name:name ()
            in
            Ok (Segno (System.install_known system p ~uid)))
    | Delete_entry { dir_segno; name } ->
        call Gate ~target:name (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let* _uid =
              fs_result (Hierarchy.delete_entry (System.hierarchy system) ~subject ~dir ~name)
            in
            Ok Done)
    | Rename_entry { dir_segno; name; new_name } ->
        call Gate ~target:name (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let* _uid =
              fs_result
                (Hierarchy.rename_entry (System.hierarchy system) ~subject ~dir ~name ~new_name)
            in
            Ok Done)
    | List_directory { dir_segno } ->
        call Gate ~target:(Decimal.to_string dir_segno) (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let* entries =
              fs_result (Hierarchy.list_entries (System.hierarchy system) ~subject ~dir)
            in
            Ok (Names (List.map (fun (name, _uid) -> name) entries)))
    | Status_entry { dir_segno; name } ->
        call Gate ~target:name (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let hierarchy = System.hierarchy system in
            let* uid = fs_result (Hierarchy.lookup hierarchy ~subject ~dir ~name) in
            match (Hierarchy.kind_of hierarchy uid, Hierarchy.label_of hierarchy uid) with
            | Some status_kind, Some status_label ->
                Ok
                  (Status
                     {
                       status_name = name;
                       status_kind;
                       status_label;
                       status_pages =
                         Option.value ~default:0 (Hierarchy.page_count_of hierarchy uid);
                     })
            | _, _ -> Error (Fs (Hierarchy.No_entry name)))
    (* Attribute changes finish with "setfaults": every cached
       descriptor for the object is recomputed, so a revoked grant
       cannot survive in any process's SDW. *)
    | Set_acl { segno; acl } ->
        call Gate ~target:(Decimal.to_string segno) (fun p subject ->
            let* uid = uid_of_segno p segno in
            let* () = fs_result (Hierarchy.set_acl (System.hierarchy system) ~subject ~uid ~acl) in
            System.setfaults system ~uid;
            Ok Done)
    | Set_brackets { segno; brackets } ->
        call Gate ~target:(Decimal.to_string segno) (fun p subject ->
            let* uid = uid_of_segno p segno in
            let* () =
              fs_result (Hierarchy.set_brackets (System.hierarchy system) ~subject ~uid ~brackets)
            in
            System.setfaults system ~uid;
            Ok Done)
    | Set_gate_bound { segno; gate_bound } ->
        call Gate ~target:(Decimal.to_string segno) (fun p subject ->
            let* uid = uid_of_segno p segno in
            let* () =
              fs_result
                (Hierarchy.set_gate_bound (System.hierarchy system) ~subject ~uid ~gate_bound)
            in
            System.setfaults system ~uid;
            Ok Done)
    | Set_quota { segno; quota } ->
        call Gate ~target:(Decimal.to_string segno) (fun p subject ->
            let* uid = uid_of_segno p segno in
            let* () = fs_result (Hierarchy.set_quota (System.hierarchy system) ~subject ~uid ~quota) in
            Ok Done)
    (* ----- Content references (SDW-checked, as the hardware does) ----- *)
    | Read_word { segno; offset } ->
        call Gate ~target:(Decimal.pair segno '|' offset) (fun p _subject ->
            let* _grant = check_sdw system p ~segno ~operation:Hardware.Read in
            let* () = in_bounds offset in
            let* uid = uid_of_segno p segno in
            match Hierarchy.raw_read_word (System.hierarchy system) ~uid ~offset with
            | Some value -> Ok (Word value)
            | None -> Error (Fs (Hierarchy.Not_a_segment (string_of_int segno))))
    | Write_word { segno; offset; value } ->
        call Gate ~target:(Decimal.pair segno '|' offset) (fun p _subject ->
            let* _grant = check_sdw system p ~segno ~operation:Hardware.Write in
            let* () = in_bounds offset in
            let* uid = uid_of_segno p segno in
            (* Segment control charges the quota cell for any growth
               before the page materializes. *)
            let* () = fs_result (Hierarchy.charge_growth (System.hierarchy system) ~uid ~offset) in
            if Hierarchy.raw_write_word (System.hierarchy system) ~uid ~offset ~value then Ok Done
            else Error (Fs (Hierarchy.Not_a_segment (string_of_int segno))))
    (* ----- Naming gates (present only while naming is in the kernel) ----- *)
    | Initiate_by_path { path } ->
        call Gate ~target:path (fun p subject ->
            let* uid = fs_result (Hierarchy.resolve (System.hierarchy system) ~subject ~path) in
            let segno = System.install_known system p ~uid in
            let* () = kst_result (Kst.record_pathname p.System.kst segno path) in
            Ok (Segno segno))
    | Create_segment_by_path { path; acl; label; brackets } ->
        call Gate ~target:path (fun p subject ->
            let dir_path, name = parent_path path in
            let hierarchy = System.hierarchy system in
            let* dir = fs_result (Hierarchy.resolve hierarchy ~subject ~path:dir_path) in
            let* uid =
              fs_result (Hierarchy.create_segment ?brackets hierarchy ~subject ~dir ~name ~acl ~label)
            in
            let* () =
              abort_after_mutation system ~handle ~operation ~dir ~entry_name:name ()
            in
            let segno = System.install_known system p ~uid in
            let* () = kst_result (Kst.record_pathname p.System.kst segno path) in
            Ok (Segno segno))
    | Create_directory_by_path { path; acl; label } ->
        call Gate ~target:path (fun p subject ->
            let dir_path, name = parent_path path in
            let hierarchy = System.hierarchy system in
            let* dir = fs_result (Hierarchy.resolve hierarchy ~subject ~path:dir_path) in
            let* uid =
              fs_result (Hierarchy.create_directory hierarchy ~subject ~dir ~name ~acl ~label)
            in
            let* () =
              abort_after_mutation system ~handle ~operation ~dir ~entry_name:name ()
            in
            Ok (Segno (System.install_known system p ~uid)))
    | Delete_by_path { path } ->
        call Gate ~target:path (fun _p subject ->
            let dir_path, name = parent_path path in
            let hierarchy = System.hierarchy system in
            let* dir = fs_result (Hierarchy.resolve hierarchy ~subject ~path:dir_path) in
            let* _uid = fs_result (Hierarchy.delete_entry hierarchy ~subject ~dir ~name) in
            Ok Done)
    (* Path-addressed attribute edits: the same supervisor entries as
       [Set_acl]/[Set_brackets] (same gates, same audit operation),
       reached by tree name instead of a process-local segment number.
       The kernel resolves the name itself, so — like every other
       by-path entry — these exist only while naming lives in the
       kernel ({!operation_name} names an absent gate once it is out);
       post-removal callers compose resolution in the user ring
       (User_env, or a distribution layer such as Site) and call the
       segment-number gate.  Both forms finish with the same
       "setfaults" revocation step. *)
    | Set_acl_by_path { path; acl } ->
        call Gate ~target:path (fun _p subject ->
            let hierarchy = System.hierarchy system in
            let* uid = fs_result (Hierarchy.resolve hierarchy ~subject ~path) in
            let* () = fs_result (Hierarchy.set_acl hierarchy ~subject ~uid ~acl) in
            System.setfaults system ~uid;
            Ok Done)
    | Set_brackets_by_path { path; brackets } ->
        call Gate ~target:path (fun _p subject ->
            let hierarchy = System.hierarchy system in
            let* uid = fs_result (Hierarchy.resolve hierarchy ~subject ~path) in
            let* () = fs_result (Hierarchy.set_brackets hierarchy ~subject ~uid ~brackets) in
            System.setfaults system ~uid;
            Ok Done)
    | Resolve_path { path } ->
        call Gate ~target:path (fun p subject ->
            let* uid = fs_result (Hierarchy.resolve (System.hierarchy system) ~subject ~path) in
            Ok (Segno (System.install_known system p ~uid)))
    | Terminate_by_path { path } ->
        call Gate ~target:path (fun p subject ->
            let* uid = fs_result (Hierarchy.resolve (System.hierarchy system) ~subject ~path) in
            match Kst.segno_of_uid p.System.kst ~uid with
            | Some segno ->
                let* () = kst_result (Kst.terminate p.System.kst segno) in
                Ok Done
            | None -> Error (Kst_error (Kst.Unknown_segno 0)))
    | Rnt_bind { name; segno } ->
        call Gate ~target:name (fun p _subject ->
            let* () = rnt_result (Rnt.bind p.System.rnt ~name ~segno) in
            Ok Done)
    | Rnt_lookup { name } ->
        call Gate ~target:name (fun p _subject ->
            let* segno = rnt_result (Rnt.lookup p.System.rnt ~name) in
            Ok (Segno segno))
    | Rnt_unbind { name } ->
        call Gate ~target:name (fun p _subject ->
            let* () = rnt_result (Rnt.unbind p.System.rnt ~name) in
            Ok Done)
    | List_reference_names { segno } ->
        call Gate ~target:(Decimal.to_string segno)
          (fun p _subject -> Ok (Names (Rnt.names_for_segno p.System.rnt ~segno)))
    | Get_working_dir ->
        call Gate ~target:"wd" (fun p _subject ->
            Ok (Segno (System.install_known system p ~uid:p.System.working_dir)))
    | Set_working_dir { dir_segno } ->
        call Gate ~target:(Decimal.to_string dir_segno) (fun p _subject ->
            let* uid = uid_of_segno p dir_segno in
            p.System.working_dir <- uid;
            Ok Done)
    | Initiate_count ->
        call Gate ~target:"kst" (fun p _subject ->
            Ok (Word (Kst.entry_count p.System.kst)))
    (* ----- Linker gates (present only while the linker is in the kernel) ----- *)
    | Snap_link { segno; link_index } ->
        call Gate ~target:(Decimal.pair segno '#' link_index) (fun p subject ->
            let* from_uid = uid_of_segno p segno in
            let linker = System.linker system in
            match
              Linker.resolve_link linker ~subject ~rules:p.System.rules ~from_uid ~link_index
            with
            | Linker.Snapped { target; offset; _ } | Linker.Already_snapped { target; offset } ->
                let target_segno =
                  if Linker.has_flaw linker Linker.Supervisor_authority_walk then
                    install_after_flawed_snap p ~target
                  else System.install_known system p ~uid:target
                in
                Ok (Snapped { segno = target_segno; offset })
            | other -> Error (Link_failed other))
    | List_links { segno } ->
        call Gate ~target:(Decimal.to_string segno) (fun p _subject ->
            let* uid = uid_of_segno p segno in
            match Object_seg.Store.get (System.store system) ~uid with
            | None -> Ok (Links [])
            | Some obj ->
                Ok
                  (Links
                     (List.init (Object_seg.link_count obj) (fun i ->
                          match Object_seg.link obj i with
                          | Some l ->
                              {
                                link_target_seg = l.Object_seg.target_seg;
                                link_target_entry = l.Object_seg.target_entry;
                                link_snapped = l.Object_seg.snapped <> None;
                              }
                          | None ->
                              {
                                link_target_seg = "?";
                                link_target_entry = "?";
                                link_snapped = false;
                              }))))
    | Set_search_rules { dir_segnos } ->
        call Gate ~target:"rules" (fun p _subject ->
            let rec collect acc = function
              | [] -> Ok (List.rev acc)
              | segno :: rest ->
                  let* uid = uid_of_segno p segno in
                  collect ((string_of_int segno, uid) :: acc) rest
            in
            let* dirs = collect [] dir_segnos in
            p.System.rules <- Search_rules.of_dirs dirs;
            Ok Done)
    | Get_search_rules ->
        call Gate ~target:"rules" (fun p _subject ->
            Ok (Names (Search_rules.rule_names p.System.rules)))
    (* ----- Protected subsystem entry -----

       On the 6180 entering a protected subsystem is a hardware gate
       call, not a supervisor entry, so it is available in every
       configuration; only its SDW decides whether the crossing is
       legal.  (Under the unified-login configuration the same
       mechanism also performs login.)  The call is still audited. *)
    | Enter_subsystem { segno; entry_offset; name } ->
        call Ungated ~target:name (fun p _subject ->
            let* grant = check_sdw system p ~segno ~operation:(Hardware.Call entry_offset) in
            match grant with
            | Hardware.Gate_entry target_ring ->
                p.System.subsystem_stack <- (name, p.System.ring) :: p.System.subsystem_stack;
                p.System.ring <- target_ring;
                Ok (Entered target_ring)
            | Hardware.Access_ok ->
                (* Same-ring call: no protection boundary crossed. *)
                Ok (Entered p.System.ring))
    | Exit_subsystem ->
        call Ungated ~target:"(return)" (fun p _subject ->
            match p.System.subsystem_stack with
            | [] -> Error Not_in_subsystem
            | (_name, restore_ring) :: rest ->
                p.System.subsystem_stack <- rest;
                p.System.ring <- restore_ring;
                Ok (Entered restore_ring))
    (* ----- IPC gates ----- *)
    | Create_channel ->
        call Gate ~target:"channel" (fun _p _subject ->
            Ok (Channel (System.new_ipc_channel system)))
    | Send_wakeup { channel } ->
        call Gate ~target:(Decimal.to_string channel) (fun _p _subject ->
            match System.ipc_channel system channel with
            | None -> Error (No_such_channel channel)
            | Some pending ->
                incr pending;
                Ok Done)
    | Block { channel } ->
        call Gate ~target:(Decimal.to_string channel) (fun _p _subject ->
            match System.ipc_channel system channel with
            | None -> Error (No_such_channel channel)
            | Some pending ->
                if !pending > 0 then begin
                  decr pending;
                  Ok (Consumed true)
                end
                else Ok (Consumed false))
    (* ----- External I/O gates ----- *)
    | Attach_device { device } ->
        let dev = Multics_io.Device.name device in
        call Gate ~target:dev (fun _p _subject ->
            let buffers = System.io_buffers system in
            if not (Hashtbl.mem buffers dev) then
              Hashtbl.replace buffers dev (buffer_for_config system ());
            Ok Done)
    | Detach_device { device } ->
        let dev = Multics_io.Device.name device in
        call Gate ~target:dev (fun _p _subject ->
            if Hashtbl.mem (System.io_buffers system) dev then begin
              Hashtbl.remove (System.io_buffers system) dev;
              Ok Done
            end
            else Error (Device_not_attached dev))
    | Device_write { device; message } ->
        let dev = Multics_io.Device.name device in
        call Gate ~target:dev (fun _p _subject ->
            let* () = device_transient_guard system ~device ~operation:"device_write" in
            match Hashtbl.find_opt (System.io_buffers system) dev with
            | None -> Error (Device_not_attached dev)
            | Some (Multics_io.Network.Circular buffer) ->
                Multics_io.Circular_buffer.write buffer message;
                Ok Done
            | Some (Multics_io.Network.Infinite buffer) ->
                Multics_io.Infinite_buffer.write buffer message;
                Ok Done)
    | Device_read { device } ->
        let dev = Multics_io.Device.name device in
        call Gate ~target:dev (fun _p _subject ->
            let* () = device_transient_guard system ~device ~operation:"device_read" in
            match Hashtbl.find_opt (System.io_buffers system) dev with
            | None -> Error (Device_not_attached dev)
            | Some (Multics_io.Network.Circular buffer) ->
                Ok (Message (Multics_io.Circular_buffer.read buffer))
            | Some (Multics_io.Network.Infinite buffer) ->
                Ok (Message (Multics_io.Infinite_buffer.read buffer)))
    (* ----- Process-management gates ----- *)
    | Create_process ->
        call (login_admission system) ~target:"child" (fun _p _subject ->
            match System.clone_process system ~handle with
            | Some child -> Ok (Process child)
            | None -> Error (No_such_process handle))
    | Destroy_process { target } ->
        call (login_admission system) ~target:(Decimal.to_string target) (fun _p _subject ->
            if List.mem target (System.sibling_handles system ~handle) then
              if System.logout system ~handle:target then Ok Done
              else Error (No_such_process target)
            else Error (Not_authorized "destroy_process: not your process"))
    | New_proc ->
        call (login_admission system) ~target:"self" (fun _p _subject ->
            match System.clone_process system ~handle with
            | Some fresh ->
                ignore (System.logout system ~handle);
                Ok (Process fresh)
            | None -> Error (No_such_process handle))
    | Proc_info ->
        call (login_admission system) ~target:"self" (fun p _subject ->
            Ok
              (Info
                 {
                   info_principal = Principal.to_string p.System.principal;
                   info_ring = Ring.to_int p.System.ring;
                   info_level = p.System.clearance;
                   info_known_segments = Kst.entry_count p.System.kst;
                   info_login_ring = Ring.to_int p.System.login_ring;
                 }))
    | List_processes ->
        call (login_admission system) ~target:"siblings"
          (fun _p _subject -> Ok (Processes (System.sibling_handles system ~handle)))
    | Operator_message { message } ->
        call (login_admission system) ~target:message (fun _p _subject -> Ok Done)
    (* ----- Fault injection and salvage -----

       Operator actions, present in every configuration (like the
       hardware gate calls), still audited and metered.  Installing a
       plan can only make the system slower or more refusing; salvage
       can only remove state or re-derive descriptors — so neither
       needs a supervisor gate of its own to stay fail-secure. *)
    | Set_fault_plan { seed; spec } ->
        call Ungated ~target:spec (fun _p _subject ->
            match Multics_fault.Fault.Plan.parse ~seed spec with
            | Error detail -> Error (Bad_fault_plan detail)
            | Ok plan ->
                System.set_faults system
                  (if Multics_fault.Fault.Plan.is_empty plan then None
                   else Some (Multics_fault.Fault.Injector.create plan));
                Ok Done)
    | Fault_status ->
        call Ungated ~target:"faults" (fun _p _subject ->
            match System.faults system with
            | None -> Ok (Fault_report { plan = "none"; counts = [] })
            | Some inj ->
                Ok
                  (Fault_report
                     {
                       plan = Multics_fault.Fault.Plan.to_string (Multics_fault.Fault.Injector.plan inj);
                       counts = Multics_fault.Fault.Injector.counts inj;
                     }))
    | Clear_faults ->
        call Ungated ~target:"faults" (fun _p _subject ->
            System.set_faults system None;
            Ok Done)
    | Salvage ->
        call Ungated ~target:"hierarchy" (fun _p _subject ->
            Ok (Salvaged (Salvager.run system)))
    (* ----- Cache inspection and control -----

       Operator surface, like fault control.  Probing runs the cached
       decision path for real (the AVC counters move exactly as a
       reference would move them); clearing every cache is the
       operator's revocation hammer — it can only make the next
       reference slower, never change a verdict. *)
    | Probe_access { segno; requested } ->
        call Ungated ~target:(Decimal.to_string segno ^ "?" ^ Mode.to_string requested)
          (fun p subject ->
            let* uid = uid_of_segno p segno in
            match Hierarchy.check_access (System.hierarchy system) ~subject ~uid ~requested with
            | Some verdict -> Ok (Probed verdict)
            | None -> Error (Fs (Hierarchy.No_entry (string_of_int segno))))
    | Cache_status ->
        call Ungated ~target:"caches" (fun _p _subject ->
            Ok
              (Cache_report
                 {
                   policy = Hierarchy.cache_stats (System.hierarchy system);
                   assoc = Multics_smp.Smp.cam_status (System.plant system);
                 }))
    | Cache_clear ->
        call Ungated ~target:"caches" (fun _p _subject ->
            System.invalidate_caches system;
            Ok Done)
    (* ----- Traffic controller -----

       Operator surface, like fault and cache control.  Tuning moves
       mechanism parameters (quantum, eligibility cap) and can only
       change WHEN work runs, never what it is allowed to touch —
       mediation stays schedule-invariant (experiment E17's oracle). *)
    | Sched_status ->
        call Ungated ~target:"scheduler" (fun _p _subject ->
            match System.scheduler system with
            | None -> Error No_scheduler
            | Some sc ->
                Ok (Sched_report { policy = sc.System.sc_policy (); counters = sc.System.sc_counters () }))
    | Sched_tune { param; value } ->
        call Ungated ~target:(Printf.sprintf "%s=%d" param value) (fun _p _subject ->
            match System.scheduler system with
            | None -> Error No_scheduler
            | Some sc -> (
                match sc.System.sc_tune ~param ~value with
                | Ok () -> Ok Done
                | Error detail -> Error (Bad_tune detail)))
    (* ----- The plant -----

       Operator surface: CPU count (one on a uniprocessor),
       connect/lock counters, per-CPU associative-memory populations.
       Pure inspection — it can move no descriptor and flush no
       cache. *)
    | Smp_status ->
        call Ungated ~target:"plant" (fun _p _subject ->
            let plant = System.plant system in
            let readings, cpus = Multics_smp.Smp.status plant in
            Ok (Smp_report { ncpus = Multics_smp.Smp.ncpus plant; plant = readings; cpus }))
end

