(** The kernel's gate-call interface.  Calls are refused when the gate
    is not in the running kernel's gate table (absent from the
    configuration, or stripped by an installed specialisation mask),
    when the caller's ring is outside the gate's call bracket, or when
    the reference monitor refuses the operation.  Every call from a
    live process is audited under its {!Call.operation_name}, refusals
    included.

    There is exactly one entry point: build a {!Call.request} and hand
    it to {!Call.dispatch}.  (The legacy per-gate wrapper functions —
    one OCaml function per supervisor entry, each privately rebuilding
    the audit/metering prologue — have completed their deprecation
    window and are gone: a second door is a second place the
    specialisation mask and the metering would have to hold.)  New
    supervisor entries are added as [Call.request] constructors. *)

open Multics_access
open Multics_fs
open Multics_link
open Multics_machine

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
      (** an injected fault denied, aborted, or gave up on the call —
          always a refusal, never a grant *)
  | Bad_fault_plan of string
  | No_scheduler  (** no traffic controller registered with the system *)
  | Bad_tune of string  (** the scheduler rejected a tuning parameter or value *)
  | Site_fenced of { site : int }
      (** the caller's home site is fenced pending salvage-and-resync;
          a fenced site refuses rather than risk serving a decision it
          could not prove fresh *)
  | Site_unreachable of { site : int }
      (** cross-site connects to this site went unacknowledged past
          the retry budget *)

val error_to_string : error -> string

val pp : Format.formatter -> error -> unit
(** Canonical human rendering; [error_to_string] is [Fmt.str "%a" pp]. *)

(** {1 Reply payload records} *)

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
  info_level : Multics_access.Label.t;
  info_known_segments : int;
  info_login_ring : int;
}

(** {1 The typed gate-call surface}

    One request constructor per supervisor entry point; {!Call.dispatch}
    is THE single audited, metered entry point. *)

module Call : sig
  type request =
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
    | Read_word of { segno : int; offset : int }
    | Write_word of { segno : int; offset : int; value : int }
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
        (** the [set_acl] supervisor entry addressed by tree name — the
            calling sequence replicated mutations replay on remote
            sites (same gate, same audit operation, same setfaults) *)
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
    | Snap_link of { segno : int; link_index : int }
    | List_links of { segno : int }
    | Set_search_rules of { dir_segnos : int list }
    | Get_search_rules
    | Enter_subsystem of { segno : int; entry_offset : int; name : string }
    | Exit_subsystem
    | Create_channel
    | Send_wakeup of { channel : int }
    | Block of { channel : int }
    | Attach_device of { device : Multics_io.Device.kind }
    | Detach_device of { device : Multics_io.Device.kind }
    | Device_write of { device : Multics_io.Device.kind; message : int }
    | Device_read of { device : Multics_io.Device.kind }
    | Create_process
    | Destroy_process of { target : int }
    | New_proc
    | Proc_info
    | List_processes
    | Operator_message of { message : string }
    | Set_fault_plan of { seed : int; spec : string }
    | Fault_status
    | Clear_faults
    | Salvage
    | Probe_access of { segno : int; requested : Mode.t }
    | Cache_status
    | Cache_clear
    | Sched_status
    | Sched_tune of { param : string; value : int }
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
    | Cache_report of {
        policy : (string * int) list;
        assoc : (string * int) list;
            (** the current CPU's SDW associative memory
                ({!Multics_smp.Smp.cam_status}) *)
      }
    | Sched_report of { policy : string; counters : (string * int) list }
    | Smp_report of {
        ncpus : int;
        plant : (string * int) list;  (** plant-wide readings *)
        cpus : (int * (string * int) list) list;  (** per-CPU readings *)
      }

  type response = (reply, error) result

  val operation_name : System.t -> request -> string
  (** The operation name the request is mediated, audited, and metered
      under.  Configuration-dependent for device I/O (per-device or
      network gates), for process management
      (["subsystem_entry:<gate>"] under unified login), and for the
      by-path attribute edits: [set_acl]/[set_brackets] while naming is
      in the kernel, [set_acl_by_path]/[set_brackets_by_path] (gates
      the kernel does not have) once it is out. *)

  val dispatch : System.t -> handle:int -> request -> response
  (** Mediate one gate call: one gate-table lookup (presence, with any
      specialisation mask already applied), ring bracket, reference
      monitor; writes the audit record and the observability
      counters. *)
end
