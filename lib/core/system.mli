(** The simulated Multics system: hierarchy, linker, accounts,
    processes, I/O buffers and audit trail, shaped by a {!Config.t}. *)

open Multics_access
open Multics_fs
open Multics_link
open Multics_machine

type t

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
  login_ring : Ring.t;
  mutable subsystem_stack : (string * Ring.t) list;
  assoc : Hardware.Assoc.t;
      (** the per-process SDW associative memory (the 6180's CAM);
          invalidated through the KST's descriptor-change hook *)
  mutable subject_memo : Policy.subject option;
      (** the current ring's subject record, rebuilt on ring change;
          re-presenting one record keeps its dense-SID memo hot *)
}

val create : Config.t -> t
(** Boot the system: run the configured initialization strategy and
    build the standard skeleton ([>sl1], [>udd], [>pdd]). *)

val copy : t -> t
(** A kernel in the same state that evolves independently: mediation,
    audit records, descriptors, caches (and their hit/miss behaviour)
    and the attached plant proceed exactly as in [t] from here.  The
    configuration, the gate table and every immutable value are
    shared; the hierarchy, the object store, the linker, the audit
    trail, the processes (KST, RNT, associative memory, re-wired
    setfaults hook) and the plant are copied.  The copy records into
    the calling domain's obs instruments, and its hierarchy folds in
    the calling domain's ACL generation — so it behaves as a kernel
    booted on the calling domain would.  Raises
    [Invalid_argument] if a fault plan, a scheduler or I/O buffers are
    attached.  The plant copy's clock and cycle sink start unset (see
    {!Multics_smp.Smp.copy}). *)

val config : t -> Config.t
val hierarchy : t -> Hierarchy.t
val store : t -> Object_seg.Store.t
val linker : t -> Linker.t
val audit : t -> Audit_log.t
val init_report : t -> Init.report
val cost : t -> Cost.t
val lib_dir : t -> Uid.t
val udd_dir : t -> Uid.t
val io_buffers : t -> (string, Multics_io.Network.strategy) Hashtbl.t

val clock : t -> Clock.t
(** System-level time: device retry backoffs and crash-journal stamps
    are charged here. *)

(** {1 Fault injection and the crash journal} *)

val set_faults : t -> Multics_fault.Fault.Injector.t option -> unit
(** Install (or clear) the active fault injector.  Fault decisions are
    computed entirely outside the reference monitor: an injected fault
    can add cost or force a refusal/abort, never widen access.  Also
    installs (or clears) the hierarchy's [Cache_flush] storm probe. *)

val flush_assoc_memories : t -> unit
(** Drop every process's SDW associative memory. *)

val invalidate_caches : t -> unit
(** Invalidate every cached access decision: the policy verdict cache
    plus each process's associative memory.  Run by the salvager after
    repairs and by the [cache clear] operator command. *)

val faults : t -> Multics_fault.Fault.Injector.t option

val fault_fires : t -> Multics_fault.Fault.site -> bool
(** Consult the active plan at a site (false when no plan). *)

(** {1 The traffic controller}

    [lib/sched] sits above this library, so the scheduler registers
    itself through a neutral record of closures — the [Sched_status]
    and [Sched_tune] gates reach it without a layering inversion. *)

type scheduler_control = {
  sc_policy : unit -> string;  (** active policy name (["mlf"], ["fifo"], ...) *)
  sc_counters : unit -> (string * int) list;  (** live counters, sorted by name *)
  sc_tune : param:string -> value:int -> (unit, string) result;
      (** adjust a mechanism parameter (["cap"], ["quantum"], ["age_after"]);
          [Error] explains a rejected parameter or value *)
}

val register_scheduler : t -> scheduler_control option -> unit

val scheduler : t -> scheduler_control option

(** {1 The multiprocessor plant}

    With a plant attached, every descriptor mutation (the KST's
    on-change hook) broadcasts a connect so no CPU's associative
    memory can outlive the descriptor it caches, and whole-system
    revocation ({!flush_assoc_memories}, {!invalidate_caches})
    flushes every CPU.  With none attached (the default) all
    coherence hooks are no-ops — the uniprocessor seed behaviour,
    byte for byte. *)

val attach_plant : t -> Multics_smp.Smp.t option -> unit

val plant : t -> Multics_smp.Smp.t option

(** {1 The gate table}

    Each booted kernel has one gate table: its configuration's gate
    catalog, keyed by name.  The gate check makes one lookup in it.  A
    per-workload specialisation installs a gate mask, the names of the
    gates the specialised kernel keeps; installing it rebuilds the
    table without the stripped gates.  A gate the configuration removed
    and a gate the mask stripped are then the same miss, refused with
    [Gate_absent] before any kernel state is touched.  Masks are plain
    strings so they live below [lib/spec] (which compiles workload
    profiles into them), the same layering trick as
    {!scheduler_control}.  With no mask installed the table is the
    whole catalog, byte for byte the unspecialised behaviour. *)

val gate_entry : t -> gate:string -> Gate.entry option
(** The running kernel's entry for [gate]: [None] if the configuration
    has no such gate or the installed mask stripped it. *)

val gate_admitted : t -> gate:string -> bool
(** [gate_entry t ~gate <> None]. *)

type gate_mask

val gate_mask_make : name:string -> gates:string list -> gate_mask
(** A mask keeping exactly [gates] (by gate name). *)

val gate_mask_name : gate_mask -> string

val gate_mask_gates : gate_mask -> string list
(** The kept gate names, sorted. *)

val set_gate_mask : t -> gate_mask option -> unit
(** Install (or clear, with [None]) the active specialisation, and
    rebuild the gate table to match. *)

val gate_mask : t -> gate_mask option

type journal_entry = {
  time : int;
  handle : int;
  operation : string;
  dir : Uid.t option;  (** directory holding the partially-made entry *)
  entry_name : string option;
}

val journal_crash :
  t -> handle:int -> operation:string -> ?dir:Uid.t -> ?entry_name:string -> unit -> unit
(** Record what the kernel knew when an injected abort tore down an
    operation mid-flight; consumed by the salvager. *)

val crash_journal : t -> journal_entry list
(** Oldest first. *)

val clear_crash_journal : t -> unit

val initializer_subject : Policy.subject
(** The system administrator/daemon identity, system-high. *)

(** {1 Accounts} *)

val add_account :
  t -> person:string -> project:string -> password:string -> clearance:Label.t -> account
(** Creates [>udd>Project>Person].  Raises [Invalid_argument] on a
    duplicate account. *)

val find_account : t -> person:string -> project:string -> account option

(** {1 Processes} *)

type login_error = Unknown_account | Bad_password | Level_above_clearance

val login_error_to_string : login_error -> string

val login :
  ?level:Label.t ->
  t ->
  person:string ->
  project:string ->
  password:string ->
  (int, login_error) result
(** Authenticate and create a process; returns its handle.  Under
    [Privileged_login] authentication runs in ring 0; under
    [Unified_subsystem_entry] it runs, non-privileged, through the
    ordinary subsystem-entry mechanism in ring 2.

    [level] is the session sensitivity level — it defaults to the full
    account clearance and must be dominated by it (log in low to write
    low). *)

val logout : t -> handle:int -> bool

val proc : t -> int -> proc option

val subject_of : proc -> Policy.subject
(** The subject for the process's current ring. *)

val process_count : t -> int
val handles : t -> int list

val install_known : t -> proc -> uid:Uid.t -> int
(** Make a segment known to the process and install its computed SDW;
    returns the segment number.  Idempotent per uid. *)

val setfaults : t -> uid:Uid.t -> unit
(** Revocation: recompute the descriptor for [uid] in every process
    holding one (the Multics "setfaults" mechanism, run after ACL or
    bracket changes). *)

val new_ipc_channel : t -> int
val ipc_channel : t -> int -> int ref option

val clone_process : t -> handle:int -> int option
(** Create another process for the same account (same principal and
    session level, fresh address space, primed like a login); [None] if
    the handle or its account is gone. *)

val sibling_handles : t -> handle:int -> int list
(** Handles belonging to the same person.project, sorted. *)

val process_dir_name : handle:int -> string
(** The name of the per-process directory under [>pdd]. *)

val pdd_dir : t -> Multics_fs.Uid.t
