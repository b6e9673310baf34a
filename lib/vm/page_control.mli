(** Page control over the three-level memory hierarchy, under the old
    sequential discipline (the faulting process runs the whole eviction
    cascade) and the paper's parallel discipline (dedicated core- and
    bulk-freeing kernel processes; the faulting process just waits for
    a free frame).  References run on a plant's CPUs
    ({!Multics_smp.Smp}), and each CPU's PTW associative memory is the
    one place a page-table word is cached. *)

open Multics_mm
open Multics_proc

type discipline = Sequential | Parallel_processes

val discipline_name : discipline -> string

type t

val create :
  ?core_target:int ->
  ?faults:Multics_fault.Fault.Injector.t ->
  ?plant:Multics_smp.Smp.t ->
  Sim.t ->
  mem:Memory.t ->
  discipline:discipline ->
  t
(** [core_target] (default 2) and a bulk-store target of 2 are the
    free-block watermarks the dedicated processes maintain (parallel
    discipline only); a fresh page costs 300 cycles to zero-fill.
    [faults] injects [Page_read]/[Page_write] parity errors and
    [Evict] failures; each costs one wasted device attempt and is
    retried unconditionally (the retry never re-consults the plan, so
    no schedule can livelock page control or change what is
    accessible).  [plant] (default: a fresh one-CPU plant on the
    simulator's cost model) holds the CPUs references run on. *)

val set_faults : t -> Multics_fault.Fault.Injector.t option -> unit
(** Install (or clear) the fault injector after creation. *)

val start : t -> unit
(** Spawn the dedicated kernel processes (parallel discipline; no-op
    for sequential).  Idempotent.  Each reserves a virtual processor. *)

val core_freer_pid : t -> Sim.pid option
val bulk_freer_pid : t -> Sim.pid option

val reference : ?write:bool -> t -> pid:Sim.pid -> page:Page_id.t -> int
(** Touch a page from inside a running process body ([pid] is the
    caller's own pid, used for fault attribution).  Handles the page
    fault if the page is not in core.  Returns the number of
    page-control steps the faulting process itself executed (0 on a
    hit).

    The reference runs on the plant's current CPU
    ({!Multics_smp.Smp.current}), read once when it begins: a hit in
    that CPU's PTW memory costs [Cost.memory_reference]; a miss on a
    page in core costs [Cost.ptw_fetch] more (the page-table walk) and
    installs the PTW; a fault installs it once the page is in, on the
    same CPU even if the fault blocked while the current CPU moved.
    Evicting a page revokes its PTW on every CPU, with no connect and
    no cycles charged.  Obs counters under ["cache.vm.ptw.*"]. *)

type victim_policy = Page_id.t list -> (Page_id.t * bool) list -> Page_id.t option

val set_victim_policy : t -> victim_policy -> unit
(** Replace the eviction policy (default: second-chance clock).  Used
    by the policy/mechanism partitioning experiment. *)

val memory : t -> Memory.t

(** {1 Fault accounting} *)

type fault_record = {
  pid : Sim.pid;
  page : Page_id.t;
  latency : int;
  steps : int;
  cascaded : bool;  (** the faulting process freed core itself *)
  deep_cascade : bool;  (** ... and had to free bulk store too *)
}

val faults : t -> fault_record list
(** In fault-completion order. *)

val fault_count : t -> int

type summary = {
  discipline : discipline;
  fault_total : int;
  latency : Multics_util.Stats.summary;
  steps : Multics_util.Stats.summary;
  cascaded_faults : int;
  deep_cascade_faults : int;
  page_ins : int;  (** pages read back into core from bulk or disk *)
  core_to_bulk : int;  (** evictions from core to the bulk store *)
  bulk_to_disk : int;  (** evictions from the bulk store to disk *)
}

val summarize : t -> summary
