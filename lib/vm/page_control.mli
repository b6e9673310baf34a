(** Page control over the three-level memory hierarchy, under the old
    sequential discipline (the faulting process runs the whole eviction
    cascade) and the paper's parallel discipline (dedicated core- and
    bulk-freeing kernel processes; the faulting process just waits for
    a free frame). *)

open Multics_mm
open Multics_proc

type discipline = Sequential | Parallel_processes

val discipline_name : discipline -> string

type t

val create :
  ?core_target:int ->
  ?faults:Multics_fault.Fault.Injector.t ->
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
    accessible). *)

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
    hit). *)

type victim_policy = Page_id.t list -> (Page_id.t * bool) list -> Page_id.t option

val set_victim_policy : t -> victim_policy -> unit
(** Replace the eviction policy (default: second-chance clock).  Used
    by the policy/mechanism partitioning experiment. *)

val memory : t -> Memory.t
val counters : t -> Multics_util.Stats.Counters.t

(** {1 The PTW lookaside}

    A {!Multics_cache.Avc}-backed cache of pages known core-resident,
    keyed by dense page SIDs ({!Multics_access.Sid.t}): a page id is
    interned once on first reference and the cache then works on small
    ints with an identity hash, which also gives each page a generation
    counter of its own (see {!Multics_cache.Avc.Gen}).  A hit skips
    the page-table walk ([Cost.ptw_fetch]); eviction invalidates the
    victim's entry in the same step it leaves core.  Obs counters
    under ["cache.vm.ptw.*"]. *)

val page_sid : t -> Page_id.t -> Multics_access.Sid.t
(** The page's dense SID (interned on first sight, never reused).
    The key the per-CPU PTW fronts (lib/smp) take. *)

val ptw_gens : t -> Multics_cache.Avc.Gen.t
(** The lookaside's generation counters, for per-CPU PTW fronts to
    share: an eviction's bump stales every sharing cache at once. *)

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
}

val summarize : t -> summary
