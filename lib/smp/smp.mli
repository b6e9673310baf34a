(** The multiprocessor plant: N simulated CPUs, each with its own SDW
    and PTW associative memories, a shared global lock with a
    deterministic cycle-accounted contention model, and the connect
    (inter-processor interrupt) protocol that keeps every CPU's cached
    descriptors coherent with the live ones.  Every kernel has one
    ([System.plant]) and so does every page control
    ([Multics_vm.Page_control]); a uniprocessor is a plant of one CPU,
    so this is the one place a descriptor or a page-table word is
    cached.

    The design contract, matching the paper's multiprocessor 6180:

    - coherence is synchronous — a descriptor mutation does not return
      until every CPU's associative memories have been invalidated;
    - a lost connect ([smp.lost_connect] fault site) is detected by
      acknowledgement timeout and fails secure: the sender stalls and
      re-signals (then fences the target through the system controller
      after repeated losses) — cycles are lost, a stale Permit never;
    - everything here is timing, not results: an N-CPU run produces
      the same mediation verdicts and audit digest as the 1-CPU run
      (experiment E18's coherence-parity oracle). *)

open Multics_machine

val max_cpus : int

val default_ncpus : unit -> int
(** [MULTICS_NCPU] from the environment when it parses as 1..{!max_cpus};
    1 otherwise.  The shell's boot reads it; no library does. *)

(** The shared global lock: deterministic contention.  The lock
    remembers when it next falls free; an acquirer waits out the
    remainder, then holds it.  Obs instruments live under
    ["<name>.acquisitions"/".contended"/".wait"]. *)
module Lock : sig
  type t

  val create : name:string -> t
  val name : t -> string
  val free_at : t -> int

  val acquire : t -> now:int -> hold:int -> int
  (** Acquire at simulated time [now], holding for [hold] cycles;
      returns the wait in cycles, for the caller to charge to whoever
      was acquiring. *)
end

(** The delivery discipline shared by the per-CPU connect broadcast
    and the inter-site fleet ({!Multics_site.Site}): signal, wait for
    the acknowledgement, retry on loss, and past the retry budget hand
    the target to an escalation path (the system controller here;
    fencing in the fleet).  Every branch either confirms the target
    cleared or escalates — no exit leaves the target possibly stale. *)
module Connect : sig
  type outcome =
    | Delivered of { attempts : int; cycles : int }
    | Escalated of { attempts : int; cycles : int }

  val cycles_of : outcome -> int

  val deliver :
    max_retries:int ->
    attempt:(int -> [ `Acked of int | `Lost of int ]) ->
    escalate:(unit -> int) ->
    outcome
  (** [attempt n] makes the nth signalling attempt, reporting
      [`Acked cycles] (target confirmed cleared; cost includes the
      acknowledgement) or [`Lost cycles] (no acknowledgement within
      the timeout; cost includes the wasted wait).  After
      [max_retries] losses, [escalate ()] must resolve the target by
      other means and return its cycle cost. *)
end

val ack_timeout : Cost.t -> int
(** How long a sender waits for a connect acknowledgement before
    declaring the connect lost: a few IPI round trips. *)

val max_retries : int
(** Losses tolerated on one target before the escalation path runs. *)

type t

val create : ncpus:int -> cost:Cost.t -> unit -> t
(** Raises [Invalid_argument] unless [ncpus] is in 1..{!max_cpus}.
    Each CPU gets a 16-slot SDW memory and a 64-slot PTW memory.  Obs
    instruments: ["smp.connects.sent"/".lost"/".retries"/".rescues"],
    the ["smp.connect.cycles"] histogram, ["smp.lock.*"] and the
    ["cache.hw.assoc.*"] (SDW) and ["cache.vm.ptw.*"] (PTW) families. *)

val copy : t -> t
(** A plant in the same state — both of every CPU's memories, connect
    counts, current CPU, lock, deferred mode and queued connects — that
    evolves independently of [t] and records into the calling domain's
    instruments.  Its clock and cycle sink start as {!create} leaves
    them, for the owner to set; raises [Invalid_argument] if [t] has a
    fault plan. *)

val ncpus : t -> int
val cost : t -> Cost.t
val lock : t -> Lock.t

val set_now : t -> (unit -> int) -> unit
(** Supply the simulated clock (e.g. [fun () -> Sim.now sim]); the
    plant never reads a wall clock. *)

val set_faults : t -> Multics_fault.Fault.Injector.t option -> unit
(** The only site consulted is [Smp_lost_connect]. *)

val set_charge : t -> (int -> unit) -> unit
(** Where connect/lock cycle bills go (e.g. [Sim.perturb] against the
    calling process).  Default: dropped (obs still records them). *)

val set_current : t -> int -> unit
(** Which CPU the currently running work executes on; raises
    [Invalid_argument] for an unknown CPU. *)

val current : t -> int

val cpu_for : t -> key:int -> int
(** Deterministic home CPU for an integer key (a pid, a handle). *)

(** {1 The connect protocol}

    Both calls return only after every CPU has been cleared. *)

val connect_invalidate : t -> handle:int -> segno:int -> unit
(** "setfaults" for one process's descriptor: revoke its entry on every
    CPU (the originator inline, the rest via connects).  A negative
    segment number, or one of 4,096 or more, is never cached (see
    {!check_sdw}), so it sends nothing. *)

val connect_flush_all : t -> unit
(** Whole-system revocation (salvage, cache clear): flush both of every
    CPU's memories. *)

(** {1 The deferred-connect bug mode}

    The pre-PR 5 stale-Permit window, re-enableable under a switch so
    the model checker's seeded-bug leg can demonstrate finding the
    counterexample trace.  While enabled, [connect_invalidate] /
    [connect_flush_all] clear the originating CPU inline but only
    queue the remote clears; a remote CPU's associative memory stays
    possibly-stale until [deliver_connects] drains its queue.  Never
    enable outside the checker. *)

val set_deferred_connects : t -> bool -> unit
(** Turning the mode {e off} first delivers everything still queued,
    restoring coherence. *)

val deferred_connects : t -> bool

val deliver_connects : t -> cpu:int -> int
(** Deliver every queued connect addressed to [cpu], in arrival
    order; returns how many were delivered. *)

val pending_connects : t -> (int * string) list
(** The queued [(target cpu, tag)] pairs in arrival order — part of
    the checker's canonical state. *)

(** {1 Read-only cache enumeration}

    For the checker's invariant walk: what would currently hit, with
    no counter movement. *)

val cam_entries : t -> cpu:int -> (int * Sdw.t) list
(** Fresh entries of that CPU's SDW associative memory, keyed by the
    composite [(handle, segno)] key — decompose with
    {!split_cam_key}. *)

val fronts_stamp : t -> cpu:int -> int
(** A change stamp of that CPU's two memories, built from their
    {!Hardware.Assoc.stamp}s.  While it stands still, {!cam_entries}
    and {!ptw_keys} answer as before; {!copy} keeps it. *)

val ptw_keys : t -> cpu:int -> int list
(** Fresh page-SID keys of that CPU's PTW memory. *)

val split_cam_key : int -> int * int
(** [(handle, segno)] from a composite CAM key; the inverse of the
    key {!check_sdw} installs under. *)

(** {1 Per-CPU mediation fronts} *)

val check_sdw :
  t ->
  handle:int ->
  segno:int ->
  fetch:(unit -> Sdw.t option) ->
  ring:Ring.t ->
  operation:Hardware.operation ->
  Hardware.decision option
(** {!Hardware.check_via_assoc} on the current CPU's CAM, in front of
    the KST fetch.  Brackets and mode are still checked per reference;
    only the descriptor fetch is skipped on a hit.  CAM entries are
    keyed by the composite [(handle, segno)] pair, so two processes'
    descriptors can never be confused and a process switch needs no
    flush.  Only a segment number in 0..4,095 has a key: any other is
    fetched and checked on every reference, never installed, so no two
    segment numbers share an entry. *)

(** {1 Per-CPU PTW memories}

    Keyed by a dense page SID (page control interns one per page).
    An entry vouches that the page is in core, so a hit skips the
    page-table walk ([Cost.ptw_fetch]). *)

val ptw_lookup : t -> cpu:int -> page:Multics_access.Sid.t -> bool
(** Whether [cpu]'s PTW memory holds the page; counts a hit or a miss
    under ["cache.vm.ptw.*"]. *)

val ptw_install : t -> cpu:int -> page:Multics_access.Sid.t -> unit
(** Record that [cpu] walked the page's table. *)

val ptw_invalidate : t -> page:Multics_access.Sid.t -> unit
(** The page left core: revoke its entry on every CPU, in this step.
    Sends no connect and charges no cycles. *)

(** {1 Dispatcher lock} *)

val dispatch_lock : t -> now:int -> int
(** Acquire the global lock for one run-selection from the shared
    ready structure; returns the wait to charge to the dispatched
    process. *)

(** {1 Status} *)

val cam_status : t -> (string * int) list
(** The current CPU's SDW associative memory: its population
    (["size"]) then the ["cache.hw.assoc.*"] counter readings (shared
    by every CPU's) — the [Cache_status] gate's payload. *)

val cpu_status : t -> int -> (string * int) list

val status : t -> (string * int) list * (int * (string * int) list) list
(** [(plant-wide readings, per-CPU readings)] — the [smp status]
    shell command's payload. *)

val connect_cycles : t -> Multics_obs.Obs.Histogram.t
