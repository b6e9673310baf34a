(** Kernel observability: monotonic counters, gauges and log-bucketed
    cycle histograms, collected in named registries and rendered as
    text tables or JSON.

    The library is dependency-free and built for instrumentation of hot
    paths: every recording primitive is gated on one domain-local
    switch, so the disabled cost of an instrumented site is a single
    load-and-branch.  All mutable state — the switch, the default
    registry, the instruments — is domain-local, so per-seed experiment
    tasks running on worker domains (lib/par) record into private
    registries and never race; the harness folds each task's
    {!Snapshot} back into the caller with {!Snapshot.absorb}.
    Instrumented modules obtain their instruments through {!Local}
    handles; a {!Snapshot} captures a registry at a point in time for
    rendering, differencing or merging. *)

val enabled : unit -> bool
(** Whether recording primitives currently have any effect in this
    domain. *)

val set_enabled : bool -> unit
(** Flip the calling domain's switch.  Instruments keep their
    accumulated values when disabled; recording simply stops.  Each
    instrument tests the switch of the domain whose registry created
    it (so recording costs no domain-local lookup); instruments are
    meant to be used on that domain only. *)

val with_disabled : (unit -> 'a) -> 'a
(** Run a thunk with recording off, restoring the previous state. *)

(** {1 Instruments} *)

(** A named monotonic counter. *)
module Counter : sig
  type t

  val name : t -> string
  val incr : ?by:int -> t -> unit
  val get : t -> int

  val recording : t -> bool
  (** Whether [incr] records: {!enabled} for the domain the counter
      belongs to, read from the counter itself, so a call site that
      already holds its instruments tests the switch without a
      domain-local lookup. *)
end

(** A named reading that each write replaces, such as a table or queue
    depth.  Its value is the last write, so gauges merge by the last
    write in task order where counters add (see {!Snapshot.merge}). *)
module Gauge : sig
  type t

  val name : t -> string
  val set : t -> int -> unit
  val get : t -> int
end

(** A histogram over non-negative integer samples (cycle counts,
    latencies), log2-bucketed: bucket [i] holds samples whose highest
    set bit is [i], i.e. the range [2^i .. 2^(i+1)-1] (bucket 0 holds 0
    and 1).  Constant memory, constant-time observe. *)
module Histogram : sig
  type t

  val name : t -> string
  val observe : t -> int -> unit
  val count : t -> int

  val sum : t -> int
  (** Sum of all observed samples.  Saturates at [max_int] instead of
      wrapping (multi-billion-cycle SMP runs overflow a naive running
      total); once pinned, {!saturated} reports true and the sum is a
      lower bound. *)

  val saturated : t -> bool
  (** Whether {!sum} hit the [max_int] ceiling. *)

  val mean : t -> float
  val min_value : t -> int
  (** Smallest observed sample; 0 when empty. *)

  val max_value : t -> int
  val buckets : t -> (int * int) list
  (** Non-empty buckets as (bucket lower bound, sample count), ascending. *)

  val quantile : t -> float -> int
  (** Upper bound of the bucket holding the given quantile (0 when
      empty).  An estimate: exact to within the bucket's factor of 2. *)

  val bucket_index : int -> int
  (** The bucket a sample lands in (exposed for tests). *)

  val bucket_lower_bound : int -> int
  (** Smallest sample value of bucket [i]. *)
end

(** {1 Registries} *)

(** A named collection of instruments.  Instruments are created on
    first lookup and memoized by name, so call sites may re-resolve
    freely; hot paths should resolve once at module initialization. *)
module Registry : sig
  type t

  val create : name:string -> t
  val name : t -> string

  val global : unit -> t
  (** The calling domain's default registry — the one every kernel
      subsystem records into.  Each domain gets its own, lazily created
      on first use, so parallel per-seed tasks never share instruments. *)

  val counter : t -> string -> Counter.t
  val gauge : t -> string -> Gauge.t
  val histogram : t -> string -> Histogram.t

  val counters : t -> (string * int) list
  (** Current counter readings, sorted by name. *)

  val reset : t -> unit
  (** Zero every instrument (they remain registered); a gauge counts as
      unset until its next write. *)
end

(** {1 Domain-local instrument handles}

    A module-level [let obs_x = Registry.counter (Registry.global ()) "x"]
    would capture the initialising domain's instrument forever; a worker
    domain incrementing it would race domain 0.  A {!Local} handle
    instead memoizes, per domain, the instrument of {e that} domain's
    default registry — resolution is one domain-local load on the hot
    path.  Instrumented modules bind handles at module initialization
    and call them at recording sites: [Counter.incr (obs_x ())]. *)
module Local : sig
  type 'a handle = unit -> 'a

  val make : (Registry.t -> 'a) -> 'a handle
  (** [make resolve] is [resolve] applied to the calling domain's
      default registry, once per domain.  A module that records into
      several instruments on every call resolves them as one record,
      so a call site pays one domain-local load for all of them. *)

  val counter : string -> Counter.t handle
  val gauge : string -> Gauge.t handle
  val histogram : string -> Histogram.t handle

  val keyed : (Registry.t -> string -> 'a) -> string -> 'a
  (** A family of instruments named by parts.  [keyed resolve part]
      returns [resolve registry part] for the calling domain's default
      registry, memoized per domain and per [part]: the instrument name
      is built once, e.g.
      [keyed (fun r op -> Registry.counter r ("gate." ^ op ^ ".calls"))],
      and a later call with the same part is one domain-local load and
      a hash of the part.  An instrument resolved on one domain is
      never returned on another.  The memo is never pruned, so parts
      must come from a finite set (gate, cache or configuration
      names). *)

  val family : Registry.t -> (Registry.t -> string -> 'a) -> string -> 'a
  (** [keyed] without the domain-local lookup: the memo belongs to the
      caller, who resolves it once per domain (for example as a field
      of a {!make} record) and uses it on that domain only. *)
end

(** {1 Snapshots} *)

module Snapshot : sig
  type histogram_data = {
    count : int;
    sum : int;
    min_value : int;
    max_value : int;
    saturated : bool;  (** sum hit the [max_int] ceiling; it is a lower bound *)
    buckets : (int * int) list;  (** (bucket lower bound, count) *)
  }

  type t = {
    registry : string;
    counters : (string * int) list;
        (** counter readings, and the readings of gauges set since the
            registry's last reset; sorted by name *)
    gauges : string list;  (** the names in [counters] that are gauges, sorted *)
    histograms : (string * histogram_data) list;
  }

  val capture : ?registry:Registry.t -> unit -> t
  (** Default registry: the calling domain's [Registry.global ()]. *)

  val diff : before:t -> after:t -> t
  (** Per-instrument difference [after - before]; instruments absent
      from [before] are taken as zero.  A gauge is not differenced: it
      keeps its [after] reading.  Used to attribute activity to a
      bounded phase (one experiment, one command). *)

  val merge : t -> t -> t
  (** Instrument-wise merge of two snapshots, the second taken as the
      later: counters and histogram bucket counts add, a gauge takes the
      second snapshot's reading when it has one, histogram sums saturate at [max_int] exactly as live
      observation does — merging two saturated snapshots stays
      saturated (never wraps).  Keyed union: instruments present on one
      side only pass through. *)

  val absorb : ?into:Registry.t -> t -> unit
  (** Fold a snapshot into live instruments (created on demand): add its
      counter and histogram totals, and write its gauge readings.
      This is the parallel join path: each worker task's private
      recordings are folded back into the caller's registry in task
      order, so counter totals match a sequential run and each gauge
      holds the last write in task order, as it would sequentially; a
      task that never set a gauge leaves the earlier reading.  Bypasses
      the {!enabled} gate — the activity was already recorded once under
      the worker's own gate.  Default registry: [Registry.global ()]. *)

  val is_empty : t -> bool
  (** No counters or histograms with any recorded activity. *)

  val to_text : t -> string
  (** An aligned, sectioned text table (the shell's [stats] output). *)

  val to_json : t -> string
  (** One JSON object; keys [registry], [counters], [histograms]. *)
end
