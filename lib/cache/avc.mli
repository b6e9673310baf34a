(** A fixed-capacity, epoch-versioned decision cache.  It backs page
    control's PTW lookaside and each CPU's PTW front; each keys by a
    small integer (a page SID) that also names the object its decision
    derives from.  (The policy-verdict cache is
    [Multics_access.Av_table], which shares only {!Gen} and the counter
    names; each CPU's SDW associative memory is
    [Multics_machine.Hardware.Assoc], which clears its own slot.)

    Revocation correctness is the design center: entries are stamped
    with generation counters (one global, one per object id) at
    insertion, and any mutation that could change a cached decision
    bumps a counter.  A lookup whose stamps are stale is a miss — the
    entry is dropped on the spot — so invalidation is immediate, never
    TTL-based, and a stale Permit can never outlive the authority that
    granted it. *)

(** Generation counters.  A [Gen.t] may be shared by several caches so
    one bump invalidates every decision derived from the mutated
    object.

    Ids in [\[0, dense_limit)] have a counter each, in one flat array
    that grows by doubling to the highest id bumped and so never
    exceeds {!dense_limit} entries.  Every other id shares one overflow
    counter: a bump of one stales the entries of all of them — more
    than needed, never a revoked entry brought back. *)
module Gen : sig
  type t

  val dense_limit : int
  (** [2^16]: ids below it (and at or above 0) have counters of their
      own. *)

  val create : unit -> t

  val global : t -> int
  (** The global generation, which only {!bump_global} advances. *)

  val of_object : t -> int -> int

  val bump_global : t -> unit
  (** Invalidate every entry of every cache sharing this [Gen.t]. *)

  val bump_object : t -> int -> unit
  (** Invalidate entries whose decisions derive from object [obj] (and,
      for an id outside [\[0, dense_limit)], from every such id). *)

  val copy : t -> t
  (** Counters of its own that read exactly as [t]'s read now: every
      stamp fresh in [t] is fresh in the copy, and no stale one is.
      Later bumps of either side do not reach the other. *)
end

type 'v t

val create : capacity:int -> ?gens:Gen.t -> name:string -> unit -> 'v t
(** [capacity] is rounded up to a power of two.  The table is a
    direct-mapped slot array (hardware-style): key [k] lives in slot
    [k land (capacity - 1)], and an insertion whose slot is occupied by
    a different key displaces the resident entry rather than maintain
    LRU bookkeeping.  Displacement only ever discards a cached
    decision, so it is always sound.  Counters are registered in
    {!Multics_obs.Obs.Registry.global} under
    ["cache.<name>.hits"/"misses"/"invalidations"/"insertions"/
    "flushes"]; instances sharing a [name] share counters. *)

(** The obs counters behind a cache name: ["cache.<name>.hits"] and so
    on, resolved once per domain and name (see
    {!Multics_obs.Obs.Local.keyed}).  {!create} uses them, and so does
    any other decision table that reports under the same scheme. *)
type instruments = {
  hits : Multics_obs.Obs.Counter.t;
  misses : Multics_obs.Obs.Counter.t;
  invalidations : Multics_obs.Obs.Counter.t;
  insertions : Multics_obs.Obs.Counter.t;
  flushes : Multics_obs.Obs.Counter.t;
}

val instruments : string -> instruments

val copy : ?gens:Gen.t -> 'v t -> 'v t
(** The same entries, answering every lookup as [t] would now, stamped
    against [gens] (default: a {!Gen.copy} of [t]'s).  The copy records
    into the calling domain's counters. *)

val capacity : 'v t -> int
val gens : 'v t -> Gen.t
val size : 'v t -> int

val find : 'v t -> int -> 'v option
(** Stale entries (stamp mismatch) are dropped and counted as an
    invalidation plus a miss. *)

val add : 'v t -> int -> 'v -> unit
(** Insert a decision under its key, stamped with the current global
    generation and the key's own object generation. *)

val entries : 'v t -> (int * 'v) list
(** Key/value pairs of the entries that would currently hit (stale
    entries are skipped); order unspecified.  Read-only: no counter
    moves, no entry is dropped.  For invariant checks. *)

val invalidate_object : 'v t -> int -> unit
(** Stale every entry whose key is the given object id: a bump of its
    generation (see {!Gen.bump_object}). *)

val flush : 'v t -> unit

val counters : 'v t -> (string * int) list
(** Current readings of this cache's obs counters (shared by name). *)
