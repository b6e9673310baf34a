(** A generic fixed-capacity, epoch-versioned decision cache — the
    simulated counterpart of the 6180's associative memory, generalised
    to back the policy-verdict cache, the per-process SDW associative
    memory and the PTW lookaside.

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

    {b Sparse-table pruning rule.}  Per-object counters for hashed ids
    (page ids and the like) live in a sparse hashtable; on a long run
    those ids churn forever and the table would grow without bound.
    When a bump would push the table past an internal limit it is
    {e epoch-compacted}: the global generation is bumped first — staling
    every entry of every cache sharing the [Gen.t] — and only then is
    the table cleared.  Dropping a single object's counter in isolation
    would be unsound (an entry stamped with the pre-bump counter would
    read as fresh again once the counter resets to 0 — a revoked Permit
    resurrected); compaction after a global bump cannot resurrect
    anything because no pre-compaction stamp can match the new global
    epoch.  The cost is one full-flush-equivalent miss storm per
    [2^12] distinct hashed objects — performance, never correctness. *)
module Gen : sig
  type t

  type epoch
  (** A counter owned outside the cache that can only advance — e.g.
      the domain's ACL mutation generation. *)

  val new_epoch : unit -> epoch
  val advance : epoch -> unit

  val create : ?epoch:epoch -> unit -> t
  (** [epoch] (default: one that never advances) is folded into
      {!global}: whenever it advances, every entry of every cache
      sharing this [Gen.t] is stale, exactly as after {!bump_global}.
      It is read on lookup, never subscribed to, so its owner keeps
      no reference to this [Gen.t]. *)

  val global : t -> int
  (** The bumped global generation plus the epoch. *)

  val of_object : t -> int -> int

  val bump_global : t -> unit
  (** Invalidate every entry of every cache sharing this [Gen.t]. *)

  val bump_object : t -> int -> unit
  (** Invalidate entries whose decisions derive from object [obj].
      May trigger an epoch compaction (see the pruning rule above). *)

  val sparse_limit : int
  (** Size bound on the sparse per-object table; reaching it triggers
      compaction. *)

  val compact : t -> unit
  (** Force an epoch compaction: bump the global generation, then clear
      the sparse table.  Sound by the pruning rule above. *)

  val sparse_size : t -> int
  (** Current sparse-table population (for tests and gauges). *)

  val compactions : t -> int
  (** Number of compactions performed on this [Gen.t]; also counted
      globally under ["cache.gen.compactions"]. *)

  val set_epoch : t -> epoch -> unit
  (** Fold [epoch] into {!global} in place of the current one, rebased
      so that {!global} reads what it reads now: every stamp fresh
      before is fresh after, and no stale one revives.  From then on
      only [epoch] advancing stales every entry. *)

  val copy : ?epoch:epoch -> t -> t
  (** Counters of its own that read exactly as [t]'s read now: every
      stamp fresh in [t] is fresh in the copy, and no stale one is.
      [epoch] (default [t]'s) is the copy's external epoch (see
      {!set_epoch}); later bumps of either side do not reach the
      other. *)
end

type ('k, 'v) t

val create :
  ?capacity:int ->
  ?gens:Gen.t ->
  ?hash:('k -> int) ->
  ?equal:('k -> 'k -> bool) ->
  name:string ->
  unit ->
  ('k, 'v) t
(** [capacity] defaults to 256 and is rounded up to a power of two.
    The table is a direct-mapped slot array (hardware-style): an
    insertion whose slot is occupied by a different key displaces the
    resident entry rather than maintain LRU bookkeeping.  Displacement
    only ever discards a cached decision, so it is always sound.
    Counters are registered in {!Multics_obs.Obs.Registry.global} under
    ["cache.<name>.hits"/"misses"/"invalidations"/"insertions"/
    "flushes"]; instances sharing a [name] share counters.

    [hash]/[equal] default to the polymorphic [Hashtbl.hash] and [=].
    Hot-path instances should supply a cheap [hash] (a few integer
    mixes): the polymorphic hash re-traverses the whole key on every
    lookup, which can cost more than the decision the cache was meant
    to bypass.  [hash] need not be injective — two keys mapping to the
    same slot simply displace one another; [equal] keeps a collision
    from ever being mistaken for a hit. *)

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

val copy : ?gens:Gen.t -> ('k, 'v) t -> ('k, 'v) t
(** The same entries, answering every lookup as [t] would now, stamped
    against [gens] (default: a {!Gen.copy} of [t]'s).  The copy has no
    flush probe (a probe fires its source's fault injector) and records
    into the calling domain's counters. *)

val name : ('k, 'v) t -> string
val capacity : ('k, 'v) t -> int
val gens : ('k, 'v) t -> Gen.t
val size : ('k, 'v) t -> int

val set_flush_probe : ('k, 'v) t -> (unit -> bool) option -> unit
(** Install a fault-injection probe consulted on every lookup; when it
    fires the cache is flushed first (the [cache.flush] storm site).
    Flush storms cost performance, never correctness. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Stale entries (stamp mismatch) are dropped and counted as an
    invalidation plus a miss. *)

val add : ('k, 'v) t -> obj:int -> 'k -> 'v -> unit
(** Insert a decision derived from object [obj], stamped with the
    current generations. *)

val find_or_add : ('k, 'v) t -> obj:int -> 'k -> (unit -> 'v) -> 'v * bool
(** [find_or_add t ~obj key compute] returns [(value, was_hit)]. *)

val keys : ('k, 'v) t -> 'k list
(** Keys of the entries that would currently hit (stale entries are
    skipped); order unspecified.  For invariant checks. *)

val entries : ('k, 'v) t -> ('k * 'v) list
(** Key/value pairs of the entries that would currently hit (stale
    entries are skipped); order unspecified.  Read-only: no counter
    moves, no entry is dropped.  For invariant checks. *)

val invalidate_object : ('k, 'v) t -> int -> unit
val invalidate_all : ('k, 'v) t -> unit
val flush : ('k, 'v) t -> unit

val counters : ('k, 'v) t -> (string * int) list
(** Current readings of this cache's obs counters (shared by name). *)

val hit_ratio : ('k, 'v) t -> float
(** hits / (hits + misses), 0 when no lookups yet. *)
