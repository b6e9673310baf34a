(** The compiled access-vector table: Policy + ring brackets compiled
    per (subject SID, object uid) into a preallocated 2-D int array of
    access-vector bits.  A hit is an array load — no allocation, no
    hashing, no structured comparison.

    Revocation correctness rests on the table's own generation
    counters ({!Gen}): every cell carries the global and per-object
    stamps current when it was compiled, and any ACL edit, label
    change, bracket change, delete, rename or salvage bumps a counter
    ({!invalidate_object}, {!invalidate_all}), so a revoked cell reads
    as empty on the next reference and is refilled lazily (or eagerly
    via {!rebuild}).

    Soundness of the encoding: permission is conjunctive per mode bit,
    so six bits (r/e/w policy grants plus bracket-read/bracket-write)
    decide every (subject, object, mode) question exactly.  Refusal
    details are not compiled; uncovered requests fall back to the
    structured recompute path, which keeps refusal lists and audit
    counters byte-identical to the uncached kernel. *)

open Multics_machine

(** {1 Access-vector bits} *)

val bit_read : int
val bit_execute : int
val bit_write : int
val bit_bracket_read : int
val bit_bracket_write : int

val required : Mode.t -> int
(** The bits a request must cover: observe modes need the read
    bracket, write needs the write bracket. *)

val covers : av:int -> need:int -> bool

val compute :
  subject:Policy.subject -> object_label:Label.t -> acl:Acl.t -> brackets:Brackets.t -> int
(** Compile one cell: the conjunctive form of [Policy.check] (with the
    trusted-subject carve-out) and the bracket rule.  Held pointwise
    equal to the structured path by the E19 oracle and the unit
    tests. *)

(** {1 Generation counters}

    Each table owns one global counter and one per object id.  Ids in
    [\[0, dense_limit)] have a counter each, in one flat array grown
    by doubling to the highest id bumped; every other id shares one
    overflow counter, whose bump stales the cells of all of them — more
    than needed, never a revoked cell brought back.  Exported for the
    unit tests. *)
module Gen : sig
  type t

  val dense_limit : int
  (** [2^16]. *)

  val create : unit -> t
  val global : t -> int
  val of_object : t -> int -> int
  val bump_global : t -> unit
  val bump_object : t -> int -> unit

  val copy : t -> t
  (** Counters of its own that read exactly as [t]'s read now; later
      bumps of either side do not reach the other. *)
end

(** {1 The table} *)

type t

val create : ?subjects:int -> ?objects:int -> name:string -> unit -> t
(** Preallocates [subjects] rows by [objects] columns (defaults 2 by
    16, so creating a table costs almost nothing), both grown
    geometrically on insertion; a lookup past the allocated capacity
    is an ordinary counted miss.  Columns are capped at
    {!Gen.dense_limit}, past which cells simply recompute.  Counters
    are registered under ["cache.<name>.hits"/"misses"/
    "invalidations"/"insertions"/"flushes"], the field names of
    {!Multics_machine.Hardware.Assoc}, so status surfaces need not care
    which mechanism serves them. *)

val copy : t -> t
(** The same cells, stamps, generations and subject SIDs, so every
    cell reads fresh or stale exactly as in [t]; later changes to
    either do not reach the other.  No flush probe; the copy records
    into the calling domain's counters. *)

val name : t -> string

val invalidate_object : t -> int -> unit
(** Revoke every cell of object [obj] (and, for an id outside
    [\[0, Gen.dense_limit)], of every such id): a bump of its
    generation. *)

val invalidate_all : t -> unit
(** Revoke every cell: a bump of the global generation. *)

val subject_sid : t -> Policy.subject -> Sid.t
(** Intern (or recall, via the subject's memo stamp — two int
    compares) the subject's row. *)

val subject_count : t -> int

val find : t -> subj:Sid.t -> obj:int -> int
(** The hot lookup: the cell's access vector, or [-1] for a miss
    (empty, stale, or out of range).  Returns an int, not an option,
    so a hit allocates nothing.  Stale cells are marked empty and
    counted as an invalidation plus a miss. *)

val peek : t -> subject:Policy.subject -> obj:int -> int
(** The subject's cell for [obj] as {!find} would read it now: its
    access vector if it is fresh, [-1] if a lookup would miss (empty,
    stale, out of range, or a subject with no row yet).  Writes
    nothing — no SID interned, no stale cell marked, no counter moved —
    and consults no flush probe. *)

val set : t -> subj:Sid.t -> obj:int -> int -> unit
(** Fill a cell, stamped with the current generations. *)

val flush : t -> unit
(** Empty every cell outright (storage, not just staleness). *)

val set_flush_probe : t -> (unit -> bool) option -> unit
(** The fault-injection probe ([cache.flush] storms), consulted on
    every lookup; when it fires the table is flushed first. *)

val size : t -> int
(** Fresh-cell population (a bounded scan, for status surfaces). *)

val counters : t -> (string * int) list
val hit_ratio : t -> float

val rebuild :
  t ->
  objects:
    ((obj:int -> label:Label.t -> acl:Acl.t -> brackets:Brackets.t -> unit) -> unit) ->
  int
(** Eagerly recompile every minted (subject, object) pair: [objects]
    is an iterator over the live objects' attributes.  Returns the
    number of cells filled.  Measurement and warm-up only — lazy
    refill under the stamps is already exact. *)
