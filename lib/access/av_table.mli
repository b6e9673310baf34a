(** The compiled access-vector table: Policy + ring brackets compiled
    per (subject SID, object uid) into a preallocated 2-D int array of
    access-vector bits.  A hit is an array load — no allocation, no
    hashing, no structured comparison.

    Revocation correctness is inherited from the
    {!Multics_cache.Avc.Gen} epoch counters: every cell carries the
    global and per-object stamps current when it was compiled, and any
    ACL edit, label change, bracket change, delete, rename or salvage
    bumps a counter, so a revoked cell reads as empty on the next
    reference and is refilled lazily (or eagerly via {!rebuild}).

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

val pp_av : Format.formatter -> int -> unit

(** {1 The table} *)

type t

val create :
  ?subjects:int -> ?objects:int -> ?gens:Multics_cache.Avc.Gen.t -> name:string -> unit -> t
(** Preallocates [subjects] rows by [objects] columns (defaults 2 by
    16, so creating a table costs almost nothing), both grown
    geometrically on insertion; a lookup past the allocated capacity
    is an ordinary counted miss.  Columns are capped at an internal
    bound past which cells simply recompute.  Counters are registered under
    ["cache.<name>.*"] with the same field names as {!Multics_cache.Avc},
    so status surfaces need not care which mechanism serves them. *)

val copy : gens:Multics_cache.Avc.Gen.t -> t -> t
(** The same cells, stamps and subject SIDs, stamped against [gens] —
    normally a {!Multics_cache.Avc.Gen.copy} of [gens t], so every cell
    reads fresh or stale exactly as in [t].  No flush probe; the copy
    records into the calling domain's counters. *)

val name : t -> string
val gens : t -> Multics_cache.Avc.Gen.t

val subject_sid : t -> Policy.subject -> Sid.t
(** Intern (or recall, via the subject's memo stamp — two int
    compares) the subject's row. *)

val subject_sids : t -> Policy.Subject_sids.t
val subject_count : t -> int

val find : t -> subj:Sid.t -> obj:int -> int
(** The hot lookup: the cell's access vector, or [-1] for a miss
    (empty, stale, or out of range).  Returns an int, not an option,
    so a hit allocates nothing.  Stale cells are marked empty and
    counted as an invalidation plus a miss, as in {!Multics_cache.Avc}. *)

val find_opt : t -> subj:Sid.t -> obj:int -> int option
(** Allocating convenience for tests. *)

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
