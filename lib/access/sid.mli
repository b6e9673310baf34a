(** Dense security identifiers: small ints interned from structured
    attributes (subject identities, page ids), so the mediation hot
    path indexes preallocated arrays instead of hashing structured
    keys.  Object uids and segment numbers are already dense SID
    spaces and are admitted directly via {!of_int}. *)

type t = private int

val of_int : int -> t
(** Admit an id from a space that is already dense and never reused
    (file-system uids, segment numbers).  Raises [Invalid_argument] on
    negatives. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** A registry from structured values to dense SIDs, minted in
    first-arrival order (0, 1, 2, ...) and never reused or deleted: a
    reusable SID would let a stale table row describe a different
    principal.  Interning is the cold path; everything downstream of
    the SID is int-indexed. *)
module Map : sig
  type sid := t
  type 'a t

  val create :
    ?initial:int -> ?hash:('a -> int) -> ?equal:('a -> 'a -> bool) -> unit -> 'a t
  (** [hash] need not be injective — collisions split by [equal], so a
      lossy hash costs probes, never identity confusion. *)

  val intern : 'a t -> 'a -> sid
  (** The value's SID, minting a fresh one on first sight.  Stable:
      interning an equal value always returns the same SID. *)

  val find : 'a t -> 'a -> sid option
  (** As {!intern} but without minting. *)

  val value : 'a t -> sid -> 'a
  (** The canonical (first-interned) value.  Raises [Invalid_argument]
      on a sid this registry never minted. *)

  val count : 'a t -> int
  val iter : (sid -> 'a -> unit) -> 'a t -> unit

  val copy : 'a t -> 'a t
  (** The same SIDs for the same values; later interning on either
      side does not reach the other. *)
end
