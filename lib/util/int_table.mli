(** Hash tables keyed by small non-negative integers — uids, segment
    numbers — hashed by identity.  A lookup is one array index and an
    integer compare, where the polymorphic [Hashtbl] calls into the
    runtime to hash the key and again to compare it.  Iteration order
    follows the keys' residues, not the polymorphic hash, so use it
    where nothing depends on iteration order. *)

include Hashtbl.S with type key = int
