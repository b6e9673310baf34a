(** Security labels: classification level x compartment set, partially
    ordered by dominance — the lattice of the Mitre formal model. *)

type level = Unclassified | Confidential | Secret | Top_secret

type t

val level_rank : level -> int
val level_of_rank : int -> level
val level_name : level -> string

val all_levels : level list
(** In ascending order. *)

val make : level -> string list -> t
(** [make level compartments]; duplicate compartment names collapse. *)

val level : t -> level

val compartments : t -> string list
(** Sorted. *)

val unclassified : t
(** Bottom of the lattice: (Unclassified, {}). *)

val system_high : string list -> t
(** (TopSecret, given compartments): top relative to those
    compartments. *)

val dominates : t -> t -> bool
(** [dominates a b] iff information labelled [b] may flow to [a]:
    [a]'s level is at least [b]'s and [a]'s compartments include
    [b]'s. *)

val comparable : t -> t -> bool
(** Whether either label dominates the other. *)

val equal : t -> t -> bool

val lub : t -> t -> t
(** Least upper bound (join). *)

val glb : t -> t -> t
(** Greatest lower bound (meet). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
