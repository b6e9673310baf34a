(** The three levels of the memory hierarchy: core, bulk store, disk. *)

type t = Core | Bulk | Disk

val name : t -> string
val all : t list

val depth : t -> int
(** 0 for core, 1 for bulk, 2 for disk. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
