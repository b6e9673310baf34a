(** System-generated unique identifiers for file-system objects. *)

type t = private int

type generator

val generator : unit -> generator

val root : t
(** The root directory's well-known uid. *)

val copy_generator : generator -> generator
(** Mints the uids [generator] would mint next, independently of it. *)

val fresh : generator -> t

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
