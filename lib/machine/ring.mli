(** Protection rings, numbered 0 (most privileged) to 7 (least). *)

type t = private int

val count : int
(** 8, as on the Honeywell 6180. *)

val of_int : int -> t
(** Raises [Invalid_argument] outside [\[0, 7\]]. *)

val to_int : t -> int

val r0 : t
val r1 : t

val kernel : t
(** Ring 0: the security kernel. *)

val user : t
(** Ring 4: the conventional user ring. *)

val outermost : t

val compare : t -> t -> int
val equal : t -> t -> bool

val more_privileged : t -> t -> bool
(** [more_privileged a b] iff [a] is strictly more privileged
    (numerically lower) than [b]. *)

val at_least_privileged : t -> t -> bool

val pp : Format.formatter -> t -> unit

val all : t list
(** Rings 0..7 in order. *)
