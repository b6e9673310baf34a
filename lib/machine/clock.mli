(** Simulated machine clock in processor cycles. *)

type t

val create : unit -> t
(** Starts at cycle 0. *)

val copy : t -> t
(** Starts where [t] stands. *)

val now : t -> int

val advance : t -> int -> unit
(** Raises [Invalid_argument] on a negative duration. *)

val advance_to : t -> int -> unit
(** Move the clock forward to the given time; no-op if already past. *)

val elapsed : t -> since:int -> int

val pp : Format.formatter -> t -> unit
