(** Segment descriptor words: modes + ring brackets + gate bound. *)

type t

val make : ?gate_bound:int -> mode:Mode.t -> brackets:Brackets.t -> unit -> t
(** [gate_bound] defaults to 0 (no gate entries).  Raises
    [Invalid_argument] if negative. *)

val mode : t -> Mode.t
val brackets : t -> Brackets.t
val gate_bound : t -> int

val is_gate_offset : t -> int -> bool
(** Whether an inward call may target this entry offset. *)

val user_data_segment : writable:bool -> t
val kernel_gate_segment : gate_bound:int -> t
val kernel_data_segment : t

val pp : Format.formatter -> t -> unit
