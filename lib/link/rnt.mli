(** The per-process Reference Name Table, kernel-resident (pre-removal)
    or user-ring (post-removal). *)

type t

type placement = In_kernel | In_user_ring

val placement_name : placement -> string

type error = Name_not_bound of string | Name_already_bound of string

val error_to_string : error -> string

val create : placement:placement -> t
val copy : t -> t
val placement : t -> placement

val bind : t -> name:string -> segno:int -> (unit, error) result
val lookup : t -> name:string -> (int, error) result
val unbind : t -> name:string -> (unit, error) result
val names_for_segno : t -> segno:int -> string list
val binding_count : t -> int

val words_per_binding : int

val protected_words : t -> int
(** 0 when user-ring: the structure is private, not kernel data. *)
