(** Decimal rendering of integers without a format interpreter.

    [string_of_int] and [Printf]'s [%d] parse a format string on every
    call; the kernel renders an integer into every audit target and the
    model checker renders dozens into every canonical state.  These
    functions write the digits directly and print exactly what
    [string_of_int] prints, [min_int] included. *)

val to_string : int -> string

val add : Buffer.t -> int -> unit
(** [add b n] appends [to_string n]. *)

val pair : int -> char -> int -> string
(** [pair a sep b] is [to_string a ^ String.make 1 sep ^ to_string b],
    in one allocation. *)
