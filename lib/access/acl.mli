(** Discretionary access control lists over principal patterns.

    Evaluation follows the Multics rule: the most specific matching
    entry decides (person component most significant); no match means
    no access. *)

open Multics_machine

type t

val empty : t

val add : t -> pattern:Principal.pattern -> mode:Mode.t -> t
(** Replaces any existing entry with the same pattern. *)

val add_string : t -> pattern:string -> mode:string -> t
(** Convenience: [add_string acl ~pattern:"Schroeder.*.*" ~mode:"rw"]. *)

val remove : t -> pattern:Principal.pattern -> t

val of_strings : (string * string) list -> t

val entries : t -> (Principal.pattern * Mode.t) list
(** Most specific first — the evaluation order. *)

val mode_for : t -> Principal.t -> Mode.t
(** The mode granted by the most specific matching entry, or
    [Mode.none]. *)

val permits : t -> Principal.t -> requested:Mode.t -> bool

val pp : Format.formatter -> t -> unit
