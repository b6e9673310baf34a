(** Plain-text table rendering for experiment reports. *)

type align = Left | Right

type t

val create : title:string -> columns:(string * align) list -> t

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the number of cells does not match the
    number of columns. *)

val render : t -> string

val print : t -> unit

val fmt_float : ?decimals:int -> float -> string
(** ["-"] for [nan]. *)

val fmt_pct : float -> string
(** [0.125] renders as ["12.5%"]. *)

val fmt_ratio : float -> string
(** [2.0] renders as ["2.00x"]. *)
