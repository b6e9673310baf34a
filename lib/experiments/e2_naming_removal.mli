(** E2 — the factor-of-ten reduction in protected address-space
    management: inventory statements plus a live measurement of
    protected words under a 64-segment workload. *)

val id : string
val title : string
val paper_claim : string

type result = {
  code_before : int;
  code_after : int;
  code_factor : float;
  data_before : int;
  data_after : int;
  data_factor : float;
}

val measure : ?segments:int -> unit -> result
val table : unit -> Multics_util.Table.t
val render : unit -> string
