(** E8 — interrupt handling: inline-in-victim vs dedicated handler
    processes, under an interrupt storm over a compute-bound victim. *)

val id : string
val title : string
val paper_claim : string

type row = {
  discipline : string;
  interrupts : int;
  handled : int;
  mean_latency : float;
  victim_expected_cycles : int;
  victim_actual_cycles : int;
  victim_perturbations : int;
  borrowed_privileged_cycles : int;
}

val measure : ?interrupts:int -> ?gap:int -> unit -> row list
val table : unit -> Multics_util.Table.t
val render : unit -> string
