(** E21 — bounded exhaustive model checking over the reference
    monitor: every interleaving of a small concurrent request alphabet
    is searched for mediation violations, with a seeded-bug leg
    proving the checker can see one and a parity leg tying the model
    to the running kernel. *)

val id : string
val title : string
val paper_claim : string

val render : unit -> string
