(** The kernel audit trail of mediation decisions. *)

open Multics_access

type verdict = Granted | Refused of string

type record = {
  seq : int;
  subject : string;
  ring : int;
  operation : string;
  target : string;
  verdict : verdict;
}

type t

val create : unit -> t

val copy : t -> t
(** The same trail so far; later records go to one side only. *)

val set_enabled : t -> bool -> unit

val log :
  t -> subject:Policy.subject -> operation:string -> target:string -> verdict:verdict -> unit

val records : t -> record list
(** Oldest first. *)

val length : t -> int
val refusals : t -> record list
val refusal_count : t -> int
val pp_record : Format.formatter -> record -> unit
