(** The experiment registry: E1..E12 plus the ablations, addressable by
    id. *)

type experiment = {
  id : string;
  title : string;
  paper_claim : string;
  render : unit -> string;
}

val all : experiment list

val find : string -> experiment option
(** Case-insensitive id lookup. *)

val ids : string list

val render_one : experiment -> string

(** The harness's command line as a reusable Cmdliner term:
    [bin/experiments.exe] evaluates it, and the test suite proves every
    registered id parses (with and without [--stats]) without rendering
    anything. *)
module Cli : sig
  type selection = { list_only : bool; stats : bool; sel_ids : string list }

  val term : selection Cmdliner.Term.t
  val info : Cmdliner.Cmd.info

  val parse : string array -> (selection, string) result
  (** Evaluate the term against an argv (argv.(0) is the program
      name). *)
end
