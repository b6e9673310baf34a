(** Object segments: text + definitions + symbolic links, possibly
    deliberately malformed (the linker's attack surface). *)

open Multics_fs

type definition = { def_name : string; def_offset : int }

type link = {
  target_seg : string;
  target_entry : string;
  mutable snapped : (Uid.t * int) option;
}

type malformation =
  | Bad_definition_offset of int
  | Cyclic_definition_chain
  | Oversized_link_count of int

val malformation_to_string : malformation -> string

type t

val make :
  ?malformation:malformation option ->
  text_words:int ->
  definitions:definition list ->
  links:(string * string) list ->
  unit ->
  t
(** [links] are [(segment name, entry name)] pairs, initially
    unsnapped. *)

val copy : t -> t
(** The same segment with link records of its own, snapped where [t]'s
    are: snapping one side's link leaves the other's alone. *)

val text_words : t -> int
val definitions : t -> definition list
val link_count : t -> int
val malformation : t -> malformation option
val link : t -> int -> link option
val find_definition : t -> string -> definition option
val snapped_links : t -> int
val unsnap_all : t -> unit

(** Structured contents per segment uid. *)
module Store : sig
  type obj = t
  type t

  val create : unit -> t
  val put : t -> uid:Uid.t -> obj -> unit
  val get : t -> uid:Uid.t -> obj option
  val remove : t -> uid:Uid.t -> unit

  val copy : t -> t
  (** Every object copied (see {!copy}). *)
end
