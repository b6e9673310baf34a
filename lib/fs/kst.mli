(** The per-process Known Segment Table, in its pre-removal [Unified]
    shape (pathnames kept in the kernel) and post-removal [Split] shape
    (the kernel keeps only segno -> uid -> descriptor). *)

type t

type variant = Unified | Split

type error = Unknown_segno of int | Naming_not_in_kernel

val error_to_string : error -> string

val create : variant:variant -> unit -> t
(** Segment numbers start at 8 (numbers below are the kernel's own
    segments). *)

val variant : t -> variant

val stamp : t -> int
(** The change stamp of the segment-number bindings and their
    descriptors.  {!make_known} moves it when it adds an entry,
    {!set_sdw} and {!terminate} move it; nothing else does (a lookup,
    {!sdw_of}, {!record_pathname}, or {!make_known} of a uid already
    known leave it).  {!copy} keeps it, and the copy's stamp moves
    independently of the source's. *)

val copy : t -> t
(** The same entries, segment numbers and descriptors, in records of
    its own.  The descriptor-change observer is not copied: the copy
    fires none until {!set_on_sdw_change} wires one. *)

val make_known : t -> uid:Uid.t -> int * bool
(** Assign (or find) the segment number for a uid; the boolean is true
    when the segment was already known. *)

val uid_of_segno : t -> int -> (Uid.t, error) result
val segno_of_uid : t -> uid:Uid.t -> int option

val set_sdw : t -> int -> Multics_machine.Sdw.t -> (unit, error) result
val sdw_of : t -> int -> Multics_machine.Sdw.t option

val set_on_sdw_change : t -> (int -> unit) -> unit
(** Register the single descriptor-change observer, fired with the
    segno by {!set_sdw} and {!terminate} — the KST's two descriptor
    mutation points.  Every CPU's SDW associative memory is cleared
    through this hook so "setfaults" (recompute on attribute change)
    reaches cached descriptors immediately. *)

val record_pathname : t -> int -> string -> (unit, error) result
(** [Error Naming_not_in_kernel] under the [Split] variant — the
    removal took this function out of the kernel. *)

val terminate : t -> int -> (unit, error) result

val entry_count : t -> int
val known_segnos : t -> int list
(** Ascending. *)

val words_per_entry : variant -> int

val protected_words : t -> int
(** Protected-data footprint of this table (synthetic words) — the
    quantity whose tenfold reduction experiment E2 reproduces. *)
