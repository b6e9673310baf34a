(** The dynamic linker, placeable in the kernel (pre-removal, with its
    historical vulnerabilities injectable) or in the user ring
    (post-removal: malformed input damages only its owner). *)

open Multics_access
open Multics_fs

type placement = In_kernel | In_user_ring

val placement_name : placement -> string

type flaw =
  | Unvalidated_input
      (** the ring-0 parser trusts user-constructed object headers *)
  | Supervisor_authority_walk
      (** the ring-0 search runs with supervisor, not user, authority *)

val flaw_to_string : flaw -> string

type outcome =
  | Snapped of { target : Uid.t; offset : int; dirs_searched : int }
  | Already_snapped of { target : Uid.t; offset : int }
  | Segment_not_found of string
  | Definition_not_found of { seg : string; entry : string }
  | Malformed_rejected of Object_seg.malformation
  | Supervisor_damaged of Object_seg.malformation
  | User_ring_fault of Object_seg.malformation
  | No_such_link of int
  | Not_an_object of Uid.t

val outcome_is_security_incident : outcome -> bool
(** True exactly for [Supervisor_damaged]. *)

val outcome_to_string : outcome -> string

type t

val create :
  ?flaws:flaw list ->
  placement:placement ->
  store:Object_seg.Store.t ->
  hierarchy:Hierarchy.t ->
  unit ->
  t

val copy : t -> store:Object_seg.Store.t -> hierarchy:Hierarchy.t -> t
(** The same placement, flaws and counters, linking in [store] and
    [hierarchy] (the copying system's). *)

val placement : t -> placement
val has_flaw : t -> flaw -> bool

val supervisor_damage_count : t -> int
(** How many times hostile input damaged ring 0. *)

val links_snapped : t -> int

val resolve_link :
  t ->
  subject:Policy.subject ->
  rules:Search_rules.t ->
  from_uid:Uid.t ->
  link_index:int ->
  outcome

val resolve_all :
  t -> subject:Policy.subject -> rules:Search_rules.t -> from_uid:Uid.t -> outcome list
