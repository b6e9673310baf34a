(** Policy/mechanism partitioning for page removal (experiment E9):
    the same malicious policy run unpartitioned in ring 0 (all three
    security violations succeed) and partitioned behind the ring-1
    mechanism interface (only denial of use is expressible). *)

open Multics_fs
open Multics_mm

type mechanism_view = { page_handles : int list; used_bits : (int * bool) list }
(** What a ring-1 policy may see: opaque page handles and usage bits —
    no contents, no segment identities, no frame addresses. *)

type raw_view = { mem : Memory.t; hierarchy : Hierarchy.t; core_pages : Page_id.t list }

type verdict = { released : bool; modified : bool; denied : bool; note : string }

type attack = Read_secret | Overwrite_segment | Deny_service

val attack_name : attack -> string

val mechanism_view_of : Memory.t -> mechanism_view * (int -> Page_id.t option)
(** The restricted view plus the ring-0-only mapping back to real
    pages. *)

val run_in_ring0 : raw_view -> attack:attack -> secret_uid:Uid.t -> verdict
val run_in_ring1 : mechanism_view -> attack:attack -> verdict

type experiment_row = {
  placement : Config.policy_placement;
  attack : attack;
  result : verdict;
}

val attack_matrix : unit -> experiment_row list
(** The full placement x attack matrix over a fresh little world. *)
