(** Ring brackets [(r1, r2, r3)] and the hardware bracket rule. *)

type t

val make : r1:int -> r2:int -> r3:int -> t
(** Raises [Invalid_argument] unless [r1 <= r2 <= r3] and all are valid
    rings. *)

val write_top : t -> Ring.t
(** r1: outermost ring that may write. *)

val execute_top : t -> Ring.t
(** r2: outermost ring that may read or execute in place. *)

val call_top : t -> Ring.t
(** r3: outermost ring that may call inward through a gate. *)

val user_data : t
(** (4,4,4). *)

val user_procedure : t
(** (4,4,4). *)

val kernel_private : t
(** (0,0,0): kernel-internal segment, invisible to user rings. *)

val kernel_gate : t
(** (0,0,7): a ring-0 procedure callable from any ring through a gate
    — the shape of every supervisor entry point. *)

val for_single_ring : int -> t
(** (r,r,r). *)

val read_ok : t -> ring:Ring.t -> bool
val write_ok : t -> ring:Ring.t -> bool

type transfer =
  | Execute_in_place  (** r1 <= r <= r2: runs in the caller's ring *)
  | Inward_call of Ring.t  (** r2 < r <= r3: gate call; new ring is r2 *)
  | Outward_call_fault  (** r < r1: forbidden outward transfer *)
  | Beyond_call_bracket  (** r > r3: no access at all *)

val transfer : t -> ring:Ring.t -> transfer
(** Bracket rule for a control transfer attempted from [ring].  Gate
    membership of the target entry point is checked separately (see
    {!Hardware}). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
