(** The composed security model: mandatory lattice + discretionary ACL
    + ring hardware, with verdicts that carry every failing reason. *)

open Multics_machine

type subject = {
  principal : Principal.t;
  clearance : Label.t;
  ring : Ring.t;
  trusted : bool;  (** exempt from the mandatory checks (administrative
                       daemons); still subject to ACLs and rings *)
  mutable sid_memo : int * int;
      (** dense-SID memo, internal to {!Subject_sids}: (registry stamp,
          memoized SID), stamp 0 = none.  One field holding an immutable
          pair so the stamp and SID are read/written atomically even
          when a record is shared across domains.  Do not touch. *)
}

val subject :
  ?trusted:bool ->
  principal:Principal.t ->
  clearance:Label.t ->
  ring:Ring.t ->
  unit ->
  subject
(** [trusted] defaults to false. *)

type refusal =
  | Mandatory_read_up of { subject_label : Label.t; object_label : Label.t }
  | Mandatory_write_down of { subject_label : Label.t; object_label : Label.t }
  | Discretionary of { principal : Principal.t; granted : Mode.t; requested : Mode.t }
  | Ring_hardware of Hardware.denial

type verdict = Permit | Refuse of refusal list

val refusal_to_string : refusal -> string

val mandatory_refusals :
  subject_label:Label.t -> object_label:Label.t -> requested:Mode.t -> refusal list
(** Simple security for read/execute, *-property for write. *)

val discretionary_refusals :
  acl:Acl.t -> principal:Principal.t -> requested:Mode.t -> refusal list

val refusals_of_hardware : Hardware.decision -> refusal list

val verdict_of_refusals : refusal list -> verdict

val check :
  subject:subject -> object_label:Label.t -> acl:Acl.t -> requested:Mode.t -> verdict
(** Mandatory and discretionary checks composed; the ring check is
    applied by the hardware layer on each reference and combined via
    [refusals_of_hardware]. *)

val permitted : verdict -> bool

val observe : verdict -> verdict
(** Bump the policy counters ([policy.checks], [policy.refusals.*]) as
    if the verdict had just been computed, and return it.  The cached
    paths (the compiled {!Av_table} tables) replay counters through
    this so audit totals are independent of caching. *)

(** Interning of subject identities (principal, clearance, trusted,
    ring — two processes of one principal can run at different session
    levels, so the principal alone is not enough) to dense {!Sid.t}s.
    The subject record memoizes its SID under a registry stamp, so a
    hot caller re-presenting the same record pays two int compares and
    no hashing; registry ids are never reused, so a stale stamp can
    only re-intern, never alias. *)
module Subject_sids : sig
  type t

  val create : unit -> t
  val sid_of : t -> subject -> Sid.t

  val find : t -> subject -> Sid.t option
  (** As {!sid_of}, but [None] for a subject never interned, and
      writing nothing: no SID minted, no memo stored. *)

  val count : t -> int

  val subject_of : t -> Sid.t -> subject
  (** The canonical (first-interned) record.  Raises
      [Invalid_argument] on a SID this registry never minted. *)

  val iter : (Sid.t -> subject -> unit) -> t -> unit

  val copy : t -> t
  (** The same SIDs for the same subjects, under a registry stamp of
      its own, so no memo written against one registry reads as valid
      in the other. *)
end

val pp_verdict : Format.formatter -> verdict -> unit
