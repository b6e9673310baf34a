(** The hardware access check applied to every simulated reference. *)

type operation =
  | Read
  | Write
  | Execute  (** transfer of control without ring change *)
  | Call of int  (** call to the given entry offset (may cross rings) *)

type grant =
  | Access_ok
  | Gate_entry of Ring.t  (** inward call; execution continues in this ring *)

type denial =
  | Missing_permission of Mode.t
  | Outside_write_bracket
  | Outside_read_bracket
  | Outside_call_bracket
  | Not_a_gate of int
  | Outward_call

type decision = Granted of grant | Denied of denial

val check : Sdw.t -> ring:Ring.t -> operation:operation -> decision
(** Validate one reference from a process executing in [ring]. *)

val allowed : Sdw.t -> ring:Ring.t -> operation:operation -> bool

(** An SDW associative memory (the 6180's 16-entry CAM), one per CPU
    of the plant ([Multics_smp.Smp]).  Entries are keyed by an
    integer tag the owner chooses — the plant's is the composite
    [(handle, segno)] key, so a process switch needs no flush.  The
    memory is direct-mapped: key [k] lives in slot [k land 15], and an
    install displaces the slot's resident entry.  Sound only under
    immediate invalidation: every SDW change must reach
    {!Assoc.invalidate} or {!Assoc.flush} — the plant wires this
    through the KST's on-change hook so "setfaults" semantics are
    preserved.  Obs counters live under ["cache.hw.assoc.*"]. *)
module Assoc : sig
  type t

  val create : unit -> t
  (** 16 empty entries, as on the 6180. *)

  val copy : t -> t
  (** The same entries, answering every lookup as [t] would now; later
      changes to either do not reach the other.  The copy records into
      the calling domain's counters. *)

  val lookup : t -> key:int -> Sdw.t option
  (** A hit counts one hit.  A revoked entry under [key] is dropped
      and counts one invalidation and one miss; anything else counts
      one miss. *)

  val install : t -> key:int -> Sdw.t -> unit
  (** Put [key]'s descriptor in its slot, displacing what was there. *)

  val invalidate : t -> key:int -> unit
  (** Revoke the entry in [key]'s slot if it holds [key]; otherwise do
      nothing.  Only the one slot is read, and nothing is allocated
      unless an entry is revoked. *)

  val flush : t -> unit

  val stamp : t -> int
  (** The change stamp: {!install} and {!flush} move it, and so does
      an {!invalidate} that revokes an entry.  Nothing else does, so
      while it stands still {!entries} answers as before; a lookup,
      hit or miss, and an {!invalidate} of a key the memory does not
      hold leave it.  {!copy} keeps it, and the copy's stamp moves
      independently of the source's. *)

  val size : t -> int
  (** Occupied slots, counting revoked entries not yet dropped. *)

  val counters : t -> (string * int) list
  (** The obs counter readings (["cache.hw.assoc.*"], shared by every
      instance on a domain): hits, misses, invalidations, insertions,
      flushes. *)

  val entries : t -> (int * Sdw.t) list
  (** The (key, SDW) pairs that would currently hit, highest slot
      first; read-only.  For invariant checks — the model checker
      walks every CPU's memory looking for a cached grant that a fresh
      descriptor recomputation would refuse. *)
end

val check_via_assoc :
  Assoc.t ->
  key:int ->
  fetch:(unit -> Sdw.t option) ->
  ring:Ring.t ->
  operation:operation ->
  decision option
(** {!check} against the associative memory: on a hit the cached SDW is
    used; on a miss [fetch] loads the descriptor (charged as
    [Cost.sdw_fetch] by callers), which is installed under [key] before
    checking.  [None] when [fetch] finds no descriptor. *)

val denial_to_string : denial -> string
val pp_decision : Format.formatter -> decision -> unit
