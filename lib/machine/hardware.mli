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

(** An associative memory, as on the 6180: each CPU of the plant
    ([Multics_smp.Smp]) has a 16-entry one of SDWs and a 64-entry one
    of PTWs.  Entries are keyed by an integer tag the owner chooses —
    the plant's SDW key is the composite [(handle, segno)] key, so a
    process switch needs no flush, and its PTW key is a dense page SID.
    The memory is direct-mapped: key [k] lives in slot
    [k land (slots - 1)], and an install displaces the slot's resident
    entry.  Sound only under immediate invalidation: every change to
    what an entry caches must reach {!Assoc.invalidate} or
    {!Assoc.flush} — the plant wires the SDW memories through the KST's
    on-change hook so "setfaults" semantics are preserved, and page
    control revokes an evicted page's PTW on every CPU.  Obs counters
    live under ["cache.<name>.*"]. *)
module Assoc : sig
  type 'v t

  val create : slots:int -> name:string -> 'v t
  (** [slots] empty entries; raises [Invalid_argument] unless [slots]
      is a power of two.  Counters are registered in
      {!Multics_obs.Obs.Registry.global} under
      ["cache.<name>.hits"/"misses"/"invalidations"/"insertions"/
      "flushes"]; memories sharing a [name] share counters. *)

  val copy : 'v t -> 'v t
  (** The same entries, answering every lookup as [t] would now; later
      changes to either do not reach the other.  The copy records into
      the calling domain's counters. *)

  val lookup : 'v t -> key:int -> 'v option
  (** A hit counts one hit.  A revoked entry under [key] is dropped
      and counts one invalidation and one miss; anything else counts
      one miss. *)

  val install : 'v t -> key:int -> 'v -> unit
  (** Put [key]'s value in its slot, displacing what was there. *)

  val invalidate : 'v t -> key:int -> unit
  (** Revoke the entry in [key]'s slot if it holds [key]; otherwise do
      nothing.  Only the one slot is read, and nothing is allocated
      unless an entry is revoked. *)

  val flush : 'v t -> unit

  val stamp : 'v t -> int
  (** The change stamp: {!install} and {!flush} move it, and so does
      an {!invalidate} that revokes an entry.  Nothing else does, so
      while it stands still {!entries} answers as before; a lookup,
      hit or miss, and an {!invalidate} of a key the memory does not
      hold leave it.  It only grows.  {!copy} keeps it, and the copy's
      stamp moves independently of the source's. *)

  val size : 'v t -> int
  (** Occupied slots, counting revoked entries not yet dropped. *)

  val counters : 'v t -> (string * int) list
  (** The obs counter readings (["cache.<name>.*"], shared by every
      memory of that name on a domain): hits, misses, invalidations,
      insertions, flushes. *)

  val entries : 'v t -> (int * 'v) list
  (** The (key, value) pairs that would currently hit, highest slot
      first; read-only.  For invariant checks — the model checker
      walks every CPU's SDW memory looking for a cached grant that a
      fresh descriptor recomputation would refuse. *)
end

val check_via_assoc :
  Sdw.t Assoc.t ->
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
