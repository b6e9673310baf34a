(** Per-workload kernel specialisation: gate-usage profiles captured
    from the [lib/obs] dispatch counters, compiled into specialised
    gate tables that strip every unused entry.  A stripped gate
    refuses at [Api.Call.dispatch] with [Gate_absent] before any
    kernel state is touched, so specialised kernels are byte-identical
    to the full kernel on every request they admit and fail closed on
    everything else (experiment E22). *)

open Multics_kernel
module Obs = Multics_obs.Obs

(** A gate-usage profile: which gate operations a workload exercised,
    and how often. *)
module Profile : sig
  type t

  val name : t -> string

  val counts : t -> (string * int) list
  (** Observed calls per gate operation, sorted by operation name;
      every count is positive.  Refused calls count — a workload that
      reaches a gate needs it, whatever the reference monitor says. *)

  val observe : name:string -> (unit -> 'a) -> t * 'a
  (** Run a workload with observability recording enabled and snapshot
      the per-gate dispatch counters it moved (a
      {!Multics_obs.Obs.Snapshot.diff} around the thunk, restricted to
      the [gate.<operation>.calls] counters).  The previous recording
      state is restored afterwards. *)

  val of_snapshot : name:string -> Obs.Snapshot.t -> t
  (** Extract the per-gate dispatch counts from a snapshot (typically
      a diff attributing activity to one observed run). *)

  val used_gates : t -> string list
  val calls : t -> gate:string -> int
  val total_calls : t -> int
  val merge : name:string -> t -> t -> t

  val to_string : t -> string
  (** Serialise for replay: a [profile <name>] header then one
      [<operation> <count>] line per gate.  Round-trips through
      {!of_string}. *)

  val of_string : string -> (t, string) result
end

(** A specialised gate table: the compiled keep-set for one
    configuration, installable on a live system as a gate mask. *)
module Specialisation : sig
  type t

  val name : t -> string
  val config : t -> Config.t

  val kept : t -> string list
  (** Admitted gates, in catalog order. *)

  val stripped : t -> string list
  (** Refused gates, in catalog order. *)

  val gate_count : t -> int
  val full_count : t -> int

  val full : Config.t -> t
  (** The identity specialisation: every catalog gate kept. *)

  val compile : name:string -> Config.t -> Profile.t -> t
  (** Keep exactly the catalog gates the profile exercised, plus
      subsystem entry and logout, which every specialisation keeps so
      users can still reach and leave the machine.  Profiled operations
      with no catalog entry are ignored — they are not strippable
      surface. *)

  val admits : t -> gate:string -> bool

  val apply : System.t -> t -> unit
  (** Install the specialisation's gate mask on a live system; the
      full specialisation clears the mask instead.  Raises
      [Invalid_argument] if the specialisation was compiled for a
      different configuration than the system runs. *)

  val clear : System.t -> unit
  (** Restore the full surface. *)

  val status : System.t -> string
  (** One-line description of the mask currently installed. *)

  val describe : t -> string
end
