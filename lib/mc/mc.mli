(** Exhaustive model checking of the reference monitor.

    Enumerates, breadth-first, every interleaving (until no new state
    is reached, or to a depth cap) of a small action alphabet on a 2-CPU / 2-segment / 2-principal
    plant, executing each action through the real kernel paths
    ([Api.Call.dispatch], the [Smp] connect protocol, the [Salvager])
    and checking four safety predicates at every reachable state:

    - {b P1 no stale Permit} — no SDW-bearing cache front (per-process
      associative memory, per-CPU CAM) may grant a mode a fresh
      [Hierarchy.sdw_for] recomputation refuses;
    - {b P2 fail-secure} — granted content accesses survive a fresh
      recomputation at grant time, faulted gate calls return errors,
      and a salvage leaves zero descriptor disagreements and an empty
      crash journal (the E15 invariant);
    - {b P3 no downward flow} — E10-style taint accounting over the
      granted accesses: no object accumulates a taint its label does
      not dominate, no subject a taint above its clearance;
    - {b P4 AV parity} — the compiled access-vector verdict equals the
      structured [Policy.check] recomputation for every subject x
      object x mode.

    A state is its trace, canonically re-executed from the booted
    plant, every action pushed into the simulator's event queue at the
    same firing time ([Event_queue]'s tie-order stability makes replay
    a pure function of the trace).  An exploration boots the plant
    once into a memory image ({!Image}) and replays every state on a
    copy of it.  The visited set keys on interned canonical
    components ({!State_key}), never on a digest; each level is
    generated from the frontier as it is replayed, fanned out through
    [Par.map] a chunk at a time and merged in task order, so outcomes
    are byte-identical at any [MULTICS_JOBS].

    Experiment E21 drives this; the shell's [mc run]/[mc replay]
    commands expose it on the operator console. *)

(** {1 The plant and its alphabet} *)

type principal = Alice | Bob
(** Alice: unclassified, runs on CPU 0, owns both segments.  Bob:
    secret, runs on CPU 1. *)

type seg = S0 | S1
(** [S0] is secret (Bob may read, Alice may blind-write), [S1]
    unclassified (Bob may not write).  Both live in Alice's home. *)

type action =
  | Read of principal * seg
  | Write of principal * seg
  | Acl_revoke  (** s0's ACL back to owner-only: the revoking edit *)
  | Acl_grant  (** s0's ACL widened to owner + Bob rw *)
  | Bracket_widen  (** s0's ring brackets (4,4,4) -> (4,5,5) *)
  | Bracket_restore  (** s0's ring brackets back to user_data *)
  | Faulted_create
      (** a [gate.abort=nth:1] plan armed around a [Create_segment]:
          the mutation lands, the call is torn down and journaled *)
  | Salvage
  | Deliver of int  (** bug mode only: drain one CPU's queued connects *)

val alphabet : bug:bool -> action list
(** 14 actions; [~bug:true] adds the two [Deliver] actions that only
    exist while the deferred-connect bug is enabled. *)

val action_to_string : action -> string
val action_of_string : string -> action option

val trace_to_string : action list -> string
(** Comma-separated action names — the wire form [mc replay] takes. *)

val trace_of_string : string -> action list option

(** {1 Canonical re-execution} *)

type violation = { predicate : string; detail : string }

val violation_to_string : violation -> string

val violations_of_trace : bug:bool -> action list -> string * violation list
(** Boot a fresh plant, replay the trace through the simulator's event
    queue, capture the canonical state string, then run the state
    predicates.  Returns [(canonical, violations)] with violations in
    the order found (per-action P2/P3 first, then the state walk). *)

(** An exploration's memory image: the plant booted once and never
    written again.  Each replay runs on a copy of it ({!System.copy}
    and a fresh simulator), which behaves as a boot on the copying
    domain would — the same canonical state, the same violations, the
    same obs counts past the boot's own — so an exploration pays one
    boot, not one per state.  {!violations_of_trace} keeps booting
    afresh and is the reference the copies are tested against. *)
module Image : sig
  type t

  val build : bug:bool -> t
  (** Boot the plant (with the deferred-connect bug when [bug]). *)

  val violations_of_trace : t -> action list -> string * violation list
  (** {!violations_of_trace} on a copy of the image instead of a
      fresh boot.  Safe from any domain, concurrently. *)

  val canonical : t -> string
  (** The image's canonical state, rendered on a copy of it. *)
end

val fingerprint : string -> string
(** Digest of a canonical state string, for display and tests.  The
    visited set never keys on it: no collision can merge two distinct
    states. *)

(** The key the visited set files a state under: one id per canonical
    component (each object, each process, each CPU's fronts, the
    pending connects, the journal, the taints), interned in a table
    that lives as long as one exploration.  The canonical string is
    the concatenation of the components, so two keys from one table
    are equal exactly when the canonical strings are. *)
module State_key : sig
  type table

  val create : unit -> table
  val of_trace : table -> bug:bool -> action list -> int array
end

val random_trace : seed:int -> length:int -> action list
(** A seeded trace over the full (bug) alphabet — the replay
    determinism regression's generator. *)

(** {1 Bounded exhaustive exploration} *)

type counterexample = { trace : action list; violation : violation }

type depth_row = {
  row_depth : int;
  row_new_states : int;  (** states first reached at this depth *)
  row_states : int;  (** cumulative distinct states *)
  row_expansions : int;  (** replays executed at this depth *)
  row_cpu_s : float;
      (** process CPU seconds from the start of the exploration to the
          end of this depth — the one field that varies from run to run *)
}

type outcome = {
  o_depth : int;
  o_bug : bool;
  o_states : int;
  o_expansions : int;
  o_rows : depth_row list;
  o_counterexamples : counterexample list;
      (** at most one per predicate — the first (therefore shortest)
          trace found, BFS order *)
  o_fixpoint : bool;
      (** the frontier emptied within [o_depth]: a further depth can
          reach no new state, so every reachable state was checked *)
}

val explore : ?jobs:int -> ?bug:bool -> depth:int -> unit -> outcome
(** Exhaustive breadth-first exploration to [depth], or until the
    frontier empties.  [jobs] sizes the [Par.map] pool for frontier
    expansion (default [MULTICS_JOBS]); the outcome is identical at any
    pool size.  [bug] (default false) re-enables the old
    deferred-connect stale-Permit window and extends the alphabet with
    [Deliver]. *)

val depth_cap : int
(** 16: the deepest exploration E21 and the operator console run.  A
    safety limit, not the measure: the healthy plant's frontier empties
    at depth 11. *)

val chunk_size : jobs:int -> int
(** Candidates replayed per [Par.map] round at a pool size, and so the
    most replayed states an exploration holds before merging them: a
    fixed multiple of the pool size. *)

(** {1 The successor check}

    The visited set merges traces whose canonical strings are equal.
    That is sound only if the string hides nothing that decides later
    behaviour, so every trace that merged into an already-visited state
    must have successors rendering exactly as its representative's. *)

type successor_report = {
  sr_merged : int;  (** traces that merged into an earlier state *)
  sr_pairs : int;  (** (merged successor, representative successor) pairs compared *)
  sr_divergent : (action list * action list * action) list;
      (** (merged trace, its representative, the action after which
          their canonical strings differ); empty when the check holds *)
}

val successor_check : ?jobs:int -> ?bug:bool -> depth:int -> unit -> successor_report
(** Explore as {!explore} does, then replay every alphabet action after
    each merged trace and after its representative (the first trace
    to reach that state), all on copies of one image, and compare the
    canonical strings.  The representative's successors are replayed
    once per state. *)

val summary : outcome -> string
(** The states/depth/expansions table plus any counterexamples —
    deterministic (no wall-clock), so pool-size parity can compare
    summaries byte for byte. *)

val counterexample_script : counterexample -> string
(** The counterexample as a replayable shell script driving the
    operator console's [mc replay]. *)
