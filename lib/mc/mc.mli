(** Exhaustive model checking of the reference monitor.

    Enumerates, breadth-first, every interleaving (until no new state
    is reached, or to a depth cap) of a small action alphabet on a 2-CPU / 2-segment / 2-principal
    plant, executing each action through the real kernel paths
    ([Api.Call.dispatch], the [Smp] connect protocol, the [Salvager])
    and checking four safety predicates at every reachable state:

    - {b P1 no stale Permit} — no CPU's CAM (the one SDW-bearing cache
      front) may grant a mode a fresh [Hierarchy.sdw_for]
      recomputation refuses;
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

    The predicates run unmetered, so the obs counters record the
    plant's traffic and not the checker's probes.  P1 and P3 check
    every state in full; a candidate re-probes only the P4 pairs whose
    inputs moved since its parent ({!Image.derive}).

    A state is its trace, canonically re-executed from the booted
    plant, every action pushed into the simulator's event queue at the
    same firing time ([Event_queue]'s tie-order stability makes replay
    a pure function of the trace).  An exploration boots the plant
    once into a memory image ({!Image}), replays each frontier state
    once on a copy of it ({!Image.extend}), and derives each of the
    state's candidates from a copy of that replay, firing only the new
    action: no action schedules a simulator event of its own, so the
    new action fires after the parent's, at their time, as in a full
    replay.  The visited set keys on interned canonical
    components ({!State_key}), never on a digest.  A candidate
    re-renders only the components its action changed, by their change
    witnesses, keeps its parent's ids for the rest, and takes its
    parent's P4 answers for each pair whose inputs did not move
    ({!Image.derive}).  Each level is generated from the frontier as
    it is replayed, fanned out through [Par.map] a round of parents at
    a time and interned and merged in task order, so outcomes are
    byte-identical at any [MULTICS_JOBS].

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
    predicates, unmetered (they move no obs counter).  Returns
    [(canonical, violations)] with violations in the order found
    (per-action P2/P3 first, then the state walk). *)

type av_answer = { triple : string; compiled : bool; structured : bool }
(** One of P4's probes: a subject x object x mode triple, named as a P4
    violation names it (["bob x s0 x w"]), and whether the compiled
    access-vector table and the structured monitor permit it.  P4
    reports a triple whose two answers differ. *)

(** An exploration's memory image: the plant booted once and never
    written again.  Each replay runs on a copy of it ({!System.copy}
    and a fresh simulator), which behaves as a boot on the copying
    domain would — the same canonical state, the same violations, the
    same obs counts past the boot's own — so an exploration pays one
    boot, not one per state.  {!violations_of_trace} keeps booting
    afresh and is the reference the copies are tested against, as the
    full render ({!canonical}, {!components}) is the reference for the
    incremental capture ({!derive}). *)
module Image : sig
  type t

  val build : bug:bool -> t
  (** Boot the plant (with the deferred-connect bug when [bug]). *)

  val extend : t -> action list -> t
  (** The image of the state the trace reaches: the trace replayed once
      on a copy of the image.  A replay of [t'] on
      [extend image t] derives the candidate [t @ t'] from its parent,
      as an exploration derives each candidate.  It also probes every
      P4 pair once, unmetered, on a copy of the replay, so the replay's
      own cells stay as a full replay leaves them: {!derive} takes
      this table's answers for each pair whose inputs did not move.
      Fails if an action scheduled a simulator event of its own, which
      would make the split schedule differ from the full replay's. *)

  val violations_of_trace : t -> action list -> string * violation list
  (** {!violations_of_trace} on a copy of the image instead of a
      fresh boot.  Safe from any domain, concurrently. *)

  val derive : t -> action -> string option array * violation list
  (** The candidate [t·a], derived from the replayed parent [t] (from
      {!extend}) exactly as an exploration derives it: [a] fired on a
      copy of [t], then the incremental capture, then the state
      predicates.  The capture renders only the components whose change
      witness moved since [t] (the hierarchy's, a KST's or a CAM's
      change stamp, a process's ring, the taint lists; the pending
      connects and the journal always), in {!components}' order, and
      gives [None] for the rest, which render as [t]'s do.  P1 and P3
      check the whole state.  P4 probes a (subject, object) pair only
      if something its three probes read moved since [t]: the subject's
      principal, clearance or ring, the object's label, ACL or brackets
      (compared physically), or the reading of the pair's compiled
      cell; for every other pair it takes [t]'s answers from
      {!extend}'s table.  The violations are {!violations_of_trace}'s,
      and the obs counts the full replay's past [t]'s.  Safe from any
      domain, concurrently. *)

  val av_answers : t -> av_answer list
  (** P4's answers at the image's state, every triple probed, in probe
      order: for an image from {!extend}, the table it computed, and
      otherwise a probe of a copy. *)

  val derived_av_answers : t -> action -> av_answer list
  (** P4's answers at the candidate [t·a] as {!derive} reaches them,
      re-probed only for the pairs whose inputs moved — the table
      {!av_answers} of [extend t \[a\]] must equal. *)

  val canonical : t -> string
  (** The image's canonical state.  A capture writes no kernel state:
      it checks no access and so compiles no access-vector cell. *)

  val components : t -> string array
  (** The same text, one string per canonical component (each object,
      each process, each CPU's fronts, the pending connects, the
      journal, the taints); {!canonical} is their concatenation. *)
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
  row_expansions : int;
      (** candidates checked at this depth, one per frontier state and action *)
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
    frontier empties.  Each frontier state carries its key; each of
    its candidates is {!Image.derive}d from one {!Image.extend} of it,
    and its key is the parent's with the changed components
    re-interned.  [jobs] sizes the [Par.map] pool for frontier
    expansion (default [MULTICS_JOBS]); workers return text, the
    sequential merge interns it, and the outcome is identical at any
    pool size.  [bug] (default false) re-enables the old
    deferred-connect stale-Permit window and extends the alphabet with
    [Deliver]. *)

val depth_cap : int
(** 16: the deepest exploration E21 and the operator console run.  A
    safety limit, not the measure: the healthy plant's frontier empties
    at depth 11. *)

val chunk_size : jobs:int -> int
(** The most candidates derived per [Par.map] round at a pool size of
    two or more (a round takes whole parents, as many as fit), and so
    the most replayed states a pooled exploration holds before merging
    them: a fixed multiple of the pool size.  A sequential exploration
    derives one parent's candidates at a time. *)

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
(** Explore as {!explore} does, then derive every alphabet action's
    successor of each merged trace and of its representative (the
    first trace to reach that state) as the exploration derives its
    candidates, from one replay of the trace on a copy of one image,
    and compare the canonical strings.  The representative's
    successors are derived once per state. *)

val summary : outcome -> string
(** The states/depth/expansions table plus any counterexamples —
    deterministic (no wall-clock), so pool-size parity can compare
    summaries byte for byte. *)

val counterexample_script : counterexample -> string
(** The counterexample as a replayable shell script driving the
    operator console's [mc replay]. *)
