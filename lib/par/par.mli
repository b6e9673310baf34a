(** Deterministic domain-parallel runner for the experiment harness.

    The 100-seed parity oracles and fleet sweeps are embarrassingly
    parallel: every per-seed run boots its own kernel from an
    independent labeled-PRNG stream.  [Par.map] fans such tasks out
    over a pool of OCaml 5 domains (a chunked work queue), then reduces
    results — and each task's {!Obs} recordings — {e in task order}, so
    tables, digests and verdict lines are byte-identical regardless of
    pool size.

    Determinism contract:
    - results are returned in input order, whatever the schedule;
    - with a pool size of 1 (the default), [map] is a plain inline
      [List.map] — byte-identical to the pre-parallel harness by
      construction;
    - each worker task records into its own domain-local Obs registry;
      after the join the per-task snapshots are absorbed into the
      caller's registry in task order, so additive instrument totals
      match a sequential run exactly, and each gauge holds the last
      write in task order, as a sequential run leaves it;
    - if tasks raise, the exception of the lowest-indexed failing task
      is re-raised (recordings of the tasks before it are kept).

    Pool size comes from [?jobs], defaulting to the [MULTICS_JOBS]
    environment variable (default 1, clamped to 1..64).  Nested [map]
    calls from inside a worker task degrade to inline execution —
    domains are not recursively multiplied. *)

val default_jobs : unit -> int
(** Pool size from [MULTICS_JOBS]; 1 when unset or unparsable, clamped
    to 1..64. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element, in parallel when the
    effective pool size exceeds 1, returning results in input order. *)

val run_seeds : ?jobs:int -> int -> (int -> 'a) -> 'a list
(** [run_seeds n f] is [map f [0; ..; n-1]] — the common shape of a
    100-seed oracle loop. *)

(** Cumulative harness statistics (for the shell's [jobs status]). *)
module Stats : sig
  type t = {
    pool_size : int;  (** pool size of the most recent parallel run (1 = inline) *)
    runs : int;  (** [map]/[run_seeds] invocations so far *)
    tasks : int;  (** total tasks executed *)
    per_worker : (int * int) list;
        (** (worker slot, cumulative tasks run on it); inline execution
            counts toward slot 0 *)
  }

  val snapshot : unit -> t
  val reset : unit -> unit
end
