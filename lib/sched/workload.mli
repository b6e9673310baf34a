(** Deterministic multi-user timesharing workload driver.

    Builds a full stack — simulator, three-level memory, page control
    in the parallel discipline, the traffic controller, and (for gate
    traffic) a booted kernel — and drives it with the classic Multics
    population: interactive sessions that think at a terminal and then
    demand their working set, absentee (batch) jobs that grind without
    thinking, and daemons that tick in the background.  All randomness
    comes from {!Multics_util.Prng.create_labeled} streams keyed by
    [(seed, role.index)], so a session's demands are a function of the
    spec alone, never of the schedule — which is what makes the
    schedule-invariance oracle (E17) meaningful.

    Per-interaction response times are recorded through [lib/obs]
    (histogram ["sched.response.cycles"]) and returned as a summary. *)

module Sim = Multics_proc.Sim

(** Which policy to build for a run (fresh state per run, so a [spec]
    stays pure data). *)
type policy_choice = Use_mlf | Use_fifo | Use_external

val policy_choice_name : policy_choice -> string

type spec = {
  seed : int;
  users : int;  (** interactive sessions *)
  interactions : int;  (** per session *)
  think : int;  (** mean think time, cycles; jittered per session *)
  service : int;  (** compute per working-set pass *)
  working_set : int;  (** pages per session *)
  passes : int;  (** working-set passes per interaction *)
  batch : int;  (** absentee jobs *)
  batch_chunks : int;  (** compute chunks per batch job *)
  batch_chunk : int;  (** cycles per chunk *)
  daemons : int;  (** background daemons ticking until the load drains *)
  gate_calls : bool;  (** make audited kernel gate calls per interaction *)
  vps : int;  (** shared virtual processors (page control adds 2 dedicated) *)
  core : int;  (** core frames; 0 = auto-size to fit every working set *)
  bulk : int;  (** bulk-store blocks; 0 = auto *)
  disk : int;  (** disk blocks; 0 = auto *)
  cap : int;  (** eligibility cap; 0 = unlimited *)
  policy : policy_choice;
  fault_spec : string;  (** fault plan spec, [""] = none (e.g. ["sched.preempt_storm=every:3"]) *)
  cost : Multics_machine.Cost.t;
  cpus : int;
      (** simulated CPUs (1..{!Multics_smp.Smp.max_cpus}); above 1 a
          multiprocessor plant is built — per-CPU associative
          memories, connect coherence, global-lock contention.
          Timing changes, mediation results never (E18's oracle). *)
  sites : int;
      (** kernel sites (0..{!Multics_site.Site.max_sites}); above 0
          the gate traffic runs against a distributed fleet
          ({!Multics_site.Site}) instead of a single kernel: sessions
          shard across sites, every fifth interaction is a live
          ACL revocation (a fleet-wide connect storm inside the call),
          and cross-site cycles are billed to the mutating session.
          Timing changes, mediation results never (E20's oracle).
          [0] is the single-kernel seed behaviour, byte for byte. *)
}

val default : spec
(** 8 users, 4 interactions, small working sets, MLF, no cap, H6180. *)

type result = {
  r_policy : string;
  r_users : int;
  r_completed : int;  (** interactive interactions completed *)
  r_response : Multics_util.Stats.summary;  (** response time, cycles *)
  r_batch_turnaround : Multics_util.Stats.summary;
  r_cycles : int;  (** simulated time at quiescence *)
  r_throughput : float;  (** interactions per million cycles *)
  r_page_faults : int;
  r_sched : (string * int) list;  (** {!Sched.status} at the end of the run *)
  r_audit_granted : int;
  r_audit_refused : int;
  r_signature : int;
      (** order-independent digest of the audit trail (subject,
          ring, operation, target, verdict multiset) — equal across
          runs iff mediation was schedule-invariant *)
  r_smp : (string * int) list;
      (** plant-wide readings (connects sent/lost/retries/rescues,
          lock state); empty on a uniprocessor run *)
  r_fleet : (string * int) list;
      (** fleet-wide readings (sites, epochs, revocation storms,
          aggregated link traffic); empty when [sites = 0] *)
}

val run : spec -> result
(** Build the stack, run to quiescence, and summarize.  Deterministic:
    the same spec always yields the identical result. *)

(** {1 Parity oracles} *)

val same_mediation : result -> result -> bool
(** The two runs made the same mediation decisions: equal audit-trail
    digests, grant and refusal totals, and completed interactions. *)

val parity_divergences :
  seeds:int -> plans:string list -> points:int list -> (int -> int -> string -> spec) -> int
(** [parity_divergences ~seeds ~plans ~points spec] runs, for every
    seed below [seeds] and every fault plan, [spec seed point plan] at
    each point, and counts the runs whose mediation differs from the
    first point's.  Seeds fan out over the [lib/par] pool; the count
    never depends on the pool size. *)

(** {1 The fleet sweep} *)

type sweep_row = {
  sw_users : int;
  sw_sites : int;
  sw_ops : int;  (** primary fleet dispatches (pool setup included) *)
  sw_granted : int;
  sw_refused : int;
  sw_revocations : int;  (** each one a fleet-wide connect storm *)
  sw_fenced : int;  (** fenced refusals (0 under recoverable plans) *)
  sw_cross_cycles : int;  (** fleet clock: round trips + backoff stalls *)
  sw_epoch : int;
  sw_signature : int;  (** order-preserving fleet digest *)
}

val run_fleet_sweep :
  ?revoke_every:int ->
  ?fault_spec:string ->
  users:int -> sites:int -> seed:int -> unit -> sweep_row
(** Price the distribution layer directly (no scheduler): [users]
    logical users shard across [sites] kernels by id, sharing a small
    logged-in principal pool; every [revoke_every]-th user triggers a
    cross-site ACL revocation.  Sequential and deterministic, so
    [sw_signature] is comparable across site counts — and must be
    equal (E20).  Audit {e recording} is disabled for memory at the
    million-user points; mediation and its counters are unchanged. *)
