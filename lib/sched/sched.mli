(** The traffic controller: Multics process scheduling as a kernel
    subsystem layered over [lib/proc]'s two-layer process model.

    The paper's minimization program applies squarely here: the
    {e mechanism} — cycle-accounted quanta, preemption, and the
    working-set eligibility cap — must stay inside the kernel boundary,
    while the priority {e policy} (which ready process runs next, and
    for how long) can be lifted out of ring 0.  Policies are therefore
    first class: {!constructor:Mlf} is the classical Multics
    multi-level-feedback controller, {!constructor:Fifo} strips policy
    to almost nothing, and {!constructor:External} delegates every
    policy question to unprivileged closures with each consultation
    counted as an upcall.  Experiment E17 measures the kernel-surface
    delta between them ({!surface}) and asserts that no policy can
    perturb mediation: reference-monitor decisions and audit totals are
    schedule-invariant.

    Eligibility is the admission-control half of the Multics
    controller: at most [cap] processes hold eligibility at once, sized
    against page control's core budget ({!negotiated_cap}) so the
    combined working sets fit in core.  Over-admission reproduces the
    thrashing knee (E17).  Eligibility is retained across page waits —
    a loaded working set stays protected — and surrendered at terminal
    waits ({!release_eligibility}) or termination. *)

module Sim = Multics_proc.Sim

(** {1 The multi-level-feedback queues}

    Exposed directly (not just as a policy) so the bench's [dispatch]
    leg and the unit tests can drive the queueing discipline without
    a simulator: new arrivals enter level 0 with quantum
    [base_quantum]; a quantum expiry demotes one level (quantum doubles
    per level); blocking — the interactive signature — boosts back to
    level 0; a queue head left waiting longer than [age_after] is
    promoted one level at selection time, so sustained high-priority
    load cannot starve the bottom queues. *)
module Mlf : sig
  type t

  val create : levels:int -> base_quantum:int -> age_after:int -> t
  (** Raises [Invalid_argument] unless [levels >= 1], [base_quantum >= 1]
      and [age_after >= 1]. *)

  val enqueue : t -> now:int -> Sim.pid -> unit
  val select : t -> now:int -> Sim.pid option
  (** Runs the aging pass, then pops the head of the highest non-empty
      queue. *)

  val quantum : t -> Sim.pid -> int
  (** [base_quantum lsl level]. *)

  val expired : t -> Sim.pid -> unit
  (** Demote one level (saturating at the bottom queue). *)

  val blocked : t -> Sim.pid -> unit
  (** Interactive boost: back to level 0. *)

  val retired : t -> Sim.pid -> unit
  val backlog : t -> int
  val depths : t -> int list
  (** Queue depth per level, top first. *)

  val promotions : t -> int
  (** Aging promotions performed so far. *)

  val set_base_quantum : t -> int -> unit
  val set_age_after : t -> int -> unit
end

(** {1 Policies} *)

(** A priority policy implemented outside the kernel boundary: the
    kernel keeps only the quantum/eligibility mechanism and consults
    these unprivileged closures for every policy question.  Each
    consultation is counted (["sched.policy.upcalls"]) — the price of
    moving policy out of ring 0, measured by E17. *)
type external_policy = {
  xp_name : string;
  xp_enqueue : Sim.pid -> unit;
  xp_select : unit -> Sim.pid option;
  xp_quantum : Sim.pid -> int option;
  xp_expired : Sim.pid -> preempted:bool -> unit;
  xp_blocked : Sim.pid -> unit;
  xp_retired : Sim.pid -> unit;
  xp_backlog : unit -> int;
}

type policy =
  | Mlf of { levels : int; base_quantum : int; age_after : int }
      (** the classical Multics controller, in ring 0 *)
  | Fifo  (** no priorities, no preemption: run to block *)
  | External of external_policy  (** policy lifted to the user ring *)

val default_mlf : policy
(** [Mlf { levels = 4; base_quantum = 4000; age_after = 40_000 }]. *)

val policy_name : policy -> string

val user_ring_mlf :
  ?levels:int -> ?base_quantum:int -> ?age_after:int -> unit -> external_policy
(** A multi-level-feedback policy living outside the kernel: same
    discipline as {!constructor:Mlf} but with no access to the cycle
    clock, so aging runs on a logical tick per selection
    ([age_after] defaults to 16 ticks).  Fresh state per call. *)

(** {1 The controller} *)

type t

val create :
  ?eligibility_cap:int -> ?policy:policy -> ?plant:Multics_smp.Smp.t -> Sim.t -> t
(** Create the traffic controller and install it on the simulator
    ({!Sim.set_scheduler}).  Install before spawning the processes it
    is to manage.  [eligibility_cap] of [0] (the default) means
    unlimited admission; the policy defaults to {!default_mlf}.

    With [plant] attached (and more than one CPU) every run selection
    maps its VP to a CPU, takes the plant's global lock to pop the
    shared ready structure, and charges the lock wait to the
    dispatched process — the deterministic contention model of the
    multiprocessor traffic controller.  Contention moves timing only;
    selection order is decided before the lock is consulted.

    If a fault injector is installed on the simulator, the
    [sched.preempt_storm] site is consulted at every quantum grant:
    when it fires, the quantum is clamped to a sliver, forcing a
    preemption storm — pure extra switching cost, never a change in
    what any process may touch. *)

val sim : t -> Sim.t
val policy : t -> policy
val name : t -> string

val negotiated_cap : core_frames:int -> working_set:int -> int
(** The eligibility cap page control's frame budget supports:
    [max 1 (core_frames / working_set)].  Admitting more than this
    many processes of the given working set guarantees their combined
    working sets exceed core — the thrashing knee. *)

val eligibility_cap : t -> int

val set_eligibility_cap : t -> int -> unit
(** Raising the cap admits stalled processes immediately (and
    redispatches); lowering it only throttles future admissions —
    holders keep eligibility until they surrender it. *)

val release_eligibility : t -> Sim.pid -> unit
(** Surrender the process's eligibility slot — the Multics controller
    strips eligibility at a terminal wait, not at a page wait.  Called
    by the process itself just before blocking for think time; admits
    the longest-stalled process, if any, in its place. *)

val eligible_count : t -> int

val status : t -> (string * int) list
(** Live counters and gauges, sorted by name: dispatches, preemptions,
    quantum expiries, eligibility stalls and admissions, policy
    upcalls, aging promotions, preempt storms, queue depths, cap. *)

val tune : t -> param:string -> value:int -> (unit, string) result
(** Adjust a mechanism parameter: ["cap"] (eligibility cap, [>= 0],
    0 = unlimited), ["quantum"] (MLF base quantum, [>= 1]),
    ["age_after"] (MLF aging threshold, [>= 1]).  [Error] names an
    unknown parameter, a bad value, or a policy without the knob. *)

val control : t -> Multics_kernel.System.scheduler_control
(** The closure record for {!Multics_kernel.System.register_scheduler},
    wiring the [Sched_status] / [Sched_tune] gates to this instance. *)

val register : t -> Multics_kernel.System.t -> unit
(** [register_scheduler system (Some (control t))]. *)

(** {1 Kernel-surface accounting} *)

type surface = {
  surf_policy : string;
  surf_mechanism : int;
      (** statements of quantum/eligibility mechanism — ring 0 always *)
  surf_policy_stmts : int;  (** statements of priority policy *)
  surf_ring0 : int;  (** total statements inside the kernel boundary *)
}

val surface : policy -> surface
(** Statement counts for the scheduling subsystem under each policy,
    following the [lib/audit] inventory convention: the mechanism
    (slicing, preemption, eligibility — in [Sim] and here) cannot leave
    ring 0; the policy statements leave with {!constructor:External}.
    Feeds E17's kernel-surface table alongside [e12_kernel_inventory]. *)
