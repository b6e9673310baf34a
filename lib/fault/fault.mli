(** Deterministic fault injection.

    A {!Plan.t} is a seeded, reproducible schedule of faults at named
    mediation choke points (the {!site}s); an {!Injector.t} executes a
    plan, deciding at each occurrence of a site whether the fault fires.
    The whole machinery is built so the kernel can attack itself and
    prove fail-secure behaviour: an injected fault may make an operation
    slower (retries, backoff) or make it fail (denial, abort, crash),
    but the decision procedure never touches the reference monitor, so a
    fault can never {e grant} anything.

    Determinism: every probabilistic schedule draws from a
    {!Multics_util.Prng} stream keyed by [(plan seed, site name)], so
    the same plan against the same workload produces the identical
    injection trace — and therefore the identical observability
    snapshot — run after run. *)

(** The mediation choke points faults can be injected at. *)
type site =
  | Page_read  (** parity error reading a page in (vm/page_control) *)
  | Page_write  (** parity error writing a page out on eviction *)
  | Evict  (** eviction attempt fails outright; retried at cost *)
  | Device_transient  (** device I/O transient; retry w/ backoff, then give up *)
  | Net_transient  (** network arrival delayed by a transient *)
  | Consumer_stall  (** the consuming process stalls mid-drain *)
  | Gate_deny  (** gate call refused before the body runs *)
  | Gate_abort  (** gate call aborted after the body ran (mid-dispatch crash) *)
  | Proc_crash  (** the running process crashes at a compute point *)
  | Backup_tape  (** tape write error in the backup daemon *)
  | Cache_flush
      (** the access-decision cache spontaneously flushes (storm-tests
          that invalidation is a performance event, never a
          correctness event) *)
  | Sched_preempt
      (** the traffic controller clamps the running quantum to a sliver,
          forcing a preemption storm — pure extra process-switch cost;
          dispatch order may churn but mediation is schedule-invariant *)
  | Smp_lost_connect
      (** a connect (inter-processor interrupt) is dropped on the wire;
          the sender must detect the missing acknowledgement and fail
          secure — stall and re-signal, never proceed on a possibly
          stale remote associative memory *)
  | Site_drop
      (** a cross-site connect is lost on the inter-site link; the
          origin site must retry with backoff and, past the budget,
          fence the silent peer rather than let it serve stale
          decisions *)
  | Site_delay
      (** a cross-site connect is delivered but slowly (congested
          link); pure extra latency inside the mutation's completion
          window, never a correctness event *)
  | Site_partition
      (** the inter-site link is severed for this transmission — both
          the connect and any acknowledgement are lost, as in a
          network partition *)

val all_sites : site list

val site_name : site -> string
(** The stable external name (["vm.page_read"], ["gate.abort"], ...)
    used by plan specs, observability counters and reports. *)

val site_of_name : string -> site option

(** Fault schedules, per site. *)
type schedule =
  | Nth of int  (** fire on exactly the nth occurrence (1-based) *)
  | Every of int  (** fire on every kth occurrence *)
  | Probability of { num : int; den : int }  (** each occurrence fires with p = num/den *)

val schedule_to_string : schedule -> string

module Plan : sig
  type rule = { site : site; schedule : schedule }

  type t = { seed : int; rules : rule list }

  val empty : t

  val make : seed:int -> (site * schedule) list -> t

  val is_empty : t -> bool

  val to_string : t -> string
  (** Round-trips through {!parse} (modulo the seed, which [parse]
      takes separately). *)

  val parse : seed:int -> string -> (t, string) result
  (** Parse a spec like
      ["gate.deny=every:5,vm.page_read=p:1/8,backup.tape=nth:3"].
      Schedules: [nth:K], [every:K], [p:N/D]. *)
end

module Injector : sig
  type t

  val create : Plan.t -> t

  val plan : t -> Plan.t

  val fire : t -> site -> bool
  (** Count one occurrence of [site] and decide whether the fault
      fires.  Sites without a rule never fire.  Every decision is
      counted through [lib/obs] (["fault.checks"], ["fault.injected"],
      ["fault.injected.<site>"]). *)

  val count_retry : t -> site -> unit
  (** Record one retry forced by an injected fault (["fault.retries"]). *)

  val count_giveup : t -> site -> unit
  (** Record one retry budget exhausted (["fault.giveups"]). *)

  val checks : t -> int
  val injected : t -> int
  val retries : t -> int
  val giveups : t -> int

  val counts : t -> (string * int) list
  (** Totals plus per-site injection counts, for reports and the shell
      [fault status] command; sorted by name. *)
end
