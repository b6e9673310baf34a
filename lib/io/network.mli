(** Bursty network-input workload driving either buffering strategy
    against a fixed-rate consumer (experiment E7). *)

type strategy = Circular of Circular_buffer.t | Infinite of Infinite_buffer.t

val strategy_name : strategy -> string

type result = {
  strategy : string;
  offered : int;
  delivered : int;
  lost : int;
  peak_occupancy : int;
  peak_pages : int;
  mechanism_statements : int;
}

type workload = {
  bursts : int;
  burst_gap : int;
  intra_burst_gap : int;
  burst_continue_num : int;
  burst_continue_den : int;
  burst_cap : int;
  consume_cycles : int;
}

val default_workload : workload

val run :
  ?seed:int ->
  ?prng:Multics_util.Prng.t ->
  ?faults:Multics_fault.Fault.Injector.t ->
  ?workload:workload ->
  strategy ->
  result
(** Deterministic for a given seed (or caller-supplied [prng] stream,
    which overrides [seed] so workload and fault-plan seeds compose)
    and workload.  [faults] injects [Net_transient] arrival errors
    (retried with exponential backoff, then delivered — transients
    delay, never lose) and [Consumer_stall]s (the consumer parks for
    several service periods mid-drain). *)

(** A point-to-point attachment between two kernel sites: dumb wire at
    a fixed one-way latency, plus the deterministic failure surface a
    distributed fleet needs — fault-injected drops, delays and
    partitions ([site.drop] / [site.delay] / [site.partition]) and an
    operator-severed partition flag.  All retry, backoff and fencing
    policy belongs to the caller ({!Multics_site.Site}); the transport
    only reports what the wire did. *)
module Link : sig
  type t

  (** What one transmission attempt did, with the cycles the sender
      pays before it can know: a delivered connect costs the round trip
      (stretched by congestion under [site.delay]); a dropped or
      severed one costs the outbound latency — the acknowledgement
      timeout on top is the caller's backoff to charge. *)
  type outcome =
    | Delivered of { cycles : int }
    | Dropped of { cycles : int }  (** lost on the wire ([site.drop]) *)
    | Severed of { cycles : int }
        (** partitioned, by operator or by [site.partition] *)

  val delay_factor : int

  val latency : int
  (** Every link's one-way latency: 1,000 cycles. *)

  val create : name:string -> t

  val name : t -> string

  val set_faults : t -> Multics_fault.Fault.Injector.t option -> unit

  val partition : t -> unit
  (** Operator-severed: every transmission is [Severed] until {!heal}. *)

  val heal : t -> unit
  val partitioned : t -> bool

  val transmit : t -> outcome

  val counters : t -> (string * int) list
  (** [sent] / [dropped] / [delayed] / [severed], for the per-link
      status surface. *)
end
