(** Deterministic discrete-event simulator implementing the paper's
    two-layer process design: a fixed pool of virtual processors
    (layer 1), multiplexed among any number of processes (layer 2),
    with counted-wakeup IPC channels.

    Process bodies are ordinary functions that suspend via {!compute}
    and {!block}; those two functions must only be called from inside a
    running process body. *)

open Multics_machine

type t

type pid = int

type chan
(** An event channel with counted wakeups: a wakeup that finds no
    waiter is remembered and satisfies the next [block] immediately. *)

val create : cost:Cost.t -> virtual_processors:int -> t
(** A simulator running the seed FIFO traffic controller (see
    {!set_scheduler}).  Raises [Invalid_argument] if
    [virtual_processors <= 0]. *)

exception Process_crashed
(** What a process body observes when an injected [Proc_crash] fault
    fires at one of its compute points; recorded via {!failure_of}. *)

val set_faults : t -> Multics_fault.Fault.Injector.t option -> unit
(** Install (or clear) a fault injector.  The only site the simulator
    itself consults is [Proc_crash], checked at every [compute]. *)

val fault_injector : t -> Multics_fault.Fault.Injector.t option
(** The installed injector, so subsystems riding on the simulator (the
    traffic controller's [sched.preempt_storm] site) share one plan. *)

(** {1 The traffic controller hook}

    [lib/sched] lives above this library, so layer 2 consults the
    traffic controller through a neutral record of closures, and only
    through it.  {!create} installs the seed discipline as one: a FIFO
    ready queue with unlimited quanta.  [Sched.create] replaces it.
    Dedicated processes (reserved VPs) never pass through the
    scheduler: they are the kernel mechanisms the controller itself
    relies on, and preempting them could deadlock page control.

    Preemption only reorders and delays work; a preempted process keeps
    its parked continuation and owed cycles, and continues unchanged
    when next dispatched.  The scheduler therefore cannot perturb any
    computed result — only timing. *)

type scheduler = {
  sched_enqueue : pid -> unit;
      (** a process became ready (spawn or counted wakeup) *)
  sched_select : vp:int -> pid option;
      (** pick (and dequeue) the next process for the given free VP;
          the VP index identifies the simulated CPU doing the
          selecting, so a multiprocessor plant can charge ready-queue
          lock contention to the right dispatcher *)
  sched_quantum : pid -> int option;
      (** quantum for this dispatch; [None] = run until block *)
  sched_quantum_expired : pid -> preempted:bool -> unit;
      (** the quantum ran out; [preempted] iff compute was still owed *)
  sched_blocked : pid -> unit;  (** the process surrendered its VP to wait *)
  sched_retired : pid -> unit;  (** the process terminated *)
  sched_backlog : unit -> int;
      (** ready + admission-stalled processes held by the scheduler;
          consulted by {!quiescent} *)
}

val set_scheduler : t -> scheduler -> unit
(** Replace the traffic controller.  Install it before spawning the
    processes it is to manage: processes the replaced one still holds
    are not carried over. *)

val reschedule : t -> unit
(** Re-run dispatch: bind ready processes to free VPs.  Call after an
    external change makes new processes selectable (e.g. the traffic
    controller admitted a stalled process when eligibility freed up). *)

val now : t -> int
(** Simulated time in cycles. *)

val cost_model : t -> Cost.t

(** {1 Channels} *)

val new_channel : t -> name:string -> chan
val waiter_count : chan -> int
val pending_wakeups : chan -> int

val wakeup : t -> chan -> unit
(** Wake the first waiter, or record a pending wakeup.  Callable from
    anywhere (process bodies, interrupt thunks, test code). *)

val broadcast : t -> chan -> unit
(** Wake every current waiter; records nothing if there are none. *)

(** {1 Processes} *)

val spawn : ?ring:Ring.t -> ?dedicated:bool -> t -> name:string -> (pid -> unit) -> pid
(** Create a process.  [~dedicated:true] permanently reserves a
    virtual processor for it (the paper's kernel processes); raises
    [Invalid_argument] if none is free.  Default ring is {!Ring.user}. *)

val compute : int -> unit
(** Consume simulated cycles.  Only inside a process body. *)

val block : chan -> unit
(** Wait for a wakeup on the channel.  Only inside a process body. *)

val name_of : t -> pid -> string

type proc_state = Unborn | Ready | Running | Blocked of chan | Terminated

val state_of : t -> pid -> proc_state

val cycles_of : t -> pid -> int
(** Total cycles the process has consumed (including perturbations). *)

val perturbations_of : t -> pid -> int

val failure_of : t -> pid -> string option
(** Exception text if the process body raised. *)

val exit_channel : t -> pid -> chan
(** Broadcast when the process terminates. *)

val processes : t -> pid list
val running_pids : t -> pid list
val blocked_pids : t -> pid list

val perturb : t -> pid -> int -> unit
(** Charge cycles to a process from outside — the inline interrupt
    discipline stealing time from its victim. *)

(** {1 External events and the main loop} *)

type event = Start of pid | Resume of pid | Slice of pid | Thunk of (unit -> unit)
(** What the event queue carries.  Public so an external driver (the
    model checker, [lib/mc]) can see the transition alphabet; inside
    this library only [step] pops events. *)

val at : t -> delay:int -> (unit -> unit) -> unit
(** Schedule a thunk (device arrival, interrupt) at [now + delay]. *)

val apply : t -> time:int -> event -> unit
(** The pure transition function: advance the clock to [time] and
    apply one event — exactly what [step] does after popping.  The
    split lets a replay driver run a recorded schedule through the
    real transition code without a second interpretation of events. *)

val step : t -> bool
(** Pop one event and {!apply} it; false when the queue is empty. *)

val run : t -> unit
(** Run until no events remain.  Raises [Failure] past 10M events — a
    livelock guard. *)

val run_until : t -> time:int -> unit
(** Process events up to and including [time], then advance the clock
    to [time]. *)

val quiescent : t -> bool

(** {1 Tracing} *)

val set_trace : t -> bool -> unit
val trace : t -> string -> unit
val tracef : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
val trace_lines : t -> (int * string) list
