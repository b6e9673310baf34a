(** The backup daemon: a dedicated kernel process sweeping modified
    core pages to tape on a fixed period — one of the internal I/O
    functions the paper keeps in the kernel, implemented as an
    asynchronous parallel process. *)

open Multics_mm
open Multics_proc

type t

type error = Bad_period of int | Bad_sweeps of int

val pp_error : Format.formatter -> error -> unit

val start :
  ?faults:Multics_fault.Fault.Injector.t ->
  period:int ->
  sweeps:int ->
  Sim.t ->
  mem:Memory.t ->
  (t, error) result
(** Spawn the daemon on a dedicated virtual processor and schedule
    [sweeps] period wakeups.  Returns [Error] on a non-positive
    period or sweep count.  A page costs 12,000 cycles to copy to
    tape.  [faults] injects [Backup_tape] write errors: each retry
    doubles that cost, and after three failed
    attempts the page is given up on and stays dirty (still
    vulnerable) for the next sweep. *)

val start_exn :
  ?faults:Multics_fault.Fault.Injector.t ->
  period:int ->
  sweeps:int ->
  Sim.t ->
  mem:Memory.t ->
  t
(** [start], raising [Invalid_argument] on bad parameters — for
    callers that have already validated them. *)

val set_faults : t -> Multics_fault.Fault.Injector.t option -> unit

val pid : t -> Sim.pid option
val sweeps_done : t -> int
val pages_backed_up : t -> int

val tape_errors : t -> int
(** Injected tape write errors observed (also [backup.tape_errors] in
    the obs registry). *)

val tape_giveups : t -> int
(** Pages abandoned after exhausting the retry budget in one sweep. *)

val sweep_trace : t -> (int * int) list
(** (completion time, pages backed up) per sweep. *)

val vulnerable_pages : t -> Page_id.t list
(** Core pages still modified and unbacked. *)
