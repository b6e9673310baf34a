(** The full-system simulation: the kernel joined to the machine
    substrate, with user programs running as simulated processes.
    Kernel-entering steps pay the processor's cross-ring cost, content
    references page through the virtual memory, [Compute] steps consume
    cycles. *)

open Multics_mm
open Multics_proc
open Multics_vm

type t

val boot :
  ?virtual_processors:int -> ?core:int -> ?bulk:int -> ?disk:int -> Config.t -> t
(** Boot a system plus its simulated machine: page control in the
    configured discipline, and the configured devices registered under
    the configured interrupt discipline.  Defaults: 10 virtual
    processors, 16 core frames, 64 bulk blocks, 1024 disk blocks. *)

val system : t -> System.t
val sim : t -> Sim.t
val memory : t -> Memory.t
val page_control : t -> Page_control.t
val interrupts : t -> Interrupt.t

val post_interrupt : ?delay:int -> t -> device:Multics_io.Device.kind -> unit
(** Deliver a device interrupt; under network-only I/O every external
    device arrives through the network attachment. *)

val run_user : t -> handle:int -> Program.t -> Sim.pid
(** Spawn the program as a simulated process of the logged-in process
    [handle]. *)

val run : t -> unit
(** Run the simulation to quiescence. *)

val now : t -> int

val results : t -> (Sim.pid * string * Program.outcome) list
(** (pid, program name, outcome) in completion order. *)

val all_completed : t -> bool

val gate_cycles : t -> int
(** Total cycles spent crossing into the kernel. *)

val kernel_entries : t -> int
(** Actual supervisor entries made (audit-derived): a user-ring
    resolve counts one per initiate call. *)

val compute_cycles : t -> int

type report = {
  elapsed : int;
  programs : int;
  programs_completed : int;
  total_gate_calls : int;
  gate_cycles_total : int;
  compute_cycles_total : int;
  page_faults : int;
  security_overhead : float;
}

val report : t -> report
