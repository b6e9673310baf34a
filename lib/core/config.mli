(** Kernel configurations: every before/after choice in the paper's
    engineering program, as one record.  {!stages} is the canonical
    progression from the 645 baseline supervisor to the target
    security kernel. *)

type io_strategy = Device_drivers | Network_only

type buffer_strategy = Circular_ring of int | Infinite_vm

type policy_placement = Policy_in_ring0 | Policy_in_ring1

type init_strategy = Bootstrap | Memory_image

type login_mechanism = Privileged_login | Unified_subsystem_entry

type t = {
  name : string;
  processor : Multics_machine.Cost.processor;
  linker : Multics_link.Linker.placement;
  linker_flaws : Multics_link.Linker.flaw list;
  naming : Multics_link.Rnt.placement;
  io : io_strategy;
  buffer : buffer_strategy;
  page_control : Multics_vm.Page_control.discipline;
  interrupts : Multics_proc.Interrupt.discipline;
  page_policy : policy_placement;
  init : init_strategy;
  login : login_mechanism;
}

val policy_placement_name : policy_placement -> string
val init_strategy_name : init_strategy -> string

val baseline_645 : t
(** The pre-project supervisor: 645 processor, everything in ring 0,
    historical linker flaws present. *)

val hardware_rings : t
(** Review stage: 6180 hardware rings, known flaws repaired. *)

val linker_removed : t
val naming_removed : t
val simplified_io : t
val parallel_kernel : t

val kernel_6180 : t
(** The target security kernel: all removals, simplifications and
    partitionings applied. *)

val stages : t list
(** The seven configurations above, in engineering order. *)

val cost : t -> Multics_machine.Cost.t

val pp : Format.formatter -> t -> unit
