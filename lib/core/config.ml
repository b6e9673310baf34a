(* Kernel configurations: the paper's engineering program as data.

   Each of the four activity categories — review, removal,
   simplification, partitioning — changes where a mechanism lives or
   which of two designs is in force.  A [Config.t] fixes every such
   choice, so the experiments can compare the supervisor before and
   after each step.  [stages] lists the canonical progression from the
   645 baseline supervisor to the target 6180 security kernel. *)

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
  naming : Multics_link.Rnt.placement;  (** RNT + tree-name resolution *)
  io : io_strategy;
  buffer : buffer_strategy;
  page_control : Multics_vm.Page_control.discipline;
  interrupts : Multics_proc.Interrupt.discipline;
  page_policy : policy_placement;
  init : init_strategy;
  login : login_mechanism;
}

let policy_placement_name = function
  | Policy_in_ring0 -> "policy in ring 0"
  | Policy_in_ring1 -> "policy in ring 1"

let init_strategy_name = function
  | Bootstrap -> "bootstrap each start"
  | Memory_image -> "memory image"

(* The supervisor as the project found it: software rings on the 645,
   everything in ring 0, with the historically attested linker flaws
   present. *)
let baseline_645 =
  {
    name = "645-baseline";
    processor = Multics_machine.Cost.H645;
    linker = Multics_link.Linker.In_kernel;
    linker_flaws =
      [ Multics_link.Linker.Unvalidated_input; Multics_link.Linker.Supervisor_authority_walk ];
    naming = Multics_link.Rnt.In_kernel;
    io = Device_drivers;
    buffer = Circular_ring 64;
    page_control = Multics_vm.Page_control.Sequential;
    interrupts = Multics_proc.Interrupt.Inline;
    page_policy = Policy_in_ring0;
    init = Bootstrap;
    login = Privileged_login;
  }

(* Stage 1 — review + new hardware: the 6180 implements the rings, and
   the review activity repairs the known linker flaws in place. *)
let hardware_rings =
  { baseline_645 with name = "6180-hardware-rings"; processor = Multics_machine.Cost.H6180; linker_flaws = [] }

(* Stage 2 — removal: the linker leaves the kernel (Janson). *)
let linker_removed =
  { hardware_rings with name = "linker-removed"; linker = Multics_link.Linker.In_user_ring }

(* Stage 3 — removal: reference names and tree-walking leave the
   kernel (Bratt). *)
let naming_removed =
  { linker_removed with name = "naming-removed"; naming = Multics_link.Rnt.In_user_ring }

(* Stage 4 — simplification: network-only external I/O and the
   infinite buffer. *)
let simplified_io =
  { naming_removed with name = "network-io"; io = Network_only; buffer = Infinite_vm }

(* Stage 5 — simplification: parallel kernel processes for page
   control and interrupts. *)
let parallel_kernel =
  {
    simplified_io with
    name = "parallel-kernel-processes";
    page_control = Multics_vm.Page_control.Parallel_processes;
    interrupts = Multics_proc.Interrupt.Handler_processes;
  }

(* Stage 6 — partitioning: policy out of ring 0, memory-image
   initialization, unified login/subsystem entry.  The target kernel. *)
let kernel_6180 =
  {
    parallel_kernel with
    name = "security-kernel";
    page_policy = Policy_in_ring1;
    init = Memory_image;
    login = Unified_subsystem_entry;
  }

let stages =
  [
    baseline_645;
    hardware_rings;
    linker_removed;
    naming_removed;
    simplified_io;
    parallel_kernel;
    kernel_6180;
  ]

let cost t = Multics_machine.Cost.of_processor t.processor

let pp ppf t = Fmt.string ppf t.name
