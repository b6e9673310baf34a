(* Processor cost models.

   The paper's removal argument turns on one hardware fact: on the
   Honeywell 645 the protection rings were simulated in software, so a
   call that changed rings cost two orders of magnitude more than a
   call that did not; on the 6180 the rings are in hardware and "calls
   from one ring to another now cost no more than calls inside a ring".
   The absolute cycle numbers below are synthetic (we do not have the
   authors' testbed); what the model preserves is the *relation*
   between in-ring and cross-ring costs on each machine, which is all
   the paper's argument uses. *)

type processor = H645 | H6180

type t = {
  processor : processor;
  call_in_ring : int;  (** call + save + return sequence, same ring *)
  call_cross_ring : int;  (** call through a gate into another ring *)
  return_in_ring : int;
  return_cross_ring : int;
  memory_reference : int;  (** one validated read or write *)
  fault_overhead : int;  (** taking any fault into the supervisor *)
  process_switch : int;  (** dispatch a different process on the CPU *)
  interrupt_entry : int;  (** interceptor entry/exit on an interrupt *)
  core_transfer : int;  (** page move core <-> bulk store *)
  disk_transfer : int;  (** page move bulk store <-> disk *)
  sdw_fetch : int;  (** descriptor fetch on an associative-memory miss *)
  ptw_fetch : int;  (** page-table walk on a miss in a CPU's PTW memory *)
  connect_ipi : int;
      (** signal a connect (inter-processor interrupt) to one other CPU
          and wait for its associative-memory-cleared acknowledgement *)
}

(* On the 645, a cross-ring call trapped to a supervisor module that
   simulated the ring change: validated the gate, copied arguments,
   swapped descriptor segments.  Hundreds of instructions against ~20
   for a plain call. *)
let h645 =
  {
    processor = H645;
    call_in_ring = 20;
    call_cross_ring = 2_400;
    return_in_ring = 14;
    return_cross_ring = 1_800;
    memory_reference = 2;
    fault_overhead = 600;
    process_switch = 1_200;
    interrupt_entry = 350;
    core_transfer = 8_000;
    disk_transfer = 70_000;
    (* The 645's appending hardware was first-generation: a miss in its
       small associative memory meant a slow descriptor reload, partly
       assisted by supervisor software. *)
    sdw_fetch = 24;
    ptw_fetch = 8;
    (* The 645 had no connect instruction; a cross-processor signal
       went through a mailbox poll plus the full software interrupt
       path on the receiver. *)
    connect_ipi = 700;
  }

(* On the 6180 the appending unit checks brackets and gates on every
   reference: "calls from one ring to another now cost no more than
   calls inside a ring" — the cross-ring figures equal the in-ring
   ones. *)
let h6180 =
  {
    processor = H6180;
    call_in_ring = 20;
    call_cross_ring = 20;
    return_in_ring = 14;
    return_cross_ring = 14;
    memory_reference = 2;
    fault_overhead = 450;
    process_switch = 900;
    interrupt_entry = 250;
    core_transfer = 6_000;
    disk_transfer = 60_000;
    (* The 6180's 16-word associative memory refills straight from the
       descriptor/page-table words in core — a miss is cheap, and a hit
       costs nothing beyond the reference itself. *)
    sdw_fetch = 12;
    ptw_fetch = 4;
    (* The 6180's cioc ("connect i/o channel") raises a connect fault
       directly on the target processor; the receiver's handler only
       has to clear its associative memory and acknowledge. *)
    connect_ipi = 300;
  }

let of_processor = function H645 -> h645 | H6180 -> h6180

let call_cost t ~cross_ring = if cross_ring then t.call_cross_ring else t.call_in_ring

let return_cost t ~cross_ring = if cross_ring then t.return_cross_ring else t.return_in_ring

let round_trip_call_cost t ~cross_ring = call_cost t ~cross_ring + return_cost t ~cross_ring

let cross_ring_penalty t =
  float_of_int (round_trip_call_cost t ~cross_ring:true)
  /. float_of_int (round_trip_call_cost t ~cross_ring:false)

let processor_name = function H645 -> "H645" | H6180 -> "H6180"
