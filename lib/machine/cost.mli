(** Processor cost models for the Honeywell 645 (software-simulated
    rings) and 6180 (hardware rings).  Absolute numbers are synthetic;
    the in-ring vs cross-ring *relation* is the modelled fact. *)

type processor = H645 | H6180

type t = {
  processor : processor;
  call_in_ring : int;
  call_cross_ring : int;
  return_in_ring : int;
  return_cross_ring : int;
  memory_reference : int;
  fault_overhead : int;
  process_switch : int;
  interrupt_entry : int;
  core_transfer : int;  (** cycles to move a page core <-> bulk store *)
  disk_transfer : int;  (** cycles to move a page bulk store <-> disk *)
  sdw_fetch : int;
      (** descriptor fetch charged on an SDW associative-memory miss *)
  ptw_fetch : int;  (** page-table walk charged on a miss in a CPU's PTW memory *)
  connect_ipi : int;
      (** signal a connect (inter-processor interrupt) to one other CPU
          and wait for its associative-memory-cleared acknowledgement *)
}

val h645 : t
val h6180 : t
val of_processor : processor -> t

val call_cost : t -> cross_ring:bool -> int
val return_cost : t -> cross_ring:bool -> int
val round_trip_call_cost : t -> cross_ring:bool -> int

val cross_ring_penalty : t -> float
(** Ratio of a cross-ring round trip to an in-ring round trip; ~100 on
    the 645, ~1 on the 6180. *)

val processor_name : processor -> string
