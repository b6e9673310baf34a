(* Segment descriptor words.

   The per-process descriptor segment maps segment numbers to SDWs; an
   SDW carries everything the processor needs to validate a reference
   without consulting software: the permitted modes, the ring brackets,
   and the gate bound (entry offsets below the bound are legal gate
   targets for inward calls). *)

type t = {
  mode : Mode.t;
  brackets : Brackets.t;
  gate_bound : int;  (** offsets [0, gate_bound) are gates; 0 = no gates *)
}

let make ?(gate_bound = 0) ~mode ~brackets () =
  if gate_bound < 0 then invalid_arg "Sdw.make: negative gate bound";
  { mode; brackets; gate_bound }

let mode t = t.mode
let brackets t = t.brackets
let gate_bound t = t.gate_bound

let is_gate_offset t offset = offset >= 0 && offset < t.gate_bound

let user_data_segment ~writable =
  let mode = if writable then Mode.rw else Mode.r in
  make ~mode ~brackets:Brackets.user_data ()

let kernel_gate_segment ~gate_bound = make ~gate_bound ~mode:Mode.re ~brackets:Brackets.kernel_gate ()

let kernel_data_segment = make ~mode:Mode.rw ~brackets:Brackets.kernel_private ()

let pp ppf t =
  Fmt.pf ppf "{mode=%a brackets=%a gates=%d}" Mode.pp t.mode Brackets.pp t.brackets t.gate_bound
