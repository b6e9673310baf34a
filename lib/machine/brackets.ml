(* Ring brackets and the hardware access rule.

   Every segment carries three bracket rings (r1 <= r2 <= r3), per the
   Schroeder–Saltzer ring hardware (CACM 15,3 1972), which the
   Honeywell 6180 implements directly and the 645 simulated in
   software.  For a process executing in ring [r]:

     write  permitted when             r <= r1
     read   permitted when             r <= r2
     execute (transfer) when    r1 <= r <= r2   (no ring change)
     call   when                r2 <  r <= r3   (gate required;
                                                 ring changes to r2)

   A transfer from r < r1 would be an "outward call"; the 6180 could
   express it but Multics forbade it (returning securely is the hard
   part), so the model faults it. *)

type t = { write_top : Ring.t; execute_top : Ring.t; call_top : Ring.t }

let make ~r1 ~r2 ~r3 =
  if not (r1 <= r2 && r2 <= r3) then
    invalid_arg (Printf.sprintf "Brackets.make: need r1 <= r2 <= r3, got (%d,%d,%d)" r1 r2 r3);
  { write_top = Ring.of_int r1; execute_top = Ring.of_int r2; call_top = Ring.of_int r3 }

let write_top t = t.write_top
let execute_top t = t.execute_top
let call_top t = t.call_top

(* Common shapes.  [kernel_gate]: a ring-0 procedure callable from any
   ring through a gate — the shape of every supervisor entry.  *)
let user_data = make ~r1:4 ~r2:4 ~r3:4
let user_procedure = make ~r1:4 ~r2:4 ~r3:4
let kernel_private = make ~r1:0 ~r2:0 ~r3:0
let kernel_gate = make ~r1:0 ~r2:0 ~r3:7

let for_single_ring r = make ~r1:r ~r2:r ~r3:r

let read_ok t ~ring = Ring.to_int ring <= Ring.to_int t.execute_top

let write_ok t ~ring = Ring.to_int ring <= Ring.to_int t.write_top

type transfer =
  | Execute_in_place  (** r1 <= r <= r2: runs in the caller's ring *)
  | Inward_call of Ring.t  (** r2 < r <= r3: gate call; new ring is r2 *)
  | Outward_call_fault  (** r < r1: forbidden outward transfer *)
  | Beyond_call_bracket  (** r > r3: no access at all *)

let transfer t ~ring =
  let r = Ring.to_int ring in
  let r1 = Ring.to_int t.write_top in
  let r2 = Ring.to_int t.execute_top in
  let r3 = Ring.to_int t.call_top in
  if r < r1 then Outward_call_fault
  else if r <= r2 then Execute_in_place
  else if r <= r3 then Inward_call t.execute_top
  else Beyond_call_bracket

let equal a b =
  Ring.equal a.write_top b.write_top
  && Ring.equal a.execute_top b.execute_top
  && Ring.equal a.call_top b.call_top

let pp ppf t =
  Fmt.pf ppf "(%d,%d,%d)" (Ring.to_int t.write_top) (Ring.to_int t.execute_top)
    (Ring.to_int t.call_top)
