(* Unit and property tests for Multics_machine: rings, modes, brackets,
   the hardware access check, and the processor cost models. *)

open Multics_machine

let ring = Alcotest.testable Ring.pp Ring.equal

let test_ring_bounds () =
  Alcotest.(check int) "r0" 0 (Ring.to_int Ring.r0);
  Alcotest.(check int) "user" 4 (Ring.to_int Ring.user);
  Alcotest.check ring "kernel is r0" Ring.kernel Ring.r0;
  Alcotest.(check bool) "of_int rejects 8" true
    (try
       ignore (Ring.of_int 8);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "of_int rejects -1" true
    (try
       ignore (Ring.of_int (-1));
       false
     with Invalid_argument _ -> true)

let test_ring_privilege () =
  Alcotest.(check bool) "0 more privileged than 4" true
    (Ring.more_privileged Ring.kernel Ring.user);
  Alcotest.(check bool) "4 not more privileged than 0" false
    (Ring.more_privileged Ring.user Ring.kernel);
  Alcotest.(check bool) "not strictly self" false (Ring.more_privileged Ring.user Ring.user);
  Alcotest.(check bool) "at least self" true (Ring.at_least_privileged Ring.user Ring.user)

let test_mode_strings () =
  Alcotest.(check string) "rw" "rw" (Mode.to_string Mode.rw);
  Alcotest.(check string) "null" "null" (Mode.to_string Mode.none);
  List.iter
    (fun (text, read, execute, write) ->
      let m = Mode.make ~read ~execute ~write () in
      Alcotest.(check string) text text (Mode.to_string m);
      Alcotest.(check bool) ("parse " ^ text) true
        (Mode.equal m (Mode.of_string (if text = "null" then "" else text))))
    [
      ("null", false, false, false); ("w", false, false, true); ("e", false, true, false);
      ("ew", false, true, true); ("r", true, false, false); ("rw", true, false, true);
      ("re", true, true, false); ("rew", true, true, true);
    ];
  Alcotest.(check bool) "roundtrip" true (Mode.equal (Mode.of_string "rew") Mode.rew);
  Alcotest.(check bool) "bad char" true
    (try
       ignore (Mode.of_string "rx");
       false
     with Invalid_argument _ -> true)

let test_mode_lattice () =
  Alcotest.(check bool) "r subset rw" true (Mode.subset Mode.r Mode.rw);
  Alcotest.(check bool) "rw not subset r" false (Mode.subset Mode.rw Mode.r);
  Alcotest.(check bool) "none subset all" true (Mode.subset Mode.none Mode.rew);
  Alcotest.(check bool) "union" true (Mode.equal (Mode.union Mode.r Mode.w) Mode.rw);
  Alcotest.(check bool) "inter" true (Mode.equal (Mode.inter Mode.rw Mode.re) Mode.r)

let test_brackets_validation () =
  Alcotest.(check bool) "r1 > r2 rejected" true
    (try
       ignore (Brackets.make ~r1:3 ~r2:2 ~r3:4);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "valid accepted" true
    (try
       ignore (Brackets.make ~r1:1 ~r2:2 ~r3:5);
       true
     with Invalid_argument _ -> false)

let test_brackets_read_write () =
  let b = Brackets.make ~r1:1 ~r2:3 ~r3:5 in
  Alcotest.(check bool) "write in r0" true (Brackets.write_ok b ~ring:Ring.r0);
  Alcotest.(check bool) "write in r1" true (Brackets.write_ok b ~ring:Ring.r1);
  Alcotest.(check bool) "no write in r2" false (Brackets.write_ok b ~ring:(Ring.of_int 2));
  Alcotest.(check bool) "read in r3" true (Brackets.read_ok b ~ring:(Ring.of_int 3));
  Alcotest.(check bool) "no read in r4" false (Brackets.read_ok b ~ring:Ring.user)

let test_brackets_transfer () =
  let b = Brackets.make ~r1:1 ~r2:3 ~r3:5 in
  (match Brackets.transfer b ~ring:(Ring.of_int 2) with
  | Brackets.Execute_in_place -> ()
  | _ -> Alcotest.fail "r2 should execute in place");
  (match Brackets.transfer b ~ring:(Ring.of_int 5) with
  | Brackets.Inward_call r -> Alcotest.(check int) "lands in r3" 3 (Ring.to_int r)
  | _ -> Alcotest.fail "r5 should be an inward call");
  (match Brackets.transfer b ~ring:Ring.r0 with
  | Brackets.Outward_call_fault -> ()
  | _ -> Alcotest.fail "r0 should fault outward");
  match Brackets.transfer b ~ring:(Ring.of_int 6) with
  | Brackets.Beyond_call_bracket -> ()
  | _ -> Alcotest.fail "r6 is beyond the call bracket"

let test_hardware_gate_call () =
  let sdw = Sdw.kernel_gate_segment ~gate_bound:3 in
  (match Hardware.check sdw ~ring:Ring.user ~operation:(Hardware.Call 2) with
  | Hardware.Granted (Hardware.Gate_entry r) ->
      Alcotest.(check int) "enters ring 0" 0 (Ring.to_int r)
  | other -> Alcotest.fail (Fmt.str "expected gate entry, got %a" Hardware.pp_decision other));
  match Hardware.check sdw ~ring:Ring.user ~operation:(Hardware.Call 3) with
  | Hardware.Denied (Hardware.Not_a_gate 3) -> ()
  | other -> Alcotest.fail (Fmt.str "expected not-a-gate, got %a" Hardware.pp_decision other)

let test_hardware_user_segment () =
  let sdw = Sdw.user_data_segment ~writable:true in
  Alcotest.(check bool) "user reads" true
    (Hardware.allowed sdw ~ring:Ring.user ~operation:Hardware.Read);
  Alcotest.(check bool) "user writes" true
    (Hardware.allowed sdw ~ring:Ring.user ~operation:Hardware.Write);
  Alcotest.(check bool) "ring 5 cannot read" false
    (Hardware.allowed sdw ~ring:(Ring.of_int 5) ~operation:Hardware.Read);
  Alcotest.(check bool) "no execute without e bit" false
    (Hardware.allowed sdw ~ring:Ring.user ~operation:Hardware.Execute)

let test_hardware_kernel_data_hidden () =
  let sdw = Sdw.kernel_data_segment in
  Alcotest.(check bool) "user cannot read kernel data" false
    (Hardware.allowed sdw ~ring:Ring.user ~operation:Hardware.Read);
  Alcotest.(check bool) "user cannot write kernel data" false
    (Hardware.allowed sdw ~ring:Ring.user ~operation:Hardware.Write);
  Alcotest.(check bool) "kernel reads its data" true
    (Hardware.allowed sdw ~ring:Ring.kernel ~operation:Hardware.Read)

let test_hardware_no_plain_jump_inward () =
  (* A plain transfer (Execute) may not cross rings even to a gate
     segment; only Call enters through the gate discipline. *)
  let sdw = Sdw.kernel_gate_segment ~gate_bound:8 in
  match Hardware.check sdw ~ring:Ring.user ~operation:Hardware.Execute with
  | Hardware.Denied _ -> ()
  | Hardware.Granted _ -> Alcotest.fail "plain jump crossed a ring boundary"

let test_cost_models () =
  Alcotest.(check bool) "645 penalty is large" true (Cost.cross_ring_penalty Cost.h645 > 50.0);
  Alcotest.(check bool) "6180 penalty is ~1" true (Cost.cross_ring_penalty Cost.h6180 < 1.5);
  Alcotest.(check int) "in-ring call same on both" Cost.h645.Cost.call_in_ring
    Cost.h6180.Cost.call_in_ring

let test_clock () =
  let c = Clock.create () in
  Alcotest.(check int) "starts at 0" 0 (Clock.now c);
  Clock.advance c 10;
  Clock.advance_to c 5;
  Alcotest.(check int) "no rewind" 10 (Clock.now c);
  Clock.advance_to c 25;
  Alcotest.(check int) "advance_to" 25 (Clock.now c);
  Alcotest.(check int) "elapsed" 15 (Clock.elapsed c ~since:10);
  Alcotest.(check bool) "negative advance rejected" true
    (try
       Clock.advance c (-1);
       false
     with Invalid_argument _ -> true)

(* Property: the bracket rule is monotone — if a ring may write, every
   more privileged ring may write too; same for read. *)
let bracket_monotone_prop =
  let gen =
    QCheck.Gen.(
      let* r1 = int_range 0 7 in
      let* r2 = int_range r1 7 in
      let* r3 = int_range r2 7 in
      let* ring = int_range 1 7 in
      return (r1, r2, r3, ring))
  in
  QCheck.Test.make ~name:"bracket checks monotone in privilege" ~count:500
    (QCheck.make gen) (fun (r1, r2, r3, ring) ->
      let b = Brackets.make ~r1 ~r2 ~r3 in
      let inner = Ring.of_int (ring - 1) in
      let outer = Ring.of_int ring in
      (not (Brackets.write_ok b ~ring:outer) || Brackets.write_ok b ~ring:inner)
      && ((not (Brackets.read_ok b ~ring:outer)) || Brackets.read_ok b ~ring:inner))

(* Property: a Call decision never grants execution in a ring less
   privileged than the caller's (calls only go inward or stay). *)
let call_never_outward_prop =
  let gen =
    QCheck.Gen.(
      let* r1 = int_range 0 7 in
      let* r2 = int_range r1 7 in
      let* r3 = int_range r2 7 in
      let* ring = int_range 0 7 in
      let* gates = int_range 0 4 in
      let* entry = int_range 0 5 in
      return (r1, r2, r3, ring, gates, entry))
  in
  QCheck.Test.make ~name:"call grants never raise the ring number" ~count:500
    (QCheck.make gen) (fun (r1, r2, r3, ring, gates, entry) ->
      let sdw =
        Sdw.make ~gate_bound:gates ~mode:Mode.re ~brackets:(Brackets.make ~r1 ~r2 ~r3) ()
      in
      match Hardware.check sdw ~ring:(Ring.of_int ring) ~operation:(Hardware.Call entry) with
      | Hardware.Granted (Hardware.Gate_entry target) -> Ring.to_int target <= ring
      | Hardware.Granted Hardware.Access_ok | Hardware.Denied _ -> true)

let suite =
  [
    ("ring bounds", `Quick, test_ring_bounds);
    ("ring privilege", `Quick, test_ring_privilege);
    ("mode strings", `Quick, test_mode_strings);
    ("mode lattice", `Quick, test_mode_lattice);
    ("brackets validation", `Quick, test_brackets_validation);
    ("brackets read/write", `Quick, test_brackets_read_write);
    ("brackets transfer", `Quick, test_brackets_transfer);
    ("hardware gate call", `Quick, test_hardware_gate_call);
    ("hardware user segment", `Quick, test_hardware_user_segment);
    ("hardware kernel data hidden", `Quick, test_hardware_kernel_data_hidden);
    ("hardware no plain jump inward", `Quick, test_hardware_no_plain_jump_inward);
    ("cost models", `Quick, test_cost_models);
    ("clock", `Quick, test_clock);
    QCheck_alcotest.to_alcotest bracket_monotone_prop;
    QCheck_alcotest.to_alcotest call_never_outward_prop;
  ]
