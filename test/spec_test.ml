(* lib/spec: gate-usage profiles and per-workload specialisation.

   The contract under test is E22's: a profile captured from the
   per-gate dispatch counters round-trips through its serialisation;
   a compiled specialisation keeps exactly the profiled gates plus the
   keep-set; and under an installed mask every stripped gate refuses
   with [Gate_absent] — audited, with no kernel state touched — while
   every admitted request behaves byte-for-byte like the full kernel. *)

open Multics_kernel
module Spec = Multics_spec.Spec
module Inventory = Multics_audit.Inventory

let config = Config.kernel_6180
let acl_rw = Multics_access.Acl.of_strings [ ("Alice.Dev.*", "rew") ]
let label = Multics_access.Label.unclassified

type env = { system : System.t; handle : int; home : int; data : int; chan : int }

let expect what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Api.error_to_string e)

let boot () =
  let system = System.create config in
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Multics_access.Label.unclassified);
  let handle =
    match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
    | Ok handle -> handle
    | Error _ -> Alcotest.fail "boot: login"
  in
  let home =
    match User_env.resolve_path system ~handle ~path:">udd>Dev>Alice" with
    | Ok segno -> segno
    | Error _ -> Alcotest.fail "boot: home"
  in
  let data =
    match
      Api.Call.dispatch system ~handle
        (Api.Call.Create_segment
           { dir_segno = home; name = "data"; acl = acl_rw; label; brackets = None })
    with
    | Ok (Api.Call.Segno segno) -> segno
    | _ -> Alcotest.fail "boot: data"
  in
  let chan =
    match Api.Call.dispatch system ~handle Api.Call.Create_channel with
    | Ok (Api.Call.Channel chan) -> chan
    | _ -> Alcotest.fail "boot: channel"
  in
  { system; handle; home; data; chan }

let dispatch env request = Api.Call.dispatch env.system ~handle:env.handle request

(* ----- Profile capture: table-driven over scripted workloads ----- *)

(* Each row: a workload script and the exact gate usage it must
   profile as.  Counts are per-operation dispatch totals, refusals
   included. *)
let capture_cases =
  [
    ( "reads and writes",
      (fun env ->
        expect "w" (Result.map ignore (dispatch env (Api.Call.Write_word { segno = env.data; offset = 0; value = 1 })));
        expect "w" (Result.map ignore (dispatch env (Api.Call.Write_word { segno = env.data; offset = 1; value = 2 })));
        expect "r" (Result.map ignore (dispatch env (Api.Call.Read_word { segno = env.data; offset = 0 })))),
      [ ("read_word", 1); ("write_word", 2) ] );
    ( "ipc only",
      (fun env ->
        expect "wake" (Result.map ignore (dispatch env (Api.Call.Send_wakeup { channel = env.chan })));
        expect "block" (Result.map ignore (dispatch env (Api.Call.Block { channel = env.chan })))),
      [ ("block", 1); ("send_wakeup", 1) ] );
    ( "refused calls count",
      (fun env ->
        (* A wakeup on a channel that does not exist is refused — but
           the workload still reached the gate, so it needs it. *)
        match dispatch env (Api.Call.Send_wakeup { channel = 999 }) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "wakeup on a missing channel succeeded"),
      [ ("send_wakeup", 1) ] );
    ("empty workload", (fun _ -> ()), []);
  ]

let test_profile_capture () =
  List.iter
    (fun (case_name, script, want) ->
      let env = boot () in
      let profile, () = Spec.Profile.observe ~name:case_name (fun () -> script env) in
      Alcotest.(check (list (pair string int)))
        (case_name ^ ": counts") want (Spec.Profile.counts profile);
      Alcotest.(check string) (case_name ^ ": name") case_name (Spec.Profile.name profile))
    capture_cases

let test_profile_round_trip () =
  List.iter
    (fun (case_name, script, _) ->
      let env = boot () in
      let profile, () = Spec.Profile.observe ~name:case_name (fun () -> script env) in
      match Spec.Profile.of_string (Spec.Profile.to_string profile) with
      | Ok replayed ->
          Alcotest.(check (list (pair string int)))
            (case_name ^ ": round-trip counts") (Spec.Profile.counts profile)
            (Spec.Profile.counts replayed);
          Alcotest.(check string)
            (case_name ^ ": round-trip name") (Spec.Profile.name profile)
            (Spec.Profile.name replayed)
      | Error e -> Alcotest.failf "%s: round-trip: %s" case_name e)
    capture_cases

let test_profile_of_string_rejects () =
  List.iter
    (fun (what, text) ->
      match Spec.Profile.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: accepted" what)
    [
      ("empty", "");
      ("bad header", "gate-usage shell\nread_word 3\n");
      ("missing count", "profile p\nread_word\n");
      ("negative count", "profile p\nread_word -1\n");
      ("non-numeric count", "profile p\nread_word many\n");
    ]

let test_profile_merge () =
  let a = Spec.Profile.of_string "profile a\nread_word 2\nblock 1\n" |> Result.get_ok in
  let b = Spec.Profile.of_string "profile b\nread_word 3\nsend_wakeup 4\n" |> Result.get_ok in
  let merged = Spec.Profile.merge ~name:"ab" a b in
  Alcotest.(check (list (pair string int)))
    "merged counts"
    [ ("block", 1); ("read_word", 5); ("send_wakeup", 4) ]
    (Spec.Profile.counts merged)

(* ----- Compilation ----- *)

let test_compile_partition () =
  let profile =
    Spec.Profile.of_string "profile p\nread_word 5\nwrite_word 1\nnot_a_gate 9\n"
    |> Result.get_ok
  in
  let spec = Spec.Specialisation.compile ~name:"p" config profile in
  Alcotest.(check (list string))
    "kept (catalog order)"
    [ "read_word"; "write_word"; "enter_subsystem"; "logout" ]
    (Spec.Specialisation.kept spec);
  let catalog = List.map (fun e -> e.Gate.gate_name) (Gate.catalog config) in
  Alcotest.(check (list string))
    "kept @ stripped is a permutation-free partition of the catalog" catalog
    (List.filter
       (fun g ->
         List.mem g (Spec.Specialisation.kept spec)
         || List.mem g (Spec.Specialisation.stripped spec))
       catalog);
  Alcotest.(check int)
    "counts add up"
    (Spec.Specialisation.full_count spec)
    (Spec.Specialisation.gate_count spec + List.length (Spec.Specialisation.stripped spec));
  Alcotest.(check bool) "admits kept" true (Spec.Specialisation.admits spec ~gate:"read_word");
  Alcotest.(check bool) "refuses stripped" false (Spec.Specialisation.admits spec ~gate:"initiate")

let test_apply_config_mismatch () =
  let env = boot () in
  let spec = Spec.Specialisation.full Config.baseline_645 in
  Alcotest.check_raises "apply on the wrong configuration"
    (Invalid_argument
       "Spec.apply: specialisation full compiled for 645-baseline, system runs security-kernel")
    (fun () -> Spec.Specialisation.apply env.system spec)

(* ----- The directed stripped-gate regression -----

   Install a mask that keeps only the IPC gates (plus login).  Every
   stripped dispatchable gate must refuse with its own [Gate_absent],
   the refusal must land in the audit trail, and no kernel state may
   move: after clearing the mask, the system must be byte-identical —
   request for request — to a twin that never wore a mask. *)

let ipc_spec () =
  let profile =
    Spec.Profile.of_string "profile ipc\ncreate_channel 1\nsend_wakeup 2\nblock 2\n"
    |> Result.get_ok
  in
  Spec.Specialisation.compile ~name:"ipc" config profile

(* One mutation-bearing request per stripped gate, plus its probe: a
   follow-up request (run unmasked) whose answer exposes whether the
   refused request secretly moved state. *)
let stripped_attempts env =
  [
    ("initiate", Api.Call.Initiate { dir_segno = env.home; name = "data" });
    ("terminate", Api.Call.Terminate { segno = env.data });
    ( "create_segment",
      Api.Call.Create_segment
        { dir_segno = env.home; name = "evil"; acl = acl_rw; label; brackets = None } );
    ( "create_directory",
      Api.Call.Create_directory { dir_segno = env.home; name = "evil_dir"; acl = acl_rw; label } );
    ("delete_entry", Api.Call.Delete_entry { dir_segno = env.home; name = "data" });
    ( "rename_entry",
      Api.Call.Rename_entry { dir_segno = env.home; name = "data"; new_name = "gone" } );
    ("list_directory", Api.Call.List_directory { dir_segno = env.home });
    ("status_entry", Api.Call.Status_entry { dir_segno = env.home; name = "data" });
    ("set_acl", Api.Call.Set_acl { segno = env.data; acl = Multics_access.Acl.empty });
    ( "set_brackets",
      Api.Call.Set_brackets { segno = env.data; brackets = Multics_machine.Brackets.user_data } );
    ("set_gate_bound", Api.Call.Set_gate_bound { segno = env.data; gate_bound = 0 });
    ("set_quota", Api.Call.Set_quota { segno = env.home; quota = Some 1 });
    ("read_word", Api.Call.Read_word { segno = env.data; offset = 0 });
    ("write_word", Api.Call.Write_word { segno = env.data; offset = 0; value = 999 });
    ("net_attach", Api.Call.Attach_device { device = Multics_io.Device.Terminal });
    ("net_io", Api.Call.Device_write { device = Multics_io.Device.Terminal; message = 1 });
    ("net_detach", Api.Call.Detach_device { device = Multics_io.Device.Terminal });
  ]

let render = function
  | Ok (Api.Call.Word v) -> Printf.sprintf "word %d" v
  | Ok (Api.Call.Names names) -> "names " ^ String.concat ";" names
  | Ok (Api.Call.Status st) -> Printf.sprintf "status %s/%d" st.Api.status_name st.Api.status_pages
  | Ok _ -> "ok"
  | Error e -> "err " ^ Api.error_to_string e

(* The unmasked observation run: answers that expose any state the
   refused requests could have moved. *)
let observe_state env =
  List.map
    (fun request -> render (dispatch env request))
    [
      Api.Call.List_directory { dir_segno = env.home };
      Api.Call.Status_entry { dir_segno = env.home; name = "data" };
      Api.Call.Read_word { segno = env.data; offset = 0 };
      Api.Call.Status_entry { dir_segno = env.home; name = "evil" };
      Api.Call.Status_entry { dir_segno = env.home; name = "evil_dir" };
    ]

let test_stripped_gates_refuse () =
  let masked = boot () in
  let twin = boot () in
  let spec = ipc_spec () in
  Spec.Specialisation.apply masked.system spec;
  List.iter
    (fun (gate, request) ->
      if not (Spec.Specialisation.admits spec ~gate) then begin
        let audit = System.audit masked.system in
        let refusals_before = Audit_log.refusal_count audit in
        (match dispatch masked request with
        | Error (Api.Gate_absent g) ->
            Alcotest.(check string) (gate ^ ": refused as itself") gate g
        | other -> Alcotest.failf "%s: expected Gate_absent, got %s" gate (render other));
        Alcotest.(check bool)
          (gate ^ ": refusal audited") true
          (Audit_log.refusal_count audit > refusals_before)
      end)
    (stripped_attempts masked);
  (* No partial mutation: unmask and compare against the twin that
     never wore one. *)
  Spec.Specialisation.clear masked.system;
  Alcotest.(check (list string))
    "state untouched by refused requests" (observe_state twin) (observe_state masked)

let test_admitted_gates_identical () =
  let masked = boot () in
  let twin = boot () in
  Spec.Specialisation.apply masked.system (ipc_spec ());
  (* Every admitted request must behave byte-for-byte like the full
     kernel: same replies, same errors. *)
  let admitted env =
    [
      dispatch env Api.Call.Create_channel;
      dispatch env (Api.Call.Send_wakeup { channel = env.chan });
      dispatch env (Api.Call.Block { channel = env.chan });
      dispatch env (Api.Call.Send_wakeup { channel = 999 });
      dispatch env (Api.Call.Block { channel = env.chan });
    ]
  in
  Alcotest.(check (list string))
    "admitted requests render identically"
    (List.map render (admitted twin))
    (List.map render (admitted masked))

let test_status_lines () =
  let env = boot () in
  Alcotest.(check string)
    "no mask" "specialisation: none (full surface, 25 gates)"
    (Spec.Specialisation.status env.system);
  Spec.Specialisation.apply env.system (ipc_spec ());
  Alcotest.(check string)
    "ipc mask" "specialisation: ipc (5 of 25 gates admitted, 20 stripped)"
    (Spec.Specialisation.status env.system);
  (* The full specialisation clears the mask rather than installing a
     table that admits everything. *)
  Spec.Specialisation.apply env.system (Spec.Specialisation.full config);
  Alcotest.(check string)
    "full clears" "specialisation: none (full surface, 25 gates)"
    (Spec.Specialisation.status env.system)

(* ----- E12 accounting for a specialised surface ----- *)

let test_specialised_surface () =
  let all = Inventory.specialised_surface config ~admitted:(fun _ -> true) in
  Alcotest.(check int) "full functional" all.Inventory.functional_full all.Inventory.functional_kept;
  Alcotest.(check int) "full paper" all.Inventory.paper_full all.Inventory.paper_kept;
  Alcotest.(check int) "paper total matches E12" (Inventory.total_gates config) all.Inventory.paper_full;
  let spec = ipc_spec () in
  let some =
    Inventory.specialised_surface config ~admitted:(fun gate ->
        Spec.Specialisation.admits spec ~gate)
  in
  Alcotest.(check int) "functional kept" 5 some.Inventory.functional_kept;
  Alcotest.(check bool)
    "paper surface shrank" true
    (some.Inventory.paper_kept < some.Inventory.paper_full);
  (* ipc kept whole: its inventory gates survive at full strength. *)
  Alcotest.(check bool)
    "kept subsystems keep their paper gates" true
    (some.Inventory.paper_kept >= Inventory.subsystem_gates config ~subsystem:"ipc");
  List.iter
    (fun (subsystem, kept, full) ->
      Alcotest.(check bool) (subsystem ^ ": kept <= full") true (kept <= full))
    some.Inventory.by_subsystem

let suite =
  [
    Alcotest.test_case "profile capture is table-exact" `Quick test_profile_capture;
    Alcotest.test_case "profile round-trips through serialisation" `Quick test_profile_round_trip;
    Alcotest.test_case "profile parser rejects malformed text" `Quick test_profile_of_string_rejects;
    Alcotest.test_case "profile merge sums counts" `Quick test_profile_merge;
    Alcotest.test_case "compile partitions the catalog" `Quick test_compile_partition;
    Alcotest.test_case "apply refuses a foreign configuration" `Quick test_apply_config_mismatch;
    Alcotest.test_case "stripped gates refuse with Gate_absent, audited, no mutation" `Quick
      test_stripped_gates_refuse;
    Alcotest.test_case "admitted gates are byte-identical to the full kernel" `Quick
      test_admitted_gates_identical;
    Alcotest.test_case "status describes the installed mask" `Quick test_status_lines;
    Alcotest.test_case "specialised surface at paper scale" `Quick test_specialised_surface;
  ]
