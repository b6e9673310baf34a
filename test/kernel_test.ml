(* Tests for Multics_kernel: configurations, the gate catalog, the
   system/API surface, the user-ring environment, subsystem entry,
   initialization and the policy/mechanism partition. *)

open Multics_access
open Multics_kernel

let check_api what r =
  match r with Ok v -> v | Error e -> Alcotest.fail (what ^ ": " ^ Api.error_to_string e)

let check_env what r =
  match r with Ok v -> v | Error e -> Alcotest.fail (what ^ ": " ^ User_env.error_to_string e)

let boot ?(config = Config.kernel_6180) () =
  let system = System.create config in
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  let alice =
    match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
    | Ok handle -> handle
    | Error e -> Alcotest.fail (System.login_error_to_string e)
  in
  (system, alice)

(* ----- Gate catalog (E1/E3 functional surface) ----- *)

let test_gate_counts_baseline () =
  Alcotest.(check int) "baseline gates" 60 (Gate.count Config.baseline_645);
  Alcotest.(check int) "after linker removal" 54 (Gate.count Config.linker_removed);
  Alcotest.(check int) "after naming removal" 40 (Gate.count Config.naming_removed)

let test_gate_removal_fractions () =
  let baseline = float_of_int (Gate.count Config.hardware_rings) in
  let linker_share = (baseline -. float_of_int (Gate.count Config.linker_removed)) /. baseline in
  let combined = (baseline -. float_of_int (Gate.count Config.naming_removed)) /. baseline in
  Alcotest.(check (float 0.005)) "linker ~10%" 0.10 linker_share;
  Alcotest.(check (float 0.01)) "combined ~1/3" 0.333 combined

let test_gate_monotone_shrink () =
  (* The partitioning stage adds a ring-1 mechanism interface, so the
     monotone quantity is the USER-callable surface. *)
  let counts = List.map Gate.user_callable_count Config.stages in
  let rec non_increasing = function
    | a :: b :: rest -> a >= b && non_increasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "user-callable gates never grow across stages" true
    (non_increasing counts)

let test_gate_find () =
  Alcotest.(check bool) "snap_link present in baseline" true
    (Gate.find Config.baseline_645 ~gate_name:"snap_link" <> None);
  Alcotest.(check bool) "snap_link absent in kernel" true
    (Gate.find Config.kernel_6180 ~gate_name:"snap_link" = None);
  match Gate.find Config.kernel_6180 ~gate_name:"pm_move_to_bulk" with
  | Some entry ->
      Alcotest.(check int) "pm gate bracket is ring 1" 1
        (Multics_machine.Ring.to_int entry.Gate.call_top)
  | None -> Alcotest.fail "pm gate missing from kernel config"

(* ----- Login / processes ----- *)

let test_login_and_bad_password () =
  let system, _alice = boot () in
  (match System.login system ~person:"Alice" ~project:"Dev" ~password:"wrong" with
  | Error System.Bad_password -> ()
  | Ok _ | Error _ -> Alcotest.fail "bad password accepted");
  match System.login system ~person:"Nobody" ~project:"Dev" ~password:"pw" with
  | Error System.Unknown_account -> ()
  | Ok _ | Error _ -> Alcotest.fail "unknown account accepted"

let test_login_ring_by_mechanism () =
  let sys_priv = System.create Config.baseline_645 in
  ignore
    (System.add_account sys_priv ~person:"A" ~project:"P" ~password:"x"
       ~clearance:Label.unclassified);
  let h1 =
    match System.login sys_priv ~person:"A" ~project:"P" ~password:"x" with
    | Ok h -> h
    | Error e -> Alcotest.fail (System.login_error_to_string e)
  in
  (match System.proc sys_priv h1 with
  | Some p ->
      Alcotest.(check int) "privileged login ran in ring 0" 0
        (Multics_machine.Ring.to_int p.System.login_ring)
  | None -> Alcotest.fail "no proc");
  let sys_uni = System.create Config.kernel_6180 in
  ignore
    (System.add_account sys_uni ~person:"A" ~project:"P" ~password:"x"
       ~clearance:Label.unclassified);
  let h2 =
    match System.login sys_uni ~person:"A" ~project:"P" ~password:"x" with
    | Ok h -> h
    | Error e -> Alcotest.fail (System.login_error_to_string e)
  in
  match System.proc sys_uni h2 with
  | Some p ->
      Alcotest.(check int) "unified login ran outside the kernel" 2
        (Multics_machine.Ring.to_int p.System.login_ring)
  | None -> Alcotest.fail "no proc"

(* ----- The API surface ----- *)

let test_create_write_read () =
  let system, alice = boot () in
  let segno =
    check_env "create"
      (User_env.create_segment_at system ~handle:alice ~path:">udd>Dev>Alice>notes"
         ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ])
         ~label:Label.unclassified)
  in
  check_api "write" (Gate_calls.write_word system ~handle:alice ~segno ~offset:3 ~value:42);
  Alcotest.(check int) "read back" 42
    (check_api "read" (Gate_calls.read_word system ~handle:alice ~segno ~offset:3))

let test_copy_independent () =
  (* A copied kernel starts where its source stands and from then on
     neither side's writes, ACL edits or audit records reach the other. *)
  let system, alice = boot () in
  let segno =
    check_env "create"
      (User_env.create_segment_at system ~handle:alice ~path:">udd>Dev>Alice>notes"
         ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ])
         ~label:Label.unclassified)
  in
  check_api "write" (Gate_calls.write_word system ~handle:alice ~segno ~offset:0 ~value:1);
  let copy = System.copy system in
  let records = Audit_log.length (System.audit system) in
  Alcotest.(check int) "the copy's trail so far" records (Audit_log.length (System.audit copy));
  Alcotest.(check int) "the copy reads the source's word" 1
    (check_api "read copy" (Gate_calls.read_word copy ~handle:alice ~segno ~offset:0));
  check_api "write copy" (Gate_calls.write_word copy ~handle:alice ~segno ~offset:0 ~value:2);
  check_api "revoke in copy"
    (Api.Call.dispatch copy ~handle:alice (Api.Call.Set_acl { segno; acl = Acl.of_strings [] })
    |> Result.map ignore);
  Alcotest.(check int) "source word untouched" 1
    (check_api "read source" (Gate_calls.read_word system ~handle:alice ~segno ~offset:0));
  Alcotest.(check bool) "revocation stays in the copy" true
    (Result.is_error (Gate_calls.read_word copy ~handle:alice ~segno ~offset:0));
  Alcotest.(check int) "source trail grew by its own read only" (records + 1)
    (Audit_log.length (System.audit system));
  let module Fault = Multics_fault.Fault in
  (match Fault.Plan.parse ~seed:1 "gate.abort=nth:1" with
  | Ok plan -> System.set_faults system (Some (Fault.Injector.create plan))
  | Error e -> Alcotest.fail e);
  Alcotest.check_raises "an armed fault plan is refused"
    (Invalid_argument "System.copy: a fault plan is armed") (fun () -> ignore (System.copy system))

let test_acl_denies_other_user () =
  let system, alice = boot () in
  ignore
    (System.add_account system ~person:"Bob" ~project:"Ops" ~password:"pw"
       ~clearance:Label.unclassified);
  let bob =
    match System.login system ~person:"Bob" ~project:"Ops" ~password:"pw" with
    | Ok h -> h
    | Error e -> Alcotest.fail (System.login_error_to_string e)
  in
  let _segno =
    check_env "create"
      (User_env.create_segment_at system ~handle:alice ~path:">udd>Dev>Alice>private"
         ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ])
         ~label:Label.unclassified)
  in
  (* Bob cannot even look inside Alice's home (no status). *)
  match User_env.resolve_path system ~handle:bob ~path:">udd>Dev>Alice>private" with
  | Error (User_env.Api (Api.Fs (Multics_fs.Hierarchy.No_entry _))) -> ()
  | Ok _ -> Alcotest.fail "Bob resolved Alice's private segment"
  | Error e -> Alcotest.fail ("unexpected: " ^ User_env.error_to_string e)

let test_removed_gate_absent () =
  let system, alice = boot () in
  (* kernel_6180 has no kernel resolver gate. *)
  match Gate_calls.resolve_path system ~handle:alice ~path:">sl1" with
  | Error (Api.Gate_absent "resolve_path") -> ()
  | Ok _ -> Alcotest.fail "removed gate answered"
  | Error e -> Alcotest.fail ("unexpected: " ^ Api.error_to_string e)

let test_user_env_equivalence () =
  (* The same program runs against pre- and post-removal systems and
     sees identical results through the User_env facade. *)
  let run config =
    let system = System.create config in
    ignore
      (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
         ~clearance:Label.unclassified);
    let alice =
      match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
      | Ok h -> h
      | Error e -> Alcotest.fail (System.login_error_to_string e)
    in
    let segno =
      check_env "create"
        (User_env.create_segment_at system ~handle:alice ~path:">udd>Dev>Alice>prog"
           ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ])
           ~label:Label.unclassified)
    in
    check_api "write" (Gate_calls.write_word system ~handle:alice ~segno ~offset:0 ~value:17);
    check_env "bind" (User_env.bind_name system ~handle:alice ~name:"prog" ~segno);
    let via_name = check_env "lookup" (User_env.lookup_name system ~handle:alice ~name:"prog") in
    let reread = check_api "read" (Gate_calls.read_word system ~handle:alice ~segno:via_name ~offset:0) in
    let resolved =
      check_env "re-resolve" (User_env.resolve_path system ~handle:alice ~path:">udd>Dev>Alice>prog")
    in
    (reread, resolved = segno)
  in
  let pre = run Config.hardware_rings in
  let post = run Config.kernel_6180 in
  Alcotest.(check (pair int bool)) "identical behaviour" pre post

let test_linking_both_placements () =
  (* Snap the same link pre- and post-removal; same target offset. *)
  let run config =
    let system = System.create config in
    ignore
      (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
         ~clearance:Label.unclassified);
    let alice =
      match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
      | Ok h -> h
      | Error e -> Alcotest.fail (System.login_error_to_string e)
    in
    (* Install a library object and a caller that links to it. *)
    let lib_segno =
      check_env "lib object"
        (User_env.create_segment_at system ~handle:alice ~path:">udd>Dev>Alice>mathlib"
           ~acl:(Acl.of_strings [ ("*.*.*", "re"); ("Alice.Dev.*", "rew") ])
           ~label:Label.unclassified)
    in
    let caller_segno =
      check_env "caller object"
        (User_env.create_segment_at system ~handle:alice ~path:">udd>Dev>Alice>caller"
           ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rew") ])
           ~label:Label.unclassified)
    in
    (match System.proc system alice with
    | None -> Alcotest.fail "no proc"
    | Some p ->
        let uid_of segno =
          match Multics_fs.Kst.uid_of_segno p.System.kst segno with
          | Ok uid -> uid
          | Error e -> Alcotest.fail (Multics_fs.Kst.error_to_string e)
        in
        Multics_link.Object_seg.Store.put (System.store system) ~uid:(uid_of lib_segno)
          (Multics_link.Object_seg.make ~text_words:40
             ~definitions:[ { Multics_link.Object_seg.def_name = "sqrt"; def_offset = 8 } ]
             ~links:[] ());
        Multics_link.Object_seg.Store.put (System.store system) ~uid:(uid_of caller_segno)
          (Multics_link.Object_seg.make ~text_words:20 ~definitions:[]
             ~links:[ ("mathlib", "sqrt") ] ()));
    match User_env.snap_link system ~handle:alice ~segno:caller_segno ~link_index:0 with
    | Ok (_target_segno, offset) -> offset
    | Error e -> Alcotest.fail ("snap: " ^ User_env.error_to_string e)
  in
  Alcotest.(check int) "pre-removal offset" 8 (run Config.hardware_rings);
  Alcotest.(check int) "post-removal offset" 8 (run Config.kernel_6180)

let test_subsystem_entry_and_exit () =
  let system, alice = boot () in
  (* A gate segment into ring 2 with 3 legal entries.  Inner-ring
     subsystems are INSTALLED by the administrator — users may not mint
     brackets inner to their own ring — and users enter through the
     gates. *)
  let hierarchy = System.hierarchy system in
  let uid =
    match
      Multics_fs.Hierarchy.create_segment
        ~brackets:(Multics_machine.Brackets.make ~r1:2 ~r2:2 ~r3:5)
        hierarchy ~subject:System.initializer_subject ~dir:(System.lib_dir system)
        ~name:"mail_subsystem"
        ~acl:(Acl.of_strings [ ("*.*.*", "re"); ("Initializer.*.*", "rew") ])
        ~label:Label.unclassified
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Multics_fs.Hierarchy.error_to_string e)
  in
  (match
     Multics_fs.Hierarchy.set_gate_bound hierarchy ~subject:System.initializer_subject ~uid
       ~gate_bound:3
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Multics_fs.Hierarchy.error_to_string e));
  let segno =
    check_env "resolve" (User_env.resolve_path system ~handle:alice ~path:">sl1>mail_subsystem")
  in
  let ring =
    check_api "enter"
      (Gate_calls.enter_subsystem system ~handle:alice ~segno ~entry_offset:1 ~name:"mail")
  in
  Alcotest.(check int) "entered ring 2" 2 (Multics_machine.Ring.to_int ring);
  let restored = check_api "exit" (Gate_calls.exit_subsystem system ~handle:alice) in
  Alcotest.(check int) "back to ring 4" 4 (Multics_machine.Ring.to_int restored);
  (* From ring 4 again, an entry offset beyond the gate bound must be
     refused as a non-gate. *)
  (match Gate_calls.enter_subsystem system ~handle:alice ~segno ~entry_offset:9 ~name:"mail" with
  | Error (Api.Hardware_denied (Multics_machine.Hardware.Not_a_gate _)) -> ()
  | Ok _ -> Alcotest.fail "non-gate entry accepted"
  | Error e -> Alcotest.fail ("unexpected: " ^ Api.error_to_string e));
  match Gate_calls.exit_subsystem system ~handle:alice with
  | Error Api.Not_in_subsystem -> ()
  | Ok _ -> Alcotest.fail "exited a subsystem twice"
  | Error e -> Alcotest.fail ("unexpected: " ^ Api.error_to_string e)

let test_ipc_gates () =
  let system, alice = boot () in
  let chan = check_api "create" (Gate_calls.create_channel system ~handle:alice) in
  Alcotest.(check bool) "no pending" false (check_api "block" (Gate_calls.block system ~handle:alice ~channel:chan));
  check_api "wakeup" (Gate_calls.send_wakeup system ~handle:alice ~channel:chan);
  Alcotest.(check bool) "pending consumed" true
    (check_api "block" (Gate_calls.block system ~handle:alice ~channel:chan));
  match Gate_calls.send_wakeup system ~handle:alice ~channel:999 with
  | Error (Api.No_such_channel _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "bogus channel accepted"

let test_io_gates_routed () =
  (* Device_drivers config: terminal gate; Network_only: net gate. *)
  let system, alice = boot ~config:Config.baseline_645 () in
  check_api "attach" (Gate_calls.attach_device system ~handle:alice ~device:Multics_io.Device.Terminal);
  check_api "write" (Gate_calls.device_write system ~handle:alice ~device:Multics_io.Device.Terminal ~message:5);
  Alcotest.(check (option int)) "read" (Some 5)
    (check_api "read" (Gate_calls.device_read system ~handle:alice ~device:Multics_io.Device.Terminal));
  check_api "detach" (Gate_calls.detach_device system ~handle:alice ~device:Multics_io.Device.Terminal);
  let system2, alice2 = boot () in
  check_api "net attach" (Gate_calls.attach_device system2 ~handle:alice2 ~device:Multics_io.Device.Terminal);
  check_api "net write"
    (Gate_calls.device_write system2 ~handle:alice2 ~device:Multics_io.Device.Terminal ~message:9);
  Alcotest.(check (option int)) "net read" (Some 9)
    (check_api "net read" (Gate_calls.device_read system2 ~handle:alice2 ~device:Multics_io.Device.Terminal))

let test_audit_records_refusals () =
  let system, alice = boot () in
  let before = Audit_log.refusal_count (System.audit system) in
  (match Gate_calls.read_word system ~handle:alice ~segno:999 ~offset:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus segno accepted");
  Alcotest.(check bool) "refusal audited" true
    (Audit_log.refusal_count (System.audit system) > before)

(* ----- Initialization ----- *)

let test_init_strategies () =
  let bootstrap = Init.run Config.baseline_645 in
  let image = Init.run Config.kernel_6180 in
  Alcotest.(check bool) "bootstrap runs privileged init" true
    (bootstrap.Init.privileged_total > 5_000);
  Alcotest.(check bool) "image start is small" true (image.Init.privileged_total < 500);
  Alcotest.(check bool) "the work moved offline, not away" true
    (image.Init.offline_total > 3_000)

let test_init_network_fewer_device_steps () =
  let with_devices = Init.run Config.baseline_645 in
  let network = Init.run { Config.baseline_645 with Config.io = Config.Network_only } in
  let device_steps r =
    List.length (List.filter (fun s -> s.Init.device_related) r.Init.steps)
  in
  Alcotest.(check int) "five device steps" 5 (device_steps with_devices);
  Alcotest.(check int) "one network step" 1 (device_steps network)

(* ----- Boundary cost model (E4/E5) ----- *)

let test_boundary_pressure () =
  (* On the 645 the boundary between A and B is ruinous for chatty
     interfaces; on the 6180 it is essentially free. *)
  let over_645 = Boundary.removal_overhead Multics_machine.Cost.h645 ~inner_calls:20 ~work:50 in
  let over_6180 = Boundary.removal_overhead Multics_machine.Cost.h6180 ~inner_calls:20 ~work:50 in
  Alcotest.(check bool) "645 pressure large" true (over_645 > 5.0);
  Alcotest.(check bool) "6180 pressure gone" true (over_6180 < 1.05)

let test_boundary_floor () =
  (* With zero inner calls the placements differ only by the single
     entry crossing. *)
  let cost = Multics_machine.Cost.h6180 in
  let inside = Boundary.invocation_cost cost ~placement:Boundary.Both_inside ~inner_calls:0 ~work:10 in
  let between =
    Boundary.invocation_cost cost ~placement:Boundary.Boundary_between ~inner_calls:0 ~work:10
  in
  Alcotest.(check bool) "single-crossing difference" true (abs (inside - between) < 20)

(* ----- Policy/mechanism partition (E9) ----- *)

let test_policy_partition_matrix () =
  let rows = Page_policy.attack_matrix () in
  Alcotest.(check int) "six rows" 6 (List.length rows);
  List.iter
    (fun row ->
      let r = row.Page_policy.result in
      match (row.Page_policy.placement, row.Page_policy.attack) with
      | Config.Policy_in_ring0, Page_policy.Read_secret ->
          Alcotest.(check bool) "ring0 reads" true r.Page_policy.released
      | Config.Policy_in_ring0, Page_policy.Overwrite_segment ->
          Alcotest.(check bool) "ring0 writes" true r.Page_policy.modified
      | Config.Policy_in_ring0, Page_policy.Deny_service ->
          Alcotest.(check bool) "ring0 denies" true r.Page_policy.denied
      | Config.Policy_in_ring1, Page_policy.Deny_service ->
          Alcotest.(check bool) "ring1 can still deny" true r.Page_policy.denied
      | Config.Policy_in_ring1, _ ->
          Alcotest.(check bool) "ring1 cannot release/modify" false
            (r.Page_policy.released || r.Page_policy.modified))
    rows

let suite =
  [
    ("gate counts baseline", `Quick, test_gate_counts_baseline);
    ("gate removal fractions", `Quick, test_gate_removal_fractions);
    ("gate monotone shrink", `Quick, test_gate_monotone_shrink);
    ("gate find", `Quick, test_gate_find);
    ("login / bad password", `Quick, test_login_and_bad_password);
    ("login ring by mechanism", `Quick, test_login_ring_by_mechanism);
    ("create/write/read", `Quick, test_create_write_read);
    ("acl denies other user", `Quick, test_acl_denies_other_user);
    ("removed gate absent", `Quick, test_removed_gate_absent);
    ("user env equivalence", `Quick, test_user_env_equivalence);
    ("linking both placements", `Quick, test_linking_both_placements);
    ("subsystem entry/exit", `Quick, test_subsystem_entry_and_exit);
    ("ipc gates", `Quick, test_ipc_gates);
    ("io gates routed", `Quick, test_io_gates_routed);
    ("audit records refusals", `Quick, test_audit_records_refusals);
    ("init strategies", `Quick, test_init_strategies);
    ("init network device steps", `Quick, test_init_network_fewer_device_steps);
    ("boundary pressure", `Quick, test_boundary_pressure);
    ("boundary floor", `Quick, test_boundary_floor);
    ("policy partition matrix", `Quick, test_policy_partition_matrix);
  ]

(* ----- Process management and the remaining gates ----- *)

let test_process_management () =
  let system, alice = boot ~config:Config.baseline_645 () in
  let child = check_api "create_process" (Gate_calls.create_process system ~handle:alice) in
  Alcotest.(check bool) "child is a new handle" true (child <> alice);
  let siblings = check_api "list" (Gate_calls.list_processes system ~handle:alice) in
  Alcotest.(check (list int)) "two processes" [ alice; child ] siblings;
  let info = check_api "proc_info" (Gate_calls.proc_info system ~handle:child) in
  Alcotest.(check string) "same principal" "Alice.Dev.a" info.Api.info_principal;
  check_api "destroy child" (Gate_calls.destroy_process system ~handle:alice ~target:child);
  Alcotest.(check (list int)) "child gone" [ alice ]
    (check_api "list again" (Gate_calls.list_processes system ~handle:alice))

let test_destroy_foreign_process_refused () =
  let system, alice = boot ~config:Config.baseline_645 () in
  ignore
    (System.add_account system ~person:"Bob" ~project:"Ops" ~password:"pw"
       ~clearance:Label.unclassified);
  let bob =
    match System.login system ~person:"Bob" ~project:"Ops" ~password:"pw" with
    | Ok h -> h
    | Error e -> Alcotest.fail (System.login_error_to_string e)
  in
  match Gate_calls.destroy_process system ~handle:alice ~target:bob with
  | Error (Api.Not_authorized _) -> ()
  | Ok () -> Alcotest.fail "destroyed a foreign process"
  | Error e -> Alcotest.fail ("unexpected: " ^ Api.error_to_string e)

let test_new_proc () =
  let system, alice = boot ~config:Config.baseline_645 () in
  let fresh = check_api "new_proc" (Gate_calls.new_proc system ~handle:alice) in
  Alcotest.(check bool) "fresh handle" true (fresh <> alice);
  Alcotest.(check bool) "old handle dead" true (System.proc system alice = None);
  (* The fresh process has only the primed segments known. *)
  let info = check_api "info" (Gate_calls.proc_info system ~handle:fresh) in
  Alcotest.(check int) "primed segments" 4 info.Api.info_known_segments

let test_process_gates_unified_fallback () =
  (* Under the unified configuration the login gates are gone, but the
     same functions are reached through subsystem entry. *)
  let system, alice = boot () in
  Alcotest.(check bool) "create_process gate absent" true
    (Gate.find (System.config system) ~gate_name:"create_process" = None);
  let child = check_api "create via unified path" (Gate_calls.create_process system ~handle:alice) in
  Alcotest.(check bool) "child alive" true (System.proc system child <> None)

let test_working_dir_gates () =
  let system, alice = boot ~config:Config.baseline_645 () in
  let wd = check_api "get_working_dir" (Gate_calls.get_working_dir system ~handle:alice) in
  let listing = check_api "list wd" (Gate_calls.list_directory system ~handle:alice ~dir_segno:wd) in
  Alcotest.(check (list string)) "home empty" [] listing;
  let sub =
    check_api "mkdir"
      (Gate_calls.create_directory system ~handle:alice ~dir_segno:wd ~name:"work"
         ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rew") ])
         ~label:Label.unclassified)
  in
  check_api "set_working_dir" (Gate_calls.set_working_dir system ~handle:alice ~dir_segno:sub);
  let wd2 = check_api "get again" (Gate_calls.get_working_dir system ~handle:alice) in
  Alcotest.(check int) "wd moved" sub wd2

let test_initiate_count_and_terminate_by_path () =
  let system, alice = boot ~config:Config.baseline_645 () in
  let before = check_api "count" (Gate_calls.initiate_count system ~handle:alice) in
  let _segno =
    check_api "create"
      (Gate_calls.create_segment_by_path system ~handle:alice ~path:">udd>Dev>Alice>tmp"
         ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ])
         ~label:Label.unclassified)
  in
  Alcotest.(check int) "one more known" (before + 1)
    (check_api "count2" (Gate_calls.initiate_count system ~handle:alice));
  check_api "terminate_by_path"
    (Gate_calls.terminate_by_path system ~handle:alice ~path:">udd>Dev>Alice>tmp");
  Alcotest.(check int) "back to before" before
    (check_api "count3" (Gate_calls.initiate_count system ~handle:alice))

let test_quota_gate () =
  let system, alice = boot () in
  let home =
    check_env "resolve home" (User_env.resolve_path system ~handle:alice ~path:">udd>Dev>Alice")
  in
  check_api "set_quota" (Gate_calls.set_quota system ~handle:alice ~segno:home ~quota:(Some 2));
  let seg =
    check_env "segment"
      (User_env.create_segment_at system ~handle:alice ~path:">udd>Dev>Alice>fat"
         ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ])
         ~label:Label.unclassified)
  in
  let wpp = Multics_fs.Hierarchy.words_per_page in
  check_api "page 1" (Gate_calls.write_word system ~handle:alice ~segno:seg ~offset:0 ~value:1);
  check_api "page 2" (Gate_calls.write_word system ~handle:alice ~segno:seg ~offset:wpp ~value:1);
  match Gate_calls.write_word system ~handle:alice ~segno:seg ~offset:(2 * wpp) ~value:1 with
  | Error (Api.Fs (Multics_fs.Hierarchy.Quota_exceeded _)) -> ()
  | Ok () -> Alcotest.fail "quota not enforced through the gate"
  | Error e -> Alcotest.fail ("unexpected: " ^ Api.error_to_string e)

let test_list_links_gate () =
  let system, alice = boot ~config:Config.baseline_645 () in
  let seg =
    check_api "object"
      (Gate_calls.create_segment_by_path system ~handle:alice ~path:">udd>Dev>Alice>obj"
         ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rew") ])
         ~label:Label.unclassified)
  in
  (match System.proc system alice with
  | None -> Alcotest.fail "no proc"
  | Some p ->
      let uid =
        match Multics_fs.Kst.uid_of_segno p.System.kst seg with
        | Ok uid -> uid
        | Error e -> Alcotest.fail (Multics_fs.Kst.error_to_string e)
      in
      Multics_link.Object_seg.Store.put (System.store system) ~uid
        (Multics_link.Object_seg.make ~text_words:10 ~definitions:[]
           ~links:[ ("a", "x"); ("b", "y") ] ()));
  let links = check_api "list_links" (Gate_calls.list_links system ~handle:alice ~segno:seg) in
  Alcotest.(check int) "two links" 2 (List.length links);
  Alcotest.(check bool) "none snapped" true
    (List.for_all (fun l -> not l.Api.link_snapped) links)

let extra_suite =
  [
    ("process management", `Quick, test_process_management);
    ("destroy foreign process refused", `Quick, test_destroy_foreign_process_refused);
    ("new_proc", `Quick, test_new_proc);
    ("process gates unified fallback", `Quick, test_process_gates_unified_fallback);
    ("working dir gates", `Quick, test_working_dir_gates);
    ("initiate_count / terminate_by_path", `Quick, test_initiate_count_and_terminate_by_path);
    ("quota gate", `Quick, test_quota_gate);
    ("list_links gate", `Quick, test_list_links_gate);
  ]

(* ----- Programs and the full-system session ----- *)

let simple_program =
  let open Program in
  make ~name:"simple"
    [
      Create_segment
        {
          path = ">udd>Dev>Alice>data";
          acl = Acl.of_strings [ ("Alice.Dev.*", "rw") ];
          label = Label.unclassified;
          slot = "d";
        };
      Write_word { seg = "d"; offset = 0; value = Const 11 };
      Read_word { seg = "d"; offset = 0; slot = "v" };
      Assert_slot { slot = "v"; expected = 11 };
      Repeat (3, [ Write_word { seg = "d"; offset = 1; value = Slot "v" } ]);
      Read_word { seg = "d"; offset = 1; slot = "w" };
      Assert_slot { slot = "w"; expected = 11 };
    ]

let test_program_runs_untimed () =
  let system, alice = boot () in
  let outcome = Program.run system ~handle:alice simple_program in
  Alcotest.(check bool) "completed" true outcome.Program.completed;
  Alcotest.(check (option string)) "no failure" None outcome.Program.failed_step;
  Alcotest.(check int) "steps" 10 outcome.Program.steps_run;
  Alcotest.(check (option int)) "slot v" (Some 11) (List.assoc_opt "v" outcome.Program.slots)

let test_program_stops_at_failure () =
  let system, alice = boot () in
  let bad =
    Program.make ~name:"bad"
      [
        Program.Resolve { path = ">no>such>place"; slot = "x" };
        Program.Write_word { seg = "x"; offset = 0; value = Program.Const 1 };
      ]
  in
  let outcome = Program.run system ~handle:alice bad in
  Alcotest.(check bool) "not completed" false outcome.Program.completed;
  Alcotest.(check bool) "failure names resolve" true
    (match outcome.Program.failed_step with Some m -> String.length m > 0 | None -> false);
  Alcotest.(check int) "stopped at first step" 1 outcome.Program.steps_run

let test_program_unset_slot () =
  let system, alice = boot () in
  let bad =
    Program.make ~name:"unset" [ Program.Read_word { seg = "nowhere"; offset = 0; slot = "x" } ]
  in
  let outcome = Program.run system ~handle:alice bad in
  Alcotest.(check bool) "failed" false outcome.Program.completed

let test_program_same_everywhere () =
  (* The same program yields the same slots on every stage. *)
  let run config =
    let system = System.create config in
    ignore
      (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
         ~clearance:Label.unclassified);
    let alice =
      match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
      | Ok h -> h
      | Error e -> Alcotest.fail (System.login_error_to_string e)
    in
    let o = Program.run system ~handle:alice simple_program in
    (o.Program.completed, List.assoc_opt "w" o.Program.slots)
  in
  let reference = run Config.baseline_645 in
  List.iter
    (fun config ->
      Alcotest.(check (pair bool (option int))) config.Config.name reference (run config))
    (List.tl Config.stages)

let test_session_timed_run () =
  let session = Session.boot Config.kernel_6180 in
  ignore
    (System.add_account (Session.system session) ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  let alice =
    match System.login (Session.system session) ~person:"Alice" ~project:"Dev" ~password:"pw" with
    | Ok h -> h
    | Error e -> Alcotest.fail (System.login_error_to_string e)
  in
  let program =
    Program.make ~name:"timed"
      [
        Program.Create_segment
          {
            path = ">udd>Dev>Alice>t";
            acl = Acl.of_strings [ ("Alice.Dev.*", "rw") ];
            label = Label.unclassified;
            slot = "t";
          };
        Program.Compute 10_000;
        Program.Write_word { seg = "t"; offset = 0; value = Program.Const 5 };
        Program.Read_word { seg = "t"; offset = 0; slot = "v" };
        Program.Assert_slot { slot = "v"; expected = 5 };
      ]
  in
  ignore (Session.run_user session ~handle:alice program);
  Session.run session;
  Alcotest.(check bool) "completed" true (Session.all_completed session);
  let r = Session.report session in
  Alcotest.(check int) "compute cycles" 10_000 r.Session.compute_cycles_total;
  Alcotest.(check bool) "gate cycles charged" true (r.Session.gate_cycles_total > 0);
  Alcotest.(check bool) "entries counted" true (r.Session.total_gate_calls >= 4);
  Alcotest.(check bool) "page faults occurred" true (r.Session.page_faults > 0);
  Alcotest.(check bool) "clock advanced past compute" true (Session.now session > 10_000)

let test_session_concurrent_users () =
  let session = Session.boot Config.kernel_6180 in
  let system = Session.system session in
  ignore
    (System.add_account system ~person:"A" ~project:"P" ~password:"x"
       ~clearance:Label.unclassified);
  ignore
    (System.add_account system ~person:"B" ~project:"P" ~password:"x"
       ~clearance:Label.unclassified);
  let worker person =
    let handle =
      match System.login system ~person ~project:"P" ~password:"x" with
      | Ok h -> h
      | Error e -> Alcotest.fail (System.login_error_to_string e)
    in
    let program =
      Program.make ~name:(person ^ "-job")
        [
          Program.Create_segment
            {
              path = Printf.sprintf ">udd>P>%s>scratch" person;
              acl = Acl.of_strings [ (person ^ ".P.*", "rw") ];
              label = Label.unclassified;
              slot = "s";
            };
          Program.Repeat
            ( 5,
              [
                Program.Write_word { seg = "s"; offset = 0; value = Program.Const 1 };
                Program.Compute 2_000;
              ] );
        ]
    in
    Session.run_user session ~handle program
  in
  let _pa = worker "A" in
  let _pb = worker "B" in
  Session.run session;
  Alcotest.(check bool) "both completed" true (Session.all_completed session);
  Alcotest.(check int) "two programs" 2 (List.length (Session.results session))

let test_e13_shape () =
  match Multics_experiments.E13_cost_of_security.measure () with
  | [ baseline; reviewed; kernel ] ->
      let open Multics_experiments.E13_cost_of_security in
      Alcotest.(check bool) "645 overhead dominates" true (baseline.security_overhead > 0.5);
      Alcotest.(check bool) "6180 overhead small" true (reviewed.security_overhead < 0.10);
      Alcotest.(check bool) "kernel makes more supervisor entries" true
        (kernel.gate_calls > reviewed.gate_calls);
      Alcotest.(check bool) "yet still cheap on the 6180" true
        (kernel.security_overhead < 0.15)
  | _ -> Alcotest.fail "expected three configurations"

let session_suite =
  [
    ("program runs untimed", `Quick, test_program_runs_untimed);
    ("program stops at failure", `Quick, test_program_stops_at_failure);
    ("program unset slot", `Quick, test_program_unset_slot);
    ("program same everywhere", `Quick, test_program_same_everywhere);
    ("session timed run", `Quick, test_session_timed_run);
    ("session concurrent users", `Quick, test_session_concurrent_users);
    ("E13 shape", `Quick, test_e13_shape);
  ]

(* ----- Revocation (setfaults) and process directories ----- *)

let test_setfaults_revokes_cached_descriptor () =
  let system, alice = boot () in
  ignore
    (System.add_account system ~person:"Bob" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  let bob =
    match System.login system ~person:"Bob" ~project:"Dev" ~password:"pw" with
    | Ok h -> h
    | Error e -> Alcotest.fail (System.login_error_to_string e)
  in
  let alice_segno =
    check_env "create"
      (User_env.create_segment_at system ~handle:alice ~path:">udd>Dev>Alice>note"
         ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw"); ("Bob.Dev.*", "r") ])
         ~label:Label.unclassified)
  in
  check_api "write" (Gate_calls.write_word system ~handle:alice ~segno:alice_segno ~offset:0 ~value:5);
  let bob_segno =
    check_env "bob resolves" (User_env.resolve_path system ~handle:bob ~path:">udd>Dev>Alice>note")
  in
  Alcotest.(check int) "bob reads while granted" 5
    (check_api "read" (Gate_calls.read_word system ~handle:bob ~segno:bob_segno ~offset:0));
  (* Alice revokes; Bob's cached descriptor must die with the grant. *)
  check_api "revoke"
    (Gate_calls.set_acl system ~handle:alice ~segno:alice_segno
       ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ]));
  (match Gate_calls.read_word system ~handle:bob ~segno:bob_segno ~offset:0 with
  | Error (Api.Hardware_denied _) -> ()
  | Ok _ -> Alcotest.fail "cached descriptor survived revocation"
  | Error e -> Alcotest.fail ("unexpected: " ^ Api.error_to_string e));
  (* And re-granting restores access the same way. *)
  check_api "re-grant"
    (Gate_calls.set_acl system ~handle:alice ~segno:alice_segno
       ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw"); ("Bob.Dev.*", "r") ]));
  Alcotest.(check int) "bob reads again" 5
    (check_api "read" (Gate_calls.read_word system ~handle:bob ~segno:bob_segno ~offset:0))

let test_process_directory_lifecycle () =
  let system, alice = boot () in
  let hierarchy = System.hierarchy system in
  let pdd = System.pdd_dir system in
  let name = System.process_dir_name ~handle:alice in
  (* The process directory exists while the process lives... *)
  Alcotest.(check bool) "pdd entry exists" true
    (Multics_fs.Hierarchy.raw_lookup hierarchy ~dir:pdd ~name <> None);
  (* ... and the process can create scratch segments inside it. *)
  (match System.proc system alice with
  | None -> Alcotest.fail "no proc"
  | Some p -> (
      match Multics_fs.Hierarchy.raw_lookup hierarchy ~dir:pdd ~name with
      | None -> Alcotest.fail "no process dir"
      | Some uid ->
          let segno = System.install_known system p ~uid in
          let scratch =
            check_api "scratch"
              (Gate_calls.create_segment system ~handle:alice ~dir_segno:segno ~name:"temp"
                 ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ])
                 ~label:Label.unclassified)
          in
          check_api "scratch write"
            (Gate_calls.write_word system ~handle:alice ~segno:scratch ~offset:0 ~value:1)));
  (* Logout destroys the whole subtree. *)
  ignore (System.logout system ~handle:alice);
  Alcotest.(check bool) "pdd entry gone" true
    (Multics_fs.Hierarchy.raw_lookup hierarchy ~dir:pdd ~name = None)

let test_revocation_attack_in_corpus () =
  let results = Multics_audit.Pentest.run_corpus Config.kernel_6180 in
  match
    List.find_opt
      (fun (a, _) -> a.Multics_audit.Pentest.attack_name = "stale-descriptor-after-revocation")
      results
  with
  | Some (_, Multics_audit.Pentest.Refused _) -> ()
  | Some (_, o) -> Alcotest.fail (Multics_audit.Pentest.outcome_name o)
  | None -> Alcotest.fail "attack missing from corpus"

let revocation_suite =
  [
    ("setfaults revokes cached descriptor", `Quick, test_setfaults_revokes_cached_descriptor);
    ("process directory lifecycle", `Quick, test_process_directory_lifecycle);
    ("revocation attack in corpus", `Quick, test_revocation_attack_in_corpus);
  ]

let test_session_interrupt_disciplines () =
  (* The full-system session carries the configured interrupt
     discipline: inline perturbs the running programs, handler
     processes do not. *)
  let run config =
    let session = Session.boot config in
    ignore
      (System.add_account (Session.system session) ~person:"Alice" ~project:"Dev"
         ~password:"pw" ~clearance:Label.unclassified);
    let alice =
      match
        System.login (Session.system session) ~person:"Alice" ~project:"Dev" ~password:"pw"
      with
      | Ok h -> h
      | Error e -> Alcotest.fail (System.login_error_to_string e)
    in
    let pid =
      Session.run_user session ~handle:alice
        (Program.make ~name:"worker" [ Program.Compute 100_000 ])
    in
    for i = 1 to 8 do
      Session.post_interrupt session ~delay:(i * 9_000) ~device:Multics_io.Device.Terminal
    done;
    Session.run session;
    Multics_proc.Sim.perturbations_of (Session.sim session) pid
  in
  Alcotest.(check bool) "inline perturbs" true (run Config.baseline_645 > 0);
  Alcotest.(check int) "handler processes do not" 0 (run Config.kernel_6180)

let session_interrupt_suite =
  [ ("session interrupt disciplines", `Quick, test_session_interrupt_disciplines) ]

let copy_suite = [ ("a copied kernel evolves independently", `Quick, test_copy_independent) ]
