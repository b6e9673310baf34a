(* Dispatch determinism: the typed [Api.Call.dispatch] surface — now
   the only kernel entry point — must behave identically on two
   identically-booted systems, success and refusal paths alike, in all
   three reference configurations.

   Two identical systems are booted and the same scenario runs on
   both.  Because the simulation is deterministic, every step must
   render the same result (including segment numbers, handles, and
   refusal causes) on both sides; a divergence means dispatch consulted
   state outside the kernel's control. *)

open Multics_access
open Multics_kernel

type env = { system : System.t; mutable handle : int; slots : (string, int) Hashtbl.t }

let slot env name =
  match Hashtbl.find_opt env.slots name with
  | Some v -> v
  | None -> Alcotest.failf "scenario slot %S unset" name

let set_slot env name v = Hashtbl.replace env.slots name v

(* Render results to comparable strings; errors via the canonical
   rendering so refusal parity is checked cause-for-cause. *)
let err e = "err " ^ Api.error_to_string e
let r_unit = function Ok () -> "ok" | Error e -> err e
let r_int = function Ok v -> Printf.sprintf "ok %d" v | Error e -> err e
let r_bool = function Ok b -> Printf.sprintf "ok %b" b | Error e -> err e
let r_names = function Ok ns -> "ok [" ^ String.concat "; " ns ^ "]" | Error e -> err e
let r_int_opt = function
  | Ok None -> "ok none"
  | Ok (Some v) -> Printf.sprintf "ok %d" v
  | Error e -> err e

let r_ring = function
  | Ok ring -> Printf.sprintf "ok ring %d" (Multics_machine.Ring.to_int ring)
  | Error e -> err e

let r_pair = function Ok (a, b) -> Printf.sprintf "ok (%d,%d)" a b | Error e -> err e

let r_status = function
  | Ok st ->
      Printf.sprintf "ok %s/%s/%s/%d" st.Api.status_name
        (match st.Api.status_kind with
        | Multics_fs.Hierarchy.Segment -> "seg"
        | Multics_fs.Hierarchy.Directory -> "dir")
        (Label.to_string st.Api.status_label)
        st.Api.status_pages
  | Error e -> err e

let r_links = function
  | Ok links ->
      "ok ["
      ^ String.concat "; "
          (List.map
             (fun l ->
               Printf.sprintf "%s$%s%s" l.Api.link_target_seg l.Api.link_target_entry
                 (if l.Api.link_snapped then "!" else ""))
             links)
      ^ "]"
  | Error e -> err e

let r_info = function
  | Ok i ->
      Printf.sprintf "ok %s r%d %s k%d l%d" i.Api.info_principal i.Api.info_ring
        (Label.to_string i.Api.info_level) i.Api.info_known_segments i.Api.info_login_ring
  | Error e -> err e

let r_ints = function
  | Ok vs -> "ok [" ^ String.concat "; " (List.map string_of_int vs) ^ "]"
  | Error e -> err e

(* Reply projectors (one legal reply shape per request). *)
let d env request = Api.Call.dispatch env.system ~handle:env.handle request

let p_unit = function Ok Api.Call.Done -> Ok () | Error e -> Error e | Ok _ -> Alcotest.fail "reply shape"
let p_segno = function Ok (Api.Call.Segno s) -> Ok s | Error e -> Error e | Ok _ -> Alcotest.fail "reply shape"
let p_word = function Ok (Api.Call.Word v) -> Ok v | Error e -> Error e | Ok _ -> Alcotest.fail "reply shape"
let p_names = function Ok (Api.Call.Names ns) -> Ok ns | Error e -> Error e | Ok _ -> Alcotest.fail "reply shape"

let acl_rw = Acl.of_strings [ ("Alice.Dev.*", "rew") ]
let label = Label.unclassified

(* One scenario step: a display name and the dispatch sequence.  Each
   run receives its own [env]. *)
type step = { name : string; run : env -> string }

let remember_segno env key rendered result =
  (match result with Ok segno -> set_slot env key segno | Error _ -> ());
  rendered result

let steps : step list =
  [
    {
      name = "create_segment";
      run =
        (fun env ->
          remember_segno env "hot" r_int
            (p_segno
               (d env
                  (Api.Call.Create_segment
                     { dir_segno = slot env "dir"; name = "hot"; acl = acl_rw; label; brackets = None }))));
    };
    {
      name = "create_directory";
      run =
        (fun env ->
          remember_segno env "sub" r_int
            (p_segno
               (d env
                  (Api.Call.Create_directory
                     { dir_segno = slot env "dir"; name = "sub"; acl = acl_rw; label }))));
    };
    {
      name = "initiate";
      run =
        (fun env ->
          r_int (p_segno (d env (Api.Call.Initiate { dir_segno = slot env "dir"; name = "hot" }))));
    };
    {
      name = "write_word";
      run =
        (fun env ->
          r_unit
            (p_unit (d env (Api.Call.Write_word { segno = slot env "hot"; offset = 1; value = 7 }))));
    };
    {
      name = "read_word";
      run =
        (fun env -> r_int (p_word (d env (Api.Call.Read_word { segno = slot env "hot"; offset = 1 }))));
    };
    {
      name = "read_word unknown segno (refusal)";
      run = (fun env -> r_int (p_word (d env (Api.Call.Read_word { segno = 999; offset = 0 }))));
    };
    {
      name = "list_directory";
      run =
        (fun env -> r_names (p_names (d env (Api.Call.List_directory { dir_segno = slot env "dir" }))));
    };
    {
      name = "status_entry";
      run =
        (fun env ->
          match d env (Api.Call.Status_entry { dir_segno = slot env "dir"; name = "hot" }) with
          | Ok (Api.Call.Status st) -> r_status (Ok st)
          | Error e -> r_status (Error e)
          | Ok _ -> Alcotest.fail "reply shape");
    };
    {
      name = "rename_entry + delete_entry";
      run =
        (fun env ->
          let a =
            r_unit
              (p_unit
                 (d env
                    (Api.Call.Rename_entry
                       { dir_segno = slot env "dir"; name = "sub"; new_name = "sub-old" })))
          in
          let b =
            r_unit
              (p_unit (d env (Api.Call.Delete_entry { dir_segno = slot env "dir"; name = "sub-old" })))
          in
          a ^ "/" ^ b);
    };
    {
      name = "set_acl";
      run =
        (fun env -> r_unit (p_unit (d env (Api.Call.Set_acl { segno = slot env "hot"; acl = acl_rw }))));
    };
    {
      name = "set_brackets";
      run =
        (fun env ->
          r_unit
            (p_unit
               (d env
                  (Api.Call.Set_brackets
                     { segno = slot env "hot"; brackets = Multics_machine.Brackets.user_data }))));
    };
    {
      name = "set_gate_bound";
      run =
        (fun env ->
          r_unit (p_unit (d env (Api.Call.Set_gate_bound { segno = slot env "hot"; gate_bound = 4 }))));
    };
    {
      name = "set_quota";
      run =
        (fun env ->
          r_unit (p_unit (d env (Api.Call.Set_quota { segno = slot env "dir"; quota = Some 64 }))));
    };
    {
      name = "initiate_by_path";
      run =
        (fun env -> r_int (p_segno (d env (Api.Call.Initiate_by_path { path = ">udd>Dev>Alice>hot" }))));
    };
    {
      name = "create_segment_by_path";
      run =
        (fun env ->
          r_int
            (p_segno
               (d env
                  (Api.Call.Create_segment_by_path
                     { path = ">udd>Dev>Alice>hot2"; acl = acl_rw; label; brackets = None }))));
    };
    {
      name = "create_directory_by_path";
      run =
        (fun env ->
          r_int
            (p_segno
               (d env
                  (Api.Call.Create_directory_by_path
                     { path = ">udd>Dev>Alice>sub2"; acl = acl_rw; label }))));
    };
    {
      name = "delete_by_path";
      run =
        (fun env -> r_unit (p_unit (d env (Api.Call.Delete_by_path { path = ">udd>Dev>Alice>hot2" }))));
    };
    {
      name = "resolve_path";
      run = (fun env -> r_int (p_segno (d env (Api.Call.Resolve_path { path = ">udd>Dev" }))));
    };
    {
      name = "rnt bind/lookup/names/unbind";
      run =
        (fun env ->
          let a = r_unit (p_unit (d env (Api.Call.Rnt_bind { name = "h"; segno = slot env "hot" }))) in
          let b = r_int (p_segno (d env (Api.Call.Rnt_lookup { name = "h" }))) in
          let c = r_names (p_names (d env (Api.Call.List_reference_names { segno = slot env "hot" }))) in
          let e = r_unit (p_unit (d env (Api.Call.Rnt_unbind { name = "h" }))) in
          String.concat "/" [ a; b; c; e ]);
    };
    {
      name = "working dir + initiate_count";
      run =
        (fun env ->
          let a = r_int (p_segno (d env Api.Call.Get_working_dir)) in
          let b = r_unit (p_unit (d env (Api.Call.Set_working_dir { dir_segno = slot env "dir" }))) in
          let c = r_int (p_word (d env Api.Call.Initiate_count)) in
          String.concat "/" [ a; b; c ]);
    };
    {
      name = "snap_link (refusal in kernel config)";
      run =
        (fun env ->
          match d env (Api.Call.Snap_link { segno = slot env "hot"; link_index = 0 }) with
          | Ok (Api.Call.Snapped { segno; offset }) -> r_pair (Ok (segno, offset))
          | Error e -> r_pair (Error e)
          | Ok _ -> Alcotest.fail "reply shape");
    };
    {
      name = "list_links";
      run =
        (fun env ->
          match d env (Api.Call.List_links { segno = slot env "hot" }) with
          | Ok (Api.Call.Links ls) -> r_links (Ok ls)
          | Error e -> r_links (Error e)
          | Ok _ -> Alcotest.fail "reply shape");
    };
    {
      name = "search rules";
      run =
        (fun env ->
          let a =
            r_unit (p_unit (d env (Api.Call.Set_search_rules { dir_segnos = [ slot env "dir" ] })))
          in
          let b = r_names (p_names (d env Api.Call.Get_search_rules)) in
          a ^ "/" ^ b);
    };
    {
      name = "enter_subsystem unknown segno (refusal)";
      run =
        (fun env ->
          match d env (Api.Call.Enter_subsystem { segno = 999; entry_offset = 0; name = "ss" }) with
          | Ok (Api.Call.Entered ring) -> r_ring (Ok ring)
          | Error e -> r_ring (Error e)
          | Ok _ -> Alcotest.fail "reply shape");
    };
    {
      name = "exit_subsystem outside subsystem (refusal)";
      run =
        (fun env ->
          match d env Api.Call.Exit_subsystem with
          | Ok (Api.Call.Entered ring) -> r_ring (Ok ring)
          | Error e -> r_ring (Error e)
          | Ok _ -> Alcotest.fail "reply shape");
    };
    {
      name = "ipc channel/wakeup/block";
      run =
        (fun env ->
          let chan_r =
            match d env Api.Call.Create_channel with
            | Ok (Api.Call.Channel c) -> Ok c
            | Error e -> Error e
            | Ok _ -> Alcotest.fail "reply shape"
          in
          (match chan_r with Ok c -> set_slot env "chan" c | Error _ -> ());
          let a = r_int chan_r in
          let b = r_unit (p_unit (d env (Api.Call.Send_wakeup { channel = slot env "chan" }))) in
          let consume () =
            match d env (Api.Call.Block { channel = slot env "chan" }) with
            | Ok (Api.Call.Consumed consumed) -> r_bool (Ok consumed)
            | Error e -> r_bool (Error e)
            | Ok _ -> Alcotest.fail "reply shape"
          in
          let c = consume () in
          let e = consume () in
          let f = r_unit (p_unit (d env (Api.Call.Send_wakeup { channel = 999 }))) in
          String.concat "/" [ a; b; c; e; f ]);
    };
    {
      name = "device attach/write/read/detach";
      run =
        (fun env ->
          let device = Multics_io.Device.Printer in
          let a = r_unit (p_unit (d env (Api.Call.Attach_device { device }))) in
          let b = r_unit (p_unit (d env (Api.Call.Device_write { device; message = 5 }))) in
          let c =
            match d env (Api.Call.Device_read { device }) with
            | Ok (Api.Call.Message m) -> r_int_opt (Ok m)
            | Error e -> r_int_opt (Error e)
            | Ok _ -> Alcotest.fail "reply shape"
          in
          let e = r_unit (p_unit (d env (Api.Call.Detach_device { device }))) in
          let f = r_unit (p_unit (d env (Api.Call.Detach_device { device }))) in
          String.concat "/" [ a; b; c; e; f ]);
    };
    {
      name = "proc_info + list_processes + operator_message";
      run =
        (fun env ->
          let a =
            match d env Api.Call.Proc_info with
            | Ok (Api.Call.Info i) -> r_info (Ok i)
            | Error e -> r_info (Error e)
            | Ok _ -> Alcotest.fail "reply shape"
          in
          let b =
            match d env Api.Call.List_processes with
            | Ok (Api.Call.Processes hs) -> r_ints (Ok hs)
            | Error e -> r_ints (Error e)
            | Ok _ -> Alcotest.fail "reply shape"
          in
          let c = r_unit (p_unit (d env (Api.Call.Operator_message { message = "hello" }))) in
          String.concat "/" [ a; b; c ]);
    };
    {
      name = "create_process + destroy_process";
      run =
        (fun env ->
          let child_r =
            match d env Api.Call.Create_process with
            | Ok (Api.Call.Process c) -> Ok c
            | Error e -> Error e
            | Ok _ -> Alcotest.fail "reply shape"
          in
          (match child_r with Ok c -> set_slot env "child" c | Error _ -> ());
          let a = r_int child_r in
          let b =
            match child_r with
            | Ok _ ->
                r_unit (p_unit (d env (Api.Call.Destroy_process { target = slot env "child" })))
            | Error _ -> "skipped"
          in
          let c = r_unit (p_unit (d env (Api.Call.Destroy_process { target = 999 }))) in
          String.concat "/" [ a; b; c ]);
    };
    {
      name = "terminate + terminate_by_path";
      run =
        (fun env ->
          let a = r_unit (p_unit (d env (Api.Call.Terminate { segno = slot env "hot" }))) in
          let b = r_unit (p_unit (d env (Api.Call.Terminate_by_path { path = ">udd>Dev>Alice>sub2" }))) in
          a ^ "/" ^ b);
    };
  ]

let boot config =
  let system = System.create config in
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  let handle =
    match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
    | Ok handle -> handle
    | Error e -> Alcotest.fail (System.login_error_to_string e)
  in
  let env = { system; handle; slots = Hashtbl.create 8 } in
  (* The home directory's segment number, via the user-ring environment
     (identical on both sides; not itself under test). *)
  (match User_env.resolve_path system ~handle ~path:">udd>Dev>Alice" with
  | Ok dir -> set_slot env "dir" dir
  | Error e -> Alcotest.fail (User_env.error_to_string e));
  env

let parity_for config () =
  let first_env = boot config in
  let second_env = boot config in
  List.iter
    (fun step ->
      let expected = step.run first_env in
      let got = step.run second_env in
      Alcotest.(check string) step.name expected got)
    steps

let suite =
  List.map
    (fun (config : Config.t) ->
      Alcotest.test_case
        (Printf.sprintf "dispatch deterministic (%s)" config.Config.name)
        `Quick (parity_for config))
    [ Config.baseline_645; Config.hardware_rings; Config.kernel_6180 ]

(* ----- Every call is audited under its one operation name -----

   One request per [Call.request] constructor, each dispatched on a
   fresh boot of both end-point configurations.  The call must append
   one audit record of its own, last, named [Call.operation_name]; a
   refusal counts, including a gate the kernel does not have. *)

(* An exhaustive match: a new constructor does not compile until it is
   named here, and then [every_request] must cover it. *)
let constructor_name : Api.Call.request -> string = function
  | Initiate _ -> "Initiate"
  | Terminate _ -> "Terminate"
  | Create_segment _ -> "Create_segment"
  | Create_directory _ -> "Create_directory"
  | Delete_entry _ -> "Delete_entry"
  | Rename_entry _ -> "Rename_entry"
  | List_directory _ -> "List_directory"
  | Status_entry _ -> "Status_entry"
  | Set_acl _ -> "Set_acl"
  | Set_brackets _ -> "Set_brackets"
  | Set_gate_bound _ -> "Set_gate_bound"
  | Set_quota _ -> "Set_quota"
  | Read_word _ -> "Read_word"
  | Write_word _ -> "Write_word"
  | Initiate_by_path _ -> "Initiate_by_path"
  | Create_segment_by_path _ -> "Create_segment_by_path"
  | Create_directory_by_path _ -> "Create_directory_by_path"
  | Delete_by_path _ -> "Delete_by_path"
  | Set_acl_by_path _ -> "Set_acl_by_path"
  | Set_brackets_by_path _ -> "Set_brackets_by_path"
  | Resolve_path _ -> "Resolve_path"
  | Terminate_by_path _ -> "Terminate_by_path"
  | Rnt_bind _ -> "Rnt_bind"
  | Rnt_lookup _ -> "Rnt_lookup"
  | Rnt_unbind _ -> "Rnt_unbind"
  | List_reference_names _ -> "List_reference_names"
  | Get_working_dir -> "Get_working_dir"
  | Set_working_dir _ -> "Set_working_dir"
  | Initiate_count -> "Initiate_count"
  | Snap_link _ -> "Snap_link"
  | List_links _ -> "List_links"
  | Set_search_rules _ -> "Set_search_rules"
  | Get_search_rules -> "Get_search_rules"
  | Enter_subsystem _ -> "Enter_subsystem"
  | Exit_subsystem -> "Exit_subsystem"
  | Create_channel -> "Create_channel"
  | Send_wakeup _ -> "Send_wakeup"
  | Block _ -> "Block"
  | Attach_device _ -> "Attach_device"
  | Detach_device _ -> "Detach_device"
  | Device_write _ -> "Device_write"
  | Device_read _ -> "Device_read"
  | Create_process -> "Create_process"
  | Destroy_process _ -> "Destroy_process"
  | New_proc -> "New_proc"
  | Proc_info -> "Proc_info"
  | List_processes -> "List_processes"
  | Operator_message _ -> "Operator_message"
  | Set_fault_plan _ -> "Set_fault_plan"
  | Fault_status -> "Fault_status"
  | Clear_faults -> "Clear_faults"
  | Salvage -> "Salvage"
  | Probe_access _ -> "Probe_access"
  | Cache_status -> "Cache_status"
  | Cache_clear -> "Cache_clear"
  | Sched_status -> "Sched_status"
  | Sched_tune _ -> "Sched_tune"
  | Smp_status -> "Smp_status"

let constructor_count = 58

(* [home] is the caller's home directory, [data] a segment in it. *)
let every_request ~home ~data : Api.Call.request list =
  let path = ">udd>Dev>Alice>data" and acl = acl_rw in
  let brackets = Multics_machine.Brackets.user_data and device = Multics_io.Device.Printer in
  [
    Initiate { dir_segno = home; name = "data" };
    Terminate { segno = data };
    Create_segment { dir_segno = home; name = "s"; acl; label; brackets = None };
    Create_directory { dir_segno = home; name = "d"; acl; label };
    Delete_entry { dir_segno = home; name = "data" };
    Rename_entry { dir_segno = home; name = "data"; new_name = "renamed" };
    List_directory { dir_segno = home };
    Status_entry { dir_segno = home; name = "data" };
    Set_acl { segno = data; acl };
    Set_brackets { segno = data; brackets };
    Set_gate_bound { segno = data; gate_bound = 4 };
    Set_quota { segno = home; quota = Some 64 };
    Read_word { segno = data; offset = 0 };
    Write_word { segno = data; offset = 0; value = 1 };
    Initiate_by_path { path };
    Create_segment_by_path { path = path ^ "2"; acl; label; brackets = None };
    Create_directory_by_path { path = path ^ "_dir"; acl; label };
    Delete_by_path { path };
    Set_acl_by_path { path; acl };
    Set_brackets_by_path { path; brackets };
    Resolve_path { path };
    Terminate_by_path { path };
    Rnt_bind { name = "d"; segno = data };
    Rnt_lookup { name = "d" };
    Rnt_unbind { name = "d" };
    List_reference_names { segno = data };
    Get_working_dir;
    Set_working_dir { dir_segno = home };
    Initiate_count;
    Snap_link { segno = data; link_index = 0 };
    List_links { segno = data };
    Set_search_rules { dir_segnos = [ home ] };
    Get_search_rules;
    Enter_subsystem { segno = data; entry_offset = 0; name = "ss" };
    Exit_subsystem;
    Create_channel;
    Send_wakeup { channel = 1 };
    Block { channel = 1 };
    Attach_device { device };
    Detach_device { device };
    Device_write { device; message = 1 };
    Device_read { device };
    Create_process;
    Destroy_process { target = 999 };
    New_proc;
    Proc_info;
    List_processes;
    Operator_message { message = "hello" };
    Set_fault_plan { seed = 1; spec = "" };
    Fault_status;
    Clear_faults;
    Salvage;
    Probe_access { segno = data; requested = Multics_machine.Mode.r };
    Cache_status;
    Cache_clear;
    Sched_status;
    Sched_tune { param = "cap"; value = 2 };
    Smp_status;
  ]

(* Records a body files through another audited mechanism before the
   call's own: [New_proc] logs its caller out, [Salvage] files the
   salvager's report. *)
let records_before_own : Api.Call.request -> int = function New_proc | Salvage -> 1 | _ -> 0

(* A fresh boot with a data segment in the caller's home. *)
let audited_env config =
  let env = boot config in
  let home = slot env "dir" in
  match
    d env (Api.Call.Create_segment { dir_segno = home; name = "data"; acl = acl_rw; label; brackets = None })
  with
  | Ok (Api.Call.Segno data) -> (env, home, data)
  | Ok _ -> Alcotest.fail "reply shape"
  | Error e -> Alcotest.fail (Api.error_to_string e)

let test_every_request_audited config () =
  let names = List.map constructor_name (every_request ~home:0 ~data:0) in
  Alcotest.(check int)
    "one request per constructor" constructor_count
    (List.length (List.sort_uniq String.compare names));
  List.iteri
    (fun i name ->
      let env, home, data = audited_env config in
      let request = List.nth (every_request ~home ~data) i in
      let audit = System.audit env.system in
      let before = Audit_log.length audit in
      let operation = Api.Call.operation_name env.system request in
      ignore (d env request);
      let appended = List.filteri (fun j _ -> j >= before) (Audit_log.records audit) in
      Alcotest.(check int) (name ^ ": records appended") (1 + records_before_own request)
        (List.length appended);
      Alcotest.(check string) (name ^ ": audited as operation_name") operation
        (List.nth appended (List.length appended - 1)).Audit_log.operation)
    names

let counter name =
  Multics_obs.Obs.Counter.get
    (Multics_obs.Obs.Registry.counter (Multics_obs.Obs.Registry.global ()) name)

let gate_refusals () = counter "gate.refusals"

(* Once naming is out of the kernel, a by-path attribute edit names a
   gate the kernel does not have: the ordinary gate check refuses it,
   audited and metered like any other refusal. *)
let test_by_path_edit_refused_audited () =
  let path = ">udd>Dev>Alice>data" in
  List.iter
    (fun (gate, request) ->
      let env, _, _ = audited_env Config.kernel_6180 in
      let audit = System.audit env.system in
      let records = Audit_log.length audit and refusals = gate_refusals () in
      (match d env request with
      | Error (Api.Gate_absent g) -> Alcotest.(check string) "absent gate" gate g
      | Ok _ -> Alcotest.fail (gate ^ " admitted on the target kernel")
      | Error e -> Alcotest.fail (Api.error_to_string e));
      Alcotest.(check int) (gate ^ ": one audit record") (records + 1) (Audit_log.length audit);
      Alcotest.(check int) (gate ^ ": one metered refusal") (refusals + 1) (gate_refusals ()))
    [
      ("set_acl_by_path", Api.Call.Set_acl_by_path { path; acl = acl_rw });
      ( "set_brackets_by_path",
        Api.Call.Set_brackets_by_path { path; brackets = Multics_machine.Brackets.user_data } );
    ]

(* The login path follows the configuration, not the gate table: on a
   privileged-login kernel a mask that strips [create_process] refuses
   it (audited), rather than letting it through as a subsystem entry. *)
let test_stripped_login_gate_refused () =
  let env, _, _ = audited_env Config.baseline_645 in
  let profile =
    Multics_spec.Spec.Profile.of_string "profile no-login\nread_word 1\n" |> Result.get_ok
  in
  Multics_spec.Spec.Specialisation.(
    apply env.system (compile ~name:"no-login" Config.baseline_645 profile));
  (match d env Api.Call.Create_process with
  | Error (Api.Gate_absent "create_process") -> ()
  | Ok _ -> Alcotest.fail "stripped create_process admitted"
  | Error e -> Alcotest.fail (Api.error_to_string e));
  match List.rev (Audit_log.records (System.audit env.system)) with
  | { Audit_log.operation = "create_process"; verdict = Audit_log.Refused _; _ } :: _ -> ()
  | _ -> Alcotest.fail "stripped create_process left no refusal in the audit trail"

(* With audit retention off the trail keeps nothing, but a refusal is
   still a refusal: the same typed error as with retention on, and the
   same metered refusal, in total and per gate.  One refusal at
   admission, one in the body. *)
let test_refusal_retention_off () =
  List.iter
    (fun (what, request) ->
      let refuse ~retain =
        let env, _, _ = audited_env Config.kernel_6180 in
        let audit = System.audit env.system in
        Audit_log.set_enabled audit retain;
        let per_gate = "gate." ^ Api.Call.operation_name env.system request ^ ".refusals" in
        let records = Audit_log.length audit
        and refusals = gate_refusals ()
        and op_refusals = counter per_gate in
        match d env request with
        | Ok _ -> Alcotest.failf "%s admitted" what
        | Error e ->
            ( e,
              Audit_log.length audit - records,
              gate_refusals () - refusals,
              counter per_gate - op_refusals )
      in
      let retained, kept, _, _ = refuse ~retain:true in
      let error, records, refusals, op_refusals = refuse ~retain:false in
      Alcotest.check (Alcotest.testable Api.pp ( = )) (what ^ ": same typed error") retained error;
      Alcotest.(check int) (what ^ ": retention on keeps one record") 1 kept;
      Alcotest.(check int) (what ^ ": retention off keeps none") 0 records;
      Alcotest.(check int) (what ^ ": gate.refusals") 1 refusals;
      Alcotest.(check int) (what ^ ": gate.<op>.refusals") 1 op_refusals)
    [
      ("absent gate", Api.Call.Set_acl_by_path { path = ">udd>Dev>Alice>data"; acl = acl_rw });
      ("unknown segment", Api.Call.Read_word { segno = 4000; offset = 0 });
    ]

(* Every content reference is bounded by the longest segment: an
   offset outside [0 .. max_segment_words - 1] is refused with
   [Out_of_bounds] before the reference is served or any growth is
   charged.  Refused writes, however many, leave the home quota cell's
   charge and its invariant as they were. *)
let test_content_reference_bounds () =
  let module Hierarchy = Multics_fs.Hierarchy in
  let env, home, data = audited_env Config.kernel_6180 in
  let hierarchy = System.hierarchy env.system in
  let ok what = function Ok _ -> () | Error e -> Alcotest.failf "%s: %s" what (Api.error_to_string e) in
  ok "set_quota" (d env (Api.Call.Set_quota { segno = home; quota = Some 100_000 }));
  ok "first page" (d env (Api.Call.Write_word { segno = data; offset = 0; value = 1 }));
  let cell =
    match
      Hierarchy.resolve hierarchy ~subject:System.initializer_subject ~path:">udd>Dev>Alice"
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  let charged () = Hierarchy.pages_charged_of hierarchy cell in
  let before = charged () in
  let limit = Hierarchy.max_segment_words in
  let write offset = Api.Call.Write_word { segno = data; offset; value = 1 } in
  let read offset = Api.Call.Read_word { segno = data; offset } in
  List.iter
    (fun (what, request, offset) ->
      (match d env request with
      | Error (Api.Fs (Hierarchy.Out_of_bounds o)) ->
          Alcotest.(check int) (what ^ ": offset reported") offset o
      | Ok _ -> Alcotest.failf "%s: granted" what
      | Error e -> Alcotest.failf "%s: %s" what (Api.error_to_string e));
      Alcotest.(check (option int)) (what ^ ": nothing charged") before (charged ());
      Alcotest.(check bool) (what ^ ": quota invariant") true
        (Hierarchy.check_quota_invariant hierarchy))
    [
      ("write at the limit", write limit, limit);
      ("write at the limit again", write limit, limit);
      ("write far past the limit", write (4 * limit), 4 * limit);
      ("negative write", write (-1), -1);
      ("read at the limit", read limit, limit);
      ("negative read", read (-1), -1);
    ];
  ok "last word" (d env (Api.Call.Write_word { segno = data; offset = limit - 1; value = 7 }));
  match d env (read (limit - 1)) with
  | Ok (Api.Call.Word 7) -> ()
  | Ok _ -> Alcotest.fail "last word: wrong reply"
  | Error e -> Alcotest.fail (Api.error_to_string e)

let audit_suite =
  List.map
    (fun (config : Config.t) ->
      Alcotest.test_case
        (Printf.sprintf "every request audited as its operation (%s)" config.Config.name)
        `Quick (test_every_request_audited config))
    [ Config.baseline_645; Config.kernel_6180 ]
  @ [
      Alcotest.test_case "by-path edit without kernel naming: refused, audited, metered" `Quick
        test_by_path_edit_refused_audited;
      Alcotest.test_case "stripped login gate refuses, never falls through" `Quick
        test_stripped_login_gate_refused;
      Alcotest.test_case "refusal with audit retention off: same error, no record, metered"
        `Quick test_refusal_retention_off;
      Alcotest.test_case "content references out of bounds: refused, nothing charged" `Quick
        test_content_reference_bounds;
    ]

(* ----- Instrument names and per-domain counts -----

   The meter and the caches resolve their counters by name parts once
   per domain.  The script below dispatches one granted and one refused
   call per admission class (a gate, an ungated hardware call, process
   management), hits two caches that share a name, and makes one
   policy refusal per cause; the counters it moves must carry the
   names and values the kernel has always recorded, on the caller's
   domain and on pool workers alike. *)

module Obs = Multics_obs.Obs
module Par = Multics_par.Par
module Assoc = Multics_machine.Hardware.Assoc

let metered_prefixes = [ "gate."; "config."; "cache.t.meter."; "policy.refusals" ]

let metered (snapshot : Obs.Snapshot.t) =
  List.filter
    (fun (name, value) ->
      value <> 0
      && List.exists (fun p -> String.starts_with ~prefix:p name) metered_prefixes)
    snapshot.Obs.Snapshot.counters

let meter_script () =
  let before = Obs.Snapshot.capture () in
  let system = System.create Config.kernel_6180 in
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  let alice =
    match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
    | Ok h -> h
    | Error _ -> Alcotest.fail "login"
  in
  let p = Option.get (System.proc system alice) in
  let home = System.install_known system p ~uid:p.System.working_dir in
  let segno =
    match
      Gate_calls.create_segment system ~handle:alice ~dir_segno:home ~name:"s"
        ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ])
        ~label:Label.unclassified
    with
    | Ok segno -> segno
    | Error e -> Alcotest.failf "create: %s" (Api.error_to_string e)
  in
  List.iter
    (fun request -> ignore (Api.Call.dispatch system ~handle:alice request))
    Api.Call.
      [
        Read_word { segno; offset = 0 };
        Read_word { segno = 999; offset = 0 };
        Probe_access { segno; requested = Multics_machine.Mode.r };
        Probe_access { segno = 999; requested = Multics_machine.Mode.r };
        Proc_info;
        Destroy_process { target = 999 };
      ];
  let a = Assoc.create ~slots:4 ~name:"t.meter" in
  let b = Assoc.create ~slots:4 ~name:"t.meter" in
  Assoc.install a ~key:1 ();
  Assoc.install b ~key:1 ();
  ignore (Assoc.lookup a ~key:1);
  ignore (Assoc.lookup b ~key:1);
  ignore (Assoc.lookup b ~key:2);
  let subject clearance =
    Policy.subject ~principal:(Principal.interactive ~person:"Bob" ~project:"Dev") ~clearance
      ~ring:Multics_machine.Ring.user ()
  in
  let secret = Label.make Label.Secret [] in
  let acl = Acl.of_strings [ ("Bob.Dev.*", "rw") ] in
  List.iter
    (fun (s, object_label, acl, requested) ->
      ignore (Policy.check ~subject:s ~object_label ~acl ~requested))
    [
      (subject Label.unclassified, secret, acl, Multics_machine.Mode.r);
      (subject secret, Label.unclassified, acl, Multics_machine.Mode.w);
      (subject Label.unclassified, Label.unclassified, Acl.empty, Multics_machine.Mode.r);
    ];
  metered (Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ()))

(* Recorded from the kernel before the meter resolved counters by name
   parts. *)
let meter_expected =
  [
    ("cache.t.meter.hits", 2);
    ("cache.t.meter.insertions", 2);
    ("cache.t.meter.misses", 1);
    ("config.security-kernel.gate.calls", 7);
    ("config.security-kernel.gate.cycles", 238);
    ("gate.calls", 7);
    ("gate.create_segment.calls", 1);
    ("gate.cycles", 238);
    ("gate.probe_access.calls", 2);
    ("gate.probe_access.refusals", 1);
    ("gate.read_word.calls", 2);
    ("gate.read_word.refusals", 1);
    ("gate.refusals", 3);
    ("gate.subsystem_entry:destroy_process.calls", 1);
    ("gate.subsystem_entry:destroy_process.refusals", 1);
    ("gate.subsystem_entry:proc_info.calls", 1);
    ("policy.refusals", 3);
    ("policy.refusals.discretionary", 1);
    ("policy.refusals.mandatory-read-up", 1);
    ("policy.refusals.mandatory-write-down", 1);
  ]

let counts = Alcotest.(list (pair string int))

let test_meter_names_and_values () =
  Obs.set_enabled true;
  Alcotest.check counts "one domain" meter_expected (meter_script ());
  let absorbed jobs =
    let before = Obs.Snapshot.capture () in
    let per_task = Par.map ~jobs (fun _ -> meter_script ()) [ 0; 1 ] in
    List.iteri
      (fun i task -> Alcotest.check counts (Printf.sprintf "jobs=%d task %d" jobs i) meter_expected task)
      per_task;
    metered (Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ()))
  in
  let doubled = List.map (fun (name, v) -> (name, 2 * v)) meter_expected in
  Alcotest.check counts "jobs=1 totals" doubled (absorbed 1);
  Alcotest.check counts "jobs=2 absorbed totals equal jobs=1" doubled (absorbed 2)

let meter_suite =
  [
    Alcotest.test_case "meter and cache counters: names, values, per-domain counts" `Quick
      test_meter_names_and_values;
  ]
