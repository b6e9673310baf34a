(* Coverage for the corners the main suites do not reach: SDW
   accessors, cost-model selection, label printing, audit-log querying,
   interrupt bookkeeping, boundary-model monotonicity, and the
   initialization invariants. *)

open Multics_machine

(* ----- SDW ----- *)

let test_sdw_accessors () =
  let brackets = Brackets.make ~r1:1 ~r2:3 ~r3:5 in
  let sdw = Sdw.make ~gate_bound:4 ~mode:Mode.re ~brackets () in
  Alcotest.(check bool) "mode" true (Mode.equal (Sdw.mode sdw) Mode.re);
  Alcotest.(check bool) "brackets" true (Brackets.equal (Sdw.brackets sdw) brackets);
  Alcotest.(check int) "gate bound" 4 (Sdw.gate_bound sdw);
  Alcotest.(check bool) "offset 0 is gate" true (Sdw.is_gate_offset sdw 0);
  Alcotest.(check bool) "offset 3 is gate" true (Sdw.is_gate_offset sdw 3);
  Alcotest.(check bool) "offset 4 is not" false (Sdw.is_gate_offset sdw 4);
  Alcotest.(check bool) "negative is not" false (Sdw.is_gate_offset sdw (-1));
  Alcotest.(check bool) "negative bound rejected" true
    (try
       ignore (Sdw.make ~gate_bound:(-1) ~mode:Mode.r ~brackets ());
       false
     with Invalid_argument _ -> true)

let test_sdw_presets () =
  let kernel_data = Sdw.kernel_data_segment in
  Alcotest.(check int) "kernel data: no gates" 0 (Sdw.gate_bound kernel_data);
  let user_ro = Sdw.user_data_segment ~writable:false in
  Alcotest.(check bool) "read-only user data" true
    (Mode.equal (Sdw.mode user_ro) Mode.r)

(* ----- Cost model ----- *)

let test_cost_selection () =
  Alcotest.(check string) "645 name" "H645" (Cost.processor_name Cost.H645);
  Alcotest.(check bool) "of_processor 645" true
    (Cost.of_processor Cost.H645 == Cost.h645);
  Alcotest.(check bool) "of_processor 6180" true
    (Cost.of_processor Cost.H6180 == Cost.h6180);
  Alcotest.(check bool) "disk slower than drum on both" true
    (Cost.h645.Cost.disk_transfer > Cost.h645.Cost.core_transfer
    && Cost.h6180.Cost.disk_transfer > Cost.h6180.Cost.core_transfer)

(* ----- Labels / principals printing ----- *)

let test_label_strings () =
  let open Multics_access in
  Alcotest.(check string) "bottom" "Unclassified" (Label.to_string Label.unclassified);
  Alcotest.(check string) "with compartments" "Secret{crypto,nato}"
    (Label.to_string (Label.make Label.Secret [ "nato"; "crypto" ]));
  Alcotest.(check string) "dedup" "Secret{c}" (Label.to_string (Label.make Label.Secret [ "c"; "c" ]))

let test_principal_strings () =
  let open Multics_access in
  let p = Principal.interactive ~person:"Jones" ~project:"Ops" in
  Alcotest.(check string) "interactive tag" "Jones.Ops.a" (Principal.to_string p);
  Alcotest.(check string) "daemon" "Initializer.SysDaemon.z"
    (Principal.to_string Principal.system_daemon);
  Alcotest.(check string) "pattern padding" "X.*.*"
    (Principal.pattern_to_string (Principal.pattern_of_string "X"));
  Alcotest.(check int) "compare equal" 0 (Principal.compare p p)

(* ----- Audit log ----- *)

let test_audit_queries () =
  let open Multics_kernel in
  let open Multics_access in
  let audit = Audit_log.create () in
  let subject =
    Policy.subject
      ~principal:(Principal.of_string "A.B.c")
      ~clearance:Label.unclassified ~ring:Ring.user ()
  in
  Audit_log.log audit ~subject ~operation:"read" ~target:"x" ~verdict:Audit_log.Granted;
  Audit_log.log audit ~subject ~operation:"write" ~target:"x"
    ~verdict:(Audit_log.Refused "no");
  Audit_log.log audit ~subject ~operation:"read" ~target:"y" ~verdict:Audit_log.Granted;
  Alcotest.(check int) "length" 3 (Audit_log.length audit);
  let records = Audit_log.records audit in
  let granted r = match r.Audit_log.verdict with Audit_log.Granted -> true | Refused _ -> false in
  Alcotest.(check int) "grants" 2 (List.length (List.filter granted records));
  Alcotest.(check int) "refusals" 1 (Audit_log.refusal_count audit);
  Alcotest.(check int) "by operation" 2
    (List.length (List.filter (fun r -> r.Audit_log.operation = "read") records));
  (* Sequence numbers are stable and ordered. *)
  let seqs = List.map (fun r -> r.Audit_log.seq) (Audit_log.records audit) in
  Alcotest.(check (list int)) "sequenced" [ 0; 1; 2 ] seqs;
  Audit_log.set_enabled audit false;
  Audit_log.log audit ~subject ~operation:"read" ~target:"z" ~verdict:Audit_log.Granted;
  Alcotest.(check int) "disabled log drops" 3 (Audit_log.length audit)

(* ----- Interrupt bookkeeping ----- *)

let test_interrupt_sources_and_interceptor () =
  let open Multics_proc in
  let sim = Sim.create ~cost:Cost.h6180 ~virtual_processors:4 in
  let ic = Interrupt.create sim ~discipline:Interrupt.Handler_processes in
  Interrupt.register ic ~name:"tty" ~service_cycles:100;
  Interrupt.register ic ~name:"disk" ~service_cycles:100;
  Alcotest.(check (list string)) "sources sorted" [ "disk"; "tty" ] (Interrupt.sources ic);
  Interrupt.post ic ~delay:5 ~name:"tty";
  Interrupt.post ic ~delay:6 ~name:"disk";
  Sim.run sim;
  Alcotest.(check int) "interceptor cycles = 2 entries"
    (2 * Cost.h6180.Cost.interrupt_entry)
    (Interrupt.interceptor_cycles ic);
  Alcotest.(check bool) "unknown source rejected" true
    (try
       Interrupt.post ic ~name:"nope";
       false
     with Invalid_argument _ -> true)

(* ----- Boundary model ----- *)

let boundary_overhead_monotone =
  let gen = QCheck.Gen.(pair (int_range 0 60) (int_range 1 60)) in
  QCheck.Test.make ~name:"645 boundary overhead monotone in flurry size" ~count:200
    (QCheck.make gen) (fun (k1, dk) ->
      let open Multics_kernel in
      let o1 = Boundary.removal_overhead Cost.h645 ~inner_calls:k1 ~work:50 in
      let o2 = Boundary.removal_overhead Cost.h645 ~inner_calls:(k1 + dk) ~work:50 in
      o2 >= o1 -. 1e-9)

let test_boundary_outside_floor () =
  (* No-protection floor is never more expensive than either protected
     placement. *)
  let open Multics_kernel in
  List.iter
    (fun cost ->
      List.iter
        (fun inner_calls ->
          let outside =
            Boundary.invocation_cost cost ~placement:Boundary.Both_outside ~inner_calls ~work:40
          in
          let inside =
            Boundary.invocation_cost cost ~placement:Boundary.Both_inside ~inner_calls ~work:40
          in
          let between =
            Boundary.invocation_cost cost ~placement:Boundary.Boundary_between ~inner_calls
              ~work:40
          in
          Alcotest.(check bool) "floor" true (outside <= inside && outside <= between))
        [ 0; 1; 5; 40 ])
    [ Cost.h645; Cost.h6180 ]

(* ----- Initialization invariants ----- *)

let test_init_invariants () =
  let open Multics_kernel in
  List.iter
    (fun config ->
      let r = Init.run config in
      (* Offline statements only exist under the memory-image strategy. *)
      (match config.Config.init with
      | Config.Bootstrap -> Alcotest.(check int) "no offline work" 0 r.Init.offline_total
      | Config.Memory_image ->
          Alcotest.(check bool) "offline work exists" true (r.Init.offline_total > 0));
      Alcotest.(check bool) "totals are sums" true
        (r.Init.privileged_total
         = List.fold_left (fun acc s -> acc + s.Init.privileged_statements) 0 r.Init.steps);
      Alcotest.(check bool) "scheduler started last" true
        (match List.rev r.Init.steps with
        | last :: _ -> last.Init.step_name = "start_scheduler"
        | [] -> false))
    Config.stages

(* ----- The object store ----- *)

let test_object_store () =
  let open Multics_fs in
  let open Multics_link in
  let store = Object_seg.Store.create () in
  let gen = Uid.generator () in
  let uid = Uid.fresh gen in
  Alcotest.(check bool) "empty" true (Object_seg.Store.get store ~uid = None);
  let obj =
    Object_seg.make ~text_words:5
      ~definitions:[ { Object_seg.def_name = "e"; def_offset = 1 } ]
      ~links:[ ("a", "b") ] ()
  in
  Object_seg.Store.put store ~uid obj;
  (match Object_seg.Store.get store ~uid with
  | Some o ->
      Alcotest.(check int) "links" 1 (Object_seg.link_count o);
      Alcotest.(check int) "unsnapped" 0 (Object_seg.snapped_links o)
  | None -> Alcotest.fail "stored object lost");
  (match Object_seg.link obj 0 with
  | Some l ->
      l.Object_seg.snapped <- Some (uid, 9);
      Alcotest.(check int) "snapped count" 1 (Object_seg.snapped_links obj);
      Object_seg.unsnap_all obj;
      Alcotest.(check int) "unsnap_all" 0 (Object_seg.snapped_links obj)
  | None -> Alcotest.fail "no link 0");
  Object_seg.Store.remove store ~uid;
  Alcotest.(check bool) "removed" true (Object_seg.Store.get store ~uid = None)

let suite =
  [
    ("sdw accessors", `Quick, test_sdw_accessors);
    ("sdw presets", `Quick, test_sdw_presets);
    ("cost selection", `Quick, test_cost_selection);
    ("label strings", `Quick, test_label_strings);
    ("principal strings", `Quick, test_principal_strings);
    ("audit queries", `Quick, test_audit_queries);
    ("interrupt bookkeeping", `Quick, test_interrupt_sources_and_interceptor);
    QCheck_alcotest.to_alcotest boundary_overhead_monotone;
    ("boundary outside floor", `Quick, test_boundary_outside_floor);
    ("init invariants", `Quick, test_init_invariants);
    ("object store", `Quick, test_object_store);
  ]
