(* Tests for Multics_fs: hierarchy operations, the No_entry lie, ACL
   and label enforcement on directory ops, segment contents, KST. *)

open Multics_access
open Multics_fs
open Multics_machine

let admin = Multics_kernel.System.initializer_subject

let user_subject ?(ring = Ring.user) ?(clearance = Label.unclassified) name =
  Policy.subject ~principal:(Principal.of_string name) ~clearance ~ring ()

let open_acl = Acl.of_strings [ ("*.*.*", "rew") ]

let setup () =
  let h = Hierarchy.create () in
  let dir name =
    match
      Hierarchy.create_directory h ~subject:admin ~dir:Uid.root ~name ~acl:open_acl
        ~label:Label.unclassified
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  (h, dir "work")

let test_create_and_resolve () =
  let h, work = setup () in
  let alice = user_subject "Alice.Dev.a" in
  (match
     Hierarchy.create_segment h ~subject:alice ~dir:work ~name:"notes" ~acl:open_acl
       ~label:Label.unclassified
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  match Hierarchy.resolve h ~subject:alice ~path:">work>notes" with
  | Ok uid ->
      Alcotest.(check (option string)) "path round trip" (Some ">work>notes")
        (Hierarchy.path_of h uid)
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e)

let test_duplicate_name_rejected () =
  let h, work = setup () in
  let alice = user_subject "Alice.Dev.a" in
  let mk () =
    Hierarchy.create_segment h ~subject:alice ~dir:work ~name:"x" ~acl:open_acl
      ~label:Label.unclassified
  in
  (match mk () with Ok _ -> () | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  match mk () with
  | Error (Hierarchy.Name_duplicated _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "duplicate accepted"

let test_invalid_names_rejected () =
  let h, work = setup () in
  let alice = user_subject "Alice.Dev.a" in
  List.iter
    (fun name ->
      match
        Hierarchy.create_segment h ~subject:alice ~dir:work ~name ~acl:open_acl
          ~label:Label.unclassified
      with
      | Error (Hierarchy.Invalid_path _) -> ()
      | Ok _ | Error _ -> Alcotest.fail ("accepted bad name " ^ name))
    [ ""; "has>arrow"; "has space"; String.make 40 'x' ]

let test_no_entry_lie () =
  (* A directory Alice may not status answers No_entry for both real
     and fake names — never Permission_denied. *)
  let h, work = setup () in
  let bob = user_subject "Bob.Ops.a" in
  let private_dir =
    match
      Hierarchy.create_directory h ~subject:bob ~dir:work ~name:"private"
        ~acl:(Acl.of_strings [ ("Bob.Ops.*", "rew") ])
        ~label:Label.unclassified
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  (match
     Hierarchy.create_segment h ~subject:bob ~dir:private_dir ~name:"real" ~acl:open_acl
       ~label:Label.unclassified
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  let alice = user_subject "Alice.Dev.a" in
  let probe name =
    match Hierarchy.lookup h ~subject:alice ~dir:private_dir ~name with
    | Error (Hierarchy.No_entry _) -> "no_entry"
    | Error (Hierarchy.Permission_denied _) -> "permission"
    | Error _ -> "other"
    | Ok _ -> "found"
  in
  Alcotest.(check string) "real name hidden" "no_entry" (probe "real");
  Alcotest.(check string) "fake name same answer" "no_entry" (probe "fake")

let test_append_needs_execute () =
  let h, work = setup () in
  let bob = user_subject "Bob.Ops.a" in
  let listable_only =
    match
      Hierarchy.create_directory h ~subject:bob ~dir:work ~name:"ro"
        ~acl:(Acl.of_strings [ ("*.*.*", "r"); ("Bob.Ops.*", "rew") ])
        ~label:Label.unclassified
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  let alice = user_subject "Alice.Dev.a" in
  match
    Hierarchy.create_segment h ~subject:alice ~dir:listable_only ~name:"intruder" ~acl:open_acl
      ~label:Label.unclassified
  with
  | Error (Hierarchy.Permission_denied _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "append without execute permission"

let test_label_floor_on_creation () =
  (* An object below its directory's label would leak the directory's
     existence downward: refused. *)
  let h, _work = setup () in
  let secret_dir =
    match
      Hierarchy.create_directory h ~subject:admin ~dir:Uid.root ~name:"vault" ~acl:open_acl
        ~label:(Label.make Label.Secret [])
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  let carol =
    user_subject ~clearance:(Label.make Label.Secret []) "Carol.Intel.a"
  in
  match
    Hierarchy.create_segment h ~subject:carol ~dir:secret_dir ~name:"leak" ~acl:open_acl
      ~label:Label.unclassified
  with
  | Error (Hierarchy.Permission_denied _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "created Unclassified entry under Secret directory"

let test_delete_nonempty_dir_refused () =
  let h, work = setup () in
  let alice = user_subject "Alice.Dev.a" in
  let sub =
    match
      Hierarchy.create_directory h ~subject:alice ~dir:work ~name:"sub" ~acl:open_acl
        ~label:Label.unclassified
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  (match
     Hierarchy.create_segment h ~subject:alice ~dir:sub ~name:"child" ~acl:open_acl
       ~label:Label.unclassified
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  (match Hierarchy.delete_entry h ~subject:alice ~dir:work ~name:"sub" with
  | Error (Hierarchy.Directory_not_empty _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "deleted non-empty directory");
  (match Hierarchy.delete_entry h ~subject:alice ~dir:sub ~name:"child" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  match Hierarchy.delete_entry h ~subject:alice ~dir:work ~name:"sub" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e)

let test_rename () =
  let h, work = setup () in
  let alice = user_subject "Alice.Dev.a" in
  (match
     Hierarchy.create_segment h ~subject:alice ~dir:work ~name:"old" ~acl:open_acl
       ~label:Label.unclassified
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  (match Hierarchy.rename_entry h ~subject:alice ~dir:work ~name:"old" ~new_name:"new" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  match Hierarchy.resolve h ~subject:alice ~path:">work>new" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e)

let test_words_zero_extended () =
  let h, work = setup () in
  let alice = user_subject "Alice.Dev.a" in
  let uid =
    match
      Hierarchy.create_segment h ~subject:alice ~dir:work ~name:"data" ~acl:open_acl
        ~label:Label.unclassified
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  Alcotest.(check (option int)) "unwritten word reads 0" (Some 0)
    (Hierarchy.raw_read_word h ~uid ~offset:500);
  (match Gate_calls.store_word h ~uid ~offset:100 ~value:7 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  Alcotest.(check (option int)) "written word" (Some 7) (Hierarchy.raw_read_word h ~uid ~offset:100);
  Alcotest.(check (option int)) "negative offset reads nothing" None
    (Hierarchy.raw_read_word h ~uid ~offset:(-1))

let test_effective_mode_intersection () =
  let h, work = setup () in
  let secret = Label.make Label.Secret [] in
  let uid =
    match
      Hierarchy.create_segment h ~subject:admin ~dir:work ~name:"labelled"
        ~acl:(Acl.of_strings [ ("*.*.*", "rw") ])
        ~label:secret
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  (* Unclassified subject: ACL grants rw, but the lattice strips read
     (no dominance) and keeps blind write (object dominates subject). *)
  let low = user_subject "Eve.Guest.a" in
  let mode = Hierarchy.effective_mode h ~subject:low ~uid in
  Alcotest.(check string) "low mode" "w" (Mode.to_string mode);
  (* Secret subject: read ok, write ok (equal labels). *)
  let cleared = user_subject ~clearance:secret "Carol.Intel.a" in
  let mode = Hierarchy.effective_mode h ~subject:cleared ~uid in
  Alcotest.(check string) "cleared mode" "rw" (Mode.to_string mode);
  (* Top-secret subject: read ok, write stripped by the star-property. *)
  let high = user_subject ~clearance:(Label.make Label.Top_secret []) "Dan.Intel.a" in
  let mode = Hierarchy.effective_mode h ~subject:high ~uid in
  Alcotest.(check string) "high mode" "r" (Mode.to_string mode)

let test_kst_roundtrip () =
  let kst = Kst.create ~variant:Kst.Split () in
  let g = Uid.generator () in
  let u1 = Uid.fresh g in
  let u2 = Uid.fresh g in
  let s1, already1 = Kst.make_known kst ~uid:u1 in
  let s2, _ = Kst.make_known kst ~uid:u2 in
  let s1', already1' = Kst.make_known kst ~uid:u1 in
  Alcotest.(check bool) "fresh" false already1;
  Alcotest.(check bool) "idempotent" true (s1 = s1' && already1');
  Alcotest.(check bool) "distinct" true (s1 <> s2);
  (match Kst.uid_of_segno kst s1 with
  | Ok u -> Alcotest.(check bool) "uid back" true (Uid.equal u u1)
  | Error e -> Alcotest.fail (Kst.error_to_string e));
  (match Kst.terminate kst s1 with Ok () -> () | Error e -> Alcotest.fail (Kst.error_to_string e));
  match Kst.uid_of_segno kst s1 with
  | Error (Kst.Unknown_segno _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "terminated segno still known"

let test_kst_split_refuses_pathnames () =
  let kst = Kst.create ~variant:Kst.Split () in
  let g = Uid.generator () in
  let segno, _ = Kst.make_known kst ~uid:(Uid.fresh g) in
  match Kst.record_pathname kst segno ">a>b" with
  | Error Kst.Naming_not_in_kernel -> ()
  | Ok () | Error _ -> Alcotest.fail "split KST accepted a pathname"

let test_kst_footprint_shrinks () =
  let fill kst =
    let g = Uid.generator () in
    for _ = 1 to 30 do
      ignore (Kst.make_known kst ~uid:(Uid.fresh g))
    done;
    Kst.protected_words kst
  in
  let unified = fill (Kst.create ~variant:Kst.Unified ()) in
  let split = fill (Kst.create ~variant:Kst.Split ()) in
  Alcotest.(check bool) "about 10x" true (unified / split >= 8)

(* Property: resolve never reports Permission_denied for intermediate
   directories — only No_entry (the lie holds on every path shape). *)
let resolve_never_leaks_prop =
  let gen = QCheck.Gen.(list_size (int_range 1 4) (oneofl [ "private"; "real"; "fake"; "x" ])) in
  QCheck.Test.make ~name:"resolve hides protected names" ~count:200 (QCheck.make gen)
    (fun components ->
      let h, work = setup () in
      let bob = user_subject "Bob.Ops.a" in
      let private_dir =
        match
          Hierarchy.create_directory h ~subject:bob ~dir:work ~name:"private"
            ~acl:(Acl.of_strings [ ("Bob.Ops.*", "rew") ])
            ~label:Label.unclassified
        with
        | Ok uid -> uid
        | Error _ -> work
      in
      ignore
        (Hierarchy.create_segment h ~subject:bob ~dir:private_dir ~name:"real"
           ~acl:(Acl.of_strings [ ("Bob.Ops.*", "rw") ])
           ~label:Label.unclassified);
      let alice = user_subject "Alice.Dev.a" in
      let path = ">work>" ^ String.concat ">" components in
      match Hierarchy.resolve h ~subject:alice ~path with
      | Error (Hierarchy.Permission_denied _) -> path = ">work>private" (* own-dir listing refusal would be a lie failure deeper *) && false
      | Ok _ | Error _ -> true)


(* ----- Quota cells ----- *)

let test_quota_basic () =
  let h, work = setup () in
  let alice = user_subject "Alice.Dev.a" in
  (match Hierarchy.set_quota h ~subject:alice ~uid:work ~quota:(Some 2) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  Alcotest.(check (option int)) "quota installed" (Some 2) (Hierarchy.quota_of h work);
  let uid =
    match
      Hierarchy.create_segment h ~subject:alice ~dir:work ~name:"grow" ~acl:open_acl
        ~label:Label.unclassified
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  let wpp = Hierarchy.words_per_page in
  (* First two pages fit... *)
  (match Gate_calls.store_word h ~uid ~offset:(wpp - 1) ~value:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  (match Gate_calls.store_word h ~uid ~offset:(2 * wpp - 1) ~value:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  Alcotest.(check (option int)) "two pages charged" (Some 2) (Hierarchy.pages_charged_of h work);
  (* ... the third does not. *)
  (match Gate_calls.store_word h ~uid ~offset:(2 * wpp) ~value:1 with
  | Error (Hierarchy.Quota_exceeded _) -> ()
  | Ok () -> Alcotest.fail "grew past the quota"
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  (* Rewriting within existing pages is free. *)
  match Gate_calls.store_word h ~uid ~offset:0 ~value:9 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e)

let test_quota_refund_on_delete () =
  let h, work = setup () in
  let alice = user_subject "Alice.Dev.a" in
  (match Hierarchy.set_quota h ~subject:alice ~uid:work ~quota:(Some 1) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  let mk name =
    match
      Hierarchy.create_segment h ~subject:alice ~dir:work ~name ~acl:open_acl
        ~label:Label.unclassified
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  let a = mk "a" in
  (match Gate_calls.store_word h ~uid:a ~offset:0 ~value:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  let b = mk "b" in
  (* The cell is full: b cannot grow. *)
  (match Gate_calls.store_word h ~uid:b ~offset:0 ~value:1 with
  | Error (Hierarchy.Quota_exceeded _) -> ()
  | Ok () -> Alcotest.fail "grew past the quota"
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  (* Deleting a refunds its page; b may now grow. *)
  (match Hierarchy.delete_entry h ~subject:alice ~dir:work ~name:"a" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  match Gate_calls.store_word h ~uid:b ~offset:0 ~value:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e)

let test_quota_install_counts_existing () =
  let h, work = setup () in
  let alice = user_subject "Alice.Dev.a" in
  let uid =
    match
      Hierarchy.create_segment h ~subject:alice ~dir:work ~name:"pre" ~acl:open_acl
        ~label:Label.unclassified
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  let wpp = Hierarchy.words_per_page in
  (match Gate_calls.store_word h ~uid ~offset:(3 * wpp - 1) ~value:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  (* Installing a 2-page quota under 3 existing pages must fail... *)
  (match Hierarchy.set_quota h ~subject:alice ~uid:work ~quota:(Some 2) with
  | Error (Hierarchy.Quota_exceeded _) -> ()
  | Ok () -> Alcotest.fail "quota installed below existing usage"
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  (* ... a 5-page quota installs with 3 pages charged. *)
  (match Hierarchy.set_quota h ~subject:alice ~uid:work ~quota:(Some 5) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  Alcotest.(check (option int)) "existing charged" (Some 3) (Hierarchy.pages_charged_of h work)

let test_quota_nested_cells () =
  (* An inner cell takes over accounting for its subtree. *)
  let h, work = setup () in
  let alice = user_subject "Alice.Dev.a" in
  (match Hierarchy.set_quota h ~subject:alice ~uid:work ~quota:(Some 1) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  let sub =
    match
      Hierarchy.create_directory h ~subject:alice ~dir:work ~name:"inner" ~acl:open_acl
        ~label:Label.unclassified
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  (match Hierarchy.set_quota h ~subject:alice ~uid:sub ~quota:(Some 10) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  let uid =
    match
      Hierarchy.create_segment h ~subject:alice ~dir:sub ~name:"deep" ~acl:open_acl
        ~label:Label.unclassified
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  let wpp = Hierarchy.words_per_page in
  (* 3 pages exceed work's 1-page cell but fit the inner 10-page cell,
     which governs. *)
  (match Gate_calls.store_word h ~uid ~offset:(3 * wpp - 1) ~value:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  Alcotest.(check (option int)) "inner charged" (Some 3) (Hierarchy.pages_charged_of h sub);
  Alcotest.(check (option int)) "outer untouched" (Some 0) (Hierarchy.pages_charged_of h work)

(* ----- Change stamps -----

   A change stamp promises that every mutator of what it covers moves
   it and that nothing else does; the model checker re-renders a
   component only when its stamp moved.  [moves]/[stays] run one call
   and check the stamp either way. *)

let moves stamp what f =
  let before = stamp () in
  let result = f () in
  if stamp () = before then Alcotest.failf "%s left the change stamp at %d" what before;
  result

let stays stamp what f =
  let before = stamp () in
  ignore (f ());
  Alcotest.(check int) (what ^ " leaves the change stamp") before (stamp ())

let ok = function Ok x -> x | Error e -> Alcotest.fail (Hierarchy.error_to_string e)

let test_hierarchy_stamp () =
  let h, work = setup () in
  let alice = user_subject "Alice.Dev.a" in
  (* Every branch the test has made, with every stamp any branch has
     held.  [writes what branches f] runs [f] and checks that it moved
     the stamp of each branch in [branches] (a deleted branch reads -1)
     and of no other; [reads] is [writes] of none. *)
  let known = ref [ Uid.root; work ] and held = ref [] in
  let snapshot () = List.map (fun uid -> (uid, Hierarchy.stamp_of h uid)) !known in
  let writes what branches f =
    let before = snapshot () in
    let result = f () in
    List.iter
      (fun (uid, stamp) ->
        held := stamp :: !held;
        let now = Hierarchy.stamp_of h uid in
        if List.mem uid branches then begin
          if now = stamp then
            Alcotest.failf "%s left the stamp of branch %d at %d" what (Uid.to_int uid) stamp
        end
        else
          Alcotest.(check int)
            (Printf.sprintf "%s leaves the stamp of branch %d" what (Uid.to_int uid))
            stamp now)
      before;
    result
  in
  let reads what f = ignore (writes what [] f) in
  let succeeds what branches f = Alcotest.(check bool) what true (writes what branches f) in
  (* A new branch's stamp is one no branch has held. *)
  let create what dir name =
    let uid =
      writes what [ dir ] (fun () ->
          ok
            (Hierarchy.create_segment h ~subject:alice ~dir ~name ~acl:open_acl
               ~label:Label.unclassified))
    in
    let stamp = Hierarchy.stamp_of h uid in
    if List.mem stamp !held then Alcotest.failf "%s minted the stamp %d again" what stamp;
    known := uid :: !known;
    uid
  in
  let seg = create "create_segment" work "seg" in
  let sub =
    writes "create_directory" [ work ] (fun () ->
        ok
          (Hierarchy.create_directory h ~subject:alice ~dir:work ~name:"sub" ~acl:open_acl
             ~label:Label.unclassified))
  in
  known := sub :: !known;
  reads "lookup" (fun () -> Hierarchy.lookup h ~subject:alice ~dir:work ~name:"seg");
  reads "raw_lookup" (fun () -> Hierarchy.raw_lookup h ~dir:work ~name:"seg");
  reads "check_access compiling a cell" (fun () ->
      Hierarchy.check_access h ~subject:alice ~uid:seg ~requested:Mode.rw);
  reads "check_access on the compiled cell" (fun () ->
      Hierarchy.check_access h ~subject:alice ~uid:seg ~requested:Mode.r);
  reads "check_access_fresh" (fun () ->
      Hierarchy.check_access_fresh h ~subject:alice ~uid:seg ~requested:Mode.rw);
  reads "an eager access-vector rebuild" (fun () -> Hierarchy.rebuild_av_table h);
  reads "raw_read_word" (fun () -> Hierarchy.raw_read_word h ~uid:seg ~offset:0);
  reads "sdw_for" (fun () -> Hierarchy.sdw_for h ~subject:alice ~uid:seg);
  succeeds "raw_write_word" [ seg ] (fun () ->
      Hierarchy.raw_write_word h ~uid:seg ~offset:0 ~value:7);
  writes "set_acl" [ seg ] (fun () ->
      ok (Hierarchy.set_acl h ~subject:alice ~uid:seg ~acl:(Acl.of_strings [ ("Alice.*.*", "rw") ])));
  writes "set_gate_bound" [ seg ] (fun () ->
      ok (Hierarchy.set_gate_bound h ~subject:alice ~uid:seg ~gate_bound:1));
  writes "set_brackets" [ seg ] (fun () ->
      ok
        (Hierarchy.set_brackets h ~subject:alice ~uid:seg
           ~brackets:(Brackets.make ~r1:4 ~r2:5 ~r3:5)));
  succeeds "raw_set_label" [ seg ] (fun () ->
      Hierarchy.raw_set_label h ~uid:seg ~label:(Label.make Label.Secret []));
  ignore
    (writes "rename_entry" [ work; seg ] (fun () ->
         ok (Hierarchy.rename_entry h ~subject:alice ~dir:work ~name:"seg" ~new_name:"renamed")));
  writes "set_quota" [ sub ] (fun () ->
      ok (Hierarchy.set_quota h ~subject:alice ~uid:sub ~quota:(Some 4)));
  let inner = create "create_segment below a quota cell" sub "inner" in
  writes "charge_growth" [ sub ] (fun () -> ok (Hierarchy.charge_growth h ~uid:inner ~offset:100));
  ignore
    (writes "delete_entry" [ work; seg ] (fun () ->
         ok (Hierarchy.delete_entry h ~subject:alice ~dir:work ~name:"renamed")));
  succeeds "raw_delete_subtree" [ work; sub; inner ] (fun () ->
      Hierarchy.raw_delete_subtree h ~dir:work ~name:"sub");
  let again = create "re-creating a deleted name" work "seg" in
  let c = Hierarchy.copy h in
  List.iter
    (fun uid ->
      Alcotest.(check int) "copy keeps every stamp" (Hierarchy.stamp_of h uid)
        (Hierarchy.stamp_of c uid))
    !known;
  let stamp = Hierarchy.stamp_of h again in
  Alcotest.(check bool) "a write to the copy moves its branch's stamp" true
    (Hierarchy.raw_write_word c ~uid:again ~offset:0 ~value:1 && Hierarchy.stamp_of c again <> stamp);
  Alcotest.(check int) "and leaves the source's" stamp (Hierarchy.stamp_of h again)

let test_kst_stamp () =
  let kst = Kst.create ~variant:Kst.Split () in
  let moves what f = moves (fun () -> Kst.stamp kst) what f in
  let stays what f = stays (fun () -> Kst.stamp kst) what f in
  let g = Uid.generator () in
  let uid = Uid.fresh g in
  let segno, _ = moves "make_known of a new uid" (fun () -> Kst.make_known kst ~uid) in
  stays "make_known of a uid already known" (fun () -> Kst.make_known kst ~uid);
  stays "uid_of_segno" (fun () -> Kst.uid_of_segno kst segno);
  stays "segno_of_uid" (fun () -> Kst.segno_of_uid kst ~uid);
  stays "sdw_of" (fun () -> Kst.sdw_of kst segno);
  stays "known_segnos" (fun () -> Kst.known_segnos kst);
  let sdw = Sdw.make ~mode:Mode.rw ~brackets:Brackets.user_data () in
  let kst_ok = function Ok () -> () | Error e -> Alcotest.fail (Kst.error_to_string e) in
  moves "set_sdw" (fun () -> kst_ok (Kst.set_sdw kst segno sdw));
  stays "set_sdw of an unknown segno" (fun () -> Kst.set_sdw kst (segno + 1) sdw);
  let c = Kst.copy kst in
  let stamp = Kst.stamp kst in
  Alcotest.(check int) "copy keeps the stamp" stamp (Kst.stamp c);
  ignore (Kst.make_known c ~uid:(Uid.fresh g));
  Alcotest.(check bool) "a change to the copy moves its stamp" true (Kst.stamp c <> stamp);
  Alcotest.(check int) "and leaves the source's" stamp (Kst.stamp kst);
  moves "terminate" (fun () -> kst_ok (Kst.terminate kst segno))

let suite =
  [
    ("create and resolve", `Quick, test_create_and_resolve);
    ("duplicate name rejected", `Quick, test_duplicate_name_rejected);
    ("invalid names rejected", `Quick, test_invalid_names_rejected);
    ("no-entry lie", `Quick, test_no_entry_lie);
    ("append needs execute", `Quick, test_append_needs_execute);
    ("label floor on creation", `Quick, test_label_floor_on_creation);
    ("delete nonempty dir refused", `Quick, test_delete_nonempty_dir_refused);
    ("rename", `Quick, test_rename);
    ("words zero extended", `Quick, test_words_zero_extended);
    ("effective mode intersection", `Quick, test_effective_mode_intersection);
    ("kst roundtrip", `Quick, test_kst_roundtrip);
    ("kst split refuses pathnames", `Quick, test_kst_split_refuses_pathnames);
    ("kst footprint shrinks", `Quick, test_kst_footprint_shrinks);
    ("quota basic", `Quick, test_quota_basic);
    ("quota refund on delete", `Quick, test_quota_refund_on_delete);
    ("quota install counts existing", `Quick, test_quota_install_counts_existing);
    ("quota nested cells", `Quick, test_quota_nested_cells);
    ("hierarchy change stamp", `Quick, test_hierarchy_stamp);
    ("kst change stamp", `Quick, test_kst_stamp);
    QCheck_alcotest.to_alcotest resolve_never_leaks_prop;
  ]

let test_brackets_minting_refused () =
  let h, work = setup () in
  let alice = user_subject "Alice.Dev.a" in
  (* Ring-4 code may not create a (0,0,7) gate segment... *)
  (match
     Hierarchy.create_segment ~brackets:Brackets.kernel_gate h ~subject:alice ~dir:work
       ~name:"trapdoor" ~acl:open_acl ~label:Label.unclassified
   with
  | Error (Hierarchy.Brackets_below_ring { requested_r1 = 0; ring = 4 }) -> ()
  | Ok _ -> Alcotest.fail "minted a ring-0 gate from ring 4"
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  (* ... nor lower the brackets of an existing segment below itself... *)
  let uid =
    match
      Hierarchy.create_segment h ~subject:alice ~dir:work ~name:"mine" ~acl:open_acl
        ~label:Label.unclassified
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Hierarchy.error_to_string e)
  in
  (match Hierarchy.set_brackets h ~subject:alice ~uid ~brackets:(Brackets.make ~r1:1 ~r2:4 ~r3:4) with
  | Error (Hierarchy.Brackets_below_ring _) -> ()
  | Ok () -> Alcotest.fail "lowered brackets below own ring"
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  (* ... while brackets at or outside its own ring are fine. *)
  (match Hierarchy.set_brackets h ~subject:alice ~uid ~brackets:(Brackets.make ~r1:4 ~r2:5 ~r3:5) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  (* The Initializer (ring 0) installs inner-ring subsystems freely. *)
  match
    Hierarchy.create_segment ~brackets:Brackets.kernel_gate h
      ~subject:Multics_kernel.System.initializer_subject ~dir:work ~name:"hcs"
      ~acl:open_acl ~label:Label.unclassified
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e)

let minting_suite = [ ("brackets minting refused", `Quick, test_brackets_minting_refused) ]
