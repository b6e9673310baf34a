(* The dense-SID mediation layer: interning stability (one identity,
   one SID, forever), the compiled access-vector table's cell
   semantics (compute/required/covers, epoch-stamp revocation, grow,
   flush, rebuild), and the parity oracle — the compiled table must be
   indistinguishable from the structured reference monitor at every
   step of a seeded churn of ACL edits, label rewrites, bracket
   changes, flush storms and salvage-style invalidations. *)

open Multics_access
open Multics_fs
open Multics_machine

let subject ?(trusted = false) ?(ring = 4) person level compartments =
  Policy.subject ~trusted
    ~principal:(Principal.make ~person ~project:"Test" ~tag:"a")
    ~clearance:(Label.make level compartments) ~ring:(Ring.of_int ring) ()

(* ----- SID interning ----- *)

let test_sid_interning_stable () =
  let reg = Policy.Subject_sids.create () in
  let a = subject "Alice" Label.Secret [ "crypto" ] in
  let sid_a = Policy.Subject_sids.sid_of reg a in
  (* Memo recall: the same record maps to the same SID. *)
  Alcotest.(check int) "memo recall" (Sid.to_int sid_a)
    (Sid.to_int (Policy.Subject_sids.sid_of reg a));
  (* A structurally equal but physically distinct record interns to
     the SAME SID — identity, not allocation, names the row. *)
  let a' = subject "Alice" Label.Secret [ "crypto" ] in
  Alcotest.(check int) "same identity, same SID" (Sid.to_int sid_a)
    (Sid.to_int (Policy.Subject_sids.sid_of reg a'));
  (* Distinct identities get distinct SIDs, densely. *)
  let b = subject "Bob" Label.Secret [ "crypto" ] in
  let ring1 = subject ~ring:1 "Alice" Label.Secret [ "crypto" ] in
  let trusted = subject ~trusted:true "Alice" Label.Secret [ "crypto" ] in
  let level = subject "Alice" Label.Top_secret [ "crypto" ] in
  let sids =
    List.map
      (fun s -> Sid.to_int (Policy.Subject_sids.sid_of reg s))
      [ a; b; ring1; trusted; level ]
  in
  Alcotest.(check int) "five identities" 5 (Policy.Subject_sids.count reg);
  Alcotest.(check (list int)) "dense, first-come order" [ 0; 1; 2; 3; 4 ] sids;
  (* The canonical record round-trips. *)
  Alcotest.(check bool) "subject_of returns the first-interned record" true
    (Policy.Subject_sids.subject_of reg sid_a == a)

let test_sid_memo_survives_foreign_registry () =
  (* A record presented to a second registry must re-intern there and
     STILL answer correctly in the first: stamps are per-registry and
     never reused, so a stale stamp re-interns rather than aliasing. *)
  let reg1 = Policy.Subject_sids.create () in
  let reg2 = Policy.Subject_sids.create () in
  let s = subject "Alice" Label.Secret [] in
  let in1 = Policy.Subject_sids.sid_of reg1 s in
  ignore (Policy.Subject_sids.sid_of reg2 (subject "Pad" Label.Unclassified []));
  let in2 = Policy.Subject_sids.sid_of reg2 s in
  Alcotest.(check int) "re-reads in reg1 stay stable" (Sid.to_int in1)
    (Sid.to_int (Policy.Subject_sids.sid_of reg1 s));
  Alcotest.(check int) "reg2 assigned its own row" 1 (Sid.to_int in2);
  Alcotest.(check int) "alternation never aliases" (Sid.to_int in1)
    (Sid.to_int (Policy.Subject_sids.sid_of reg1 s))

let test_sid_of_int_rejects_negative () =
  Alcotest.check_raises "negative SID" (Invalid_argument "Sid.of_int: negative sid")
    (fun () -> ignore (Sid.of_int (-1)))

(* ----- The compiled cell ----- *)

let test_av_compute_matches_policy () =
  (* compute's six bits, re-read through covers/required, must equal
     Policy.check + Brackets on every (subject, label, acl, mode)
     combination of a small exhaustive grid. *)
  let subjects =
    [
      subject "Alice" Label.Secret [ "crypto" ];
      subject "Alice" Label.Unclassified [];
      subject ~trusted:true "Daemon" Label.Unclassified [];
      subject ~ring:1 "Alice" Label.Secret [ "crypto" ];
      subject ~ring:7 "Low" Label.Top_secret [ "crypto"; "nato" ];
    ]
  in
  let labels =
    [ Label.unclassified; Label.make Label.Secret [ "crypto" ]; Label.make Label.Secret [ "nato" ] ]
  in
  let acls =
    [
      Acl.of_strings [ ("*.Test.*", "rw") ];
      Acl.of_strings [ ("Alice.Test.*", "r") ];
      Acl.of_strings [ ("Nobody.Else.*", "rew") ];
    ]
  in
  let brackets = [ Brackets.user_data; Brackets.make ~r1:4 ~r2:5 ~r3:5; Brackets.for_single_ring 1 ] in
  let modes = [ Mode.r; Mode.w; Mode.e; Mode.rw; Mode.re; Mode.rew ] in
  List.iter
    (fun s ->
      List.iter
        (fun object_label ->
          List.iter
            (fun acl ->
              List.iter
                (fun b ->
                  let av = Av_table.compute ~subject:s ~object_label ~acl ~brackets:b in
                  List.iter
                    (fun requested ->
                      let covered = Av_table.covers ~av ~need:(Av_table.required requested) in
                      let policy_permits =
                        Policy.permitted
                          (Policy.check ~subject:s ~object_label ~acl ~requested)
                      in
                      let bracket_ok =
                        (not
                           (requested.Mode.read || requested.Mode.execute)
                        || Brackets.read_ok b ~ring:s.Policy.ring)
                        && ((not requested.Mode.write) || Brackets.write_ok b ~ring:s.Policy.ring)
                      in
                      Alcotest.(check bool)
                        (Printf.sprintf "cell ≡ policy∧brackets (mode %s)"
                           (Mode.to_string requested))
                        (policy_permits && bracket_ok) covered)
                    modes)
                brackets)
            acls)
        labels)
    subjects

(* ----- Table mechanics: stamps, growth, flush, rebuild ----- *)

let test_av_table_stamps_and_growth () =
  let t = Av_table.create ~subjects:1 ~objects:2 ~name:"test.avtab" () in
  let s0 = subject "Alice" Label.Secret [] in
  let subj = Av_table.subject_sid t s0 in
  Alcotest.(check int) "cold miss" (-1) (Av_table.find t ~subj ~obj:5);
  Av_table.set t ~subj ~obj:5 7;
  Alcotest.(check int) "warm hit" 7 (Av_table.find t ~subj ~obj:5);
  (* Growth: an object far past the initial columns re-lays the array
     without losing the filled cell. *)
  Av_table.set t ~subj ~obj:900 3;
  Alcotest.(check int) "cell survives growth" 7 (Av_table.find t ~subj ~obj:5);
  Alcotest.(check int) "new cell readable" 3 (Av_table.find t ~subj ~obj:900);
  (* Per-object revocation: only the bumped object's cell dies. *)
  Av_table.invalidate_object t 5;
  Alcotest.(check int) "revoked cell misses" (-1) (Av_table.find t ~subj ~obj:5);
  Alcotest.(check int) "other cell unaffected" 3 (Av_table.find t ~subj ~obj:900);
  (* Global revocation kills everything. *)
  Av_table.set t ~subj ~obj:5 7;
  Av_table.invalidate_all t;
  Alcotest.(check int) "global bump revokes all (a)" (-1) (Av_table.find t ~subj ~obj:5);
  Alcotest.(check int) "global bump revokes all (b)" (-1) (Av_table.find t ~subj ~obj:900);
  (* Flush empties outright. *)
  Av_table.set t ~subj ~obj:5 7;
  Av_table.flush t;
  Alcotest.(check int) "flushed" (-1) (Av_table.find t ~subj ~obj:5);
  Alcotest.(check int) "size counts fresh cells only" 0 (Av_table.size t)

let test_av_table_rebuild () =
  let h = Hierarchy.create () in
  let operator = subject ~trusted:true ~ring:1 "Initializer" Label.Top_secret [] in
  let acl = Acl.of_strings [ ("*.Test.*", "rw"); ("Initializer.*.*", "rew") ] in
  let uids =
    Array.init 8 (fun i ->
        match
          Hierarchy.create_segment h ~subject:operator ~dir:Uid.root
            ~name:(Printf.sprintf "s%d" i) ~acl ~label:Label.unclassified
        with
        | Ok uid -> uid
        | Error e -> Alcotest.fail (Hierarchy.error_to_string e))
  in
  let alice = subject "Alice" Label.Secret [] in
  ignore (Hierarchy.check_access h ~subject:alice ~uid:uids.(0) ~requested:Mode.r);
  (* Rebuild fills every (interned subject, live node) pair: operator
     and alice interned, 8 segments plus the skeleton directories. *)
  let cells = Hierarchy.rebuild_av_table h in
  Alcotest.(check int) "cells = subjects x nodes" (2 * Hierarchy.node_count h) cells;
  (* After an eager rebuild every reference is a hit, and agrees with
     the structured path. *)
  Array.iter
    (fun uid ->
      let compiled = Hierarchy.check_access h ~subject:alice ~uid ~requested:Mode.rw in
      let structured = Hierarchy.check_access_fresh h ~subject:alice ~uid ~requested:Mode.rw in
      Alcotest.(check bool) "rebuild parity" true (compiled = structured))
    uids;
  (* A post-rebuild ACL edit still revokes: rebuild must not outlive
     the epoch discipline. *)
  (match
     Hierarchy.set_acl h ~subject:operator ~uid:uids.(0)
       ~acl:(Acl.of_strings [ ("Initializer.*.*", "rew") ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Hierarchy.error_to_string e));
  (match Hierarchy.check_access h ~subject:alice ~uid:uids.(0) ~requested:Mode.r with
  | Some (Policy.Refuse _) -> ()
  | Some Policy.Permit -> Alcotest.fail "rebuilt cell replayed a revoked Permit"
  | None -> Alcotest.fail "uid vanished")

(* ----- The parity oracle (the E19 drum, run small here) ----- *)

let test_parity_oracle_100_seeds () =
  let total =
    List.fold_left
      (fun acc seed ->
        let r = Multics_experiments.E19_sid.run_seed ~seed ~refs:120 in
        acc + r.Multics_experiments.E19_sid.divergences)
      0
      (List.init 100 Fun.id)
  in
  Alcotest.(check int) "0 divergences across 100 seeds" 0 total

let suite =
  [
    Alcotest.test_case "SID interning stable and dense" `Quick test_sid_interning_stable;
    Alcotest.test_case "SID memo survives foreign registry" `Quick
      test_sid_memo_survives_foreign_registry;
    Alcotest.test_case "negative SID rejected" `Quick test_sid_of_int_rejects_negative;
    Alcotest.test_case "compiled cell ≡ policy ∧ brackets (exhaustive grid)" `Quick
      test_av_compute_matches_policy;
    Alcotest.test_case "table stamps, growth, flush" `Quick test_av_table_stamps_and_growth;
    Alcotest.test_case "eager rebuild: exact, revocable" `Quick test_av_table_rebuild;
    Alcotest.test_case "parity oracle, 100 seeds" `Quick test_parity_oracle_100_seeds;
  ]
