(* Tests for Multics_access: the Mitre lattice, principals, ACLs and
   the composed policy check. *)

open Multics_access
open Multics_machine

let secret_crypto = Label.make Label.Secret [ "crypto" ]
let secret_nato = Label.make Label.Secret [ "nato" ]
let ts_crypto = Label.make Label.Top_secret [ "crypto" ]
let ts_both = Label.make Label.Top_secret [ "crypto"; "nato" ]

let test_dominance_basic () =
  Alcotest.(check bool) "ts{c} dominates s{c}" true (Label.dominates ts_crypto secret_crypto);
  Alcotest.(check bool) "s{c} does not dominate ts{c}" false
    (Label.dominates secret_crypto ts_crypto);
  Alcotest.(check bool) "incomparable compartments" false
    (Label.dominates secret_crypto secret_nato);
  Alcotest.(check bool) "self dominance" true (Label.dominates secret_crypto secret_crypto);
  Alcotest.(check bool) "bottom dominated by all" true
    (Label.dominates secret_nato Label.unclassified)

let test_lub_glb () =
  let j = Label.lub secret_crypto secret_nato in
  Alcotest.(check bool) "lub dominates both" true
    (Label.dominates j secret_crypto && Label.dominates j secret_nato);
  Alcotest.(check string) "lub label" "Secret{crypto,nato}" (Label.to_string j);
  let m = Label.glb ts_both secret_crypto in
  Alcotest.(check string) "glb label" "Secret{crypto}" (Label.to_string m);
  Alcotest.(check bool) "glb dominated by both" true
    (Label.dominates ts_both m && Label.dominates secret_crypto m)

let test_level_rank_roundtrip () =
  List.iter
    (fun l -> Alcotest.(check bool) "roundtrip" true (Label.level_of_rank (Label.level_rank l) = l))
    Label.all_levels

let test_principal_parse () =
  let p = Principal.of_string "Schroeder.CSR.a" in
  Alcotest.(check string) "person" "Schroeder" (Principal.person p);
  Alcotest.(check string) "project" "CSR" (Principal.project p);
  Alcotest.(check string) "tag" "a" (Principal.tag p);
  let q = Principal.of_string "Saltzer.CSR" in
  Alcotest.(check string) "default tag" "a" (Principal.tag q);
  Alcotest.(check string) "text" "Schroeder.CSR.a" (Principal.to_string p);
  Alcotest.(check string) "text with default tag" "Saltzer.CSR.a" (Principal.to_string q);
  List.iter
    (fun (input, text) ->
      Alcotest.(check string) ("pattern " ^ input) text
        (Principal.pattern_to_string (Principal.pattern_of_string input)))
    [ ("Schroeder.CSR.a", "Schroeder.CSR.a"); ("*.CSR", "*.CSR.*"); ("Schroeder", "Schroeder.*.*") ];
  Alcotest.(check bool) "bad principal rejected" true
    (try
       ignore (Principal.of_string "a.b.c.d");
       false
     with Invalid_argument _ -> true)

let test_pattern_matching () =
  let p = Principal.of_string "Schroeder.CSR.a" in
  let m pat = Principal.matches (Principal.pattern_of_string pat) p in
  Alcotest.(check bool) "exact" true (m "Schroeder.CSR.a");
  Alcotest.(check bool) "star tag" true (m "Schroeder.CSR.*");
  Alcotest.(check bool) "star project" true (m "Schroeder.*.*");
  Alcotest.(check bool) "anyone" true (m "*.*.*");
  Alcotest.(check bool) "short form pads with stars" true (m "Schroeder");
  Alcotest.(check bool) "wrong person" false (m "Saltzer.*.*");
  Alcotest.(check bool) "wrong project" false (m "Schroeder.MAC.*")

let test_pattern_specificity () =
  let s pat = Principal.pattern_specificity (Principal.pattern_of_string pat) in
  Alcotest.(check bool) "exact beats person-star" true (s "A.B.c" > s "A.B.*");
  Alcotest.(check bool) "person beats project" true (s "A.*.*" > s "*.B.c")

let test_acl_most_specific_wins () =
  let acl =
    Acl.of_strings
      [ ("*.*.*", "r"); ("Schroeder.*.*", "rw"); ("Schroeder.CSR.a", "") ]
  in
  let mode_of s = Acl.mode_for acl (Principal.of_string s) in
  Alcotest.(check string) "exact null entry denies" "null"
    (Mode.to_string (mode_of "Schroeder.CSR.a"));
  Alcotest.(check string) "person entry" "rw" (Mode.to_string (mode_of "Schroeder.MAC.a"));
  Alcotest.(check string) "catch-all" "r" (Mode.to_string (mode_of "Saltzer.CSR.a"))

let test_acl_replace_and_remove () =
  let pat = Principal.pattern_of_string "X.Y.z" in
  let acl = Acl.add Acl.empty ~pattern:pat ~mode:Mode.r in
  let acl = Acl.add acl ~pattern:pat ~mode:Mode.rw in
  Alcotest.(check int) "replaced, not duplicated" 1 (List.length (Acl.entries acl));
  let acl = Acl.remove acl ~pattern:pat in
  Alcotest.(check int) "removed" 0 (List.length (Acl.entries acl))

let test_acl_no_match_no_access () =
  Alcotest.(check bool) "empty acl denies" false
    (Acl.permits Acl.empty (Principal.of_string "A.B.c") ~requested:Mode.r)

let subject_secret =
  Policy.subject
    ~principal:(Principal.of_string "Jones.Crypto.a")
    ~clearance:secret_crypto ~ring:Ring.user ()

let acl_all_rw = Acl.of_strings [ ("*.*.*", "rw") ]

let test_policy_no_read_up () =
  match
    Policy.check ~subject:subject_secret ~object_label:ts_crypto ~acl:acl_all_rw
      ~requested:Mode.r
  with
  | Policy.Refuse [ Policy.Mandatory_read_up _ ] -> ()
  | v -> Alcotest.fail (Fmt.str "expected read-up refusal, got %a" Policy.pp_verdict v)

let test_policy_no_write_down () =
  match
    Policy.check ~subject:subject_secret ~object_label:Label.unclassified ~acl:acl_all_rw
      ~requested:Mode.w
  with
  | Policy.Refuse [ Policy.Mandatory_write_down _ ] -> ()
  | v -> Alcotest.fail (Fmt.str "expected write-down refusal, got %a" Policy.pp_verdict v)

let test_policy_write_up_allowed_by_lattice () =
  (* Blind write upward satisfies the *-property (and is refused only
     if the ACL says so). *)
  match
    Policy.check ~subject:subject_secret ~object_label:ts_crypto ~acl:acl_all_rw
      ~requested:Mode.w
  with
  | Policy.Permit -> ()
  | v -> Alcotest.fail (Fmt.str "expected permit, got %a" Policy.pp_verdict v)

let test_policy_read_write_needs_equality () =
  (* rw at a strictly dominating level fails the *-property; rw at the
     subject's own level passes. *)
  let rw = Mode.rw in
  (match
     Policy.check ~subject:subject_secret ~object_label:secret_crypto ~acl:acl_all_rw
       ~requested:rw
   with
  | Policy.Permit -> ()
  | v -> Alcotest.fail (Fmt.str "same level rw should pass: %a" Policy.pp_verdict v));
  match
    Policy.check ~subject:subject_secret ~object_label:Label.unclassified ~acl:acl_all_rw
      ~requested:rw
  with
  | Policy.Refuse _ -> ()
  | Policy.Permit -> Alcotest.fail "rw across levels violated the *-property"

let test_policy_collects_all_refusals () =
  (* secret{nato} is incomparable with the subject's secret{crypto}:
     rw against an empty ACL must fail simple security, the
     *-property, and the discretionary check all at once. *)
  match
    Policy.check ~subject:subject_secret ~object_label:secret_nato ~acl:Acl.empty
      ~requested:Mode.rw
  with
  | Policy.Refuse refusals -> Alcotest.(check int) "three refusals" 3 (List.length refusals)
  | Policy.Permit -> Alcotest.fail "should refuse"

let test_policy_hardware_refusal () =
  let sdw = Sdw.kernel_data_segment in
  let refusals =
    Policy.refusals_of_hardware (Hardware.check sdw ~ring:Ring.user ~operation:Hardware.Read)
  in
  Alcotest.(check int) "one ring refusal" 1 (List.length refusals)

(* ----- Lattice laws as properties ----- *)

let label_gen =
  QCheck.Gen.(
    let* rank = int_range 0 3 in
    let* comps = QCheck.Gen.list_size (int_range 0 3) (oneofl [ "c"; "n"; "x"; "q" ]) in
    return (Label.make (Label.level_of_rank rank) comps))

let label_arb = QCheck.make ~print:Label.to_string label_gen

let pair_arb = QCheck.pair label_arb label_arb
let triple_arb = QCheck.triple label_arb label_arb label_arb

let lub_is_upper_bound =
  QCheck.Test.make ~name:"lub is an upper bound" ~count:500 pair_arb (fun (a, b) ->
      let j = Label.lub a b in
      Label.dominates j a && Label.dominates j b)

let lub_is_least =
  QCheck.Test.make ~name:"lub is least among upper bounds" ~count:500 triple_arb
    (fun (a, b, c) ->
      let j = Label.lub a b in
      if Label.dominates c a && Label.dominates c b then Label.dominates c j else true)

let glb_is_lower_bound =
  QCheck.Test.make ~name:"glb is a lower bound" ~count:500 pair_arb (fun (a, b) ->
      let m = Label.glb a b in
      Label.dominates a m && Label.dominates b m)

let dominance_antisymmetric =
  QCheck.Test.make ~name:"dominance antisymmetric" ~count:500 pair_arb (fun (a, b) ->
      if Label.dominates a b && Label.dominates b a then Label.equal a b else true)

let dominance_transitive =
  QCheck.Test.make ~name:"dominance transitive" ~count:500 triple_arb (fun (a, b, c) ->
      if Label.dominates a b && Label.dominates b c then Label.dominates a c else true)

(* The central confinement property: a permitted (observe, modify) pair
   can never move information downward.  If a subject may read o1 and
   write o2, then label(o2) dominates label(o1). *)
let no_downward_flow =
  QCheck.Test.make ~name:"permitted read+write pairs never flow down" ~count:1000
    triple_arb (fun (subject_label, o1, o2) ->
      let can_read = Policy.mandatory_refusals ~subject_label ~object_label:o1 ~requested:Mode.r = [] in
      let can_write =
        Policy.mandatory_refusals ~subject_label ~object_label:o2 ~requested:Mode.w = []
      in
      if can_read && can_write then Label.dominates o2 o1 else true)

let suite =
  [
    ("dominance basic", `Quick, test_dominance_basic);
    ("lub/glb", `Quick, test_lub_glb);
    ("level rank roundtrip", `Quick, test_level_rank_roundtrip);
    ("principal parse", `Quick, test_principal_parse);
    ("pattern matching", `Quick, test_pattern_matching);
    ("pattern specificity", `Quick, test_pattern_specificity);
    ("acl most specific wins", `Quick, test_acl_most_specific_wins);
    ("acl replace/remove", `Quick, test_acl_replace_and_remove);
    ("acl empty denies", `Quick, test_acl_no_match_no_access);
    ("policy no read up", `Quick, test_policy_no_read_up);
    ("policy no write down", `Quick, test_policy_no_write_down);
    ("policy blind write up ok", `Quick, test_policy_write_up_allowed_by_lattice);
    ("policy rw needs equality", `Quick, test_policy_read_write_needs_equality);
    ("policy collects refusals", `Quick, test_policy_collects_all_refusals);
    ("policy hardware refusal", `Quick, test_policy_hardware_refusal);
    QCheck_alcotest.to_alcotest lub_is_upper_bound;
    QCheck_alcotest.to_alcotest lub_is_least;
    QCheck_alcotest.to_alcotest glb_is_lower_bound;
    QCheck_alcotest.to_alcotest dominance_antisymmetric;
    QCheck_alcotest.to_alcotest dominance_transitive;
    QCheck_alcotest.to_alcotest no_downward_flow;
  ]
