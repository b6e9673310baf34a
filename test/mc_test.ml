(* lib/mc — the bounded exhaustive model checker.

   Canonical re-execution is the checker's foundation: a state IS its
   trace, replayed from a fresh boot through the simulator's event
   queue.  These tests pin the properties everything above relies on —
   replay is a pure function of the trace (the Event_queue tie-order
   regression), canonicalization identifies states by content rather
   than by the order that reached them, extending a trace never
   aliases the shorter trace's capture, exploration finds nothing on
   the healthy plant and the exact two-action stale-Permit window on
   the seeded-bug plant, and the frontier pool size is invisible. *)

module Mc = Multics_mc.Mc

let fp ~bug trace = Mc.fingerprint (fst (Mc.violations_of_trace ~bug trace))

let trace_of s =
  match Mc.trace_of_string s with
  | Some t -> t
  | None -> Alcotest.failf "bad test trace %S" s

let test_action_roundtrip () =
  List.iter
    (fun a ->
      match Mc.action_of_string (Mc.action_to_string a) with
      | Some a' -> Alcotest.(check bool) (Mc.action_to_string a) true (a = a')
      | None -> Alcotest.failf "action %S did not round-trip" (Mc.action_to_string a))
    (Mc.alphabet ~bug:true);
  Alcotest.(check bool) "unknown action refused" true (Mc.action_of_string "frobnicate" = None);
  let t = trace_of "read_bob_s0,acl_revoke,salvage" in
  Alcotest.(check string) "trace round-trip" "read_bob_s0,acl_revoke,salvage"
    (Mc.trace_to_string t);
  Alcotest.(check bool) "empty trace" true (Mc.trace_of_string "" = Some []);
  Alcotest.(check bool) "bad trace refused" true (Mc.trace_of_string "read_bob_s0,x" = None)

let test_replay_deterministic () =
  (* The same trace replayed twice must reach byte-identical canonical
     states — [System.t] carries no snapshot, so this is the property
     that makes "state = trace" sound at all. *)
  List.iter
    (fun s ->
      let t = trace_of s in
      Alcotest.(check string) (Printf.sprintf "replay x2: %s" s) (fp ~bug:false t)
        (fp ~bug:false t))
    [
      "";
      "read_alice_s1";
      "acl_revoke,read_bob_s0,acl_grant";
      "faulted_create,salvage,write_alice_s0";
      "bracket_widen,read_bob_s0,bracket_restore,acl_revoke";
    ]

let test_tie_order_stable () =
  (* The directed Event_queue regression: replay pushes every action
     at the same firing time, so insertion-order tie-breaking is
     load-bearing.  One hundred seeded traces, each replayed twice —
     any tie-order instability in the queue shows up as a fingerprint
     mismatch here long before it would corrupt an exploration. *)
  for seed = 1 to 100 do
    let t = Mc.random_trace ~seed ~length:6 in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: %s" seed (Mc.trace_to_string t))
      (fp ~bug:true t) (fp ~bug:true t)
  done

let test_canonical_order_independent () =
  (* Two different action orders that land in the same logical state
     must canonicalize identically — this is what lets the visited set
     merge converging interleavings.  Reading s1 and revoking s0's ACL
     touch disjoint state, so either order converges. *)
  let a = trace_of "read_alice_s1,acl_revoke" in
  let b = trace_of "acl_revoke,read_alice_s1" in
  Alcotest.(check string) "commuting actions converge" (fp ~bug:false a) (fp ~bug:false b);
  (* And an order that does NOT commute must not: revoking before
     Bob's read refuses the read, leaving his KST and CPU 1's caches
     cold. *)
  let c = trace_of "read_bob_s0,acl_revoke" in
  let d = trace_of "acl_revoke,read_bob_s0" in
  Alcotest.(check bool) "non-commuting actions distinguished" false
    (String.equal (fp ~bug:false c) (fp ~bug:false d))

let test_extension_no_alias () =
  (* Extending a trace must not disturb the shorter trace's canonical
     capture: each capture is a fresh replay, so there is no shared
     mutable state to alias. *)
  let short = trace_of "read_bob_s0" in
  let before = fp ~bug:false short in
  let _ = fp ~bug:false (short @ trace_of "acl_revoke,salvage") in
  Alcotest.(check string) "short trace unchanged by extension" before (fp ~bug:false short)

let test_healthy_explore_clean () =
  let o = Mc.explore ~depth:2 () in
  Alcotest.(check int) "no counterexamples" 0 (List.length o.Mc.o_counterexamples);
  Alcotest.(check bool) "grew past the root" true (o.Mc.o_states > 1);
  Alcotest.(check int) "one row per depth" 2 (List.length o.Mc.o_rows)

let test_bug_explore_finds_window () =
  (* The seeded-bug leg's core claim: with the deferred-connect window
     re-enabled, BFS finds the minimal stale-Permit trace — warm CPU
     1's CAM, then revoke — at exactly depth 2. *)
  let o = Mc.explore ~bug:true ~depth:2 () in
  match
    List.find_opt
      (fun (c : Mc.counterexample) -> c.Mc.violation.Mc.predicate = "P1-stale-permit")
      o.Mc.o_counterexamples
  with
  | None -> Alcotest.fail "bug plant: no stale-Permit counterexample to depth 2"
  | Some c ->
      Alcotest.(check int) "minimal window is two actions" 2 (List.length c.Mc.trace);
      Alcotest.(check string) "the warm-then-revoke trace" "read_bob_s0,acl_revoke"
        (Mc.trace_to_string c.Mc.trace)

let test_pool_size_invisible () =
  let s jobs = Mc.summary (Mc.explore ~jobs ~depth:2 ~bug:true ()) in
  Alcotest.(check string) "jobs=1 and jobs=2 outcomes identical" (s 1) (s 2)

(* The reachable-state golden: canonical strings of every trace of at
   most two actions over the bug alphabet, plus 200 seeded traces of
   3-6 actions, digested in order.  A change to boot, replay or
   canonicalization that moves any reachable state, or any byte of its
   rendering, moves this digest; a change meant only to make replay
   cheaper must leave it alone. *)
let golden_traces () =
  let alpha = Mc.alphabet ~bug:true in
  let ones = List.map (fun a -> [ a ]) alpha in
  let twos = List.concat_map (fun a -> List.map (fun b -> [ a; b ]) alpha) alpha in
  let seeded = List.init 200 (fun i -> Mc.random_trace ~seed:(500 + i) ~length:(3 + (i mod 4))) in
  ([] :: ones) @ twos @ seeded

let golden_digest = "aed834bee200fade3fdf532e54a6833a"

let test_canonical_golden () =
  let canon = List.map (fun t -> fst (Mc.violations_of_trace ~bug:true t)) (golden_traces ()) in
  Alcotest.(check int) "trace count" 473 (List.length canon);
  Alcotest.(check string) "canonical-state digest" golden_digest
    (Digest.to_hex (Digest.string (String.concat "\x00" canon)))

let suite =
  [
    Alcotest.test_case "action/trace round-trip" `Quick test_action_roundtrip;
    Alcotest.test_case "replay is deterministic" `Quick test_replay_deterministic;
    Alcotest.test_case "event-queue tie order stable over 100 traces" `Quick test_tie_order_stable;
    Alcotest.test_case "canonicalization is order-independent" `Quick test_canonical_order_independent;
    Alcotest.test_case "trace extension does not alias" `Quick test_extension_no_alias;
    Alcotest.test_case "healthy plant explores clean" `Quick test_healthy_explore_clean;
    Alcotest.test_case "bug plant yields the minimal window" `Quick test_bug_explore_finds_window;
    Alcotest.test_case "frontier pool size is invisible" `Quick test_pool_size_invisible;
    Alcotest.test_case "reachable canonical states match the golden digest" `Quick
      test_canonical_golden;
  ]
