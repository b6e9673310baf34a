(* lib/mc — the bounded exhaustive model checker.

   Canonical re-execution is the checker's foundation: a state IS its
   trace, replayed through the simulator's event queue — from a fresh
   boot ([Mc.violations_of_trace]), on a copy of the booted memory
   image an exploration makes once ([Mc.Image]), or, for a candidate,
   as its last action fired on a copy of its replayed parent
   ([Mc.Image.extend]).  These tests pin the properties everything
   above relies on — replay is a pure function
   of the trace (the Event_queue tie-order regression),
   canonicalization identifies states by content rather than by the
   order that reached them, extending a trace never aliases the
   shorter trace's capture, the visited set's interned keys identify
   exactly the states the canonical strings do, an image copy replays
   exactly as a fresh boot and the image is never written, a candidate
   derived from its parent is its full replay and its incremental
   capture is its full render, merged states have
   their representative's successors (the successor
   check, to depth 4; [dune build @mc_full] runs it over the whole
   space), exploration finds nothing on the healthy plant up to its
   fixpoint and the exact two-action stale-Permit window on the
   seeded-bug plant, and the frontier pool size is invisible. *)

module Mc = Multics_mc.Mc
module Par = Multics_par.Par

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

(* Every trace of at most three actions over an alphabet. *)
let traces_upto_three alpha =
  let extend traces = List.concat_map (fun t -> List.map (fun a -> t @ [ a ]) alpha) traces in
  let ones = extend [ [] ] in
  let twos = extend ones in
  ([] :: ones) @ twos @ extend twos

let test_state_keys_exact () =
  (* The visited set keys on interned components instead of the
     canonical string; that is sound only if the two identify exactly
     the same states.  Every trace of at most three actions (a superset
     of the candidates of depth <= 3): equal keys must mean equal
     canonical strings, and equal strings equal keys. *)
  let traces = traces_upto_three (Mc.alphabet ~bug:false) in
  let table = Mc.State_key.create () in
  let by_key = Hashtbl.create 1024 and by_canon = Hashtbl.create 1024 in
  let agree tbl k v what trace =
    match Hashtbl.find_opt tbl k with
    | None -> Hashtbl.add tbl k v
    | Some v' ->
        if v <> v' then Alcotest.failf "%s differ at [%s]" what (Mc.trace_to_string trace)
  in
  List.iter
    (fun trace ->
      let key = Mc.State_key.of_trace table ~bug:false trace in
      let canon = fst (Mc.violations_of_trace ~bug:false trace) in
      agree by_key key canon "equal keys, canonical strings" trace;
      agree by_canon canon key "equal canonical strings, keys" trace)
    traces;
  Alcotest.(check int) "traces checked" 2955 (List.length traces);
  Alcotest.(check int) "the states within three actions" 269 (Hashtbl.length by_canon);
  Alcotest.(check int) "one key per canonical state" 269 (Hashtbl.length by_key)

let test_image_copies_are_boots () =
  (* Every replay of an exploration runs on a copy of one booted image.
     Over every trace of at most three actions, on both alphabets, a
     copy's replay must reach the fresh boot's canonical state and
     violations, and count exactly what the boot counts past the boot
     itself ([Mc_oracle]). *)
  List.iter
    (fun (bug, expected) ->
      let oracle = Mc_oracle.create ~bug in
      let traces = traces_upto_three (Mc.alphabet ~bug) in
      Alcotest.(check int) "traces" expected (List.length traces);
      List.iter
        (fun trace ->
          match Mc_oracle.check oracle trace with
          | _, None -> ()
          | _, Some divergence -> Alcotest.fail divergence)
        traces)
    [ (false, 2955); (true, 4369) ]

let test_image_never_written () =
  (* The image renders its build-time state after copies of it have
     been replayed on one domain and on four. *)
  let image = Mc.Image.build ~bug:true in
  let built = Mc.Image.canonical image in
  Alcotest.(check string) "the image is the boot" (fst (Mc.violations_of_trace ~bug:true [])) built;
  let traces = traces_upto_three (Mc.alphabet ~bug:false) in
  List.iter
    (fun jobs ->
      ignore (Par.map ~jobs (Mc.Image.violations_of_trace image) traces);
      Alcotest.(check string) (Printf.sprintf "unchanged after jobs=%d" jobs) built
        (Mc.Image.canonical image))
    [ 1; 4 ]

let test_successors_agree () =
  (* The standing successor check, to depth 4: every trace that merged
     into an already-visited state must lead, action by action, to the
     canonical states its representative leads to. *)
  let r = Mc.successor_check ~jobs:1 ~depth:4 () in
  Alcotest.(check int) "traces merged within depth 4" 3_081 r.Mc.sr_merged;
  Alcotest.(check int) "successor pairs" 43_134 r.Mc.sr_pairs;
  match r.Mc.sr_divergent with
  | [] -> ()
  | (merged, rep, a) :: _ ->
      Alcotest.failf "%d divergent, first [%s] vs [%s] after %s" (List.length r.Mc.sr_divergent)
        (Mc.trace_to_string merged) (Mc.trace_to_string rep) (Mc.action_to_string a)

(* One exploration to the cap, shared by the tests that need it. *)
let fixpoint = lazy (Mc.explore ~jobs:1 ~depth:Mc.depth_cap ())

let test_explore_to_fixpoint () =
  let o = Lazy.force fixpoint in
  Alcotest.(check bool) "the frontier emptied" true o.Mc.o_fixpoint;
  Alcotest.(check int) "every reachable state" 2048 o.Mc.o_states;
  Alcotest.(check int) "candidates: 14 per state" 28_672 o.Mc.o_expansions;
  Alcotest.(check int) "rows to the empty level" 11 (List.length o.Mc.o_rows);
  Alcotest.(check int) "no counterexamples" 0 (List.length o.Mc.o_counterexamples);
  let shallow = Mc.explore ~jobs:1 ~depth:4 () in
  Alcotest.(check bool) "a cap inside the space leaves a frontier" false shallow.Mc.o_fixpoint;
  Alcotest.(check (pair int int)) "depth 4 unchanged" (686, 3_766)
    (shallow.Mc.o_states, shallow.Mc.o_expansions)

let test_fixpoint_pool_invisible () =
  Alcotest.(check string) "jobs=1 and jobs=4 identical to the fixpoint"
    (Mc.summary (Lazy.force fixpoint))
    (Mc.summary (Mc.explore ~jobs:4 ~depth:Mc.depth_cap ()))

let test_level_wider_than_chunk () =
  (* Depth 3's level (826 candidates) spans several jobs=2 chunks:
     chunk by chunk, it must merge exactly as one sequential pass. *)
  let o = Mc.explore ~jobs:2 ~depth:3 () in
  let widest = List.fold_left (fun w r -> max w r.Mc.row_expansions) 0 o.Mc.o_rows in
  Alcotest.(check bool) "a level wider than one chunk" true (widest > Mc.chunk_size ~jobs:2);
  Alcotest.(check string) "chunked merge = sequential"
    (Mc.summary (Mc.explore ~jobs:1 ~depth:3 ()))
    (Mc.summary o)

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

let golden_digest = "06ca616cf80414006013c38ab19080ca"

let test_canonical_golden () =
  let canon = List.map (fun t -> fst (Mc.violations_of_trace ~bug:true t)) (golden_traces ()) in
  Alcotest.(check int) "trace count" 473 (List.length canon);
  Alcotest.(check string) "canonical-state digest" golden_digest
    (Digest.to_hex (Digest.string (String.concat "\x00" canon)))

let test_derived_candidates_are_replays () =
  (* An exploration replays each parent once and derives each of its
     candidates from a copy of that replay, firing only the new action.
     Over every candidate of at most three actions, on both alphabets,
     the derived candidate must reach its full replay's canonical state
     and violations, the full replay must count exactly the parent's
     replay plus the derived candidate, the parent must render the
     same before and after its children, and the exploration's own
     derivation ([Mc.Image.derive]), which renders only the components
     whose change witness moved, must give the full render component by
     component ([Mc_oracle.check_derived]). *)
  List.iter
    (fun (bug, expected) ->
      let oracle = Mc_oracle.create ~bug in
      let alpha = Mc.alphabet ~bug in
      let parents = List.filter (fun t -> List.length t < 3) (traces_upto_three alpha) in
      Alcotest.(check int) "candidates" expected (List.length parents * List.length alpha);
      match List.concat_map (Mc_oracle.check_derived oracle) parents with
      | [] -> ()
      | first :: _ as divergent ->
          Alcotest.failf "%d divergent, first %s" (List.length divergent) first)
    [ (false, 2954); (true, 4368) ]

let test_witnessed_p4_is_probed () =
  (* A candidate re-probes a P4 pair only when something the pair's
     probes read moved since its parent, and takes the parent's answers
     for the rest.  The healthy plant never violates P4, so equal
     violation lists cannot tell a wrong witness from a right one; the
     answers can.  Over every candidate of at most three actions, on
     both alphabets, each triple's compiled and structured answers as
     the exploration derives them must be a full probe's of the same
     candidate ([Mc_oracle.check_witnessed]). *)
  List.iter
    (fun (bug, expected) ->
      let oracle = Mc_oracle.create ~bug in
      let alpha = Mc.alphabet ~bug in
      let parents = List.filter (fun t -> List.length t < 3) (traces_upto_three alpha) in
      Alcotest.(check int) "candidates" expected (List.length parents * List.length alpha);
      match List.concat_map (Mc_oracle.check_witnessed oracle) parents with
      | [] -> ()
      | first :: _ as divergent ->
          Alcotest.failf "%d divergent, first %s" (List.length divergent) first)
    [ (false, 2954); (true, 4368) ]

let test_predicates_count_nothing () =
  (* The predicates run unmetered, so the obs counters record the
     plant's traffic alone: a replay checked by every predicate counts
     exactly what the same replay counts when only extended (its P4
     table probed on a copy), over every trace of at most two actions
     on both alphabets. *)
  List.iter
    (fun bug ->
      let image = Mc_oracle.image (Mc_oracle.create ~bug) in
      let alpha = Mc.alphabet ~bug in
      let ones = List.map (fun a -> [ a ]) alpha in
      let twos = List.concat_map (fun t -> List.map (fun a -> t @ [ a ]) alpha) ones in
      List.iter
        (fun trace ->
          let checked = snd (Mc_oracle.counted (fun () -> Mc.Image.violations_of_trace image trace)) in
          let extended = snd (Mc_oracle.counted (fun () -> Mc.Image.extend image trace)) in
          if checked <> extended then
            Alcotest.failf "[%s]: the predicates moved the obs counts" (Mc.trace_to_string trace))
        (([] :: ones) @ twos))
    [ false; true ]

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
    Alcotest.test_case "interned state keys are exact" `Quick test_state_keys_exact;
    Alcotest.test_case "exploration stops at the fixpoint" `Quick test_explore_to_fixpoint;
    Alcotest.test_case "pool size is invisible to the fixpoint" `Quick test_fixpoint_pool_invisible;
    Alcotest.test_case "a level wider than a chunk merges as sequential" `Quick
      test_level_wider_than_chunk;
    Alcotest.test_case "reachable canonical states match the golden digest" `Quick
      test_canonical_golden;
    Alcotest.test_case "image copies replay as fresh boots" `Quick test_image_copies_are_boots;
    Alcotest.test_case "the image is never written" `Quick test_image_never_written;
    Alcotest.test_case "merged states have the representative's successors" `Quick
      test_successors_agree;
    Alcotest.test_case "a derived candidate is its full replay" `Quick
      test_derived_candidates_are_replays;
    Alcotest.test_case "witnessed P4 answers are a full probe's" `Quick
      test_witnessed_p4_is_probed;
    Alcotest.test_case "the predicates count nothing" `Quick test_predicates_count_nothing;
  ]
