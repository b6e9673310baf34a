(* E21 — bounded exhaustive model checking of the reference monitor.

   The 100-seed oracles (E15/E18/E19/E20) sample the interleaving
   space; the paper's certification argument is exhaustive.  This
   experiment drives [lib/mc]: breadth-first enumeration, to the
   fixpoint, of every state reachable by interleaving ACL edits,
   bracket changes, content references from two CPUs, torn gate calls,
   salvages and — in bug mode — connect deliveries, on a 2-CPU /
   2-segment / 2-principal plant, with four safety predicates checked
   at every reachable state.

   Three legs:

   - the EXHAUSTIVE leg explores the healthy plant once, until the
     frontier empties, reporting states / expansions / CPU time by
     depth; it must reach the fixpoint within the depth cap and find
     zero violations of all four predicates;

   - the SEEDED-BUG leg re-enables the pre-PR 5 deferred-connect
     window ([Smp.set_deferred_connects]) and must find the minimal
     stale-Permit counterexample — the two-action trace (warm a remote
     CPU's CAM, then revoke) the seeded oracles only find
     probabilistically — printed as a replayable shell script;

   - the PARITY leg re-runs a bounded exploration at pool sizes 1 and
     4 and compares the outcomes byte for byte ([lib/par]'s
     determinism contract extended to the checker's frontier). *)

module Mc = Multics_mc.Mc

let id = "E21"

let title = "Model checking: exhaustive interleaving search over the reference monitor"

let paper_claim =
  "the certification argument is exhaustive, not statistical: on a bounded plant, every \
   interleaving of descriptor edits, cross-CPU references, torn gate calls and salvages \
   must preserve the reference monitor's invariants — no stale Permit, no fail-open, no \
   downward flow, no mediation-path divergence"

let bug_depth = 3
let parity_depth = 3

let exhaustive_verdict (o : Mc.outcome) =
  let n = List.length o.Mc.o_counterexamples in
  if n = 0 && o.Mc.o_fixpoint then
    ( true,
      Printf.sprintf
        "[mc] 0 violations: all %d reachable states (fixpoint at depth %d, %d replays) — \
         stale-Permit, fail-secure, lattice-flow and AV-parity hold on every reachable state"
        o.Mc.o_states (List.length o.Mc.o_rows) o.Mc.o_expansions )
  else if n = 0 then
    ( false,
      Printf.sprintf
        "[mc] FAILED: the frontier is still non-empty at the depth cap %d (%d states, %d \
         replays) — not every reachable state was checked"
        o.Mc.o_depth o.Mc.o_states o.Mc.o_expansions )
  else
    ( false,
      Printf.sprintf "[mc] %d violation%s found exploring to depth %d — see counterexamples" n
        (if n = 1 then "" else "s")
        o.Mc.o_depth )

let bug_verdict (o : Mc.outcome) =
  match
    List.find_opt
      (fun (c : Mc.counterexample) -> c.Mc.violation.Mc.predicate = "P1-stale-permit")
      o.Mc.o_counterexamples
  with
  | Some c ->
      ( true,
        Printf.sprintf
          "[mc-bug] deferred-connect window found: stale Permit reached in %d actions [%s]"
          (List.length c.Mc.trace) (Mc.trace_to_string c.Mc.trace),
        Some c )
  | None ->
      ( false,
        Printf.sprintf
          "[mc-bug] FAILED: no stale-Permit counterexample to depth %d with the bug enabled"
          o.Mc.o_depth,
        None )

let parity_verdict () =
  let run jobs = Mc.summary (Mc.explore ~jobs ~depth:parity_depth ()) in
  let sequential = run 1 in
  let pooled = run 4 in
  if String.equal sequential pooled then
    ( true,
      Printf.sprintf "[mc-parity] frontier parallelism is pool-size-invariant: depth %d \
                      outcomes identical at jobs=1 and jobs=4"
        parity_depth )
  else (false, "[mc-parity] FAILED: jobs=1 and jobs=4 outcomes differ")

let render () =
  let b = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "%s: %s\n\n" id title;
  bpf "Claim: %s.\n\n" paper_claim;
  bpf "--- exhaustive leg: the healthy plant, to the fixpoint ---\n\n";
  bpf "  %5s  %12s  %12s  %12s  %10s\n" "depth" "expansions" "new states" "states" "cpu-s";
  let o = Mc.explore ~depth:Mc.depth_cap () in
  List.iter
    (fun (r : Mc.depth_row) ->
      bpf "  %5d  %12d  %12d  %12d  %10.2f\n" r.Mc.row_depth r.Mc.row_expansions
        r.Mc.row_new_states r.Mc.row_states r.Mc.row_cpu_s)
    o.Mc.o_rows;
  bpf "\n";
  let _exhaustive_ok, exhaustive_line = exhaustive_verdict o in
  List.iter
    (fun (c : Mc.counterexample) ->
      bpf "  counterexample: [%s]\n    %s\n" (Mc.trace_to_string c.Mc.trace)
        (Mc.violation_to_string c.Mc.violation))
    o.Mc.o_counterexamples;
  bpf "--- seeded-bug leg: the pre-PR 5 deferred-connect window, re-enabled ---\n\n";
  let bug_outcome = Mc.explore ~bug:true ~depth:bug_depth () in
  let _bug_ok, bug_line, counterexample = bug_verdict bug_outcome in
  (match counterexample with
  | Some c ->
      bpf "  minimal counterexample (%d actions): %s\n" (List.length c.Mc.trace)
        (Mc.violation_to_string c.Mc.violation);
      bpf "  replayable script:\n";
      String.split_on_char '\n' (Mc.counterexample_script c)
      |> List.iter (fun line -> if line <> "" then bpf "    %s\n" line)
  | None -> ());
  bpf "\n--- parity leg: the frontier pool must not change the outcome ---\n\n";
  let _parity_ok, parity_line = parity_verdict () in
  bpf "%s\n%s\n%s\n" exhaustive_line bug_line parity_line;
  Buffer.contents b
