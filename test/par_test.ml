(* The deterministic domain-pool runner: order preservation, inline
   fallback, Obs-snapshot merging, nested-call degradation, exception
   determinism, and the end-to-end oracle parity between pool sizes. *)

module Par = Multics_par.Par
module Obs = Multics_obs.Obs
module E19 = Multics_experiments.E19_sid

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  (* Uneven task costs invite out-of-order completion; results must
     come back in input order regardless. *)
  let f x =
    let spin = if x mod 7 = 0 then 10_000 else 10 in
    let acc = ref 0 in
    for i = 1 to spin do
      acc := (!acc + i) mod 65_521
    done;
    ignore !acc;
    x * 3
  in
  let want = List.map f xs in
  Alcotest.(check (list int)) "jobs=4 preserves order" want (Par.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs=1 inline" want (Par.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "jobs=3, n=2 (pool clamps)" [ 0; 3 ] (Par.map ~jobs:3 f [ 0; 1 ])

let test_run_seeds () =
  Alcotest.(check (list int)) "seeds 0..n-1 in order" [ 0; 10; 20; 30; 40 ]
    (Par.run_seeds ~jobs:2 5 (fun seed -> seed * 10));
  Alcotest.(check (list int)) "zero seeds" [] (Par.run_seeds ~jobs:4 0 (fun s -> s))

let test_obs_totals_match_sequential () =
  (* Tasks record counters and histograms; the absorbed totals after a
     4-domain run must equal the inline run's. *)
  let task seed =
    Obs.Counter.incr (Obs.Registry.counter (Obs.Registry.global ()) "par.test.ops") ~by:(seed + 1);
    Obs.Histogram.observe
      (Obs.Registry.histogram (Obs.Registry.global ()) "par.test.cycles")
      ((seed * 13) + 1);
    seed
  in
  let run jobs =
    let before = Obs.Snapshot.capture () in
    ignore (Par.run_seeds ~jobs 40 task);
    let after = Obs.Snapshot.capture () in
    Obs.Snapshot.diff ~before ~after
  in
  let d1 = run 1 and d4 = run 4 in
  let counter d = List.assoc "par.test.ops" d.Obs.Snapshot.counters in
  Alcotest.(check int) "counter totals match" (counter d1) (counter d4);
  let hist d = List.assoc "par.test.cycles" d.Obs.Snapshot.histograms in
  let h1 = hist d1 and h4 = hist d4 in
  Alcotest.(check int) "histogram count" h1.Obs.Snapshot.count h4.Obs.Snapshot.count;
  Alcotest.(check int) "histogram sum" h1.Obs.Snapshot.sum h4.Obs.Snapshot.sum;
  Alcotest.(check (list (pair int int))) "histogram buckets" h1.Obs.Snapshot.buckets
    h4.Obs.Snapshot.buckets

let test_gauge_merges_as_sequential () =
  (* Tasks set one gauge to different values, and every third task
     leaves it alone.  A gauge is a reading: the merged value after a
     4-domain run must be the last write in task order, exactly what the
     inline run leaves, not the sum of the tasks' readings. *)
  let depth () = Obs.Registry.gauge (Obs.Registry.global ()) "par.test.depth" in
  let task seed =
    if seed mod 3 <> 2 then Obs.Gauge.set (depth ()) ((seed * 7) + 1);
    seed
  in
  let run jobs =
    Obs.Gauge.set (depth ()) (-1);
    ignore (Par.run_seeds ~jobs 41 task);
    Obs.Gauge.get (depth ())
  in
  let sequential = run 1 in
  Alcotest.(check int) "the sequential value is task 40's write" ((40 * 7) + 1) sequential;
  Alcotest.(check int) "jobs=4 merges to the sequential value" sequential (run 4);
  (* Task 40 sets the gauge, task 41 does not: the merge keeps 40's. *)
  let last_silent jobs =
    Obs.Gauge.set (depth ()) (-1);
    ignore (Par.run_seeds ~jobs 42 task);
    Obs.Gauge.get (depth ())
  in
  Alcotest.(check int) "a silent last task keeps the earlier write" sequential (last_silent 1);
  Alcotest.(check int) "... at jobs=4 too" sequential (last_silent 4)

let test_nested_map_degrades_inline () =
  (* A task that itself calls Par.map must not spawn a second layer of
     domains — and must still compute the right thing. *)
  let got =
    Par.map ~jobs:4
      (fun x -> List.fold_left ( + ) 0 (Par.map ~jobs:4 (fun y -> x * y) [ 1; 2; 3 ]))
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "nested totals" [ 6; 12; 18; 24 ] got

exception Task_failed of int

let test_exception_determinism () =
  (* Several tasks fail; the lowest-indexed failure is the one
     re-raised, whatever the schedule. *)
  let f x = if x mod 3 = 2 then raise (Task_failed x) else x in
  List.iter
    (fun jobs ->
      match Par.map ~jobs f (List.init 20 Fun.id) with
      | _ -> Alcotest.failf "jobs=%d: expected a raise" jobs
      | exception Task_failed i ->
          Alcotest.(check int) (Printf.sprintf "jobs=%d: first failing task" jobs) 2 i)
    [ 1; 4 ]

let test_stats_accounting () =
  Par.Stats.reset ();
  ignore (Par.run_seeds ~jobs:1 7 (fun s -> s));
  ignore (Par.run_seeds ~jobs:4 9 (fun s -> s));
  let s = Par.Stats.snapshot () in
  Alcotest.(check int) "runs" 2 s.Par.Stats.runs;
  Alcotest.(check int) "tasks" 16 s.Par.Stats.tasks;
  Alcotest.(check int) "last pool size" 4 s.Par.Stats.pool_size;
  Alcotest.(check int) "per-worker counts sum to tasks" 16
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Par.Stats.per_worker);
  Par.Stats.reset ();
  let s = Par.Stats.snapshot () in
  Alcotest.(check int) "reset clears runs" 0 s.Par.Stats.runs

let test_e19_oracle_parity_across_pool_sizes () =
  (* The end-to-end contract: the E19 churn oracle — full kernel boots,
     ACL churn, cache flushes per seed — produces identical run stats at
     every pool size. *)
  let seq = E19.parity_runs ~jobs:1 ~refs:120 () in
  let par = E19.parity_runs ~jobs:4 ~refs:120 () in
  Alcotest.(check int) "same number of runs" (List.length seq) (List.length par);
  List.iteri
    (fun i ((a : E19.run_stats), (b : E19.run_stats)) ->
      Alcotest.(check int) (Printf.sprintf "seed %d refs" i) a.E19.refs b.E19.refs;
      Alcotest.(check int) (Printf.sprintf "seed %d divergences" i) a.E19.divergences
        b.E19.divergences;
      Alcotest.(check int) (Printf.sprintf "seed %d edits" i) a.E19.edits b.E19.edits;
      Alcotest.(check int) (Printf.sprintf "seed %d flushes" i) a.E19.flushes b.E19.flushes;
      Alcotest.(check int) (Printf.sprintf "seed %d rebuilds" i) a.E19.rebuilds b.E19.rebuilds)
    (List.combine seq par)

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "run_seeds" `Quick test_run_seeds;
    Alcotest.test_case "obs totals match sequential" `Quick test_obs_totals_match_sequential;
    Alcotest.test_case "a gauge merges to the sequential value" `Quick
      test_gauge_merges_as_sequential;
    Alcotest.test_case "nested map degrades inline" `Quick test_nested_map_degrades_inline;
    Alcotest.test_case "exception determinism" `Quick test_exception_determinism;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "e19 oracle parity across pool sizes" `Quick
      test_e19_oracle_parity_across_pool_sizes;
  ]
