(* Tests for Multics_obs: counters, histogram bucketing, spans,
   registries, snapshot rendering and the global enable switch. *)

module Obs = Multics_obs.Obs

(* Every test works against a private registry so the suite cannot be
   confounded by (or confound) the kernel's global instruments. *)
let fresh name = Obs.Registry.create ~name

let test_counter_basics () =
  let r = fresh "counters" in
  let c = Obs.Registry.counter r "calls" in
  Alcotest.(check int) "fresh counter reads 0" 0 (Obs.Counter.get c);
  Obs.Counter.incr c;
  Obs.Counter.incr c ~by:5;
  Alcotest.(check int) "incr accumulates" 6 (Obs.Counter.get c);
  Alcotest.(check string) "counter keeps its name" "calls" (Obs.Counter.name c);
  let g = Obs.Registry.gauge r "depth" in
  Obs.Gauge.set g 42;
  Obs.Gauge.set g 7;
  Alcotest.(check int) "a gauge holds its last write" 7 (Obs.Gauge.get g)

let test_counter_memoized () =
  let r = fresh "memo" in
  let a = Obs.Registry.counter r "x" in
  let b = Obs.Registry.counter r "x" in
  Obs.Counter.incr a;
  Alcotest.(check int) "same name resolves to the same instrument" 1 (Obs.Counter.get b)

let test_disabled_is_inert () =
  let r = fresh "switch" in
  let c = Obs.Registry.counter r "c" in
  let g = Obs.Registry.gauge r "g" in
  let h = Obs.Registry.histogram r "h" in
  Obs.with_disabled (fun () ->
      Alcotest.(check bool) "counter sees the switch off" false (Obs.Counter.recording c);
      Obs.Counter.incr c;
      Obs.Gauge.set g 99;
      Obs.Histogram.observe h 7);
  Alcotest.(check bool) "switch restored" true (Obs.enabled ());
  Alcotest.(check int) "disabled incr is a no-op" 0 (Obs.Counter.get c);
  Alcotest.(check int) "disabled gauge set is a no-op" 0 (Obs.Gauge.get g);
  Alcotest.(check int) "disabled observe is a no-op" 0 (Obs.Histogram.count h);
  Obs.Counter.incr c;
  Alcotest.(check int) "recording resumes after restore" 1 (Obs.Counter.get c)

let test_bucket_index_edges () =
  let cases =
    [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3); (1023, 9); (1024, 10); (1025, 10) ]
  in
  List.iter
    (fun (sample, bucket) ->
      Alcotest.(check int)
        (Printf.sprintf "bucket_index %d" sample)
        bucket
        (Obs.Histogram.bucket_index sample))
    cases;
  (* Every power of two and its neighbours, against a bit-at-a-time
     count of the highest set bit. *)
  let rec highest_bit acc v = if v <= 1 then acc else highest_bit (acc + 1) (v lsr 1) in
  for bit = 0 to 61 do
    List.iter
      (fun v ->
        if v >= 0 then
          Alcotest.(check int)
            (Printf.sprintf "bucket_index %d" v)
            (min 61 (highest_bit 0 v))
            (Obs.Histogram.bucket_index v))
      [ (1 lsl bit) - 1; 1 lsl bit; (1 lsl bit) + 1 ]
  done;
  Alcotest.(check int) "max_int" 61 (Obs.Histogram.bucket_index max_int);
  Alcotest.(check int) "bucket 0 starts at 0" 0 (Obs.Histogram.bucket_lower_bound 0);
  Alcotest.(check int) "bucket 5 starts at 32" 32 (Obs.Histogram.bucket_lower_bound 5)

let test_histogram_stats () =
  let r = fresh "hist" in
  let h = Obs.Registry.histogram r "cycles" in
  Alcotest.(check int) "empty count" 0 (Obs.Histogram.count h);
  Alcotest.(check (float 0.001)) "empty mean" 0.0 (Obs.Histogram.mean h);
  List.iter (Obs.Histogram.observe h) [ 3; 5; 100; 100; 7 ];
  Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
  Alcotest.(check int) "sum" 215 (Obs.Histogram.sum h);
  Alcotest.(check (float 0.001)) "mean" 43.0 (Obs.Histogram.mean h);
  Alcotest.(check int) "min" 3 (Obs.Histogram.min_value h);
  Alcotest.(check int) "max" 100 (Obs.Histogram.max_value h);
  (* 3 lands in bucket 1 [2,3]; 5 and 7 in bucket 2 [4,7]; the two
     100s in bucket 6 [64,127]. *)
  Alcotest.(check (list (pair int int)))
    "buckets" [ (2, 1); (4, 2); (64, 2) ] (Obs.Histogram.buckets h);
  (* Median sits in bucket 2, whose upper bound is 7. *)
  Alcotest.(check int) "p50 bucket upper bound" 7 (Obs.Histogram.quantile h 0.5);
  Alcotest.(check int) "p100 clamps to observed max" 100 (Obs.Histogram.quantile h 1.0)

let test_span () =
  let r = fresh "spans" in
  let s = Obs.Registry.span r "dispatch" in
  Obs.Span.enter s;
  Obs.Span.enter s;
  Alcotest.(check int) "live tracks nesting" 2 (Obs.Span.live s);
  Obs.Span.leave s ~cycles:10;
  Obs.Span.leave s ~cycles:30;
  Obs.Span.record s ~cycles:20;
  Alcotest.(check int) "live back to 0" 0 (Obs.Span.live s);
  Alcotest.(check int) "entries" 3 (Obs.Span.entries s);
  Alcotest.(check int) "max depth" 2 (Obs.Span.max_depth s);
  Alcotest.(check int) "cycles histogram fed" 60 (Obs.Histogram.sum (Obs.Span.cycles s))

let test_registry_reset () =
  let r = fresh "reset" in
  let c = Obs.Registry.counter r "c" in
  let h = Obs.Registry.histogram r "h" in
  Obs.Counter.incr c ~by:9;
  Obs.Histogram.observe h 9;
  Obs.Registry.reset r;
  Alcotest.(check int) "counter zeroed" 0 (Obs.Counter.get c);
  Alcotest.(check int) "histogram zeroed" 0 (Obs.Histogram.count h);
  Alcotest.(check (list (pair string int))) "still registered" [ ("c", 0) ] (Obs.Registry.counters r)

let test_snapshot_capture_and_diff () =
  let r = fresh "snap" in
  let c = Obs.Registry.counter r "gate.calls" in
  Obs.Counter.incr c ~by:3;
  let before = Obs.Snapshot.capture ~registry:r () in
  Obs.Counter.incr c ~by:4;
  Obs.Histogram.observe (Obs.Registry.histogram r "lat") 12;
  let after = Obs.Snapshot.capture ~registry:r () in
  Alcotest.(check (list (pair string int)))
    "capture reads counters" [ ("gate.calls", 7) ] after.Obs.Snapshot.counters;
  let d = Obs.Snapshot.diff ~before ~after in
  Alcotest.(check (list (pair string int)))
    "diff attributes only the delta" [ ("gate.calls", 4) ] d.Obs.Snapshot.counters;
  (match d.Obs.Snapshot.histograms with
  | [ ("lat", hd) ] ->
      Alcotest.(check int) "diffed histogram count" 1 hd.Obs.Snapshot.count;
      Alcotest.(check int) "diffed histogram sum" 12 hd.Obs.Snapshot.sum
  | _ -> Alcotest.fail "expected one diffed histogram");
  Alcotest.(check bool) "after is not empty" false (Obs.Snapshot.is_empty after);
  Alcotest.(check bool) "self-diff is empty" true
    (Obs.Snapshot.is_empty (Obs.Snapshot.diff ~before:after ~after));
  (* A gauge is a reading, not a total: captured beside the counters
     once set, and never differenced. *)
  let g = Obs.Registry.gauge r "depth" in
  Alcotest.(check bool) "an unset gauge is not captured" false
    (List.mem_assoc "depth" (Obs.Snapshot.capture ~registry:r ()).Obs.Snapshot.counters);
  Obs.Gauge.set g 5;
  let before = Obs.Snapshot.capture ~registry:r () in
  Obs.Gauge.set g 8;
  let after = Obs.Snapshot.capture ~registry:r () in
  Alcotest.(check (list (pair string int)))
    "a gauge reads beside the counters" [ ("depth", 8); ("gate.calls", 7) ]
    after.Obs.Snapshot.counters;
  Alcotest.(check (list (pair string int)))
    "diff keeps the gauge's later reading" [ ("depth", 8); ("gate.calls", 0) ]
    (Obs.Snapshot.diff ~before ~after).Obs.Snapshot.counters

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_snapshot_text () =
  let r = fresh "text" in
  Alcotest.(check bool) "empty snapshot says so" true
    (contains ~needle:"no recorded activity"
       (Obs.Snapshot.to_text (Obs.Snapshot.capture ~registry:r ())));
  Obs.Counter.incr (Obs.Registry.counter r "gate.calls") ~by:21;
  Obs.Span.record (Obs.Registry.span r "gate.dispatch") ~cycles:34;
  let text = Obs.Snapshot.to_text (Obs.Snapshot.capture ~registry:r ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("text mentions " ^ needle) true (contains ~needle text))
    [ "gate.calls"; "21"; "gate.dispatch"; "counters"; "spans" ]

let test_snapshot_json () =
  let r = fresh "json" in
  Obs.Counter.incr (Obs.Registry.counter r "a\"b") ~by:2;
  Obs.Histogram.observe (Obs.Registry.histogram r "h") 5;
  let json = Obs.Snapshot.to_json (Obs.Snapshot.capture ~registry:r ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json mentions " ^ needle) true (contains ~needle json))
    [
      "\"registry\":\"json\"";
      "\"counters\"";
      "\"a\\\"b\":2";
      "\"histograms\"";
      "\"count\":1";
      "\"buckets\":[{\"ge\":4,\"count\":1}]";
    ]

let test_histogram_sum_saturates () =
  (* Multi-billion-cycle SMP runs can overflow a naive running total;
     the sum must pin at [max_int] and flag itself, never wrap to a
     plausible-looking small number. *)
  let r = fresh "sat" in
  let h = Obs.Registry.histogram r "cycles" in
  Obs.Histogram.observe h max_int;
  Alcotest.(check bool) "one huge sample does not saturate" false (Obs.Histogram.saturated h);
  Alcotest.(check int) "sum holds the sample" max_int (Obs.Histogram.sum h);
  Obs.Histogram.observe h max_int;
  Alcotest.(check bool) "overflow saturates" true (Obs.Histogram.saturated h);
  Alcotest.(check int) "sum pinned at max_int, not wrapped" max_int (Obs.Histogram.sum h);
  Alcotest.(check bool) "sum stays non-negative" true (Obs.Histogram.sum h > 0);
  Obs.Histogram.observe h 5;
  Alcotest.(check int) "later samples cannot move a pinned sum" max_int (Obs.Histogram.sum h);
  Alcotest.(check int) "count still advances" 3 (Obs.Histogram.count h);
  let snap = Obs.Snapshot.capture ~registry:r () in
  (match snap.Obs.Snapshot.histograms with
  | [ ("cycles", hd) ] ->
      Alcotest.(check bool) "snapshot carries the flag" true hd.Obs.Snapshot.saturated
  | _ -> Alcotest.fail "expected one histogram");
  Alcotest.(check bool) "text rendering marks saturation" true
    (contains ~needle:"saturated" (Obs.Snapshot.to_text snap));
  Obs.Registry.reset r;
  Alcotest.(check bool) "reset clears the flag" false (Obs.Histogram.saturated h);
  Alcotest.(check int) "reset clears the sum" 0 (Obs.Histogram.sum h)

let test_snapshot_merge () =
  (* Instrument-wise sum, keyed union: counters add, histogram buckets
     add, span depths take the max.  This is the parallel join path. *)
  let ra = fresh "a" and rb = fresh "b" in
  Obs.Counter.incr (Obs.Registry.counter ra "shared") ~by:3;
  Obs.Counter.incr (Obs.Registry.counter ra "only_a") ~by:1;
  Obs.Counter.incr (Obs.Registry.counter rb "shared") ~by:4;
  Obs.Counter.incr (Obs.Registry.counter rb "only_b") ~by:7;
  Obs.Histogram.observe (Obs.Registry.histogram ra "h") 2;
  Obs.Histogram.observe (Obs.Registry.histogram ra "h") 100;
  Obs.Histogram.observe (Obs.Registry.histogram rb "h") 9;
  let sa = Obs.Registry.span ra "s" and sb = Obs.Registry.span rb "s" in
  Obs.Span.record sa ~cycles:10;
  Obs.Span.enter sb;
  Obs.Span.enter sb;
  Obs.Span.leave sb ~cycles:5;
  Obs.Span.leave sb ~cycles:5;
  let m =
    Obs.Snapshot.merge
      (Obs.Snapshot.capture ~registry:ra ())
      (Obs.Snapshot.capture ~registry:rb ())
  in
  let counter name = List.assoc name m.Obs.Snapshot.counters in
  Alcotest.(check int) "shared counters add" 7 (counter "shared");
  Alcotest.(check int) "a-only passes through" 1 (counter "only_a");
  Alcotest.(check int) "b-only passes through" 7 (counter "only_b");
  let h = List.assoc "h" m.Obs.Snapshot.histograms in
  Alcotest.(check int) "histogram counts add" 3 h.Obs.Snapshot.count;
  Alcotest.(check int) "histogram sums add" 111 h.Obs.Snapshot.sum;
  Alcotest.(check int) "merged min" 2 h.Obs.Snapshot.min_value;
  Alcotest.(check int) "merged max" 100 h.Obs.Snapshot.max_value;
  let s = List.assoc "s" m.Obs.Snapshot.spans in
  Alcotest.(check int) "span entries add" 3 s.Obs.Snapshot.entries;
  Alcotest.(check int) "span max_depth is the max" 2 s.Obs.Snapshot.max_depth;
  (* A gauge takes the later snapshot's reading; one the later
     snapshot never set keeps the earlier reading. *)
  let rc = fresh "c" in
  Obs.Gauge.set (Obs.Registry.gauge ra "depth") 5;
  Obs.Gauge.set (Obs.Registry.gauge ra "kept") 3;
  Obs.Gauge.set (Obs.Registry.gauge rb "depth") 2;
  ignore (Obs.Registry.gauge rc "kept");
  let capture r = Obs.Snapshot.capture ~registry:r () in
  let m = Obs.Snapshot.merge (Obs.Snapshot.merge (capture ra) (capture rb)) (capture rc) in
  let counter name = List.assoc name m.Obs.Snapshot.counters in
  Alcotest.(check int) "gauge: the later write wins" 2 (counter "depth");
  Alcotest.(check int) "gauge: an unset gauge keeps the earlier reading" 3 (counter "kept");
  Alcotest.(check (list string)) "merged gauge names" [ "depth"; "kept" ] m.Obs.Snapshot.gauges

let test_snapshot_merge_saturation () =
  (* The satellite bug this pins down: merging two saturated snapshots
     must stay pinned at max_int with the flag set — a naive sum of two
     near-max_int totals wraps negative and silently drops the flag. *)
  let saturated_snap name =
    let r = fresh name in
    let h = Obs.Registry.histogram r "cycles" in
    Obs.Histogram.observe h max_int;
    Obs.Histogram.observe h max_int;
    let snap = Obs.Snapshot.capture ~registry:r () in
    let hd = List.assoc "cycles" snap.Obs.Snapshot.histograms in
    Alcotest.(check bool) (name ^ " operand saturated") true hd.Obs.Snapshot.saturated;
    snap
  in
  let m = Obs.Snapshot.merge (saturated_snap "sat_a") (saturated_snap "sat_b") in
  let h = List.assoc "cycles" m.Obs.Snapshot.histograms in
  Alcotest.(check bool) "saturated + saturated stays saturated" true h.Obs.Snapshot.saturated;
  Alcotest.(check int) "merged sum pinned at max_int" max_int h.Obs.Snapshot.sum;
  Alcotest.(check bool) "merged sum non-negative" true (h.Obs.Snapshot.sum > 0);
  (* Unsaturated operands whose sums overflow only on merge saturate too. *)
  let big name =
    let r = fresh name in
    Obs.Histogram.observe (Obs.Registry.histogram r "cycles") (max_int - 10);
    Obs.Snapshot.capture ~registry:r ()
  in
  let m2 = Obs.Snapshot.merge (big "big_a") (big "big_b") in
  let h2 = List.assoc "cycles" m2.Obs.Snapshot.histograms in
  Alcotest.(check bool) "overflow on merge saturates" true h2.Obs.Snapshot.saturated;
  Alcotest.(check int) "overflowing merge pinned" max_int h2.Obs.Snapshot.sum

let test_snapshot_absorb () =
  (* Absorbing per-task snapshots in task order must reproduce the
     totals a sequential run records directly. *)
  let seq = fresh "sequential" in
  let split_a = fresh "task_a" and split_b = fresh "task_b" in
  let record r samples =
    List.iter
      (fun v ->
        Obs.Counter.incr (Obs.Registry.counter r "ops");
        Obs.Histogram.observe (Obs.Registry.histogram r "cycles") v)
      samples
  in
  record seq [ 3; 17; 200 ];
  record seq [ 5; 90 ];
  record split_a [ 3; 17; 200 ];
  record split_b [ 5; 90 ];
  let joined = fresh "joined" in
  Obs.Snapshot.absorb ~into:joined (Obs.Snapshot.capture ~registry:split_a ());
  Obs.Snapshot.absorb ~into:joined (Obs.Snapshot.capture ~registry:split_b ());
  let want = Obs.Snapshot.capture ~registry:seq () in
  let got = Obs.Snapshot.capture ~registry:joined () in
  Alcotest.(check (list (pair string int))) "absorbed counters = sequential"
    want.Obs.Snapshot.counters got.Obs.Snapshot.counters;
  let wh = List.assoc "cycles" want.Obs.Snapshot.histograms in
  let gh = List.assoc "cycles" got.Obs.Snapshot.histograms in
  Alcotest.(check int) "count" wh.Obs.Snapshot.count gh.Obs.Snapshot.count;
  Alcotest.(check int) "sum" wh.Obs.Snapshot.sum gh.Obs.Snapshot.sum;
  Alcotest.(check int) "min" wh.Obs.Snapshot.min_value gh.Obs.Snapshot.min_value;
  Alcotest.(check int) "max" wh.Obs.Snapshot.max_value gh.Obs.Snapshot.max_value;
  Alcotest.(check (list (pair int int))) "buckets" wh.Obs.Snapshot.buckets gh.Obs.Snapshot.buckets

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "counter memoized by name" `Quick test_counter_memoized;
    Alcotest.test_case "disabled recording is inert" `Quick test_disabled_is_inert;
    Alcotest.test_case "histogram bucket index edges" `Quick test_bucket_index_edges;
    Alcotest.test_case "histogram statistics" `Quick test_histogram_stats;
    Alcotest.test_case "span nesting and cycles" `Quick test_span;
    Alcotest.test_case "registry reset" `Quick test_registry_reset;
    Alcotest.test_case "snapshot capture and diff" `Quick test_snapshot_capture_and_diff;
    Alcotest.test_case "snapshot text rendering" `Quick test_snapshot_text;
    Alcotest.test_case "snapshot json rendering" `Quick test_snapshot_json;
    Alcotest.test_case "histogram sum saturates" `Quick test_histogram_sum_saturates;
    Alcotest.test_case "snapshot merge" `Quick test_snapshot_merge;
    Alcotest.test_case "snapshot merge keeps saturation" `Quick test_snapshot_merge_saturation;
    Alcotest.test_case "snapshot absorb = sequential totals" `Quick test_snapshot_absorb;
  ]
