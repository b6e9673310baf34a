(* Unit and property tests for Multics_util. *)

open Multics_util

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 in
  let b = Prng.create ~seed:42 in
  let xs = List.init 100 (fun _ -> Prng.int a 1000) in
  let ys = List.init 100 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_prng_bounds () =
  let g = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Prng.int g 13 in
    Alcotest.(check bool) "in bounds" true (x >= 0 && x < 13)
  done

let test_prng_range () =
  let g = Prng.create ~seed:9 in
  for _ = 1 to 1000 do
    let x = Prng.int_in_range g ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in range" true (x >= -5 && x <= 5)
  done

let test_prng_split_independent () =
  let g = Prng.create ~seed:1 in
  let s = Prng.split g in
  let xs = List.init 50 (fun _ -> Prng.int g 1_000_000) in
  let ys = List.init 50 (fun _ -> Prng.int s 1_000_000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_prng_choose () =
  let g = Prng.create ~seed:3 in
  let items = [ "a"; "b"; "c" ] in
  for _ = 1 to 100 do
    let x = Prng.choose g items in
    Alcotest.(check bool) "member" true (List.mem x items)
  done

let test_prng_shuffle_permutation () =
  let g = Prng.create ~seed:4 in
  let xs = List.init 20 Fun.id in
  let ys = Prng.shuffle g xs in
  Alcotest.(check (list int)) "same elements" xs (List.sort Int.compare ys)

let test_prng_burst_cap () =
  let g = Prng.create ~seed:5 in
  for _ = 1 to 200 do
    let n = Prng.burst_length g ~continue_num:9 ~continue_den:10 ~cap:16 in
    Alcotest.(check bool) "within cap" true (n >= 1 && n <= 16)
  done

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check int) "count" 5 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.Stats.p50

let test_stats_empty () =
  let s = Stats.summarize [] in
  Alcotest.(check int) "count" 0 s.Stats.count

let test_stats_single () =
  let s = Stats.summarize [ 7.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 7.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "stddev" 0.0 s.Stats.stddev;
  Alcotest.(check (float 1e-9)) "p99" 7.0 s.Stats.p99

let test_fqueue_fifo () =
  let q = Fqueue.of_list [ 1; 2; 3 ] in
  match Fqueue.pop q with
  | Some (1, q) -> (
      let q = Fqueue.push q 4 in
      match Fqueue.pop q with
      | Some (2, q) ->
          Alcotest.(check (list int)) "rest" [ 3; 4 ] (Fqueue.to_list q)
      | _ -> Alcotest.fail "expected 2")
  | _ -> Alcotest.fail "expected 1"

let test_fqueue_empty () =
  Alcotest.(check bool) "empty pop" true (Fqueue.pop Fqueue.empty = None);
  Alcotest.(check int) "length" 0 (Fqueue.length Fqueue.empty)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

let test_table_render () =
  let t =
    Table.create ~title:"demo" ~columns:[ ("name", Table.Left); ("n", Table.Right) ]
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 4 = "demo");
  Alcotest.(check bool) "has alpha" true (contains s "alpha");
  Alcotest.(check bool) "bad row rejected" true
    (try
       Table.add_row t [ "only-one" ];
       false
     with Invalid_argument _ -> true)

let fqueue_prop =
  QCheck.Test.make ~name:"fqueue preserves order" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let q = Multics_util.Fqueue.of_list xs in
      Multics_util.Fqueue.to_list q = xs)

(* The digit writer must print what [string_of_int] prints, for every
   int: both ends of the range, each power-of-ten boundary, and random
   ints of every magnitude. *)
let decimal_ints =
  [ 0; 1; -1; 9; 10; -10; 99; 100; max_int; min_int; max_int - 1; min_int + 1 ]
  @ List.concat_map
      (fun k ->
        let p = int_of_float (10. ** float_of_int k) in
        [ p - 1; p; -p; 1 - p ])
      (List.init 18 (fun k -> k + 1))

let test_decimal_edges () =
  List.iter
    (fun n ->
      Alcotest.(check string) (string_of_int n) (string_of_int n) (Decimal.to_string n);
      let b = Buffer.create 8 in
      Buffer.add_char b '<';
      Decimal.add b n;
      Alcotest.(check string) "add" ("<" ^ string_of_int n) (Buffer.contents b);
      Alcotest.(check string) "pair" (Printf.sprintf "%d|%d" n (-n)) (Decimal.pair n '|' (-n)))
    decimal_ints

let decimal_prop =
  QCheck.Test.make ~name:"decimal digits = string_of_int" ~count:1000
    QCheck.(pair int int)
    (fun (a, b) ->
      Decimal.to_string a = string_of_int a
      && Decimal.pair a '#' b = Printf.sprintf "%d#%d" a b)

let prng_chance_prop =
  QCheck.Test.make ~name:"chance 0/n is never true" ~count:50 QCheck.small_int (fun seed ->
      let g = Prng.create ~seed in
      not (Prng.chance g ~num:0 ~den:10))

let suite =
  [
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng bounds", `Quick, test_prng_bounds);
    ("prng range", `Quick, test_prng_range);
    ("prng split independent", `Quick, test_prng_split_independent);
    ("prng choose", `Quick, test_prng_choose);
    ("prng shuffle", `Quick, test_prng_shuffle_permutation);
    ("prng burst cap", `Quick, test_prng_burst_cap);
    ("stats summary", `Quick, test_stats_summary);
    ("stats empty", `Quick, test_stats_empty);
    ("stats single", `Quick, test_stats_single);
    ("fqueue fifo", `Quick, test_fqueue_fifo);
    ("fqueue empty", `Quick, test_fqueue_empty);
    ("table render", `Quick, test_table_render);
    ("decimal edges", `Quick, test_decimal_edges);
    QCheck_alcotest.to_alcotest decimal_prop;
    QCheck_alcotest.to_alcotest fqueue_prop;
    QCheck_alcotest.to_alcotest prng_chance_prop;
  ]
