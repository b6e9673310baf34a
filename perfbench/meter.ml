(* Clocks and sample stores.

   Latency samples live in a float64 Bigarray outside the OCaml heap:
   recording one allocates nothing, adds no GC work to the next timed
   call, and leaves the heap figure the benchmark reports to the
   kernel alone. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

module Samples = struct
  open Bigarray

  type t = { mutable data : (float, float64_elt, c_layout) Array1.t; mutable len : int }

  let create capacity = { data = Array1.create Float64 C_layout (max 16 capacity); len = 0 }

  let add t v =
    if t.len = Array1.dim t.data then begin
      let bigger = Array1.create Float64 C_layout (2 * t.len) in
      Array1.blit t.data (Array1.sub bigger 0 t.len);
      t.data <- bigger
    end;
    Array1.unsafe_set t.data t.len v;
    t.len <- t.len + 1

  let to_array t = Array.init t.len (fun i -> Array1.unsafe_get t.data i)

  let sorted t =
    let a = to_array t in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [q] of the samples at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Time [reps] back-to-back calls of a side-effect-free probe and
   return the per-call cost in ns: single probe calls are tens of ns,
   below what one clock pair resolves. *)
let per_call_ns ~reps f =
  let t0 = now_ns () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  float_of_int (now_ns () - t0) /. float_of_int reps

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
