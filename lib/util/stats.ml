(* Small descriptive-statistics helpers used by the experiment harness
   to summarize latency and count samples. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

let empty_summary =
  { count = 0; mean = 0.0; stddev = 0.0; min = 0.0; p50 = 0.0; p90 = 0.0; p99 = 0.0; max = 0.0 }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
    end
  end

let summarize samples =
  let n = List.length samples in
  if n = 0 then empty_summary
  else begin
    let arr = Array.of_list samples in
    Array.sort compare arr;
    let total = Array.fold_left ( +. ) 0.0 arr in
    let mean = total /. float_of_int n in
    let sq_dev = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 arr in
    let stddev = if n > 1 then sqrt (sq_dev /. float_of_int (n - 1)) else 0.0 in
    {
      count = n;
      mean;
      stddev;
      min = arr.(0);
      p50 = percentile arr 0.50;
      p90 = percentile arr 0.90;
      p99 = percentile arr 0.99;
      max = arr.(n - 1);
    }
  end

let summarize_ints samples = summarize (List.map float_of_int samples)

let mean samples = (summarize samples).mean

let ratio ~num ~den = if den = 0.0 then Float.nan else num /. den
