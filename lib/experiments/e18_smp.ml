(* E18 — the multiprocessor plant: scaling, connect latency, coherence.

   The paper's kernel runs on a multiprocessor 6180, and its mediation
   argument survives that configuration only because of the connect
   discipline: a descriptor mutation clears the mutating processor's
   associative memory inline, sends a connect (inter-processor
   interrupt) to every other processor, and does not return until each
   has acknowledged clearing its own.  Three measurements:

   1. A dispatch-throughput sweep over 1/2/4/8 CPUs on both processor
      cost models.  Virtual processors scale with the CPU count (the
      CPUs are the execution engines), so throughput should rise with
      CPUs — net of what the shared global lock and the connect
      traffic claw back.  The 645-style cost model pays more than
      double per connect (mailbox poll + software interrupt vs the
      6180's cioc connect fault), so its scaling curve sits lower.

   2. Connect latency: the per-broadcast cycle bill (IPIs + lost-IPI
      stalls + global-lock wait) from the [smp.connect.cycles]
      histogram, per CPU count and cost model.

   3. The coherence-parity oracle: 100 seeds x {1,2,4} CPUs must
      produce the identical mediation digest and audit totals — also
      under a plan that drops connects on the wire
      ([smp.lost_connect]) and one that storms the decision cache
      ([cache.flush]).  Timing changes, results never: a lost IPI
      stalls the sender until the target is cleared, so no CPU can
      ever replay a stale Permit. *)

open Multics_sched
module Cost = Multics_machine.Cost
module Stats = Multics_util.Stats
module Table = Multics_util.Table
module Obs = Multics_obs.Obs

let id = "E18"

let title = "multiprocessor: dispatch scaling, connect latency, coherence parity"

let paper_claim =
  "the kernel runs on a multiprocessor 6180 without weakening mediation: every descriptor \
   change synchronously clears all processors' associative memories (connect/setfaults) \
   before returning, so added CPUs buy throughput at the price of lock contention and \
   connect traffic — never at the price of a stale access decision"

let cpu_points = [ 1; 2; 4; 8 ]

(* ----- 1 + 2. the CPU sweep (throughput and connect latency) ----- *)

type sweep_row = {
  sw_cpus : int;
  sw_completed : int;
  sw_cycles : int;
  sw_throughput : float;
  sw_response : Stats.summary;
  sw_connects : int;
  sw_connect_mean : float;
  sw_lock_contended : int;
}

(* Compute-heavy interactive load: enough sessions to keep every
   engine busy, little think time, so the sweep measures the engines
   and their coherence overhead rather than terminal idling. *)
let sweep_spec ~cost ~cpus =
  {
    Workload.default with
    seed = 18;
    users = 16;
    interactions = 2;
    think = 1_000;
    service = 3_000;
    working_set = 3;
    passes = 2;
    batch = 2;
    batch_chunks = 3;
    batch_chunk = 2_000;
    daemons = 1;
    gate_calls = true;
    vps = cpus;
    (* the CPUs are the execution engines *)
    cpus;
    cost;
  }

(* The connect bill and lock contention live in the global obs
   registry; a snapshot diff around the run isolates this run's
   share. *)
let run_sweep_point ~cost cpus =
  let before = Obs.Snapshot.capture () in
  let r = Workload.run (sweep_spec ~cost ~cpus) in
  let after = Obs.Snapshot.capture () in
  let d = Obs.Snapshot.diff ~before ~after in
  let counter name = try List.assoc name d.Obs.Snapshot.counters with Not_found -> 0 in
  let connects, connect_mean =
    match List.assoc_opt "smp.connect.cycles" d.Obs.Snapshot.histograms with
    | Some h when h.Obs.Snapshot.count > 0 ->
        (h.Obs.Snapshot.count, float_of_int h.Obs.Snapshot.sum /. float_of_int h.Obs.Snapshot.count)
    | _ -> (0, 0.0)
  in
  {
    sw_cpus = cpus;
    sw_completed = r.Workload.r_completed;
    sw_cycles = r.Workload.r_cycles;
    sw_throughput = r.Workload.r_throughput;
    sw_response = r.Workload.r_response;
    sw_connects = connects;
    sw_connect_mean = connect_mean;
    sw_lock_contended = counter "smp.lock.contended";
  }

let run_sweep ~cost = Multics_par.Par.map (run_sweep_point ~cost) cpu_points

let sweep_table ~label rows =
  let t =
    Table.create
      ~title:(Printf.sprintf "%s: CPU sweep (%s)" id label)
      ~columns:
        [
          ("cpus", Table.Right);
          ("done", Table.Right);
          ("cycles", Table.Right);
          ("inter/Mcyc", Table.Right);
          ("resp p99", Table.Right);
          ("connects", Table.Right);
          ("connect mean", Table.Right);
          ("lock contended", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.sw_cpus;
          string_of_int r.sw_completed;
          string_of_int r.sw_cycles;
          Table.fmt_float ~decimals:2 r.sw_throughput;
          Table.fmt_float ~decimals:0 r.sw_response.Stats.p99;
          string_of_int r.sw_connects;
          Table.fmt_float ~decimals:0 r.sw_connect_mean;
          string_of_int r.sw_lock_contended;
        ])
    rows;
  t

(* The scaling verdict CI greps for: dispatch throughput must rise
   monotonically from 1 to 4 CPUs on the 6180 cost model (8 CPUs may
   bend under lock contention — that is the lesson, not a failure). *)
let scaling_verdict rows =
  let at cpus = List.find (fun r -> r.sw_cpus = cpus) rows in
  let t1 = (at 1).sw_throughput and t2 = (at 2).sw_throughput and t4 = (at 4).sw_throughput in
  ( t1 < t2 && t2 < t4,
    Printf.sprintf
      "dispatch throughput scales 1->4 CPUs on H6180: %.2f -> %.2f -> %.2f inter/Mcycle"
      t1 t2 t4 )

(* ----- 3. the coherence-parity oracle ----- *)

let parity_seeds = 100

let parity_cpu_points = [ 1; 2; 4 ]

let parity_plans = [ ""; "smp.lost_connect=every:2"; "cache.flush=every:5" ]

let parity_spec seed cpus fault_spec =
  {
    Workload.default with
    seed;
    users = 3;
    interactions = 2;
    think = 2_000;
    service = 300;
    working_set = 2;
    passes = 2;
    batch = 1;
    batch_chunks = 2;
    batch_chunk = 500;
    daemons = 1;
    vps = 4;
    (* fixed while CPUs vary: same schedule-level parallelism *)
    cpus;
    fault_spec;
  }

(* Returns the number of (seed, plan, cpus) triples whose mediation
   diverged from the 1-CPU run. *)
let run_parity () =
  Workload.parity_divergences ~seeds:parity_seeds ~plans:parity_plans ~points:parity_cpu_points
    parity_spec

let parity_verdict divergences =
  let cpus_label =
    String.concat "," (List.map string_of_int parity_cpu_points)
  in
  if divergences = 0 then
    ( true,
      Printf.sprintf
        "mediation is CPU-count-invariant: %d seeds x {%s} CPUs, %d fault plans, 0 divergences"
        parity_seeds cpus_label (List.length parity_plans) )
  else
    ( false,
      Printf.sprintf "COHERENCE BROKEN: %d divergent runs (stale descriptors reached mediation)"
        divergences )

let render () =
  let buf = Buffer.create 4096 in
  let sweep645 = run_sweep ~cost:Cost.h645 in
  let sweep6180 = run_sweep ~cost:Cost.h6180 in
  Buffer.add_string buf (Table.render (sweep_table ~label:"H645" sweep645));
  Buffer.add_string buf "\n\n";
  Buffer.add_string buf (Table.render (sweep_table ~label:"H6180" sweep6180));
  let scale_ok, scale_line = scaling_verdict sweep6180 in
  Buffer.add_string buf
    (Printf.sprintf "\n%s %s\n\n" (if scale_ok then "[scaling]" else "[NO SCALING]") scale_line);
  let divergences = run_parity () in
  let par_ok, par_line = parity_verdict divergences in
  Buffer.add_string buf
    (Printf.sprintf "%s %s\n" (if par_ok then "[coherence]" else "[COHERENCE BROKEN]") par_line);
  Buffer.contents buf
