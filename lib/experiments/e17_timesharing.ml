(* E17 — the traffic controller under multi-user timesharing load.

   Three measurements, all on the deterministic workload driver
   (lib/sched's [Workload]):

   1. A user sweep (10 -> 10,000 interactive sessions) on both
      processor cost models, charting response time and throughput as
      the machine saturates.  Memory is auto-sized here so the sweep
      measures scheduling, not paging.

   2. A cap sweep against a FIXED core budget: the eligibility cap is
      the working-set admission control the controller negotiates with
      page control, and pushing it past what core supports reproduces
      the classic thrashing knee — page faults per interaction jump
      and response time collapses, with an idle-looking CPU.

   3. A policy parity check: the same workload under the ring-0 MLF
      controller, the stripped FIFO, and the user-ring external policy
      must produce the identical mediation digest and audit totals —
      the reference monitor cannot be perturbed by scheduling — while
      the kernel-surface table prices each policy's ring-0 footprint
      (the E12 inventory argument applied to scheduling). *)

open Multics_sched
module Cost = Multics_machine.Cost
module Stats = Multics_util.Stats
module Table = Multics_util.Table

let id = "E17"

let title = "traffic controller: saturation, thrashing knee, policy invariance"

let paper_claim =
  "scheduling policy does not belong in the security kernel: only the quantum/eligibility \
   mechanism must stay in ring 0, and no choice of policy can change what the reference \
   monitor decides; the eligibility cap is negotiated against core so over-admission — not \
   load itself — causes thrashing"

(* ----- 1. the user sweep ----- *)

type sweep_row = {
  sw_users : int;
  sw_completed : int;
  sw_cycles : int;
  sw_throughput : float;
  sw_response : Stats.summary;
  sw_faults : int;
}

(* Interactions scale down as users scale up so the largest points stay
   tractable; throughput is per-cycle so rows remain comparable. *)
let sweep_points = [ (10, 4); (100, 3); (1_000, 2); (10_000, 1) ]

let sweep_spec ~cost (users, interactions) =
  {
    Workload.default with
    seed = 17;
    users;
    interactions;
    think = 30_000;
    service = 1_500;
    working_set = 3;
    passes = 2;
    batch = (if users >= 1_000 then 0 else 2);
    daemons = 1;
    gate_calls = users <= 1_000;
    vps = 4;
    cap = 0;
    cost;
  }

(* Each sweep point boots its own kernel from independent PRNG streams;
   the points fan out over domains and reduce in point order. *)
let run_sweep ~cost =
  Multics_par.Par.map
    (fun point ->
      let r = Workload.run (sweep_spec ~cost point) in
      {
        sw_users = r.Workload.r_users;
        sw_completed = r.Workload.r_completed;
        sw_cycles = r.Workload.r_cycles;
        sw_throughput = r.Workload.r_throughput;
        sw_response = r.Workload.r_response;
        sw_faults = r.Workload.r_page_faults;
      })
    sweep_points

let sweep_table ~label rows =
  let t =
    Table.create
      ~title:(Printf.sprintf "%s: user sweep (%s)" id label)
      ~columns:
        [
          ("users", Table.Right);
          ("done", Table.Right);
          ("cycles", Table.Right);
          ("inter/Mcyc", Table.Right);
          ("resp p50", Table.Right);
          ("resp p99", Table.Right);
          ("faults", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.sw_users;
          string_of_int r.sw_completed;
          string_of_int r.sw_cycles;
          Table.fmt_float ~decimals:2 r.sw_throughput;
          Table.fmt_float ~decimals:0 r.sw_response.Stats.p50;
          Table.fmt_float ~decimals:0 r.sw_response.Stats.p99;
          string_of_int r.sw_faults;
        ])
    rows;
  t

(* ----- 2. the thrashing knee ----- *)

type knee_row = {
  kn_cap : int;
  kn_throughput : float;
  kn_p50 : float;
  kn_p99 : float;
  kn_faults_per : float;
  kn_stalls : int;
}

(* 24 sessions of 6 pages each against 26 core frames: the negotiated
   cap is 26/6 = 4.  Every point past it over-admits. *)
let knee_users = 24

let knee_working_set = 6

let knee_core = 26

let knee_caps = [ 1; 2; 4; 6; 8; 12; 16 ]

let knee_spec cap =
  {
    Workload.default with
    seed = 23;
    users = knee_users;
    interactions = 2;
    think = 2_000;
    service = 600;
    working_set = knee_working_set;
    passes = 3;
    batch = 0;
    daemons = 0;
    gate_calls = false;
    vps = 4;
    core = knee_core;
    bulk = 60;
    disk = 400;
    cap;
  }

let run_knee () =
  Multics_par.Par.map
    (fun cap ->
      let r = Workload.run (knee_spec cap) in
      {
        kn_cap = cap;
        kn_throughput = r.Workload.r_throughput;
        kn_p50 = r.Workload.r_response.Stats.p50;
        kn_p99 = r.Workload.r_response.Stats.p99;
        kn_faults_per =
          float_of_int r.Workload.r_page_faults
          /. float_of_int (max 1 r.Workload.r_completed);
        kn_stalls =
          (try List.assoc "eligibility.stalls" r.Workload.r_sched with Not_found -> 0);
      })
    knee_caps

let negotiated = Sched.negotiated_cap ~core_frames:knee_core ~working_set:knee_working_set

let knee_table rows =
  let t =
    Table.create
      ~title:
        (Printf.sprintf "%s: eligibility cap vs %d core frames (ws %d, negotiated cap %d)" id
           knee_core knee_working_set negotiated)
      ~columns:
        [
          ("cap", Table.Right);
          ("inter/Mcyc", Table.Right);
          ("resp p50", Table.Right);
          ("resp p99", Table.Right);
          ("faults/inter", Table.Right);
          ("stalls", Table.Right);
          ("regime", Table.Left);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.kn_cap;
          Table.fmt_float ~decimals:2 r.kn_throughput;
          Table.fmt_float ~decimals:0 r.kn_p50;
          Table.fmt_float ~decimals:0 r.kn_p99;
          Table.fmt_float ~decimals:1 r.kn_faults_per;
          string_of_int r.kn_stalls;
          (if r.kn_cap <= negotiated then "fits" else "over-admitted");
        ])
    rows;
  t

(* The knee verdict CI greps for: faults per interaction at the worst
   over-admitted point vs at the negotiated cap. *)
let knee_verdict rows =
  let at cap = List.find (fun r -> r.kn_cap = cap) rows in
  let fit = at negotiated in
  let worst =
    List.fold_left (fun acc r -> if r.kn_faults_per > acc.kn_faults_per then r else acc)
      fit rows
  in
  let blowup = worst.kn_faults_per /. Float.max 1e-9 fit.kn_faults_per in
  ( blowup >= 2.0 && worst.kn_cap > negotiated,
    Printf.sprintf
      "thrashing knee: cap %d -> %.1f faults/interaction vs %.1f at negotiated cap %d (x%.1f)"
      worst.kn_cap worst.kn_faults_per fit.kn_faults_per negotiated blowup )

(* ----- 3. policy parity and the kernel surface ----- *)

let parity_policies = [ Workload.Use_mlf; Workload.Use_fifo; Workload.Use_external ]

let parity_spec policy =
  {
    Workload.default with
    seed = 29;
    users = 6;
    interactions = 3;
    think = 5_000;
    service = 800;
    working_set = 3;
    passes = 2;
    batch = 2;
    batch_chunks = 3;
    batch_chunk = 1_500;
    daemons = 1;
    vps = 2;
    cap = 2;
    policy;
  }

let run_parity () =
  Multics_par.Par.map (fun p -> Workload.run (parity_spec p)) parity_policies

let policy_of_choice = function
  | Workload.Use_mlf -> Sched.default_mlf
  | Workload.Use_fifo -> Sched.Fifo
  | Workload.Use_external -> Sched.External (Sched.user_ring_mlf ())

let parity_table results =
  let t =
    Table.create
      ~title:(Printf.sprintf "%s: policy parity and kernel surface" id)
      ~columns:
        [
          ("policy", Table.Left);
          ("resp p99", Table.Right);
          ("preempt", Table.Right);
          ("upcalls", Table.Right);
          ("granted", Table.Right);
          ("refused", Table.Right);
          ("digest", Table.Right);
          ("ring0 stmts", Table.Right);
          ("policy stmts", Table.Right);
        ]
  in
  List.iter2
    (fun choice (r : Workload.result) ->
      let s = Sched.surface (policy_of_choice choice) in
      let stat name = try List.assoc name r.Workload.r_sched with Not_found -> 0 in
      Table.add_row t
        [
          r.Workload.r_policy;
          Table.fmt_float ~decimals:0 r.Workload.r_response.Stats.p99;
          string_of_int (stat "preemptions");
          string_of_int (stat "policy.upcalls");
          string_of_int r.Workload.r_audit_granted;
          string_of_int r.Workload.r_audit_refused;
          Printf.sprintf "%08x" r.Workload.r_signature;
          string_of_int s.Sched.surf_ring0;
          string_of_int s.Sched.surf_policy_stmts;
        ])
    parity_policies results;
  t

let parity_verdict results =
  match results with
  | [] -> (false, "parity: no runs")
  | (first : Workload.result) :: rest ->
      if List.for_all (Workload.same_mediation first) rest then
        ( true,
          Printf.sprintf
            "mediation is schedule-invariant: digest %08x, %d granted / %d refused under every \
             policy"
            first.Workload.r_signature first.Workload.r_audit_granted
            first.Workload.r_audit_refused )
      else (false, "POLICY PERTURBED MEDIATION: audit trails diverged across policies")

let render () =
  let buf = Buffer.create 4096 in
  let sweep645 = run_sweep ~cost:Cost.h645 in
  let sweep6180 = run_sweep ~cost:Cost.h6180 in
  Buffer.add_string buf (Table.render (sweep_table ~label:"H645" sweep645));
  Buffer.add_string buf "\n\n";
  Buffer.add_string buf (Table.render (sweep_table ~label:"H6180" sweep6180));
  Buffer.add_string buf "\n\n";
  let knee = run_knee () in
  Buffer.add_string buf (Table.render (knee_table knee));
  let knee_ok, knee_line = knee_verdict knee in
  Buffer.add_string buf
    (Printf.sprintf "\n%s %s\n\n" (if knee_ok then "[knee]" else "[NO KNEE]") knee_line);
  let parity = run_parity () in
  Buffer.add_string buf (Table.render (parity_table parity));
  let par_ok, par_line = parity_verdict parity in
  Buffer.add_string buf
    (Printf.sprintf "\n%s %s\n" (if par_ok then "[parity]" else "[PARITY BROKEN]") par_line);
  Buffer.contents buf
