(* E20 — distributed kernel sites: fleet scaling, cross-site
   revocation, fail-secure partitions.

   The paper's mediation argument is local: every reference checked by
   this kernel, every descriptor revoked before the mutating call
   returns.  E20 asks what survives when "this kernel" becomes a fleet
   of kernels joined by lossy links (lib/site) — the smp connect
   discipline generalized over a network.  Four measurements:

   1. A fleet sweep: 10k -> 1M logical users over 1/2/4/8 sites via
      the direct Workload driver.  Cross-site cycles (round trips plus
      backoff stalls) grow with the site count; the fleet digest must
      not move at all — the sequential driver's order-preserving
      signature is compared across site counts at every population.

   2. Revocation latency: the [site.revocation.cycles] histogram per
      site count — what a fleet-wide connect storm costs inside one
      set_acl call.

   3. The coherence-parity oracle, E18's generalized: 100 seeds x
      {1,2,4} sites x 4 fault plans of scheduler-driven session load,
      every fifth interaction a live cross-site revocation.  The
      multiset mediation digest and the grant/refusal totals must be
      identical to the 1-site run.  Zero divergences is the CI gate.

   4. The directed partition race: revoke across a severed link.  The
      origin must stall through the retry budget and fence the silent
      peer; the fenced site must refuse everything (never its warm,
      now-stale Permit); salvage-and-resync must replay the missed
      epochs and come back with the revocation applied. *)

open Multics_sched
module Site = Multics_site.Site
module System = Multics_kernel.System
module Api = Multics_kernel.Api
module Acl = Multics_access.Acl
module Label = Multics_access.Label
module Policy = Multics_access.Policy
module Mode = Multics_machine.Mode
module Table = Multics_util.Table
module Obs = Multics_obs.Obs

let id = "E20"

let title = "distributed sites: fleet sweep, cross-site revocation, fail-secure partitions"

let paper_claim =
  "mediation must not weaken when the kernel is replicated across sites: an access-control \
   change is visible at every site before the mutating call returns, a site that cannot \
   confirm the remote invalidation stalls and then fences the silent peer rather than let \
   it serve a stale decision, and a crashed site re-enters only through salvage-and-resync"

(* ----- 1 + 2. the fleet sweep ----- *)

let user_points = [ 10_000; 100_000; 1_000_000 ]
let site_points = [ 1; 2; 4; 8 ]

type sweep_cell = {
  row : Workload.sweep_row;
  revocation_mean : float;  (** cycles per cross-site revocation storm *)
}

let run_sweep_cell ~users ~sites =
  let before = Obs.Snapshot.capture () in
  let row = Workload.run_fleet_sweep ~users ~sites ~seed:20 () in
  let after = Obs.Snapshot.capture () in
  let d = Obs.Snapshot.diff ~before ~after in
  let revocation_mean =
    match List.assoc_opt "site.revocation.cycles" d.Obs.Snapshot.histograms with
    | Some h when h.Obs.Snapshot.count > 0 ->
        float_of_int h.Obs.Snapshot.sum /. float_of_int h.Obs.Snapshot.count
    | _ -> 0.0
  in
  { row; revocation_mean }

let sweep_table cells =
  let t =
    Table.create
      ~title:(Printf.sprintf "%s: fleet sweep (seed 20, revocation every 1000th user)" id)
      ~columns:
        [
          ("users", Table.Right);
          ("sites", Table.Right);
          ("ops", Table.Right);
          ("granted", Table.Right);
          ("refused", Table.Right);
          ("revocations", Table.Right);
          ("cross cycles", Table.Right);
          ("revoke mean", Table.Right);
          ("fenced", Table.Right);
        ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [
          string_of_int c.row.Workload.sw_users;
          string_of_int c.row.Workload.sw_sites;
          string_of_int c.row.Workload.sw_ops;
          string_of_int c.row.Workload.sw_granted;
          string_of_int c.row.Workload.sw_refused;
          string_of_int c.row.Workload.sw_revocations;
          string_of_int c.row.Workload.sw_cross_cycles;
          Table.fmt_float ~decimals:0 c.revocation_mean;
          string_of_int c.row.Workload.sw_fenced;
        ])
    cells;
  t

(* The sweep driver is sequential, so the order-preserving digest must
   be bit-identical across site counts at every population. *)
let sweep_parity_verdict cells =
  let divergent =
    List.concat_map
      (fun users ->
        let rows = List.filter (fun c -> c.row.Workload.sw_users = users) cells in
        match rows with
        | [] -> []
        | base :: rest ->
            List.filter_map
              (fun c ->
                if
                  c.row.Workload.sw_signature <> base.row.Workload.sw_signature
                  || c.row.Workload.sw_granted <> base.row.Workload.sw_granted
                  || c.row.Workload.sw_refused <> base.row.Workload.sw_refused
                then Some (users, c.row.Workload.sw_sites)
                else None)
              rest)
      user_points
  in
  if divergent = [] then
    ( true,
      Printf.sprintf
        "fleet digest is site-count-invariant across the sweep: %s users x {%s} sites"
        (String.concat "," (List.map string_of_int user_points))
        (String.concat "," (List.map string_of_int site_points)) )
  else
    ( false,
      Printf.sprintf "SWEEP PARITY BROKEN at: %s"
        (String.concat ", "
           (List.map (fun (u, s) -> Printf.sprintf "%d users/%d sites" u s) divergent)) )

(* ----- 3. the coherence-parity oracle ----- *)

let parity_seeds = 100
let parity_site_points = [ 1; 2; 4 ]

(* Recoverable plans only ([every:k], k >= 2): bounded retry always
   delivers, so no site is fenced and parity is exact.  Fencing under
   unrecoverable loss is the directed race's subject, not the
   oracle's. *)
let parity_plans =
  [ ""; "site.drop=every:3"; "site.delay=every:2"; "site.drop=every:5,site.delay=every:3" ]

let parity_spec seed sites fault_spec =
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
    (* fixed while sites vary: same schedule-level parallelism *)
    sites;
    fault_spec;
  }

(* Returns the number of (seed, plan, sites) triples whose mediation
   diverged from the 1-site run. *)
let run_parity () =
  Workload.parity_divergences ~seeds:parity_seeds ~plans:parity_plans ~points:parity_site_points
    parity_spec

let parity_verdict divergences =
  if divergences = 0 then
    ( true,
      Printf.sprintf
        "mediation is site-count-invariant: %d seeds x {%s} sites, %d fault plans, 0 divergences"
        parity_seeds
        (String.concat "," (List.map string_of_int parity_site_points))
        (List.length parity_plans) )
  else
    ( false,
      Printf.sprintf
        "COHERENCE BROKEN: %d divergent runs (a site served a decision the fleet revoked)"
        divergences )

(* ----- 4. the directed partition race ----- *)

type race_outcome = {
  stale_permits : int;
  fenced_refusals : int;
  rejoin_replayed : int;
  rejoin_ok : bool;
}

let run_race () =
  let fleet = Site.create ~nsites:2 () in
  Site.add_account fleet ~person:"Alice" ~project:"Dev" ~password:"pw"
    ~clearance:Label.unclassified;
  let handle =
    match Site.login fleet ~person:"Alice" ~project:"Dev" ~password:"pw" with
    | Ok h -> h
    | Error e -> failwith (System.login_error_to_string e)
  in
  let path = ">udd>Dev>Alice>plans" in
  (match
     Site.dispatch fleet ~user:0 ~handle
       (Api.Call.Create_segment_by_path
          {
            path;
            acl = Acl.of_strings [ ("Alice.Dev.*", "rw") ];
            label = Label.unclassified;
            brackets = None;
          })
   with
  | Ok _ -> ()
  | Error e -> failwith (Api.error_to_string e));
  (* Warm site 1's decision machinery with a Permit. *)
  (match Site.probe fleet ~site:1 ~handle ~path ~requested:Mode.r with
  | Ok Policy.Permit -> ()
  | _ -> failwith "E20 race: site 1 should hold a Permit before the partition");
  Site.partition fleet 0 1;
  (match Site.dispatch fleet ~user:0 ~handle (Api.Call.Set_acl_by_path { path; acl = Acl.empty })
   with
  | Ok _ -> ()
  | Error e -> failwith (Api.error_to_string e));
  (* The race window: the revocation has returned at site 0, the link
     is dark, and site 1 still holds the warm Permit.  Count what the
     fenced site serves. *)
  let stale = ref 0 in
  (match Site.probe fleet ~site:1 ~handle ~path ~requested:Mode.r with
  | Ok Policy.Permit -> incr stale
  | Ok (Policy.Refuse _) | Error _ -> ());
  (match Site.dispatch fleet ~user:1 ~handle (Api.Call.Resolve_path { path }) with
  | Ok _ -> incr stale
  | Error _ -> ());
  Site.heal_link fleet 0 1;
  let rejoin_replayed, rejoin_ok =
    match Site.rejoin fleet 1 with
    | Some report -> (
        ( report.Site.rj_replayed,
          report.Site.rj_epoch = Site.epoch fleet
          &&
          match Site.probe fleet ~site:1 ~handle ~path ~requested:Mode.r with
          | Ok (Policy.Refuse _) -> true
          | _ -> false ))
    | None -> (0, false)
  in
  {
    stale_permits = !stale;
    fenced_refusals = Site.fenced_refusals fleet;
    rejoin_replayed;
    rejoin_ok;
  }

let race_verdict o =
  if o.stale_permits = 0 && o.fenced_refusals > 0 && o.rejoin_ok then
    ( true,
      Printf.sprintf
        "partitioned site served 0 stale Permits (%d fenced refusals); rejoin replayed %d \
         missed epoch(s) and the revocation held"
        o.fenced_refusals o.rejoin_replayed )
  else
    ( false,
      Printf.sprintf
        "STALE DECISION EXPOSED: %d stale Permits, %d fenced refusals, rejoin ok: %b"
        o.stale_permits o.fenced_refusals o.rejoin_ok )

(* ----- per-site observability, aggregated fleet-wide ----- *)

let obs_table () =
  let fleet = Site.create ~nsites:4 () in
  Site.add_account fleet ~person:"Alice" ~project:"Dev" ~password:"pw"
    ~clearance:Label.unclassified;
  let handle =
    match Site.login fleet ~person:"Alice" ~project:"Dev" ~password:"pw" with
    | Ok h -> h
    | Error e -> failwith (System.login_error_to_string e)
  in
  let path = ">udd>Dev>Alice>obs" in
  ignore
    (Site.dispatch fleet ~user:0 ~handle
       (Api.Call.Create_segment_by_path
          {
            path;
            acl = Acl.of_strings [ ("Alice.Dev.*", "rw") ];
            label = Label.unclassified;
            brackets = None;
          }));
  for site = 0 to 3 do
    ignore (Site.probe fleet ~site ~handle ~path ~requested:Mode.r)
  done;
  ignore (Site.dispatch fleet ~user:0 ~handle (Api.Call.Set_acl_by_path { path; acl = Acl.empty }));
  let t =
    Table.create
      ~title:(Printf.sprintf "%s: per-site stats after one replicated create + revoke" id)
      ~columns:
        [
          ("site", Table.Right);
          ("status", Table.Left);
          ("epoch", Table.Right);
          ("audit", Table.Right);
          ("refused", Table.Right);
          ("replica ops", Table.Right);
          ("mismatches", Table.Right);
        ]
  in
  List.iter
    (fun (site, status, epoch, counters) ->
      let c name = try List.assoc name counters with Not_found -> 0 in
      Table.add_row t
        [
          string_of_int site;
          status;
          string_of_int epoch;
          string_of_int (c "audit.records");
          string_of_int (c "audit.refused");
          string_of_int (c "replica.applied");
          string_of_int (c "replica.mismatch");
        ])
    (Site.status_table fleet);
  t

let render () =
  let buf = Buffer.create 4096 in
  (* The fleet-sweep grid (each cell a full Workload.run_fleet_sweep)
     fans out over domains; cells reduce in (users, sites) order so the
     table and the sweep-parity digests are byte-identical at any pool
     size. *)
  let cells =
    Multics_par.Par.map
      (fun (users, sites) -> run_sweep_cell ~users ~sites)
      (List.concat_map
         (fun users -> List.map (fun sites -> (users, sites)) site_points)
         user_points)
  in
  Buffer.add_string buf (Table.render (sweep_table cells));
  let sweep_ok, sweep_line = sweep_parity_verdict cells in
  Buffer.add_string buf
    (Printf.sprintf "\n%s %s\n\n"
       (if sweep_ok then "[sweep-parity]" else "[SWEEP PARITY BROKEN]")
       sweep_line);
  let divergences = run_parity () in
  let par_ok, par_line = parity_verdict divergences in
  Buffer.add_string buf
    (Printf.sprintf "%s %s\n\n" (if par_ok then "[parity]" else "[PARITY BROKEN]") par_line);
  let race = run_race () in
  let race_ok, race_line = race_verdict race in
  Buffer.add_string buf
    (Printf.sprintf "%s %s\n\n" (if race_ok then "[fail-secure]" else "[NOT FAIL-SECURE]") race_line);
  Buffer.add_string buf (Table.render (obs_table ()));
  Buffer.contents buf
