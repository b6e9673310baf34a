(* The distributed fleet: cross-site revocation must be synchronous
   (an ACL edit on one site is visible on every site before the edit
   returns), partitions must fail secure (a site that cannot prove its
   decisions fresh serves nothing — the stall-never-stale rule), and a
   crashed site must rejoin through salvage-and-resync with its epochs
   caught up.  The coherence-parity oracle is E18's, generalized: the
   same traffic on 1, 2 and 4 sites — under lossy-link fault plans —
   must produce the same mediation digest. *)

open Multics_access
open Multics_machine
open Multics_kernel
module Site = Multics_site.Site
module Fault = Multics_fault.Fault

let set_plan fleet ~seed spec =
  if not (String.equal spec "") then
    match Fault.Plan.parse ~seed spec with
    | Ok plan -> Site.set_faults fleet (Some (Fault.Injector.create plan))
    | Error why -> Alcotest.fail why

let login_user fleet ~person ~project =
  Site.add_account fleet ~person ~project ~password:"pw" ~clearance:Label.unclassified;
  match Site.login fleet ~person ~project ~password:"pw" with
  | Ok handle -> handle
  | Error e -> Alcotest.fail (System.login_error_to_string e)

let probe_exn fleet ~site ~handle ~path =
  match Site.probe fleet ~site ~handle ~path ~requested:Mode.r with
  | Ok verdict -> verdict
  | Error e -> Alcotest.failf "probe on site %d: %s" site (Api.error_to_string e)

(* ----- Fleet mechanics ----- *)

let test_bounds () =
  let n = Site.default_nsites () in
  Alcotest.(check bool) "default in range" true (n >= 1 && n <= Site.max_sites);
  Alcotest.check_raises "nsites 0 rejected"
    (Invalid_argument (Printf.sprintf "Site.create: nsites must be in 1..%d" Site.max_sites))
    (fun () -> ignore (Site.create ~nsites:0 ()));
  Alcotest.check_raises "nsites 9 rejected"
    (Invalid_argument (Printf.sprintf "Site.create: nsites must be in 1..%d" Site.max_sites))
    (fun () -> ignore (Site.create ~nsites:(Site.max_sites + 1) ()));
  let fleet = Site.create ~nsites:4 () in
  for user = 0 to 64 do
    let home = Site.home_site fleet ~user in
    Alcotest.(check bool) "home in range" true (home >= 0 && home < 4);
    Alcotest.(check int) "home is a pure function" home (Site.home_site fleet ~user)
  done

let test_replicated_creation () =
  let fleet = Site.create ~nsites:3 () in
  let handle = login_user fleet ~person:"Alice" ~project:"Dev" in
  let path = ">udd>Dev>Alice>doc" in
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
  | Error e -> Alcotest.failf "create: %s" (Api.error_to_string e));
  (* The segment's access is decidable on EVERY site before the
     creating call has returned. *)
  for site = 0 to 2 do
    match probe_exn fleet ~site ~handle ~path with
    | Policy.Permit -> ()
    | Policy.Refuse _ -> Alcotest.failf "site %d refuses a replicated grant" site
  done;
  Alcotest.(check bool) "mutation made an epoch" true (Site.epoch fleet > 0);
  for site = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "site %d caught up" site)
      (Site.epoch fleet) (Site.site_epoch fleet site)
  done

let test_revocation_coherence () =
  let fleet = Site.create ~nsites:4 () in
  let handle = login_user fleet ~person:"Alice" ~project:"Dev" in
  let path = ">udd>Dev>Alice>secret" in
  (match
     Site.dispatch fleet ~user:1 ~handle
       (Api.Call.Create_segment_by_path
          {
            path;
            acl = Acl.of_strings [ ("Alice.Dev.*", "rw") ];
            label = Label.unclassified;
            brackets = None;
          })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "create: %s" (Api.error_to_string e));
  (* Warm every site's decision machinery with a Permit... *)
  for site = 0 to 3 do
    match probe_exn fleet ~site ~handle ~path with
    | Policy.Permit -> ()
    | Policy.Refuse _ -> Alcotest.failf "site %d refuses before revocation" site
  done;
  (* ...then revoke on the home site.  The connect storm must reach
     all four sites inside the call. *)
  (match
     Site.dispatch fleet ~user:1 ~handle
       (Api.Call.Set_acl_by_path { path; acl = Acl.empty })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "revoke: %s" (Api.error_to_string e));
  for site = 0 to 3 do
    match probe_exn fleet ~site ~handle ~path with
    | Policy.Refuse _ -> ()
    | Policy.Permit -> Alcotest.failf "site %d serves a stale Permit after revocation" site
  done;
  Alcotest.(check int) "one revocation counted" 1 (Site.revocations fleet);
  Alcotest.(check bool) "cross-site cycles charged" true (Site.now fleet > 0)

let test_segno_mutations_refused_at_fleet_surface () =
  let fleet = Site.create ~nsites:2 () in
  let handle = login_user fleet ~person:"Alice" ~project:"Dev" in
  match Site.dispatch fleet ~user:0 ~handle (Api.Call.Set_acl { segno = 40; acl = Acl.empty }) with
  | Error (Api.Not_authorized _) -> ()
  | Ok _ -> Alcotest.fail "segment-number-addressed mutation accepted at the fleet surface"
  | Error e -> Alcotest.failf "unexpected refusal: %s" (Api.error_to_string e)

(* ----- The directed partition race: stall, never stale ----- *)

let test_partition_never_serves_stale_permit () =
  let fleet = Site.create ~nsites:2 () in
  let handle = login_user fleet ~person:"Alice" ~project:"Dev" in
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
  | Error e -> Alcotest.failf "create: %s" (Api.error_to_string e));
  (* Site 1 holds a warm Permit for the segment. *)
  (match probe_exn fleet ~site:1 ~handle ~path with
  | Policy.Permit -> ()
  | Policy.Refuse _ -> Alcotest.fail "site 1 refuses before the race");
  (* Sever the link, then revoke from site 0.  The origin stalls
     through the whole retry window and then fences site 1. *)
  Site.partition fleet 0 1;
  let before = Site.now fleet in
  (match
     Site.dispatch fleet ~user:0 ~handle
       (Api.Call.Set_acl_by_path { path; acl = Acl.empty })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "revoke: %s" (Api.error_to_string e));
  Alcotest.(check bool) "the origin stalled through the retry window" true
    (Site.now fleet > before);
  (match Site.status fleet 1 with
  | Site.Suspect -> ()
  | s -> Alcotest.failf "site 1 should be fenced, is %s" (Site.status_name s));
  (* The fenced site serves NOTHING — in particular not the warm
     Permit it still holds in its caches. *)
  (match Site.probe fleet ~site:1 ~handle ~path ~requested:Mode.r with
  | Ok Policy.Permit -> Alcotest.fail "fenced site served a stale Permit"
  | Ok (Policy.Refuse _) -> Alcotest.fail "fenced site answered at all"
  | Error (Api.Site_fenced { site }) -> Alcotest.(check int) "fenced site id" 1 site
  | Error e -> Alcotest.failf "unexpected error: %s" (Api.error_to_string e));
  (match Site.dispatch fleet ~user:1 ~handle (Api.Call.Resolve_path { path }) with
  | Error (Api.Site_fenced _) -> ()
  | Ok _ -> Alcotest.fail "fenced site dispatched a call"
  | Error e -> Alcotest.failf "unexpected error: %s" (Api.error_to_string e));
  Alcotest.(check bool) "fenced refusals counted" true (Site.fenced_refusals fleet >= 2);
  (* Heal and rejoin: salvage-and-resync replays the missed revocation
     and rebuilds the AV table; the Permit is gone. *)
  Site.heal_link fleet 0 1;
  (match Site.rejoin fleet 1 with
  | None -> Alcotest.fail "rejoin was a no-op"
  | Some report ->
      Alcotest.(check bool) "missed epochs replayed" true (report.Site.rj_replayed >= 1);
      Alcotest.(check int) "epoch caught up" (Site.epoch fleet) report.Site.rj_epoch);
  (match Site.status fleet 1 with
  | Site.Active -> ()
  | s -> Alcotest.failf "site 1 should be active after rejoin, is %s" (Site.status_name s));
  match probe_exn fleet ~site:1 ~handle ~path with
  | Policy.Refuse _ -> ()
  | Policy.Permit -> Alcotest.fail "rejoined site still serves the revoked Permit"

let test_crash_and_rejoin_catches_up_epochs () =
  let fleet = Site.create ~nsites:4 () in
  let handle = login_user fleet ~person:"Alice" ~project:"Dev" in
  let path = ">udd>Dev>Alice>ledger" in
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
  | Error e -> Alcotest.failf "create: %s" (Api.error_to_string e));
  Site.crash fleet 2;
  (* Mutations while site 2 is down: it misses these epochs. *)
  (match
     Site.dispatch fleet ~user:0 ~handle
       (Api.Call.Set_acl_by_path { path; acl = Acl.empty })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "revoke: %s" (Api.error_to_string e));
  Alcotest.(check bool) "site 2 trails the fleet epoch" true
    (Site.site_epoch fleet 2 < Site.epoch fleet);
  (* Its shard is dark. *)
  (match Site.dispatch fleet ~user:2 ~handle (Api.Call.Resolve_path { path }) with
  | Error (Api.Site_unreachable { site }) -> Alcotest.(check int) "unreachable site" 2 site
  | Ok _ -> Alcotest.fail "crashed site dispatched a call"
  | Error e -> Alcotest.failf "unexpected error: %s" (Api.error_to_string e));
  (* Salvage-and-resync. *)
  (match Site.rejoin fleet 2 with
  | None -> Alcotest.fail "rejoin was a no-op"
  | Some report ->
      Alcotest.(check bool) "missed epochs replayed" true (report.Site.rj_replayed >= 1);
      Alcotest.(check int) "epoch caught up" (Site.epoch fleet) report.Site.rj_epoch;
      Alcotest.(check bool) "AV table rebuilt" true (report.Site.rj_av_cells >= 0));
  Alcotest.(check int) "site epoch equals fleet epoch" (Site.epoch fleet)
    (Site.site_epoch fleet 2);
  match probe_exn fleet ~site:2 ~handle ~path with
  | Policy.Refuse _ -> ()
  | Policy.Permit -> Alcotest.fail "rejoined site missed the revocation"

let test_lossy_links_retry_within_budget () =
  (* An [every:k] (k >= 2) drop plan cannot produce Smp.max_retries
     consecutive losses, so bounded retry always delivers: nobody gets
     fenced, and coherence holds — just later. *)
  let fleet = Site.create ~nsites:3 () in
  set_plan fleet ~seed:5 "site.drop=every:2";
  let handle = login_user fleet ~person:"Alice" ~project:"Dev" in
  let path = ">udd>Dev>Alice>flaky" in
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
  | Error e -> Alcotest.failf "create: %s" (Api.error_to_string e));
  (match
     Site.dispatch fleet ~user:0 ~handle
       (Api.Call.Set_acl_by_path { path; acl = Acl.empty })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "revoke: %s" (Api.error_to_string e));
  for site = 0 to 2 do
    (match Site.status fleet site with
    | Site.Active -> ()
    | s -> Alcotest.failf "site %d fenced under a recoverable plan (%s)" site (Site.status_name s));
    match probe_exn fleet ~site ~handle ~path with
    | Policy.Refuse _ -> ()
    | Policy.Permit -> Alcotest.failf "site %d stale under a recoverable plan" site
  done

(* ----- The cross-site coherence-parity oracle ----- *)

(* A deterministic traffic script, independent of the site count: the
   same users issue the same requests in the same order; only the
   kernel answering changes.  Parity then states that sharding and
   lossy-link replication move cycles, never verdicts. *)
let run_traffic ~nsites ~plan ~seed =
  let fleet = Site.create ~nsites () in
  set_plan fleet ~seed plan;
  let users = 3 in
  let handles =
    Array.init users (fun i ->
        login_user fleet ~person:(Printf.sprintf "U%d" i) ~project:"Par")
  in
  let created = Array.make users [] in
  let channels = Array.make users None in
  for step = 0 to 44 do
    let user = step mod users in
    let handle = handles.(user) in
    let dispatch request = ignore (Site.dispatch fleet ~user ~handle request) in
    match (step + seed) mod 5 with
    | 0 ->
        let path = Printf.sprintf ">udd>Par>U%d>s%d" user step in
        dispatch
          (Api.Call.Create_segment_by_path
             {
               path;
               acl = Acl.of_strings [ (Printf.sprintf "U%d.Par.*" user, "rw") ];
               label = Label.unclassified;
               brackets = None;
             });
        created.(user) <- path :: created.(user)
    | 1 -> (
        match created.(user) with
        | path :: _ -> dispatch (Api.Call.Resolve_path { path })
        | [] -> dispatch (Api.Call.Resolve_path { path = ">udd>Par" }))
    | 2 -> (
        match channels.(user) with
        | Some channel -> dispatch (Api.Call.Send_wakeup { channel })
        | None -> (
            match Site.dispatch fleet ~user ~handle Api.Call.Create_channel with
            | Ok (Api.Call.Channel c) -> channels.(user) <- Some c
            | _ -> ()))
    | 3 -> (
        (* Revoke, then (next time around) delete: the revocation-heavy
           half of the mix, each one a fleet-wide connect storm. *)
        match created.(user) with
        | path :: rest ->
            dispatch (Api.Call.Set_acl_by_path { path; acl = Acl.empty });
            if step mod 2 = 1 then begin
              dispatch (Api.Call.Delete_by_path { path });
              created.(user) <- rest
            end
        | [] -> ())
    | _ ->
        (* A deterministic refusal exercises the audit/refuse path. *)
        dispatch (Api.Call.Read_word { segno = 9999; offset = 0 })
  done;
  fleet

let check_parity ~plan seed =
  let base = run_traffic ~nsites:1 ~plan ~seed in
  List.iter
    (fun nsites ->
      let r = run_traffic ~nsites ~plan ~seed in
      if Site.signature r <> Site.signature base then
        Alcotest.failf "seed %d, plan %S, %d sites: mediation digest diverged" seed plan nsites;
      Alcotest.(check int)
        (Printf.sprintf "seed %d, %d sites: grants" seed nsites)
        (Site.granted base) (Site.granted r);
      Alcotest.(check int)
        (Printf.sprintf "seed %d, %d sites: refusals" seed nsites)
        (Site.refused base) (Site.refused r);
      Alcotest.(check int)
        (Printf.sprintf "seed %d, %d sites: epochs" seed nsites)
        (Site.epoch base) (Site.epoch r);
      Alcotest.(check int)
        (Printf.sprintf "seed %d, %d sites: nobody fenced" seed nsites)
        0 (Site.fenced_refusals r))
    [ 2; 4 ]

(* Plans must be recoverable ([every:k], k >= 2): bounded retry then
   always succeeds, so parity is exact.  [every:1] or a standing
   partition fences — that behaviour is pinned by the directed tests
   above, not by the oracle. *)
let parity_plans =
  [
    "";
    "site.drop=every:3";
    "site.delay=every:2";
    "site.drop=every:5,site.delay=every:3";
    "site.drop=every:4,site.delay=every:3";
  ]

let test_parity_across_site_counts () =
  List.iter (fun plan -> for seed = 0 to 9 do check_parity ~plan seed done) parity_plans

let test_fleet_run_deterministic () =
  let a = run_traffic ~nsites:2 ~plan:"site.drop=every:3" ~seed:13 in
  let b = run_traffic ~nsites:2 ~plan:"site.drop=every:3" ~seed:13 in
  Alcotest.(check int) "same digest" (Site.signature a) (Site.signature b);
  Alcotest.(check int) "same clock" (Site.now a) (Site.now b);
  Alcotest.(check int) "same epochs" (Site.epoch a) (Site.epoch b)

let test_status_and_link_tables () =
  let fleet = Site.create ~nsites:3 () in
  let rows = Site.status_table fleet in
  Alcotest.(check int) "one row per site" 3 (List.length rows);
  List.iter
    (fun (_, status, _, counters) ->
      Alcotest.(check string) "all active" "active" status;
      Alcotest.(check bool) "audit counter present" true (List.mem_assoc "audit.records" counters))
    rows;
  let links = Site.link_table fleet in
  Alcotest.(check int) "three links for three sites" 3 (List.length links);
  Site.partition fleet 0 2;
  let links = Site.link_table fleet in
  List.iter
    (fun ((a, b), partitioned, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "link %d-%d partition flag" a b)
        (a = 0 && b = 2) partitioned)
    links

let suite =
  [
    Alcotest.test_case "fleet bounds and sharding" `Quick test_bounds;
    Alcotest.test_case "creation replicates before returning" `Quick test_replicated_creation;
    Alcotest.test_case "revocation reaches every site synchronously" `Quick
      test_revocation_coherence;
    Alcotest.test_case "segno-addressed mutations refused at the fleet surface" `Quick
      test_segno_mutations_refused_at_fleet_surface;
    Alcotest.test_case "partitioned site never serves a stale Permit" `Quick
      test_partition_never_serves_stale_permit;
    Alcotest.test_case "crash, then rejoin via salvage with epochs caught up" `Quick
      test_crash_and_rejoin_catches_up_epochs;
    Alcotest.test_case "lossy links retry within the budget" `Quick
      test_lossy_links_retry_within_budget;
    Alcotest.test_case "coherence parity across 1/2/4 sites under fault plans" `Slow
      test_parity_across_site_counts;
    Alcotest.test_case "fleet run deterministic" `Quick test_fleet_run_deterministic;
    Alcotest.test_case "status and link tables" `Quick test_status_and_link_tables;
  ]
