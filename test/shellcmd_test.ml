(* The shell's operator-command parsers: a table of well-formed and
   malformed lines, each mapped to the exact typed command or typed
   error it must produce.  No input may raise, fall through to a wrong
   arm, or be accepted with a bad value. *)

module Cmd = Multics_shellcmd.Shellcmd.Command

type expect =
  | Cmd of Cmd.t
  | Err of (Cmd.error -> bool) * string  (* predicate + label for the failure message *)
  | Not_ours

let bad_int = function Cmd.Bad_int _ -> true | _ -> false
let bad_sub = function Cmd.Bad_subcommand _ -> true | _ -> false
let bad_arity = function Cmd.Bad_arity _ -> true | _ -> false
let bad_param = function Cmd.Bad_param _ -> true | _ -> false
let bad_plan = function Cmd.Bad_plan _ -> true | _ -> false
let bad_count = function Cmd.Bad_count _ -> true | _ -> false
let bad_pair = function Cmd.Bad_pair _ -> true | _ -> false
let bad_range = function Cmd.Bad_range _ -> true | _ -> false
let bad_trace = function Cmd.Bad_trace _ -> true | _ -> false

let table =
  [
    (* fault *)
    ("fault plan 7 gate.deny=every:5", Cmd (Cmd.Fault_plan { seed = 7; spec = "gate.deny=every:5" }));
    ( "fault plan 3 smp.lost_connect=every:2,cache.flush=every:7",
      Cmd (Cmd.Fault_plan { seed = 3; spec = "smp.lost_connect=every:2,cache.flush=every:7" }) );
    ("fault plan x gate.deny=every:5", Err (bad_int, "seed not a number"));
    ("fault plan 7 bogus.site=every:5", Err (bad_plan, "unknown site"));
    ("fault plan 7 gate.deny=sometimes", Err (bad_plan, "unknown schedule"));
    ("fault plan 7", Err (bad_arity, "missing spec"));
    ("fault status", Cmd Cmd.Fault_status);
    ("fault clear", Cmd Cmd.Fault_clear);
    ("fault explode", Err (bad_sub, "unknown fault subcommand"));
    ("fault", Err (bad_arity, "bare fault"));
    (* cache *)
    ("cache status", Cmd Cmd.Cache_status);
    ("cache clear", Cmd Cmd.Cache_clear);
    ("cache flushh", Err (bad_sub, "unknown cache subcommand"));
    ("cache", Err (bad_arity, "bare cache"));
    (* sched *)
    ("sched status", Cmd Cmd.Sched_status);
    ("sched tune cap 4", Cmd (Cmd.Sched_tune { param = "cap"; value = 4 }));
    ("sched tune quantum 5000", Cmd (Cmd.Sched_tune { param = "quantum"; value = 5000 }));
    ("sched tune capx 4", Err (bad_param, "unknown tune parameter"));
    ("sched tune cap x", Err (bad_int, "tune value not a number"));
    ("sched tune cap", Err (bad_arity, "tune missing value"));
    ("sched demo", Cmd (Cmd.Sched_demo { users = 8 }));
    ("sched demo 3", Cmd (Cmd.Sched_demo { users = 3 }));
    ("sched demo x", Err (bad_int, "demo users not a number"));
    ("sched demo -2", Err (bad_count, "demo users not positive"));
    ("sched frobnicate", Err (bad_sub, "unknown sched subcommand"));
    (* smp *)
    ("smp status", Cmd Cmd.Smp_status);
    ("smp panic", Err (bad_sub, "unknown smp subcommand"));
    ("smp", Err (bad_arity, "bare smp"));
    (* jobs *)
    ("jobs status", Cmd Cmd.Jobs_status);
    ("jobs restart", Err (bad_sub, "unknown jobs subcommand"));
    ("jobs", Err (bad_arity, "bare jobs"));
    (* site *)
    ("site status", Cmd Cmd.Site_status);
    ("site heal", Cmd Cmd.Site_heal);
    ("site partition 0 2", Cmd (Cmd.Site_partition { a = 0; b = 2 }));
    ("site partition 0 x", Err (bad_int, "site id not a number"));
    ("site partition 1 1", Err (bad_pair, "partition from itself"));
    ("site partition -1 2", Err (bad_pair, "negative site id"));
    ("site partition 0", Err (bad_arity, "partition missing a site"));
    ("site split 0 1", Err (bad_sub, "unknown site subcommand"));
    ("site", Err (bad_arity, "bare site"));
    (* stats *)
    ("stats", Cmd (Cmd.Stats Cmd.Stats_text));
    ("stats json", Cmd (Cmd.Stats Cmd.Stats_json));
    ("stats reset", Cmd (Cmd.Stats Cmd.Stats_reset));
    ("stats weird", Err (bad_sub, "unknown stats subcommand"));
    (* audit *)
    ("audit", Cmd (Cmd.Audit_tail { count = 10 }));
    ("audit 25", Cmd (Cmd.Audit_tail { count = 25 }));
    ("audit x", Err (bad_int, "audit count not a number"));
    ("audit 0", Err (bad_count, "audit count not positive"));
    ("audit 5 6", Err (bad_arity, "audit extra args"));
    (* mc *)
    ("mc run 5", Cmd (Cmd.Mc_run { depth = 5; bug = false }));
    ("mc run 5 bug", Cmd (Cmd.Mc_run { depth = 5; bug = true }));
    ("mc run x", Err (bad_int, "mc depth not a number"));
    ("mc run 0", Err (bad_range, "mc depth below range"));
    ("mc run 16", Cmd (Cmd.Mc_run { depth = 16; bug = false }));
    ("mc run 17", Err (bad_range, "mc depth above range"));
    ("mc run 8 bug", Cmd (Cmd.Mc_run { depth = 8; bug = true }));
    ("mc run 9 bug", Err (bad_range, "mc bug depth above range"));
    ("mc run 5 bugs", Err (bad_arity, "mc run bad flag"));
    ("mc status", Cmd Cmd.Mc_status);
    ( "mc replay read_bob_s0,acl_revoke",
      Cmd (Cmd.Mc_replay { trace = "read_bob_s0,acl_revoke"; bug = false }) );
    ( "mc replay read_bob_s0,acl_revoke bug",
      Cmd (Cmd.Mc_replay { trace = "read_bob_s0,acl_revoke"; bug = true }) );
    ("mc replay read_bob_s0,frobnicate", Err (bad_trace, "unknown action in trace"));
    ("mc replay", Err (bad_arity, "replay missing trace"));
    ("mc explore 5", Err (bad_sub, "unknown mc subcommand"));
    ("mc", Err (bad_arity, "bare mc"));
    (* not operator families: the shell's other parsers own these *)
    (* spec *)
    ("spec profile start", Cmd Cmd.Spec_profile_start);
    ("spec profile stop editor", Cmd (Cmd.Spec_profile_stop { name = "editor" }));
    ("spec apply", Cmd Cmd.Spec_apply);
    ("spec clear", Cmd Cmd.Spec_clear);
    ("spec status", Cmd Cmd.Spec_status);
    ("spec profile", Err (bad_arity, "bare spec profile"));
    ("spec profile stop", Err (bad_arity, "profile stop missing name"));
    ("spec profile pause", Err (bad_arity, "unknown profile action"));
    ("spec strip", Err (bad_sub, "unknown spec subcommand"));
    ("spec", Err (bad_arity, "bare spec"));
    (* not operator commands *)
    ("login Alice Dev pw", Not_ours);
    ("ls >udd", Not_ours);
    ("", Not_ours);
    ("   ", Not_ours);
  ]

let test_parser_table () =
  List.iter
    (fun (line, expect) ->
      match (Cmd.of_line line, expect) with
      | None, Not_ours -> ()
      | Some (Ok got), Cmd want ->
          if got <> want then Alcotest.failf "%S: parsed to the wrong command" line
      | Some (Error got), Err (pred, label) ->
          if not (pred got) then
            Alcotest.failf "%S: wrong error class (wanted %s, got %S)" line label
              (Cmd.error_to_string got)
      | Some (Ok _), Err (_, label) -> Alcotest.failf "%S: accepted but expected %s" line label
      | Some (Ok _), Not_ours -> Alcotest.failf "%S: accepted but not an operator command" line
      | Some (Error e), (Cmd _ | Not_ours) ->
          Alcotest.failf "%S: rejected (%s) but expected acceptance" line (Cmd.error_to_string e)
      | None, (Cmd _ | Err _) -> Alcotest.failf "%S: not recognised as an operator command" line)
    table

let test_errors_render () =
  (* Every error path must render a usable message: non-empty and
     carrying its usage line. *)
  List.iter
    (fun (line, expect) ->
      match (expect, Cmd.of_line line) with
      | Err _, Some (Error e) ->
          let msg = Cmd.error_to_string e in
          Alcotest.(check bool) (Printf.sprintf "%S error message non-empty" line) true
            (String.length msg > 0)
      | _ -> ())
    table

let suite =
  [
    Alcotest.test_case "parser table" `Quick test_parser_table;
    Alcotest.test_case "error messages render" `Quick test_errors_render;
  ]
