(* Typed parsers for the shell's operator-command families.

   The shell's original parsers grew ad hoc: each family matched its
   own word list and called [int_of_string_opt] (or didn't), so a
   malformed line could take an arm that silently fell through — or,
   for inputs nobody had tried, raise straight out of [execute].  This
   module makes the operator families total functions from a word list
   to either a typed command or a typed error: every malformed input
   has a specific, named rejection with the usage line attached, in
   the style of the kernel's own [Bad_tune].  Validation happens at
   the parser, before any gate is consulted — a bad fault-plan spec or
   an unknown tuning parameter is refused with a reason instead of
   travelling into the kernel as a string. *)

module Fault = Multics_fault.Fault
module Mc = Multics_mc.Mc

module Command = struct
  type stats_mode = Stats_text | Stats_json | Stats_reset

  type t =
    | Fault_plan of { seed : int; spec : string }
    | Fault_status
    | Fault_clear
    | Cache_status
    | Cache_clear
    | Sched_status
    | Sched_tune of { param : string; value : int }
    | Sched_demo of { users : int }
    | Smp_status
    | Jobs_status
    | Site_status
    | Site_partition of { a : int; b : int }
    | Site_heal
    | Stats of stats_mode
    | Audit_tail of { count : int }
    | Mc_run of { depth : int; bug : bool }
    | Mc_status
    | Mc_replay of { trace : string; bug : bool }
    | Spec_profile_start
    | Spec_profile_stop of { name : string }
    | Spec_apply
    | Spec_clear
    | Spec_status

  type error =
    | Bad_int of { what : string; got : string; usage : string }
    | Bad_subcommand of { family : string; got : string; usage : string }
    | Bad_arity of { family : string; usage : string }
    | Bad_param of { param : string; known : string list; usage : string }
    | Bad_plan of { spec : string; reason : string }
    | Bad_count of { what : string; got : int; usage : string }
    | Bad_pair of { family : string; reason : string; usage : string }
    | Bad_range of { what : string; got : int; lo : int; hi : int; usage : string }
    | Bad_trace of { got : string; usage : string }

  let error_to_string = function
    | Bad_int { what; got; usage } ->
        Printf.sprintf "%s: not a number: %s (usage: %s)" what got usage
    | Bad_subcommand { family; got; usage } ->
        Printf.sprintf "%s: unknown subcommand %S (usage: %s)" family got usage
    | Bad_arity { family; usage } -> Printf.sprintf "%s: usage: %s" family usage
    | Bad_param { param; known; usage } ->
        Printf.sprintf "unknown parameter %S (known: %s; usage: %s)" param
          (String.concat " | " known) usage
    | Bad_plan { spec; reason } -> Printf.sprintf "bad fault plan %S: %s" spec reason
    | Bad_count { what; got; usage } ->
        Printf.sprintf "%s: must be positive, got %d (usage: %s)" what got usage
    | Bad_pair { family; reason; usage } ->
        Printf.sprintf "%s: %s (usage: %s)" family reason usage
    | Bad_range { what; got; lo; hi; usage } ->
        Printf.sprintf "%s: %d out of range %d..%d (usage: %s)" what got lo hi usage
    | Bad_trace { got; usage } ->
        Printf.sprintf "unknown action %S in trace (usage: %s)" got usage

  let usage_fault = "fault plan SEED SPEC | fault status | fault clear"
  let usage_cache = "cache status | cache clear"
  let usage_sched = "sched status | sched tune PARAM VALUE | sched demo [USERS]"
  let usage_smp = "smp status"
  let usage_jobs = "jobs status"
  let usage_site = "site status | site partition A B | site heal"
  let usage_stats = "stats [json|reset]"
  let usage_audit = "audit [N]"
  let usage_mc = "mc run DEPTH [bug] | mc status | mc replay TRACE [bug]"

  let usage_spec =
    "spec profile start | spec profile stop NAME | spec apply | spec clear | spec status"

  (* A healthy run stops at its fixpoint (depth 11) inside [Mc.depth_cap].
     The bug plant has no fixpoint: every descriptor edit queues one
     more connect, so each depth replays several times the traces of
     the one before. *)
  let mc_bug_depth_max = 8

  (* The tuning parameters the traffic controller accepts; kept here so
     a typo is refused with the list instead of a round trip through
     the gate. *)
  let tune_params = [ "cap"; "quantum"; "age_after" ]

  let int_arg ~what ~usage s k =
    match int_of_string_opt s with
    | Some n -> k n
    | None -> Error (Bad_int { what; got = s; usage })

  let positive ~what ~usage n k =
    if n > 0 then k n else Error (Bad_count { what; got = n; usage })

  let parse_fault = function
    | [ "plan"; seed; spec ] ->
        int_arg ~what:"fault plan seed" ~usage:usage_fault seed (fun seed ->
            (* Validate the spec before it travels anywhere: a bad site
               name or schedule is a parse error, not a gate call. *)
            match Fault.Plan.parse ~seed spec with
            | Ok _ -> Ok (Fault_plan { seed; spec })
            | Error reason -> Error (Bad_plan { spec; reason }))
    | [ "status" ] -> Ok Fault_status
    | [ "clear" ] -> Ok Fault_clear
    | sub :: _ when sub <> "plan" ->
        Error (Bad_subcommand { family = "fault"; got = sub; usage = usage_fault })
    | _ -> Error (Bad_arity { family = "fault"; usage = usage_fault })

  let parse_cache = function
    | [ "status" ] -> Ok Cache_status
    | [ "clear" ] -> Ok Cache_clear
    | sub :: _ -> Error (Bad_subcommand { family = "cache"; got = sub; usage = usage_cache })
    | [] -> Error (Bad_arity { family = "cache"; usage = usage_cache })

  let parse_sched = function
    | [ "status" ] -> Ok Sched_status
    | [ "tune"; param; value ] ->
        if not (List.mem param tune_params) then
          Error (Bad_param { param; known = tune_params; usage = usage_sched })
        else
          int_arg ~what:"sched tune value" ~usage:usage_sched value (fun value ->
              Ok (Sched_tune { param; value }))
    | [ "demo" ] -> Ok (Sched_demo { users = 8 })
    | [ "demo"; users ] ->
        int_arg ~what:"sched demo users" ~usage:usage_sched users (fun users ->
            positive ~what:"sched demo users" ~usage:usage_sched users (fun users ->
                Ok (Sched_demo { users })))
    | sub :: _ when sub <> "tune" && sub <> "demo" ->
        Error (Bad_subcommand { family = "sched"; got = sub; usage = usage_sched })
    | _ -> Error (Bad_arity { family = "sched"; usage = usage_sched })

  let parse_smp = function
    | [ "status" ] -> Ok Smp_status
    | sub :: _ -> Error (Bad_subcommand { family = "smp"; got = sub; usage = usage_smp })
    | [] -> Error (Bad_arity { family = "smp"; usage = usage_smp })

  let parse_jobs = function
    | [ "status" ] -> Ok Jobs_status
    | sub :: _ -> Error (Bad_subcommand { family = "jobs"; got = sub; usage = usage_jobs })
    | [] -> Error (Bad_arity { family = "jobs"; usage = usage_jobs })

  let parse_site = function
    | [ "status" ] -> Ok Site_status
    | [ "heal" ] -> Ok Site_heal
    | [ "partition"; a; b ] ->
        int_arg ~what:"site partition a" ~usage:usage_site a (fun a ->
            int_arg ~what:"site partition b" ~usage:usage_site b (fun b ->
                (* Range (against the fleet's size) is the executor's
                   to check; shape is ours: two distinct, non-negative
                   site ids. *)
                if a < 0 || b < 0 then
                  Error
                    (Bad_pair
                       {
                         family = "site partition";
                         reason = "site ids must be non-negative";
                         usage = usage_site;
                       })
                else if a = b then
                  Error
                    (Bad_pair
                       {
                         family = "site partition";
                         reason = "cannot partition a site from itself";
                         usage = usage_site;
                       })
                else Ok (Site_partition { a; b })))
    | sub :: _ when sub <> "partition" ->
        Error (Bad_subcommand { family = "site"; got = sub; usage = usage_site })
    | _ -> Error (Bad_arity { family = "site"; usage = usage_site })

  let parse_stats = function
    | [] -> Ok (Stats Stats_text)
    | [ "json" ] -> Ok (Stats Stats_json)
    | [ "reset" ] -> Ok (Stats Stats_reset)
    | sub :: _ -> Error (Bad_subcommand { family = "stats"; got = sub; usage = usage_stats })

  let parse_audit = function
    | [] -> Ok (Audit_tail { count = 10 })
    | [ n ] ->
        int_arg ~what:"audit count" ~usage:usage_audit n (fun count ->
            positive ~what:"audit count" ~usage:usage_audit count (fun count ->
                Ok (Audit_tail { count })))
    | _ -> Error (Bad_arity { family = "audit"; usage = usage_audit })

  let parse_mc = function
    | "run" :: depth :: rest when rest = [] || rest = [ "bug" ] ->
        let bug = rest = [ "bug" ] in
        let hi = if bug then mc_bug_depth_max else Mc.depth_cap in
        int_arg ~what:"mc run depth" ~usage:usage_mc depth (fun depth ->
            if depth < 1 || depth > hi then
              Error (Bad_range { what = "mc run depth"; got = depth; lo = 1; hi; usage = usage_mc })
            else Ok (Mc_run { depth; bug }))
    | [ "status" ] -> Ok Mc_status
    | "replay" :: trace :: rest when rest = [] || rest = [ "bug" ] -> (
        (* Validate the trace before it travels anywhere: an unknown
           action name is a parse error, not a checker failure. *)
        match Mc.trace_of_string trace with
        | Some _ -> Ok (Mc_replay { trace; bug = rest = [ "bug" ] })
        | None ->
            let bad =
              String.split_on_char ',' trace
              |> List.map String.trim
              |> List.find_opt (fun w -> Mc.action_of_string w = None)
            in
            Error (Bad_trace { got = Option.value bad ~default:trace; usage = usage_mc }))
    | sub :: _ when sub <> "run" && sub <> "replay" ->
        Error (Bad_subcommand { family = "mc"; got = sub; usage = usage_mc })
    | _ -> Error (Bad_arity { family = "mc"; usage = usage_mc })

  let parse_spec = function
    | [ "profile"; "start" ] -> Ok Spec_profile_start
    | [ "profile"; "stop"; name ] when name <> "" -> Ok (Spec_profile_stop { name })
    | [ "apply" ] -> Ok Spec_apply
    | [ "clear" ] -> Ok Spec_clear
    | [ "status" ] -> Ok Spec_status
    | sub :: _ when sub <> "profile" && sub <> "apply" && sub <> "clear" && sub <> "status" ->
        Error (Bad_subcommand { family = "spec"; got = sub; usage = usage_spec })
    | _ -> Error (Bad_arity { family = "spec"; usage = usage_spec })

  (* [None]: the word list is not an operator-family command (the
     shell's other parsers own it). *)
  let parse = function
    | "fault" :: rest -> Some (parse_fault rest)
    | "cache" :: rest -> Some (parse_cache rest)
    | "sched" :: rest -> Some (parse_sched rest)
    | "smp" :: rest -> Some (parse_smp rest)
    | "jobs" :: rest -> Some (parse_jobs rest)
    | "site" :: rest -> Some (parse_site rest)
    | "stats" :: rest -> Some (parse_stats rest)
    | "audit" :: rest -> Some (parse_audit rest)
    | "mc" :: rest -> Some (parse_mc rest)
    | "spec" :: rest -> Some (parse_spec rest)
    | _ -> None

  let of_line line =
    parse (String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> ""))
end
