(* Deterministic fault injection: seeded, reproducible fault schedules
   at the kernel's mediation choke points.

   The design rule, after the paper's certification argument: a fault
   decision is computed OUTSIDE the reference monitor and its only
   possible effects are extra cost (retries, backoff) or refusal
   (denial, abort, crash).  Nothing here can widen an access decision,
   so the kernel can fail only closed.

   Determinism: probabilistic schedules draw from a Prng stream keyed
   by (plan seed, site name) — see Prng.create_labeled — so streams
   never depend on the draw order of other sites, and the same
   (seed, plan, workload) triple yields the identical injection trace. *)

module Obs = Multics_obs.Obs

type site =
  | Page_read
  | Page_write
  | Evict
  | Device_transient
  | Net_transient
  | Consumer_stall
  | Gate_deny
  | Gate_abort
  | Proc_crash
  | Backup_tape
  | Cache_flush
  | Sched_preempt
  | Smp_lost_connect
  | Site_drop
  | Site_delay
  | Site_partition

let all_sites =
  [
    Page_read;
    Page_write;
    Evict;
    Device_transient;
    Net_transient;
    Consumer_stall;
    Gate_deny;
    Gate_abort;
    Proc_crash;
    Backup_tape;
    Cache_flush;
    Sched_preempt;
    Smp_lost_connect;
    Site_drop;
    Site_delay;
    Site_partition;
  ]

let site_name = function
  | Page_read -> "vm.page_read"
  | Page_write -> "vm.page_write"
  | Evict -> "vm.evict"
  | Device_transient -> "io.device"
  | Net_transient -> "io.net"
  | Consumer_stall -> "io.stall"
  | Gate_deny -> "gate.deny"
  | Gate_abort -> "gate.abort"
  | Proc_crash -> "proc.crash"
  | Backup_tape -> "backup.tape"
  | Cache_flush -> "cache.flush"
  | Sched_preempt -> "sched.preempt_storm"
  | Smp_lost_connect -> "smp.lost_connect"
  | Site_drop -> "site.drop"
  | Site_delay -> "site.delay"
  | Site_partition -> "site.partition"

let site_of_name name = List.find_opt (fun s -> String.equal (site_name s) name) all_sites

type schedule = Nth of int | Every of int | Probability of { num : int; den : int }

let schedule_to_string = function
  | Nth n -> Printf.sprintf "nth:%d" n
  | Every k -> Printf.sprintf "every:%d" k
  | Probability { num; den } -> Printf.sprintf "p:%d/%d" num den

let schedule_of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad schedule %S (want nth:K, every:K or p:N/D)" s)
  | Some i -> (
      let kind = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "nth" -> (
          match int_of_string_opt arg with
          | Some n when n >= 1 -> Ok (Nth n)
          | _ -> Error (Printf.sprintf "bad nth count %S" arg))
      | "every" -> (
          match int_of_string_opt arg with
          | Some k when k >= 1 -> Ok (Every k)
          | _ -> Error (Printf.sprintf "bad every period %S" arg))
      | "p" -> (
          match String.index_opt arg '/' with
          | None -> Error (Printf.sprintf "bad probability %S (want N/D)" arg)
          | Some j -> (
              let num = int_of_string_opt (String.sub arg 0 j) in
              let den = int_of_string_opt (String.sub arg (j + 1) (String.length arg - j - 1)) in
              match (num, den) with
              | Some num, Some den when num >= 0 && den > 0 && num <= den ->
                  Ok (Probability { num; den })
              | _ -> Error (Printf.sprintf "bad probability %S" arg)))
      | other -> Error (Printf.sprintf "unknown schedule kind %S" other))

module Plan = struct
  type rule = { site : site; schedule : schedule }

  type t = { seed : int; rules : rule list }

  let empty = { seed = 0; rules = [] }

  let make ~seed rules =
    { seed; rules = List.map (fun (site, schedule) -> { site; schedule }) rules }

  let is_empty t = t.rules = []

  let to_string t =
    if is_empty t then "(empty)"
    else
      String.concat ","
        (List.map
           (fun r -> Printf.sprintf "%s=%s" (site_name r.site) (schedule_to_string r.schedule))
           t.rules)

  let parse ~seed spec =
    let parse_rule acc part =
      match acc with
      | Error _ as e -> e
      | Ok rules -> (
          match String.index_opt part '=' with
          | None -> Error (Printf.sprintf "bad rule %S (want SITE=SCHEDULE)" part)
          | Some i -> (
              let name = String.sub part 0 i in
              let sched = String.sub part (i + 1) (String.length part - i - 1) in
              match site_of_name name with
              | None ->
                  Error
                    (Printf.sprintf "unknown site %S (sites: %s)" name
                       (String.concat ", " (List.map site_name all_sites)))
              | Some site -> (
                  match schedule_of_string sched with
                  | Error _ as e -> e
                  | Ok schedule -> Ok ({ site; schedule } :: rules))))
    in
    let parts =
      String.split_on_char ',' (String.trim spec)
      |> List.map String.trim
      |> List.filter (fun p -> p <> "")
    in
    match parts with
    | [] -> Error "empty fault plan spec"
    | parts -> (
        match List.fold_left parse_rule (Ok []) parts with
        | Error _ as e -> e
        | Ok rules -> Ok { seed; rules = List.rev rules })
end

(* ----- Observability ----- *)

let obs_checks = Obs.Local.counter "fault.checks"
let obs_injected = Obs.Local.counter "fault.injected"
let obs_retries = Obs.Local.counter "fault.retries"
let obs_giveups = Obs.Local.counter "fault.giveups"

let obs_site_injected =
  Obs.Local.keyed (fun r site -> Obs.Registry.counter r ("fault.injected." ^ site))

module Injector = struct
  type site_state = {
    rule : Plan.rule;
    prng : Multics_util.Prng.t;
    obs_site : Obs.Counter.t;
    mutable occurrences : int;
    mutable site_injected : int;
  }

  type t = {
    plan : Plan.t;
    states : (string, site_state) Hashtbl.t;  (** keyed by site name *)
    mutable total_checks : int;
    mutable total_injected : int;
    mutable total_retries : int;
    mutable total_giveups : int;
  }

  let create (plan : Plan.t) =
    let states = Hashtbl.create 8 in
    List.iter
      (fun (rule : Plan.rule) ->
        let name = site_name rule.site in
        Hashtbl.replace states name
          {
            rule;
            prng = Multics_util.Prng.create_labeled ~seed:plan.Plan.seed ~label:name;
            obs_site = obs_site_injected name;
            occurrences = 0;
            site_injected = 0;
          })
      plan.Plan.rules;
    { plan; states; total_checks = 0; total_injected = 0; total_retries = 0; total_giveups = 0 }

  let plan t = t.plan

  let fire t site =
    t.total_checks <- t.total_checks + 1;
    Obs.Counter.incr (obs_checks ());
    match Hashtbl.find_opt t.states (site_name site) with
    | None -> false
    | Some st ->
        st.occurrences <- st.occurrences + 1;
        let fires =
          match st.rule.Plan.schedule with
          | Nth n -> st.occurrences = n
          | Every k -> st.occurrences mod k = 0
          | Probability { num; den } -> Multics_util.Prng.chance st.prng ~num ~den
        in
        if fires then begin
          st.site_injected <- st.site_injected + 1;
          t.total_injected <- t.total_injected + 1;
          Obs.Counter.incr (obs_injected ());
          Obs.Counter.incr st.obs_site
        end;
        fires

  let count_retry t _site =
    t.total_retries <- t.total_retries + 1;
    Obs.Counter.incr (obs_retries ())

  let count_giveup t _site =
    t.total_giveups <- t.total_giveups + 1;
    Obs.Counter.incr (obs_giveups ())

  let checks t = t.total_checks
  let injected t = t.total_injected
  let retries t = t.total_retries
  let giveups t = t.total_giveups

  let counts t =
    let per_site =
      Hashtbl.fold
        (fun name st acc -> ("injected." ^ name, st.site_injected) :: acc)
        t.states []
    in
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (("checks", t.total_checks) :: ("injected", t.total_injected)
      :: ("retries", t.total_retries) :: ("giveups", t.total_giveups) :: per_site)
end
