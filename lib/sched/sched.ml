(* The traffic controller.

   Layering: this library sits ABOVE lib/proc (it drives Sim through
   the neutral scheduler record) and ABOVE lib/core (it registers a
   scheduler_control with System so the Sched_status/Sched_tune gates
   reach it).  Neither lower layer knows this module exists.

   The policy/mechanism split, after the paper's minimization program:

   - Mechanism (stays in ring 0, implemented here + Sim's slicing):
     cycle-accounted quanta, preemption of an expired quantum, and the
     working-set eligibility cap that bounds admission.

   - Policy (pluggable, can leave ring 0): which ready process runs
     next and how long its quantum is.  The External variant runs the
     policy entirely in unprivileged closures; every consultation is
     counted as an upcall.

   Nothing in this file touches the reference monitor: a scheduling
   decision moves WHEN work runs, never what it may access.  E17's
   parity oracle holds the subsystem to that. *)

module Sim = Multics_proc.Sim
module Fqueue = Multics_util.Fqueue
module Obs = Multics_obs.Obs
module Fault = Multics_fault.Fault
module System = Multics_kernel.System

(* Observability: the controller's live counters land in the global
   registry next to the gate and paging numbers, where the shell's
   [stats] command and experiment snapshots can see them. *)
let obs_dispatches = Obs.Local.counter "sched.dispatches"
let obs_preemptions = Obs.Local.counter "sched.preemptions"
let obs_expiries = Obs.Local.counter "sched.quantum_expiries"
let obs_stalls = Obs.Local.counter "sched.eligibility.stalls"
let obs_admissions = Obs.Local.counter "sched.admissions"
let obs_upcalls = Obs.Local.counter "sched.policy.upcalls"
let obs_promotions = Obs.Local.counter "sched.aging.promotions"
let obs_storms = Obs.Local.counter "sched.preempt_storms"
let obs_ready_depth = Obs.Local.gauge "sched.queue.ready"
let obs_admission_depth = Obs.Local.gauge "sched.queue.admission"
(* ----- The multi-level-feedback queues ----- *)

module Mlf = struct
  type entry = { e_pid : Sim.pid; e_since : int }

  type t = {
    queues : entry Fqueue.t array;
    levels : int;
    mutable base_quantum : int;
    mutable age_after : int;
    level_of : (Sim.pid, int) Hashtbl.t;  (** current level; absent = 0 *)
    mutable promos : int;
  }

  let create ~levels ~base_quantum ~age_after =
    if levels < 1 then invalid_arg "Sched.Mlf.create: levels must be >= 1";
    if base_quantum < 1 then invalid_arg "Sched.Mlf.create: base_quantum must be >= 1";
    if age_after < 1 then invalid_arg "Sched.Mlf.create: age_after must be >= 1";
    {
      queues = Array.make levels Fqueue.empty;
      levels;
      base_quantum;
      age_after;
      level_of = Hashtbl.create 64;
      promos = 0;
    }

  let level t pid = Option.value (Hashtbl.find_opt t.level_of pid) ~default:0

  let enqueue t ~now pid =
    let lvl = level t pid in
    Hashtbl.replace t.level_of pid lvl;
    t.queues.(lvl) <- Fqueue.push t.queues.(lvl) { e_pid = pid; e_since = now }

  (* Aging, run at selection time: the head of each lower queue that
     has waited at least [age_after] moves up one level (keeping its
     arrival stamp, so a deeply-sunk process keeps climbing).  One
     promotion per level per selection bounds the work. *)
  let age t ~now =
    for lvl = 1 to t.levels - 1 do
      match Fqueue.pop t.queues.(lvl) with
      | Some (e, rest) when now - e.e_since >= t.age_after ->
          t.queues.(lvl) <- rest;
          t.queues.(lvl - 1) <- Fqueue.push t.queues.(lvl - 1) e;
          Hashtbl.replace t.level_of e.e_pid (lvl - 1);
          t.promos <- t.promos + 1;
          Obs.Counter.incr (obs_promotions ())
      | _ -> ()
    done

  let select t ~now =
    age t ~now;
    let rec pick lvl =
      if lvl >= t.levels then None
      else
        match Fqueue.pop t.queues.(lvl) with
        | Some (e, rest) ->
            t.queues.(lvl) <- rest;
            Some e.e_pid
        | None -> pick (lvl + 1)
    in
    pick 0

  (* Quantum doubles per level: long computations sink to long, cheap
     quanta; the shift is clamped so a pathological level count cannot
     overflow. *)
  let quantum t pid = t.base_quantum lsl min (level t pid) 20

  let expired t pid = Hashtbl.replace t.level_of pid (min (t.levels - 1) (level t pid + 1))

  let blocked t pid = Hashtbl.replace t.level_of pid 0

  let retired t pid = Hashtbl.remove t.level_of pid

  let backlog t = Array.fold_left (fun acc q -> acc + Fqueue.length q) 0 t.queues

  let depths t = Array.to_list (Array.map Fqueue.length t.queues)

  let promotions t = t.promos

  let set_base_quantum t q =
    if q < 1 then invalid_arg "Sched.Mlf.set_base_quantum: must be >= 1";
    t.base_quantum <- q

  let set_age_after t a =
    if a < 1 then invalid_arg "Sched.Mlf.set_age_after: must be >= 1";
    t.age_after <- a
end

(* ----- Policies ----- *)

type external_policy = {
  xp_name : string;
  xp_enqueue : Sim.pid -> unit;
  xp_select : unit -> Sim.pid option;
  xp_quantum : Sim.pid -> int option;
  xp_expired : Sim.pid -> preempted:bool -> unit;
  xp_blocked : Sim.pid -> unit;
  xp_retired : Sim.pid -> unit;
  xp_backlog : unit -> int;
}

type policy =
  | Mlf of { levels : int; base_quantum : int; age_after : int }
  | Fifo
  | External of external_policy

let default_mlf = Mlf { levels = 4; base_quantum = 4000; age_after = 40_000 }

let policy_name = function
  | Mlf _ -> "mlf"
  | Fifo -> "fifo"
  | External xp -> xp.xp_name

let user_ring_mlf ?(levels = 4) ?(base_quantum = 4000) ?(age_after = 16) () =
  (* The user ring has no cycle clock, so aging runs on a logical tick
     per selection — a policy approximation the mechanism is
     indifferent to. *)
  let m = Mlf.create ~levels ~base_quantum ~age_after in
  let tick = ref 0 in
  {
    xp_name = "user-ring-mlf";
    xp_enqueue = (fun pid -> Mlf.enqueue m ~now:!tick pid);
    xp_select =
      (fun () ->
        incr tick;
        Mlf.select m ~now:!tick);
    xp_quantum = (fun pid -> Some (Mlf.quantum m pid));
    xp_expired = (fun pid ~preempted:_ -> Mlf.expired m pid);
    xp_blocked = (fun pid -> Mlf.blocked m pid);
    xp_retired = (fun pid -> Mlf.retired m pid);
    xp_backlog = (fun () -> Mlf.backlog m);
  }

(* ----- The controller ----- *)

type fifo_state = { mutable fq : Sim.pid Fqueue.t }

type impl = I_mlf of Mlf.t | I_fifo of fifo_state | I_ext of external_policy

type t = {
  sim : Sim.t;
  pol : policy;
  impl : impl;
  plant : Multics_smp.Smp.t option;
      (** multiprocessor plant: per-CPU run selection contends for its
          global lock, charged to the dispatched process *)
  mutable cap : int;  (** 0 = unlimited *)
  eligible : (Sim.pid, unit) Hashtbl.t;
  mutable admission : Sim.pid Fqueue.t;  (** ready but awaiting eligibility *)
  mutable dispatches : int;
  mutable preemptions : int;
  mutable expiries : int;
  mutable stalls : int;
  mutable admissions : int;
  mutable upcalls : int;
  mutable storms : int;
}

let sim t = t.sim
let policy t = t.pol
let name t = policy_name t.pol
let eligibility_cap t = t.cap
let eligible_count t = Hashtbl.length t.eligible

let upcall t =
  t.upcalls <- t.upcalls + 1;
  Obs.Counter.incr (obs_upcalls ())

(* Policy consultations, upcall-counted for the External variant. *)

let p_enqueue t pid =
  match t.impl with
  | I_mlf m -> Mlf.enqueue m ~now:(Sim.now t.sim) pid
  | I_fifo f -> f.fq <- Fqueue.push f.fq pid
  | I_ext xp ->
      upcall t;
      xp.xp_enqueue pid

let p_select t =
  match t.impl with
  | I_mlf m -> Mlf.select m ~now:(Sim.now t.sim)
  | I_fifo f -> (
      match Fqueue.pop f.fq with
      | Some (pid, rest) ->
          f.fq <- rest;
          Some pid
      | None -> None)
  | I_ext xp ->
      upcall t;
      xp.xp_select ()

let p_quantum t pid =
  match t.impl with
  | I_mlf m -> Some (Mlf.quantum m pid)
  | I_fifo _ -> None
  | I_ext xp ->
      upcall t;
      xp.xp_quantum pid

let p_expired t pid ~preempted =
  match t.impl with
  | I_mlf m -> Mlf.expired m pid
  | I_fifo _ -> ()
  | I_ext xp ->
      upcall t;
      xp.xp_expired pid ~preempted

let p_blocked t pid =
  match t.impl with
  | I_mlf m -> Mlf.blocked m pid
  | I_fifo _ -> ()
  | I_ext xp ->
      upcall t;
      xp.xp_blocked pid

let p_retired t pid =
  match t.impl with
  | I_mlf m -> Mlf.retired m pid
  | I_fifo _ -> ()
  | I_ext xp ->
      upcall t;
      xp.xp_retired pid

let p_backlog t =
  match t.impl with
  | I_mlf m -> Mlf.backlog m
  | I_fifo f -> Fqueue.length f.fq
  | I_ext xp -> xp.xp_backlog ()

(* ----- Eligibility (mechanism; identical under every policy) ----- *)

let has_room t = t.cap = 0 || Hashtbl.length t.eligible < t.cap

let admit t pid =
  Hashtbl.replace t.eligible pid ();
  t.admissions <- t.admissions + 1;
  Obs.Counter.incr (obs_admissions ());
  p_enqueue t pid

let rec try_admit t =
  if has_room t then
    match Fqueue.pop t.admission with
    | Some (pid, rest) ->
        t.admission <- rest;
        admit t pid;
        try_admit t
    | None -> ()

let enqueue t pid =
  if Hashtbl.mem t.eligible pid then p_enqueue t pid
  else if has_room t then admit t pid
  else begin
    t.stalls <- t.stalls + 1;
    Obs.Counter.incr (obs_stalls ());
    t.admission <- Fqueue.push t.admission pid
  end

let release_eligibility t pid =
  if Hashtbl.mem t.eligible pid then begin
    Hashtbl.remove t.eligible pid;
    try_admit t;
    (* A stalled process may now be both eligible and ready while VPs
       sit idle — redispatch immediately. *)
    Sim.reschedule t.sim
  end

let set_eligibility_cap t cap =
  if cap < 0 then invalid_arg "Sched.set_eligibility_cap: must be >= 0";
  t.cap <- cap;
  try_admit t;
  Sim.reschedule t.sim

(* ----- The Sim-facing hooks ----- *)

let storm_quantum = 64

let select t ~vp =
  match p_select t with
  | None -> None
  | Some pid ->
      t.dispatches <- t.dispatches + 1;
      Obs.Counter.incr (obs_dispatches ());
      (* Under a multiprocessor plant, this selection ran on the CPU
         the free VP maps to: it takes the global lock to pop the
         shared ready structure, and any wait for a peer CPU's
         dispatcher (or an in-flight connect broadcast) is charged to
         the process being dispatched.  Contention moves timing only —
         which pid was selected is already fixed. *)
      (match t.plant with
      | Some plant when Multics_smp.Smp.ncpus plant > 1 ->
          Multics_smp.Smp.set_current plant (vp mod Multics_smp.Smp.ncpus plant);
          let wait = Multics_smp.Smp.dispatch_lock plant ~now:(Sim.now t.sim) in
          if wait > 0 then Sim.perturb t.sim pid wait
      | Some _ | None -> ());
      Some pid

let quantum t pid =
  let q = p_quantum t pid in
  (* The preempt-storm fault site: consulted at every quantum grant;
     firing clamps the quantum to a sliver.  Pure extra switching cost
     — access decisions are not even reachable from here. *)
  match Sim.fault_injector t.sim with
  | Some inj when Fault.Injector.fire inj Fault.Sched_preempt ->
      t.storms <- t.storms + 1;
      Obs.Counter.incr (obs_storms ());
      Some (match q with Some q -> min q storm_quantum | None -> storm_quantum)
  | _ -> q

let quantum_expired t pid ~preempted =
  t.expiries <- t.expiries + 1;
  Obs.Counter.incr (obs_expiries ());
  if preempted then begin
    t.preemptions <- t.preemptions + 1;
    Obs.Counter.incr (obs_preemptions ())
  end;
  p_expired t pid ~preempted

let retired t pid =
  p_retired t pid;
  if Hashtbl.mem t.eligible pid then begin
    Hashtbl.remove t.eligible pid;
    try_admit t
  end

let backlog t = p_backlog t + Fqueue.length t.admission

let create ?(eligibility_cap = 0) ?(policy = default_mlf) ?plant sim =
  if eligibility_cap < 0 then invalid_arg "Sched.create: eligibility_cap must be >= 0";
  let impl =
    match policy with
    | Mlf { levels; base_quantum; age_after } -> I_mlf (Mlf.create ~levels ~base_quantum ~age_after)
    | Fifo -> I_fifo { fq = Fqueue.empty }
    | External xp -> I_ext xp
  in
  let t =
    {
      sim;
      pol = policy;
      impl;
      plant;
      cap = eligibility_cap;
      eligible = Hashtbl.create 64;
      admission = Fqueue.empty;
      dispatches = 0;
      preemptions = 0;
      expiries = 0;
      stalls = 0;
      admissions = 0;
      upcalls = 0;
      storms = 0;
    }
  in
  Sim.set_scheduler sim
    {
      Sim.sched_enqueue = enqueue t;
      sched_select = (fun ~vp -> select t ~vp);
      sched_quantum = quantum t;
      sched_quantum_expired = quantum_expired t;
      sched_blocked = p_blocked t;
      sched_retired = retired t;
      sched_backlog = (fun () -> backlog t);
    };
  t

let negotiated_cap ~core_frames ~working_set = max 1 (core_frames / max 1 working_set)

let status t =
  let ready = p_backlog t in
  let stalled = Fqueue.length t.admission in
  Obs.Gauge.set (obs_ready_depth ()) ready;
  Obs.Gauge.set (obs_admission_depth ()) stalled;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    [
      ("admissions", t.admissions);
      ("aging.promotions", (match t.impl with I_mlf m -> Mlf.promotions m | _ -> 0));
      ("dispatches", t.dispatches);
      ("eligibility.cap", t.cap);
      ("eligibility.stalls", t.stalls);
      ("eligible", Hashtbl.length t.eligible);
      ("policy.upcalls", t.upcalls);
      ("preempt.storms", t.storms);
      ("preemptions", t.preemptions);
      ("quantum_expiries", t.expiries);
      ("queue.admission", stalled);
      ("queue.ready", ready);
    ]

let tune t ~param ~value =
  match param with
  | "cap" ->
      if value < 0 then Error "cap must be >= 0 (0 = unlimited)"
      else begin
        set_eligibility_cap t value;
        Ok ()
      end
  | "quantum" -> (
      if value < 1 then Error "quantum must be >= 1"
      else
        match t.impl with
        | I_mlf m ->
            Mlf.set_base_quantum m value;
            Ok ()
        | I_fifo _ | I_ext _ ->
            Error (Printf.sprintf "policy %s has no quantum parameter" (name t)))
  | "age_after" -> (
      if value < 1 then Error "age_after must be >= 1"
      else
        match t.impl with
        | I_mlf m ->
            Mlf.set_age_after m value;
            Ok ()
        | I_fifo _ | I_ext _ ->
            Error (Printf.sprintf "policy %s has no age_after parameter" (name t)))
  | other -> Error (Printf.sprintf "unknown parameter %S (try cap, quantum, age_after)" other)

let control t =
  {
    System.sc_policy = (fun () -> name t);
    sc_counters = (fun () -> status t);
    sc_tune = (fun ~param ~value -> tune t ~param ~value);
  }

let register t system = System.register_scheduler system (Some (control t))

(* ----- Kernel-surface accounting ----- *)

type surface = {
  surf_policy : string;
  surf_mechanism : int;
  surf_policy_stmts : int;
  surf_ring0 : int;
}

(* Statement counts over the scheduling subsystem, the lib/audit
   inventory convention (executable statements, not lines): the
   mechanism is Sim's slicing/preemption plumbing plus the eligibility
   machinery above; the MLF discipline is the policy half.  Fifo shows
   the floor — what a kernel pays for having any policy at all. *)
let mechanism_statements = 92

let mlf_statements = 68

let fifo_statements = 9

let surface = function
  | Mlf _ ->
      {
        surf_policy = "mlf";
        surf_mechanism = mechanism_statements;
        surf_policy_stmts = mlf_statements;
        surf_ring0 = mechanism_statements + mlf_statements;
      }
  | Fifo ->
      {
        surf_policy = "fifo";
        surf_mechanism = mechanism_statements;
        surf_policy_stmts = fifo_statements;
        surf_ring0 = mechanism_statements + fifo_statements;
      }
  | External xp ->
      {
        surf_policy = xp.xp_name;
        surf_mechanism = mechanism_statements;
        surf_policy_stmts = mlf_statements;
        surf_ring0 = mechanism_statements;
      }
