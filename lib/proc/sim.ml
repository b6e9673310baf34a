(* The two-layer process implementation, as a deterministic
   discrete-event simulator.

   Layer 1 multiplexes the hardware into a FIXED number of virtual
   processors; because the number is fixed, this layer is independent
   of the virtual-memory machinery — the property the paper's process
   redesign is after.  Several virtual processors are permanently
   assigned to kernel mechanisms ([spawn ~dedicated:true]); the rest
   are multiplexed by layer 2 among any number of full Multics
   processes.

   Process bodies are ordinary OCaml functions that suspend through
   effects: [compute n] consumes n simulated cycles, [block chan]
   waits for a wakeup.  Wakeups are counted (a wakeup with no waiter is
   remembered), matching the Multics base-level IPC whose "use can be
   controlled with the standard memory protection mechanisms".

   Determinism: a single event queue ordered by (time, insertion seq);
   no wall-clock anywhere. *)

open Multics_machine
module Obs = Multics_obs.Obs

(* Observability: the counted-wakeup IPC layer.  "Lost" wakeups cannot
   happen here (a wakeup with no waiter is remembered), so the lost
   counter stays zero unless a future channel variant drops them — its
   presence makes the invariant checkable from the outside. *)
let obs_wakeups_sent = Obs.Local.counter "ipc.wakeups.sent"
let obs_wakeups_delivered = Obs.Local.counter "ipc.wakeups.delivered"
let obs_wakeups_queued = Obs.Local.counter "ipc.wakeups.queued"
let obs_wakeups_consumed = Obs.Local.counter "ipc.wakeups.consumed"
let obs_wakeups_lost = Obs.Local.counter "ipc.wakeups.lost"
let obs_blocks = Obs.Local.counter "ipc.blocks"
let _ = (obs_wakeups_lost ())

type pid = int

type chan = {
  chan_id : int;
  chan_name : string;
  mutable waiters : pid Multics_util.Fqueue.t;
  mutable pending : int;  (** counted wakeups that found no waiter *)
}

type proc_state = Unborn | Ready | Running | Blocked of chan | Terminated

type process = {
  pid : pid;
  pname : string;
  mutable ring : Ring.t;
  body : pid -> unit;
  dedicated_vp : int option;
  exit_chan : chan;
  mutable state : proc_state;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable cycles_used : int;
  mutable extra_delay : int;  (** cycles stolen by inline interrupt handling *)
  mutable perturbation_count : int;
  mutable failure : string option;
  mutable compute_left : int;  (** cycles still owed on the current [compute] *)
  mutable slice : int;  (** length of the slice currently on the event queue *)
  mutable quantum_left : int option;  (** remaining quantum this dispatch; None = unlimited *)
}

type vp = { vp_id : int; mutable current : pid option; mutable reserved : bool }

type event = Start of pid | Resume of pid | Slice of pid | Thunk of (unit -> unit)

(* The traffic controller lives ABOVE this library (lib/sched), so
   layer 2 consults it through a neutral record of closures.  A fresh
   simulator runs the seed discipline, a FIFO ready queue with
   unlimited quanta ([fifo]), as one such record; [Sched.create]
   replaces it.  Dedicated processes (reserved VPs) never pass through
   the scheduler: they are the kernel mechanisms the traffic controller
   itself relies on, and preempting them could deadlock page control. *)
type scheduler = {
  sched_enqueue : pid -> unit;  (** a process became ready (spawn or counted wakeup) *)
  sched_select : vp:int -> pid option;
      (** pick the next process for the given free VP; under a
          multiprocessor plant the VP index identifies the simulated
          CPU doing the selecting, so lock contention can be charged
          to the right dispatcher *)
  sched_quantum : pid -> int option;  (** quantum for this dispatch; None = run to block *)
  sched_quantum_expired : pid -> preempted:bool -> unit;
      (** the quantum ran out; [preempted] iff compute was still owed *)
  sched_blocked : pid -> unit;  (** the process surrendered its VP to wait *)
  sched_retired : pid -> unit;  (** the process terminated *)
  sched_backlog : unit -> int;  (** ready + admission-stalled processes it holds *)
}

type t = {
  clock : Clock.t;
  cost : Cost.t;
  events : event Event_queue.t;
  procs : (pid, process) Hashtbl.t;
  mutable ready_dedicated : pid Multics_util.Fqueue.t;
      (** dedicated processes awaiting their reserved VP; kept apart so
          finding one is O(1), not a scan of the whole process table *)
  vps : vp array;
  mutable free_vps : int list;  (** shared idle VPs, lowest id first *)
  mutable next_pid : int;
  mutable next_chan : int;
  mutable trace : (int * string) list;  (** reversed *)
  mutable trace_enabled : bool;
  mutable faults : Multics_fault.Fault.Injector.t option;
  mutable scheduler : scheduler;
}

exception Process_crashed
(* An injected crash: delivered at a compute point, caught by the
   process handler like any other body exception, so the victim is
   terminated and its failure recorded — never silently continued. *)

(* Effects understood by the scheduler.  The payload of [Block] also
   names the blocking process so the handler needn't look it up. *)
type _ Effect.t += Compute : int -> unit Effect.t | Block_on : chan -> unit Effect.t

(* The seed traffic controller: one FIFO ready queue, every process
   run until it blocks. *)
let fifo () =
  let ready = ref Multics_util.Fqueue.empty in
  {
    sched_enqueue = (fun pid -> ready := Multics_util.Fqueue.push !ready pid);
    sched_select =
      (fun ~vp:_ ->
        match Multics_util.Fqueue.pop !ready with
        | Some (pid, rest) ->
            ready := rest;
            Some pid
        | None -> None);
    sched_quantum = (fun _ -> None);
    sched_quantum_expired = (fun _ ~preempted:_ -> ());
    sched_blocked = ignore;
    sched_retired = ignore;
    sched_backlog = (fun () -> Multics_util.Fqueue.length !ready);
  }

let create ~cost ~virtual_processors =
  if virtual_processors <= 0 then invalid_arg "Sim.create: need at least one virtual processor";
  {
    clock = Clock.create ();
    cost;
    events = Event_queue.create ();
    procs = Hashtbl.create 64;
    ready_dedicated = Multics_util.Fqueue.empty;
    vps = Array.init virtual_processors (fun vp_id -> { vp_id; current = None; reserved = false });
    free_vps = List.init virtual_processors (fun i -> i);
    next_pid = 1;
    next_chan = 1;
    trace = [];
    trace_enabled = false;
    faults = None;
    scheduler = fifo ();
  }

let set_faults t injector = t.faults <- injector

let fault_injector t = t.faults

let set_scheduler t scheduler = t.scheduler <- scheduler

let now t = Clock.now t.clock

let cost_model t = t.cost

let set_trace t enabled = t.trace_enabled <- enabled

let trace t message =
  if t.trace_enabled then t.trace <- (now t, message) :: t.trace

let tracef t fmt = Format.kasprintf (trace t) fmt

let trace_lines t = List.rev t.trace

(* ----- Channels ----- *)

let new_channel t ~name =
  let chan_id = t.next_chan in
  t.next_chan <- chan_id + 1;
  { chan_id; chan_name = name; waiters = Multics_util.Fqueue.empty; pending = 0 }

let waiter_count c = Multics_util.Fqueue.length c.waiters

let pending_wakeups c = c.pending

(* ----- Process table ----- *)

let proc t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Sim: unknown pid %d" pid)

let name_of t pid = (proc t pid).pname
let state_of t pid = (proc t pid).state
let cycles_of t pid = (proc t pid).cycles_used
let perturbations_of t pid = (proc t pid).perturbation_count
let failure_of t pid = (proc t pid).failure
let exit_channel t pid = (proc t pid).exit_chan

let processes t =
  Hashtbl.fold (fun pid _ acc -> pid :: acc) t.procs [] |> List.sort Int.compare

(* ----- Layer 2: binding processes to virtual processors ----- *)

let bind_to_vp t p vp =
  vp.current <- Some p.pid;
  p.state <- Running;
  (* A fresh quantum per dispatch; dedicated kernel processes run
     unclocked. *)
  p.quantum_left <- (if p.dedicated_vp = None then t.scheduler.sched_quantum p.pid else None);
  let start_time = now t + t.cost.Cost.process_switch in
  let event = match p.cont with None -> Start p.pid | Some _ -> Resume p.pid in
  Event_queue.push t.events ~time:start_time event

let rec dispatch t =
  match p_dedicated_waiting t with
  | Some (p, vp) ->
      bind_to_vp t p vp;
      dispatch t
  | None -> (
      match t.free_vps with
      | [] -> ()
      | vp_id :: vps -> (
          (* Only asked with a VP in hand: selection dequeues. *)
          match t.scheduler.sched_select ~vp:vp_id with
          | None -> ()
          | Some pid ->
              let p = proc t pid in
              (* A woken process may have terminated meanwhile only via
                 simulator misuse; states here are Ready by construction. *)
              t.free_vps <- vps;
              bind_to_vp t p t.vps.(vp_id);
              dispatch t))

(* Dedicated processes bypass the shared ready queue: their VP is
   reserved for them alone, so a ready dedicated process binds
   immediately — its VP cannot be held by anyone else. *)
and p_dedicated_waiting t =
  match Multics_util.Fqueue.pop t.ready_dedicated with
  | None -> None
  | Some (pid, rest) -> (
      t.ready_dedicated <- rest;
      let p = proc t pid in
      match p.dedicated_vp with
      | Some vp_id when p.state = Ready && t.vps.(vp_id).current = None ->
          Some (p, t.vps.(vp_id))
      | _ -> p_dedicated_waiting t (* stale entry *))

let make_ready t p =
  p.state <- Ready;
  (match p.dedicated_vp with
  | Some _ -> t.ready_dedicated <- Multics_util.Fqueue.push t.ready_dedicated p.pid
  | None -> t.scheduler.sched_enqueue p.pid);
  dispatch t

let release_vp t p =
  Array.iter
    (fun vp ->
      if vp.current = Some p.pid then begin
        vp.current <- None;
        if not vp.reserved then t.free_vps <- List.sort Int.compare (vp.vp_id :: t.free_vps)
      end)
    t.vps;
  dispatch t

(* ----- Spawning ----- *)

let spawn ?(ring = Ring.user) ?(dedicated = false) t ~name body =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let dedicated_vp =
    if not dedicated then None
    else begin
      match t.free_vps with
      | [] -> invalid_arg "Sim.spawn: no free virtual processor to dedicate"
      | vp_id :: rest ->
          t.free_vps <- rest;
          t.vps.(vp_id).reserved <- true;
          Some vp_id
    end
  in
  let p =
    {
      pid;
      pname = name;
      ring;
      body;
      dedicated_vp;
      exit_chan = new_channel t ~name:(Printf.sprintf "exit.%s" name);
      state = Unborn;
      cont = None;
      cycles_used = 0;
      extra_delay = 0;
      perturbation_count = 0;
      failure = None;
      compute_left = 0;
      slice = 0;
      quantum_left = None;
    }
  in
  Hashtbl.replace t.procs pid p;
  tracef t "spawn %s (pid %d)%s" name pid (if dedicated then " [dedicated vp]" else "");
  make_ready t p;
  pid

(* ----- Wakeups ----- *)

let rec wakeup t chan =
  Obs.Counter.incr (obs_wakeups_sent ());
  match Multics_util.Fqueue.pop chan.waiters with
  | Some (pid, rest) ->
      chan.waiters <- rest;
      Obs.Counter.incr (obs_wakeups_delivered ());
      tracef t "wakeup %s -> %s" chan.chan_name (name_of t pid);
      make_ready t (proc t pid)
  | None ->
      chan.pending <- chan.pending + 1;
      Obs.Counter.incr (obs_wakeups_queued ());
      tracef t "wakeup %s (pending)" chan.chan_name

and broadcast t chan =
  if waiter_count chan > 0 then begin
    wakeup t chan;
    broadcast t chan
  end

(* ----- Effects available inside process bodies ----- *)

let compute cycles =
  if cycles < 0 then invalid_arg "Sim.compute: negative cycles";
  if cycles > 0 then Effect.perform (Compute cycles)

let block chan = Effect.perform (Block_on chan)

(* ----- Execution engine ----- *)

(* Cut the owed compute into slices no longer than the remaining
   quantum.  The continuation stays parked in [cont] until the final
   slice lands with the quantum intact. *)
let schedule_slice t p =
  let chunk =
    match p.quantum_left with
    | Some q when q < p.compute_left -> max 1 q
    | _ -> p.compute_left
  in
  p.slice <- chunk;
  Event_queue.push t.events ~time:(now t + chunk) (Slice p.pid)

let terminate t p =
  p.state <- Terminated;
  p.cont <- None;
  p.compute_left <- 0;
  tracef t "exit %s" p.pname;
  if p.dedicated_vp = None then t.scheduler.sched_retired p.pid;
  broadcast t p.exit_chan;
  release_vp t p

let handler_for t p : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> terminate t p);
    exnc =
      (fun exn ->
        p.failure <- Some (Printexc.to_string exn);
        tracef t "fault in %s: %s" p.pname (Printexc.to_string exn);
        terminate t p);
    effc =
      (fun (type c) (eff : c Effect.t) ->
        match eff with
        | Compute cycles ->
            Some
              (fun (k : (c, unit) Effect.Deep.continuation) ->
                p.cycles_used <- p.cycles_used + cycles;
                match t.faults with
                | Some inj
                  when Multics_fault.Fault.Injector.fire inj Multics_fault.Fault.Proc_crash ->
                    (* The crash lands at the compute point: the body
                       sees Process_crashed, the handler records the
                       failure and terminates the process. *)
                    Effect.Deep.discontinue k Process_crashed
                | _ ->
                    p.cont <- Some k;
                    p.compute_left <- cycles;
                    schedule_slice t p)
        | Block_on chan ->
            Some
              (fun (k : (c, unit) Effect.Deep.continuation) ->
                Obs.Counter.incr (obs_blocks ());
                if chan.pending > 0 then begin
                  (* A counted wakeup already arrived: block returns at
                     once, exactly as in the Multics IPC. *)
                  chan.pending <- chan.pending - 1;
                  Obs.Counter.incr (obs_wakeups_consumed ());
                  Effect.Deep.continue k ()
                end
                else begin
                  p.state <- Blocked chan;
                  p.cont <- Some k;
                  chan.waiters <- Multics_util.Fqueue.push chan.waiters p.pid;
                  tracef t "%s blocks on %s" p.pname chan.chan_name;
                  if p.dedicated_vp = None then t.scheduler.sched_blocked p.pid;
                  release_vp t p
                end)
        | _ -> None);
  }

let start_process t p = Effect.Deep.match_with (fun () -> p.body p.pid) () (handler_for t p)

let resume_process t p =
  match p.cont with
  | None -> ()
  | Some k ->
      (* Inline interrupt handling steals victim cycles: consume any
         accumulated perturbation before the process continues. *)
      if p.extra_delay > 0 then begin
        let delay = p.extra_delay in
        p.extra_delay <- 0;
        p.cycles_used <- p.cycles_used + delay;
        Event_queue.push t.events ~time:(now t + delay) (Resume p.pid)
      end
      else if p.compute_left > 0 then
        (* Rebound after a preemption: burn the owed cycles in fresh
           quantum slices before the body continues. *)
        schedule_slice t p
      else begin
        p.cont <- None;
        Effect.Deep.continue k ()
      end

(* The quantum ran out with compute still owed: unbind the processor
   and hand the process back to the traffic controller.  The
   continuation stays parked; only timing changes, never results. *)
let preempt t p =
  tracef t "preempt %s (%d cycles owed)" p.pname p.compute_left;
  p.state <- Ready;
  if p.dedicated_vp = None then t.scheduler.sched_enqueue p.pid;
  release_vp t p

let slice_done t p =
  if p.state = Running then begin
    p.compute_left <- p.compute_left - p.slice;
    (match p.quantum_left with
    | Some q -> p.quantum_left <- Some (q - p.slice)
    | None -> ());
    let expired = match p.quantum_left with Some q -> q <= 0 | None -> false in
    if expired then begin
      if p.dedicated_vp = None then
        t.scheduler.sched_quantum_expired p.pid ~preempted:(p.compute_left > 0)
    end;
    if p.compute_left > 0 then preempt t p else resume_process t p
  end

(* Charge [cycles] to a process from outside (inline interrupt
   discipline).  Takes effect when the process next resumes. *)
let perturb t pid cycles =
  let p = proc t pid in
  if p.state <> Terminated then begin
    p.extra_delay <- p.extra_delay + cycles;
    p.perturbation_count <- p.perturbation_count + 1
  end

let running_pids t =
  Array.to_list t.vps
  |> List.filter_map (fun vp -> vp.current)
  |> List.sort Int.compare

(* ----- External events ----- *)

let at t ~delay thunk =
  if delay < 0 then invalid_arg "Sim.at: negative delay";
  Event_queue.push t.events ~time:(now t + delay) (Thunk thunk)

(* ----- Main loop ----- *)

(* The pure transition function: one event applied against the
   simulator state at its firing time.  [step]/[run]/[run_until] are
   drivers — pop, apply, repeat — and stay the only places that touch
   the event queue, so an external driver (the model checker) can
   replay a recorded schedule through exactly the code the kernel
   runs, with no second interpretation of what an event means. *)
let apply t ~time event =
  Clock.advance_to t.clock time;
  match event with
  | Start pid -> start_process t (proc t pid)
  | Resume pid -> resume_process t (proc t pid)
  | Slice pid -> slice_done t (proc t pid)
  | Thunk thunk -> thunk ()

let step t =
  match Event_queue.pop t.events with
  | None -> false
  | Some (time, event) ->
      apply t ~time event;
      true

(* The livelock guard: no run the simulator makes comes near it. *)
let max_events = 10_000_000

let run t =
  let rec loop remaining =
    if remaining = 0 then failwith "Sim.run: event budget exhausted (livelock?)"
    else if step t then loop (remaining - 1)
  in
  loop max_events

let run_until t ~time =
  let rec loop () =
    match Event_queue.peek_time t.events with
    | Some next when next <= time ->
        ignore (step t);
        loop ()
    | Some _ | None -> Clock.advance_to t.clock time
  in
  loop ()

let blocked_pids t =
  Hashtbl.fold
    (fun pid p acc -> match p.state with Blocked _ -> pid :: acc | _ -> acc)
    t.procs []
  |> List.sort Int.compare

let reschedule t = dispatch t

let quiescent t = Event_queue.is_empty t.events && t.scheduler.sched_backlog () = 0
