(* The backup daemon.

   "Internal I/O functions (for managing the virtual memory, performing
   backup, and loading the system) would still be managed in the
   kernel."  Backup is another of the kernel mechanisms the paper's
   process redesign turns into a dedicated asynchronous process: it
   runs on its own virtual processor, sweeps the modified core pages to
   tape on a fixed period, and coordinates with everything else through
   ordinary wakeups — no special hooks in the fault path. *)

open Multics_mm
open Multics_proc
module Obs = Multics_obs.Obs

let obs_sweeps = Obs.Local.counter "backup.sweeps"
let obs_pages = Obs.Local.counter "backup.pages"
let obs_tape_errors = Obs.Local.counter "backup.tape_errors"
let obs_tape_giveups = Obs.Local.counter "backup.tape_giveups"
type error = Bad_period of int | Bad_sweeps of int

let pp_error ppf = function
  | Bad_period period -> Fmt.pf ppf "backup: period must be positive (got %d)" period
  | Bad_sweeps sweeps -> Fmt.pf ppf "backup: need at least one sweep (got %d)" sweeps

(* A tape write error is retried with doubled cost up to this many
   total attempts; a page whose writes all fail stays dirty — still
   vulnerable, to be caught by the next sweep. *)
let tape_attempt_cap = 3

(* Cycles to copy one page to tape on the first attempt. *)
let tape_cost_per_page = 12_000

type t = {
  sim : Sim.t;
  mem : Memory.t;
  period : int;  (** cycles between sweeps *)
  sweeps_wanted : int;
  kick : Sim.chan;
  mutable pid : Sim.pid option;
  mutable sweeps_done : int;
  mutable pages_backed_up : int;
  mutable tape_errors : int;
  mutable tape_giveups : int;
  mutable faults : Multics_fault.Fault.Injector.t option;
  mutable trace : (int * int) list;  (** (time, pages this sweep), reversed *)
}

let set_faults t faults = t.faults <- faults

(* Write one page to tape, retrying transient tape errors with doubled
   cost.  Returns true if the copy completed within the attempt cap. *)
let write_to_tape t =
  let rec attempt i =
    Sim.compute (tape_cost_per_page * (1 lsl (i - 1)));
    let failed =
      match t.faults with
      | None -> false
      | Some inj -> Multics_fault.Fault.Injector.fire inj Multics_fault.Fault.Backup_tape
    in
    if not failed then true
    else begin
      t.tape_errors <- t.tape_errors + 1;
      Obs.Counter.incr (obs_tape_errors ());
      (match t.faults with
      | Some inj -> Multics_fault.Fault.Injector.count_retry inj Multics_fault.Fault.Backup_tape
      | None -> ());
      if i >= tape_attempt_cap then begin
        t.tape_giveups <- t.tape_giveups + 1;
        Obs.Counter.incr (obs_tape_giveups ());
        (match t.faults with
        | Some inj -> Multics_fault.Fault.Injector.count_giveup inj Multics_fault.Fault.Backup_tape
        | None -> ());
        false
      end
      else attempt (i + 1)
    end
  in
  attempt 1

let daemon_body t _pid =
  for _ = 1 to t.sweeps_wanted do
    Sim.block t.kick;
    (* Sweep: copy every modified core page to tape and mark it
       clean.  The page stays where it is; backup reads it in place.
       A page whose tape writes all fail is left dirty — fail-secure
       means it stays counted as vulnerable, never silently "backed". *)
    let backed_this_sweep = ref 0 in
    List.iter
      (fun page ->
        match Memory.frame_usage t.mem page with
        | Some (_, true) ->
            if write_to_tape t then begin
              (* The tape copy is complete: the page is clean now. *)
              Memory.clean t.mem page;
              incr backed_this_sweep;
              t.pages_backed_up <- t.pages_backed_up + 1;
              Obs.Counter.incr (obs_pages ())
            end
        | Some (_, false) | None -> ())
      (Memory.core_residents t.mem);
    t.sweeps_done <- t.sweeps_done + 1;
    Obs.Counter.incr (obs_sweeps ());
    t.trace <- (Sim.now t.sim, !backed_this_sweep) :: t.trace
  done

let start ?faults ~period ~sweeps sim ~mem =
  if period <= 0 then Error (Bad_period period)
  else if sweeps <= 0 then Error (Bad_sweeps sweeps)
  else begin
    let t =
      {
        sim;
        mem;
        period;
        sweeps_wanted = sweeps;
        kick = Sim.new_channel sim ~name:"backup.kick";
        pid = None;
        sweeps_done = 0;
        pages_backed_up = 0;
        tape_errors = 0;
        tape_giveups = 0;
        faults;
        trace = [];
      }
    in
    t.pid <-
      Some
        (Sim.spawn sim ~dedicated:true ~ring:Multics_machine.Ring.kernel ~name:"backup-daemon"
           (daemon_body t));
    (* The period clock: one wakeup per sweep. *)
    for i = 1 to sweeps do
      Sim.at sim ~delay:(i * period) (fun () -> Sim.wakeup sim t.kick)
    done;
    Ok t
  end

let start_exn ?faults ~period ~sweeps sim ~mem =
  match start ?faults ~period ~sweeps sim ~mem with
  | Ok t -> t
  | Error e -> invalid_arg (Fmt.str "%a" pp_error e)

let pid t = t.pid
let sweeps_done t = t.sweeps_done
let pages_backed_up t = t.pages_backed_up
let tape_errors t = t.tape_errors
let tape_giveups t = t.tape_giveups

let sweep_trace t = List.rev t.trace

(* A page is vulnerable if modified and not yet backed up; after a
   sweep completes, nothing swept remains vulnerable. *)
let vulnerable_pages t =
  List.filter
    (fun page -> match Memory.frame_usage t.mem page with Some (_, true) -> true | _ -> false)
    (Memory.core_residents t.mem)
