(* The multiprocessor plant: N simulated CPUs over the one-event-queue
   simulator.

   The paper's kernel runs on a multiprocessor 6180, and its mediation
   argument only survives that configuration because of one discipline:
   when a descriptor changes, the processor making the change clears
   its own associative memory inline and sends a connect (an
   inter-processor interrupt, the 6180's cioc instruction) to every
   other processor, then waits for each to acknowledge that it has
   cleared its associative memory too.  Only after the last
   acknowledgement does the mutating call return.  A per-CPU stale SDW
   is precisely the revocation window a security kernel must not have.

   This module gives each simulated CPU two associative memories of
   its own ([Hardware.Assoc], which clear their own slots), 16 slots of
   SDWs and 64 of PTWs, plus a shared global lock with a deterministic
   cycle-accounted contention model, and the connect protocol itself.
   It is the one place a descriptor or a page-table word is cached:
   every kernel and every page control has a plant, and a uniprocessor
   is a plant of one CPU.  Each CPU's SDW memory is tagged by (process
   handle, segment number), so a process switch needs no flush; its
   PTW memory by dense page SID.  Three invariants carry the whole
   design:

   - {b Coherence is synchronous.}  [connect_invalidate] /
     [connect_flush_all] do not return until every CPU's memories have
     been cleared.  There is no window in which a mutation
     has returned while a remote CPU can still hit a pre-mutation
     entry.

   - {b A lost connect fails secure.}  The [smp.lost_connect] fault
     site models the IPI being dropped on the wire.  The sender
     detects the missing acknowledgement by timeout, stalls, and
     re-signals; after [max_retries] losses it clears the unresponsive
     CPU's memories directly through the system controller (the rescue
     path — modelling the operator's "that CPU is sick, fence it").
     Every path ends with the target invalidated: a dropped IPI costs
     cycles, never a stale Permit.

   - {b Timing may change, results never.}  Everything here charges
     cycles (through obs instruments and the pluggable [charge]
     closure) but computes no access decision.  The mediation verdicts
     and audit digest of an N-CPU run are identical to the 1-CPU run
     by construction — experiment E18's coherence-parity oracle checks
     exactly this. *)

module Obs = Multics_obs.Obs
module Cost = Multics_machine.Cost
module Hardware = Multics_machine.Hardware
module Sdw = Multics_machine.Sdw
module Fault = Multics_fault.Fault
module Sid = Multics_access.Sid

(* CPU counts a deployment could plausibly ask for; anything else in
   MULTICS_NCPU is ignored rather than crashing the shell's boot (its
   one reader). *)
let max_cpus = 8

let default_ncpus () =
  match Sys.getenv_opt "MULTICS_NCPU" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 && n <= max_cpus -> n
      | Some _ | None -> 1)

(* ----- The global lock -----

   Early Multics serialized the traffic controller and the descriptor
   machinery on one global lock; contention for it is the first
   scaling cost a multiprocessor pays.  The model is deterministic:
   the lock remembers the cycle at which it next falls free, an
   acquirer at [now] waits out the remainder and then holds it for
   [hold] cycles.  No randomness, no wall clock — the same event order
   produces the same waits, run after run. *)
module Lock = struct
  type t = {
    name : string;
    mutable free_at : int;
    acquisitions : Obs.Counter.t;
    contended : Obs.Counter.t;
    wait_cycles : Obs.Histogram.t;
  }

  let instruments =
    Obs.Local.keyed (fun r name ->
        ( Obs.Registry.counter r (name ^ ".acquisitions"),
          Obs.Registry.counter r (name ^ ".contended"),
          Obs.Registry.histogram r (name ^ ".wait") ))

  let create ~name =
    let acquisitions, contended, wait_cycles = instruments name in
    { name; free_at = 0; acquisitions; contended; wait_cycles }

  let copy t =
    let acquisitions, contended, wait_cycles = instruments t.name in
    { name = t.name; free_at = t.free_at; acquisitions; contended; wait_cycles }

  let name t = t.name
  let free_at t = t.free_at

  (* Returns the wait in cycles; the caller charges it to whichever
     process was doing the acquiring. *)
  let acquire t ~now ~hold =
    let wait = max 0 (t.free_at - now) in
    t.free_at <- now + wait + hold;
    if Obs.enabled () then begin
      Obs.Counter.incr t.acquisitions;
      if wait > 0 then Obs.Counter.incr t.contended;
      Obs.Histogram.observe t.wait_cycles wait
    end;
    wait
end

(* ----- Per-CPU state ----- *)

type cpu = {
  id : int;
  cam : Sdw.t Hardware.Assoc.t;
      (** this CPU's SDW associative memory; keyed by the composite
          [(handle lsl segno_bits) lor segno] so entries from different
          processes' descriptor segments can never be confused *)
  ptw : unit Hardware.Assoc.t;
      (** this CPU's PTW associative memory, keyed by dense page SID:
          an entry vouches that this CPU walked the page's table while
          the page was in core, and an eviction revokes it on every
          CPU *)
  mutable connects_received : int;
}

(* What a connect asks its target to clear: the broadcast delivers it,
   and the deferred bug mode queues it as data until [deliver_connects]
   runs the same clear. *)
type connect = Inval of int  (** one CAM key *) | Flush

type t = {
  ncpus : int;
  cost : Cost.t;
  cpus : cpu array;
  mutable current : int;
  lock : Lock.t;
  mutable now : unit -> int;
  mutable faults : Fault.Injector.t option;
  mutable charge : int -> unit;
  mutable deferred_connects : bool;
      (** the pre-PR 5 bug, re-enableable for the model checker's
          seeded-bug leg: remote connects queue instead of being
          delivered synchronously, re-opening the stale-Permit
          window the connect protocol exists to close *)
  mutable pending : (int * connect) list;
      (** queued (target cpu, what it clears) in reverse arrival order *)
  connects_sent : Obs.Counter.t;
  connects_lost : Obs.Counter.t;
  connect_retries : Obs.Counter.t;
  connect_rescues : Obs.Counter.t;
  connect_cycles : Obs.Histogram.t;
}

(* The composite CAM key puts the process handle above the segment
   number's [segno_bits] bits.  Only a segment number below
   [2^segno_bits] has a key: KST numbers grow without bound and a
   request's number is the caller's, so a larger or negative one
   bypasses the CAM (fetched and checked, never installed).  Keys are
   therefore injective, and [split_cam_key] inverts [cam_key]. *)
let segno_bits = 12

let cacheable segno = segno >= 0 && segno < 1 lsl segno_bits
let cam_key ~handle ~segno = (handle lsl segno_bits) lor segno

let obs_connects_sent = Obs.Local.counter "smp.connects.sent"
let obs_connects_lost = Obs.Local.counter "smp.connects.lost"
let obs_connect_retries = Obs.Local.counter "smp.connects.retries"
let obs_connect_rescues = Obs.Local.counter "smp.connects.rescues"
let obs_connect_cycles = Obs.Local.histogram "smp.connect.cycles"

let create ~ncpus ~cost () =
  if ncpus < 1 || ncpus > max_cpus then
    invalid_arg (Printf.sprintf "Smp.create: ncpus must be in 1..%d" max_cpus);
  let make_cpu id =
    {
      id;
      cam = Hardware.Assoc.create ~slots:16 ~name:"hw.assoc";
      ptw = Hardware.Assoc.create ~slots:64 ~name:"vm.ptw";
      connects_received = 0;
    }
  in
  {
    ncpus;
    cost;
    cpus = Array.init ncpus make_cpu;
    current = 0;
    lock = Lock.create ~name:"smp.lock";
    now = (fun () -> 0);
    faults = None;
    charge = ignore;
    deferred_connects = false;
    pending = [];
    connects_sent = obs_connects_sent ();
    connects_lost = obs_connects_lost ();
    connect_retries = obs_connect_retries ();
    connect_rescues = obs_connect_rescues ();
    connect_cycles = obs_connect_cycles ();
  }

(* The clock and the cycle sink are the driver's: the copy starts with
   [create]'s, for its owner to set. *)
let copy t =
  if Option.is_some t.faults then invalid_arg "Smp.copy: a fault plan is attached";
  let copy_cpu c =
    { c with cam = Hardware.Assoc.copy c.cam; ptw = Hardware.Assoc.copy c.ptw }
  in
  {
    ncpus = t.ncpus;
    cost = t.cost;
    cpus = Array.map copy_cpu t.cpus;
    current = t.current;
    lock = Lock.copy t.lock;
    now = (fun () -> 0);
    faults = None;
    charge = ignore;
    deferred_connects = t.deferred_connects;
    pending = t.pending;
    connects_sent = obs_connects_sent ();
    connects_lost = obs_connects_lost ();
    connect_retries = obs_connect_retries ();
    connect_rescues = obs_connect_rescues ();
    connect_cycles = obs_connect_cycles ();
  }

let ncpus t = t.ncpus
let cost t = t.cost
let lock t = t.lock
let set_now t f = t.now <- f
let set_faults t inj = t.faults <- inj
let set_charge t f = t.charge <- f

let set_current t i =
  if i < 0 || i >= t.ncpus then invalid_arg "Smp.set_current: no such CPU";
  t.current <- i

let current t = t.current
let cpu_for t ~key = (key land max_int) mod t.ncpus

(* ----- The connect protocol ----- *)

(* The delivery discipline, factored out of the per-CPU broadcast so
   the inter-site fleet (lib/site) can run the identical state machine
   over lossy network links: signal, wait for the acknowledgement,
   retry on loss, and past the retry budget hand the target to an
   escalation path (the system controller here; fencing in the fleet).
   Every branch either confirms the target cleared or escalates —
   there is no exit that leaves the target possibly stale, which is
   the fail-secure shape both users need. *)
module Connect = struct
  type outcome =
    | Delivered of { attempts : int; cycles : int }
    | Escalated of { attempts : int; cycles : int }

  let cycles_of = function Delivered { cycles; _ } | Escalated { cycles; _ } -> cycles

  (* [attempt n] makes the nth signalling attempt and reports either
     [`Acked cycles] (target confirmed cleared, cost includes the
     acknowledgement) or [`Lost cycles] (no acknowledgement within the
     timeout; cost includes the wasted wait).  After [max_retries]
     losses, [escalate ()] must clear the target by other means and
     return its cycle cost. *)
  let deliver ~max_retries ~attempt ~escalate =
    let rec go n cycles =
      match attempt n with
      | `Acked c -> Delivered { attempts = n; cycles = cycles + c }
      | `Lost c ->
          let cycles = cycles + c in
          if n >= max_retries then
            Escalated { attempts = n + 1; cycles = cycles + escalate () }
          else go (n + 1) cycles
    in
    go 1 0
end

(* How long the sender waits for the acknowledgement before deciding
   the connect was lost.  A few IPI round trips: generous enough that
   a healthy CPU always acks in time, so a timeout means loss. *)
let ack_timeout cost = 4 * cost.Cost.connect_ipi

(* Losses tolerated before the rescue path fences the target. *)
let max_retries = 8

let lost_connect_fires t =
  match t.faults with
  | None -> false
  | Some inj -> Fault.Injector.fire inj Fault.Smp_lost_connect

(* What a CPU's connect-fault handler does: revoke one CAM entry, or
   flush both its memories outright. *)
let clear c = function
  | Inval key -> Hardware.Assoc.invalidate c.cam ~key
  | Flush ->
      Hardware.Assoc.flush c.cam;
      Hardware.Assoc.flush c.ptw

(* A remote CPU taking a connect: the clear, acknowledged. *)
let receive c connect =
  clear c connect;
  c.connects_received <- c.connects_received + 1

(* Broadcast a connect from the current CPU.  Returns only when every
   CPU has been cleared — synchronous coherence is the whole point.
   The accumulated cycle bill (per-target IPI + interrupt entry, plus
   stalls for lost connects, plus global-lock wait) is recorded in
   [smp.connect.cycles] and charged through the pluggable [charge]
   closure. *)
let broadcast t connect =
  let origin = t.current in
  (* The originating CPU clears inline as part of the mutation. *)
  clear t.cpus.(origin) connect;
  if t.ncpus > 1 then begin
    let cycles = ref 0 in
    Array.iter
      (fun c ->
        if c.id <> origin then begin
          Obs.Counter.incr t.connects_sent;
          if t.deferred_connects then begin
            (* Bug mode: the IPI is "sent" but delivery waits for an
               explicit [deliver_connects].  The mutating call returns
               with this CPU's associative memory possibly stale —
               exactly the window the synchronous protocol closes. *)
            t.pending <- (c.id, connect) :: t.pending;
            cycles := !cycles + t.cost.Cost.connect_ipi
          end
          else
          let outcome =
            Connect.deliver ~max_retries
              ~attempt:(fun _n ->
                if lost_connect_fires t then begin
                  (* No acknowledgement arrived: the IPI was dropped.
                     Detect by timeout, stall, re-signal.  Never
                     proceed — proceeding would leave c's associative
                     memory stale. *)
                  if Obs.enabled () then begin
                    Obs.Counter.incr t.connects_lost;
                    Obs.Counter.incr t.connect_retries
                  end;
                  `Lost (t.cost.Cost.connect_ipi + ack_timeout t.cost)
                end
                else begin
                  receive c connect;
                  `Acked (t.cost.Cost.connect_ipi + t.cost.Cost.interrupt_entry)
                end)
              ~escalate:(fun () ->
                (* Rescue: the target would not ack; clear its
                   memories directly through the system controller. *)
                Obs.Counter.incr t.connect_rescues;
                receive c connect;
                t.cost.Cost.connect_ipi + t.cost.Cost.interrupt_entry)
          in
          cycles := !cycles + Connect.cycles_of outcome
        end)
      t.cpus;
    (* Descriptor mutation serializes on the global lock for the
       duration of the broadcast. *)
    let wait = Lock.acquire t.lock ~now:(t.now ()) ~hold:!cycles in
    let total = wait + !cycles in
    Obs.Histogram.observe t.connect_cycles total;
    t.charge total
  end

(* A descriptor for (handle, segno) changed ("setfaults"): revoke that
   entry on every CPU.  The composite key makes the revocation exact —
   other processes' entries for the same segno survive.  A
   segment number with no key was never cached, so there is nothing
   to clear. *)
let connect_invalidate t ~handle ~segno =
  if cacheable segno then broadcast t (Inval (cam_key ~handle ~segno))

(* Whole-system revocation (salvage, cache clear): flush both of every
   CPU's memories outright. *)
let connect_flush_all t = broadcast t Flush

(* ----- The deferred-connect bug mode -----

   PR 5 fixed the stale-Permit window by making [broadcast]
   synchronous.  The model checker's seeded-bug leg needs the
   pre-fix behaviour back, under a switch, to demonstrate that the
   exhaustive search finds the two-action counterexample the
   100-seed oracles only trip over probabilistically. *)

let set_deferred_connects t flag =
  if not flag then begin
    (* Leaving bug mode delivers everything still queued, so the
       plant is coherent again. *)
    List.iter (fun (cpu, connect) -> receive t.cpus.(cpu) connect) (List.rev t.pending);
    t.pending <- []
  end;
  t.deferred_connects <- flag

let deferred_connects t = t.deferred_connects

let deliver_connects t ~cpu =
  let mine, rest = List.partition (fun (target, _) -> target = cpu) (List.rev t.pending) in
  List.iter (fun (_, connect) -> receive t.cpus.(cpu) connect) mine;
  t.pending <- List.rev rest;
  List.length mine

let connect_tag = function Inval key -> "inval:" ^ string_of_int key | Flush -> "flush"
let pending_connects t = List.rev_map (fun (cpu, connect) -> (cpu, connect_tag connect)) t.pending

(* ----- Read-only cache enumeration (for the model checker) ----- *)

let cam_entries t ~cpu = Hardware.Assoc.entries t.cpus.(cpu).cam

(* Both stamps only grow, so their sum stands still exactly while
   both do. *)
let fronts_stamp t ~cpu =
  let c = t.cpus.(cpu) in
  Hardware.Assoc.stamp c.cam + Hardware.Assoc.stamp c.ptw

let ptw_keys t ~cpu = List.map fst (Hardware.Assoc.entries t.cpus.(cpu).ptw)
let split_cam_key key = (key lsr segno_bits, key land ((1 lsl segno_bits) - 1))

(* ----- The per-CPU mediation fronts ----- *)

(* The current CPU's SDW associative memory in front of the KST.  A
   hit replays the cached SDW through the hardware check (brackets and
   mode are still enforced per reference — only the descriptor fetch
   is skipped); a miss fetches from the KST and installs the
   descriptor on the way back.  A segment number with no CAM key is
   fetched and checked every time.  Soundness: entries die via
   connects in the same step as any descriptor change, so the CAM can
   never replay a revoked SDW. *)
let check_sdw t ~handle ~segno ~fetch ~ring ~operation =
  if cacheable segno then
    Hardware.check_via_assoc t.cpus.(t.current).cam ~key:(cam_key ~handle ~segno) ~fetch ~ring
      ~operation
  else Option.map (fun sdw -> Hardware.check sdw ~ring ~operation) (fetch ())

(* A CPU's PTW memory in front of the page table.  Each processor has
   its own: a page CPU 0 walked is still a walk on CPU 1.  The caller
   (page control) names the CPU, so a reference that blocks in a fault
   installs on the CPU where it began, wherever [current] has moved
   meanwhile. *)
let ptw_lookup t ~cpu ~page =
  Option.is_some (Hardware.Assoc.lookup t.cpus.(cpu).ptw ~key:(Sid.to_int page))

let ptw_install t ~cpu ~page = Hardware.Assoc.install t.cpus.(cpu).ptw ~key:(Sid.to_int page) ()

(* The page left core: its PTW dies on every CPU in the same step.  No
   connect is sent and no cycle is charged. *)
let ptw_invalidate t ~page =
  let key = Sid.to_int page in
  Array.iter (fun c -> Hardware.Assoc.invalidate c.ptw ~key) t.cpus

(* ----- Dispatcher lock -----

   Per-CPU run selection contends for the same global lock as the
   connect path: picking a process off the shared ready structure
   holds it for a few queue operations' worth of references. *)
let dispatch_lock_hold cost = 20 * cost.Cost.memory_reference

let dispatch_lock t ~now = Lock.acquire t.lock ~now ~hold:(dispatch_lock_hold t.cost)

(* ----- Status ----- *)

let cam_status t =
  let cam = t.cpus.(t.current).cam in
  ("size", Hardware.Assoc.size cam) :: Hardware.Assoc.counters cam

let cpu_status t i =
  let c = t.cpus.(i) in
  [
    ("cam_size", Hardware.Assoc.size c.cam);
    ("ptw_size", Hardware.Assoc.size c.ptw);
    ("connects_received", c.connects_received);
  ]

let status t =
  let get = Obs.Counter.get in
  let global =
    [
      ("ncpus", t.ncpus);
      ("current", t.current);
      ("lock_free_at", Lock.free_at t.lock);
      ("connects.sent", get t.connects_sent);
      ("connects.lost", get t.connects_lost);
      ("connects.retries", get t.connect_retries);
      ("connects.rescues", get t.connect_rescues);
    ]
  in
  let per_cpu = List.init t.ncpus (fun i -> (i, cpu_status t i)) in
  (global, per_cpu)

let connect_cycles t = t.connect_cycles
