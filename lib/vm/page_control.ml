(* Page control: moving pages among the three memory levels.

   Two disciplines, from the paper:

   - [Sequential] (the old design): "this complex series of steps
     occurs sequentially with page control executing in the process
     which took the page fault".  On a fault with no free core block
     the faulting process itself evicts a core page to the bulk store,
     first evicting a bulk page to disk if the bulk store is full too —
     the full cascade, charged to the faulting process.

   - [Parallel_processes] (the new design): one dedicated kernel
     process "runs in a loop making sure that some small number of free
     primary memory blocks always exist"; a second keeps space free on
     the bulk store and "is driven ... by the primary memory freeing
     process".  The faulting process "can just wait until a primary
     memory block is free and then initiate the transfer of the desired
     page into primary memory".

   Victim selection is a second-chance clock over the used bits — the
   mechanism half of page removal.  The policy half can be overridden
   (experiment E9 injects malicious policies through the kernel's
   policy/mechanism gate layer).

   A reference runs on a CPU of a plant ([Multics_smp.Smp]; a fresh
   one-CPU plant unless the caller supplies one), and that CPU's PTW
   associative memory is the one place a page-table word is cached. *)

open Multics_mm
open Multics_proc
module Obs = Multics_obs.Obs
module Sid = Multics_access.Sid
module Smp = Multics_smp.Smp

(* Observability: page control's counters land in the global registry,
   where the shell's [stats] command and the experiment [--stats]
   snapshots can see them next to the gate and IPC numbers. *)
let obs_faults = Obs.Local.counter "vm.faults"
let obs_zero_fills = Obs.Local.counter "vm.zero_fills"
let obs_page_ins = Obs.Local.counter "vm.page_ins"
let obs_core_to_bulk = Obs.Local.counter "vm.evictions.core_to_bulk"
let obs_bulk_to_disk = Obs.Local.counter "vm.evictions.bulk_to_disk"
let obs_cascaded = Obs.Local.counter "vm.faults.cascaded"
let obs_freer_wakeups = Obs.Local.counter "vm.freer.wakeups"
let obs_frame_waits = Obs.Local.counter "vm.faults.frame_waits"
let obs_fault_latency = Obs.Local.histogram "vm.fault.latency_cycles"
type discipline = Sequential | Parallel_processes

let discipline_name = function
  | Sequential -> "sequential"
  | Parallel_processes -> "parallel-processes"

type fault_record = {
  pid : Sim.pid;
  page : Page_id.t;
  latency : int;  (** cycles from fault to page-in completion *)
  steps : int;  (** distinct page-control steps run in the faulting process *)
  cascaded : bool;  (** the faulting process had to free core itself *)
  deep_cascade : bool;  (** ... and had to free bulk store too *)
}

type victim_policy = Page_id.t list -> (Page_id.t * bool) list -> Page_id.t option
(** Given core residents (rotation order) and their (page, used-bit)
    pairs, choose an eviction victim.  The default is second-chance. *)

type t = {
  sim : Sim.t;
  mem : Memory.t;
  discipline : discipline;
  core_target : int;  (** parallel: keep at least this many core frames free *)
  frame_avail : Sim.chan;  (** one wakeup per frame freed by the core freer *)
  core_kick : Sim.chan;
  bulk_kick : Sim.chan;
  bulk_avail : Sim.chan;
  mutable victim_policy : victim_policy;
  mutable clock_hand : int;
  mutable faults : fault_record list;  (** reversed *)
  mutable core_freer_pid : Sim.pid option;
  mutable bulk_freer_pid : Sim.pid option;
  mutable fault_inj : Multics_fault.Fault.Injector.t option;
  mutable page_ins : int;
  mutable core_to_bulk : int;
  mutable bulk_to_disk : int;
  (* The CPUs references run on.  Each CPU's PTW memory holds pages it
     knows core-resident, so a repeat reference skips the page-table
     walk ([Cost.ptw_fetch]).  Sound because the only paths that move a
     page out of core — the eviction pushes below — revoke the victim's
     entry on every CPU in the same step. *)
  plant : Smp.t;
  (* The memories are keyed by dense page SIDs, not hashed page ids: a
     page id is interned once (on its first reference), and its SID
     picks its slot. *)
  page_sids : Page_id.t Sid.Map.t;
}

(* The page's dense SID — interned on first sight, stable for the
   instance's lifetime (SIDs are never reused). *)
let page_sid t page = Sid.Map.intern t.page_sids page

(* Injected storage faults follow one fail-secure rule: a fault costs a
   wasted device attempt (charged to whoever runs the step) and is then
   retried unconditionally — the retry never re-consults the plan, so
   an every:1 schedule slows the system down but cannot livelock it,
   and no fault ever changes what a process is allowed to touch. *)
let fire t site =
  match t.fault_inj with
  | None -> false
  | Some inj -> Multics_fault.Fault.Injector.fire inj site

let note_retry t site =
  match t.fault_inj with
  | None -> ()
  | Some inj -> Multics_fault.Fault.Injector.count_retry inj site

(* ----- Victim selection (mechanism) ----- *)

(* The second-chance clock: sweep from the hand; a used page the hand
   passes loses its bit (its second chance) and survives; the first
   unused page is the victim.  Only pages the hand actually passes are
   cleared — the sweep is what ages the usage information. *)
let default_policy t : victim_policy =
 fun residents usage ->
  let n = List.length residents in
  if n = 0 then None
  else begin
    let arr = Array.of_list residents in
    let used = Array.of_list (List.map (fun page -> try List.assoc page usage with Not_found -> false) residents) in
    let start = t.clock_hand mod n in
    let rec sweep i =
      if i >= 2 * n then Some arr.(start) (* everything used twice over: take the oldest *)
      else begin
        let idx = (start + i) mod n in
        if used.(idx) then begin
          used.(idx) <- false;
          Memory.clear_used t.mem arr.(idx);
          sweep (i + 1)
        end
        else begin
          t.clock_hand <- idx + 1;
          Some arr.(idx)
        end
      end
    in
    sweep 0
  end

(* Parallel: the bulk-store freer keeps at least this many bulk frames
   free. *)
let bulk_target = 2

(* Cycles to clear a fresh page on its first fault. *)
let zero_fill_cycles = 300

let create ?(core_target = 2) ?faults ?plant sim ~mem ~discipline =
  let plant =
    match plant with Some p -> p | None -> Smp.create ~ncpus:1 ~cost:(Sim.cost_model sim) ()
  in
  let t =
    {
      sim;
      mem;
      discipline;
      core_target;
      frame_avail = Sim.new_channel sim ~name:"pc.frame_avail";
      core_kick = Sim.new_channel sim ~name:"pc.core_kick";
      bulk_kick = Sim.new_channel sim ~name:"pc.bulk_kick";
      bulk_avail = Sim.new_channel sim ~name:"pc.bulk_avail";
      victim_policy = (fun _ _ -> None);
      clock_hand = 0;
      faults = [];
      core_freer_pid = None;
      bulk_freer_pid = None;
      fault_inj = faults;
      page_ins = 0;
      core_to_bulk = 0;
      bulk_to_disk = 0;
      plant;
      page_sids = Sid.Map.create ~hash:Page_id.hash ~equal:Page_id.equal ();
    }
  in
  t.victim_policy <- default_policy t;
  t

let set_victim_policy t policy = t.victim_policy <- policy

let set_faults t faults = t.fault_inj <- faults

let memory t = t.mem

(* ----- Shared mechanics ----- *)

let core_usage t =
  List.map
    (fun page ->
      match Memory.frame_usage t.mem page with
      | Some (used, _) -> (page, used)
      | None -> (page, false))
    (Memory.core_residents t.mem)

let choose_core_victim t =
  let residents = Memory.core_residents t.mem in
  t.victim_policy residents (core_usage t)

(* Oldest-first is fine for the bulk store: no usage bits there. *)
let choose_bulk_victim t =
  match Memory.residents t.mem Level.Bulk with [] -> None | page :: _ -> Some page

(* Free one bulk block by pushing a bulk page to disk.  Returns the
   cycle cost incurred. *)
let push_bulk_page_to_disk t =
  match choose_bulk_victim t with
  | None -> 0
  | Some victim -> (
      match Memory.transfer t.mem victim ~dest:Level.Disk with
      | Ok (_, cost) ->
          t.bulk_to_disk <- t.bulk_to_disk + 1;
          Obs.Counter.incr (obs_bulk_to_disk ());
          (* Write parity error on the disk copy: the page is written
             again; the first (bad) attempt is pure wasted cost. *)
          let cost =
            if fire t Multics_fault.Fault.Page_write then begin
              note_retry t Multics_fault.Fault.Page_write;
              2 * cost
            end
            else cost
          in
          cost
      | Error _ -> 0)

(* Free one core frame by pushing a core page to the bulk store,
   cascading to disk if the bulk store is full.  Returns (cost,
   deep_cascade). *)
let push_core_page_to_bulk t =
  let cascade_cost = if Memory.free_count t.mem Level.Bulk = 0 then push_bulk_page_to_disk t else 0 in
  match choose_core_victim t with
  | None -> (cascade_cost, cascade_cost > 0)
  | Some victim -> (
      match Memory.transfer t.mem victim ~dest:Level.Bulk with
      | Ok (_, cost) ->
          (* The victim leaves core: its PTW dies on every CPU now, not
             when someone notices. *)
          Smp.ptw_invalidate t.plant ~page:(page_sid t victim);
          t.core_to_bulk <- t.core_to_bulk + 1;
          Obs.Counter.incr (obs_core_to_bulk ());
          (* Eviction failure: the bulk-store write is lost and redone
             once, unconditionally — retries never re-consult the plan. *)
          let cost =
            if fire t Multics_fault.Fault.Evict then begin
              note_retry t Multics_fault.Fault.Evict;
              2 * cost
            end
            else cost
          in
          (cascade_cost + cost, cascade_cost > 0)
      | Error _ -> (cascade_cost, cascade_cost > 0))

(* Bring [page] into core, charging the fault-taking process.  The
   caller guarantees a free frame may exist; on a lost race the caller
   retries.  Returns true on success. *)
let page_in t page =
  match Memory.location t.mem page with
  | None -> (
      (* First touch: a zero page needs only a frame and a clear. *)
      match Memory.place t.mem page ~level:Level.Core with
      | Ok _ ->
          Sim.compute zero_fill_cycles;
          Obs.Counter.incr (obs_zero_fills ());
          true
      | Error _ -> false)
  | Some block when Level.equal (Block.level block) Level.Core -> true
  | Some _ -> (
      match Memory.transfer t.mem page ~dest:Level.Core with
      | Ok (_, cost) ->
          (* Read parity error on the incoming copy: the faulting
             process pays for the bad read, then the re-read succeeds. *)
          if fire t Multics_fault.Fault.Page_read then begin
            note_retry t Multics_fault.Fault.Page_read;
            Sim.compute cost
          end;
          Sim.compute cost;
          t.page_ins <- t.page_ins + 1;
          Obs.Counter.incr (obs_page_ins ());
          true
      | Error _ -> false)

(* ----- The dedicated kernel processes (parallel discipline) ----- *)

let core_freer_body t _pid =
  let rec loop () =
    Sim.block t.core_kick;
    let rec top_up () =
      if Memory.free_count t.mem Level.Core < t.core_target then begin
        if Memory.free_count t.mem Level.Bulk = 0 then begin
          (* Drive the bulk freeing process and wait for space. *)
          Sim.wakeup t.sim t.bulk_kick;
          Sim.block t.bulk_avail
        end;
        let cost, _ = push_core_page_to_bulk t in
        if cost > 0 then begin
          Sim.compute cost;
          Sim.wakeup t.sim t.frame_avail;
          top_up ()
        end
        (* cost = 0: nothing evictable (core empty or race); stop. *)
      end
    in
    top_up ();
    loop ()
  in
  loop ()

let bulk_freer_body t _pid =
  let rec loop () =
    Sim.block t.bulk_kick;
    let rec top_up () =
      if Memory.free_count t.mem Level.Bulk < bulk_target then begin
        let cost = push_bulk_page_to_disk t in
        if cost > 0 then begin
          Sim.compute cost;
          top_up ()
        end
      end
    in
    top_up ();
    (* Always answer the kick, even when nothing could be pushed, so
       the core freer never waits forever on a hopeless bulk store. *)
    Sim.wakeup t.sim t.bulk_avail;
    loop ()
  in
  loop ()

let start t =
  match t.discipline with
  | Sequential -> ()
  | Parallel_processes ->
      if t.core_freer_pid = None then begin
        t.core_freer_pid <-
          Some
            (Sim.spawn t.sim ~dedicated:true ~ring:Multics_machine.Ring.kernel
               ~name:"pc.core-freer" (core_freer_body t));
        t.bulk_freer_pid <-
          Some
            (Sim.spawn t.sim ~dedicated:true ~ring:Multics_machine.Ring.kernel
               ~name:"pc.bulk-freer" (bulk_freer_body t))
      end

let core_freer_pid t = t.core_freer_pid
let bulk_freer_pid t = t.bulk_freer_pid

(* ----- The fault path ----- *)

let record_fault t record =
  t.faults <- record :: t.faults;
  if Obs.enabled () then begin
    Obs.Counter.incr (obs_faults ());
    Obs.Histogram.observe (obs_fault_latency ()) record.latency;
    if record.cascaded then Obs.Counter.incr (obs_cascaded ())
  end

(* Reference a page from a running process.  Returns the number of
   page-control steps the faulting process itself executed (0 when the
   page was already in core).  The reference runs on the plant's
   current CPU, read once here: a fault can block, and while it does
   another process's dispatch moves [current], but the walk and the
   PTW it installs belong to the CPU where the reference began. *)
let reference ?(write = false) t ~pid ~page =
  let cost = Sim.cost_model t.sim in
  let cpu = Smp.current t.plant in
  let resident_in_core () =
    match Memory.location t.mem page with
    | Some block -> Level.equal (Block.level block) Level.Core
    | None -> false
  in
  let sid = page_sid t page in
  if Smp.ptw_lookup t.plant ~cpu ~page:sid then begin
    (* PTW hit: this CPU's memory vouches for core residency, so the
       reference costs only the access itself — no page-table walk. *)
    Sim.compute cost.Multics_machine.Cost.memory_reference;
    if write then Memory.dirty t.mem page else Memory.touch t.mem page;
    0
  end
  else if resident_in_core () then begin
    (* Resident, but not in this CPU's memory: walk the page table and
       install the PTW, as the 6180 does on an associative miss. *)
    Sim.compute
      (cost.Multics_machine.Cost.memory_reference + cost.Multics_machine.Cost.ptw_fetch);
    Smp.ptw_install t.plant ~cpu ~page:sid;
    if write then Memory.dirty t.mem page else Memory.touch t.mem page;
    0
  end
  else begin
    let started = Sim.now t.sim in
    Sim.compute cost.Multics_machine.Cost.fault_overhead;
    let steps = ref 1 in
    let cascaded = ref false in
    let deep = ref false in
    let rec settle () =
      if Memory.free_count t.mem Level.Core = 0 then begin
        (match t.discipline with
        | Sequential ->
            (* The faulting process runs the whole cascade itself. *)
            let move_cost, was_deep = push_core_page_to_bulk t in
            cascaded := true;
            if was_deep then deep := true;
            incr steps;
            if move_cost > 0 then Sim.compute move_cost
        | Parallel_processes ->
            (* Just wait for the core freeing process. *)
            Obs.Counter.incr (obs_freer_wakeups ());
            Obs.Counter.incr (obs_frame_waits ());
            Sim.wakeup t.sim t.core_kick;
            Sim.block t.frame_avail;
            incr steps);
        settle ()
      end
      else if page_in t page then ()
      else settle () (* lost the free frame to a racing faulter *)
    in
    settle ();
    Smp.ptw_install t.plant ~cpu ~page:sid;
    if write then Memory.dirty t.mem page else Memory.touch t.mem page;
    (* Keep the freer running ahead of demand. *)
    (match t.discipline with
    | Parallel_processes ->
        if Memory.free_count t.mem Level.Core < t.core_target then begin
          Obs.Counter.incr (obs_freer_wakeups ());
          Sim.wakeup t.sim t.core_kick
        end
    | Sequential -> ());
    incr steps;
    record_fault t
      {
        pid;
        page;
        latency = Sim.now t.sim - started;
        steps = !steps;
        cascaded = !cascaded;
        deep_cascade = !deep;
      };
    !steps
  end

(* ----- Reporting ----- *)

let faults t = List.rev t.faults

let fault_count t = List.length t.faults

type summary = {
  discipline : discipline;
  fault_total : int;
  latency : Multics_util.Stats.summary;
  steps : Multics_util.Stats.summary;
  cascaded_faults : int;
  deep_cascade_faults : int;
  page_ins : int;
  core_to_bulk : int;
  bulk_to_disk : int;
}

let summarize t =
  let fs = faults t in
  {
    discipline = t.discipline;
    fault_total = List.length fs;
    latency = Multics_util.Stats.summarize_ints (List.map (fun (f : fault_record) -> f.latency) fs);
    steps = Multics_util.Stats.summarize_ints (List.map (fun (f : fault_record) -> f.steps) fs);
    cascaded_faults = List.length (List.filter (fun f -> f.cascaded) fs);
    deep_cascade_faults = List.length (List.filter (fun f -> f.deep_cascade) fs);
    page_ins = t.page_ins;
    core_to_bulk = t.core_to_bulk;
    bulk_to_disk = t.bulk_to_disk;
  }
