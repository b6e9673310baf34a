(* The full-system simulation: the security kernel (System) joined to
   the machine substrate (Sim + Memory + Page_control), with user
   programs running as simulated processes.

   Every program step is charged realistically:
   - a kernel-entering step pays the processor's cross-ring round
     trip — the quantity that differs two orders of magnitude between
     the 645 and the 6180 (experiments E4/E13);
   - a content reference pages the touched word through page control
     (faults, evictions and all);
   - a [Compute] step consumes its cycles.

   The demonstration target of the whole project lives here: "the
   security kernel so developed is capable of supporting the complete
   functionality of Multics" — the same programs run on every kernel
   configuration, only their cost and the kernel's internal structure
   change. *)

open Multics_machine
open Multics_mm
open Multics_proc
open Multics_vm

type t = {
  system : System.t;
  sim : Sim.t;
  mem : Memory.t;
  pc : Page_control.t;
  interrupts : Interrupt.t;
  cost : Cost.t;
  mutable results : (Sim.pid * string * Program.outcome) list;  (** reversed *)
  mutable gate_cycles : int;
  mutable compute_cycles : int;
  mutable kernel_entries : int;  (** actual supervisor entries (audit-derived) *)
  mutable audit_mark : int;  (** audit-log length already accounted *)
}

let boot ?(virtual_processors = 10) ?(core = 16) ?(bulk = 64) ?(disk = 1024) config =
  let system = System.create config in
  let cost = Config.cost config in
  let sim = Sim.create ~cost ~virtual_processors in
  let mem = Memory.create ~cost ~core ~bulk ~disk in
  let pc = Page_control.create sim ~mem ~discipline:config.Config.page_control in
  Page_control.start pc;
  (* The configured external devices, under the configured interrupt
     discipline.  Handler processes (if configured) each reserve a
     virtual processor, like every dedicated kernel process. *)
  let interrupts = Interrupt.create sim ~discipline:config.Config.interrupts in
  let devices =
    match config.Config.io with
    | Config.Device_drivers -> Multics_io.Device.all_legacy
    | Config.Network_only -> [ Multics_io.Device.Network_attachment ]
  in
  List.iter
    (fun device ->
      Interrupt.register interrupts ~name:(Multics_io.Device.name device)
        ~service_cycles:(Multics_io.Device.service_cycles device))
    devices;
  {
    system;
    sim;
    mem;
    pc;
    interrupts;
    cost;
    results = [];
    gate_cycles = 0;
    compute_cycles = 0;
    kernel_entries = 0;
    audit_mark = 0;
  }

let system t = t.system
let sim t = t.sim
let memory t = t.mem
let page_control t = t.pc
let interrupts t = t.interrupts

(* Deliver a device interrupt at [now + delay].  The device must be
   one of the configuration's devices — with network-only I/O external
   devices reach the system through the network attachment. *)
let post_interrupt ?(delay = 0) t ~device =
  let name =
    match ((System.config t.system).Config.io, device) with
    | Config.Network_only, _ -> Multics_io.Device.name Multics_io.Device.Network_attachment
    | Config.Device_drivers, d -> Multics_io.Device.name d
  in
  Interrupt.post ~delay t.interrupts ~name

let gate_cycles t = t.gate_cycles
let compute_cycles t = t.compute_cycles

(* Run [program] as a simulated process of the logged-in [handle].
   Returns the Sim pid; the outcome is collected when the process
   finishes (see [results]). *)
let run_user t ~handle program =
  Sim.spawn t.sim ~name:(Program.name program) (fun pid ->
      (* Absorb audit records that predate this program (logins etc.). *)
      t.audit_mark <- max t.audit_mark (Audit_log.length (System.audit t.system));
      let on_compute cycles =
        t.compute_cycles <- t.compute_cycles + cycles;
        Sim.compute cycles
      in
      let on_gate _step =
        (* Each audited record is one supervisor entry: one gate call
           plus its return.  A user-ring resolve shows up as several
           initiate entries — the footnote-7 effect E13 measures. *)
        let len = Audit_log.length (System.audit t.system) in
        let crossings = max 0 (len - t.audit_mark) in
        t.audit_mark <- len;
        t.kernel_entries <- t.kernel_entries + crossings;
        if crossings > 0 then begin
          let cycles = crossings * Cost.round_trip_call_cost t.cost ~cross_ring:true in
          t.gate_cycles <- t.gate_cycles + cycles;
          Sim.compute cycles
        end
      in
      let on_reference ~segno ~offset ~write =
        match System.proc t.system handle with
        | None -> ()
        | Some p -> (
            match Multics_fs.Kst.uid_of_segno p.System.kst segno with
            | Error _ -> ()
            | Ok uid ->
                let page =
                  Page_id.make
                    ~seg_uid:(Multics_fs.Uid.to_int uid)
                    ~page_no:(offset / Multics_fs.Hierarchy.words_per_page)
                in
                ignore (Page_control.reference t.pc ~pid ~page ~write))
      in
      let outcome = Program.run ~on_compute ~on_gate ~on_reference t.system ~handle program in
      t.results <- (pid, Program.name program, outcome) :: t.results)

let run t = Sim.run t.sim

let now t = Sim.now t.sim

let results t = List.rev t.results

let all_completed t =
  t.results <> [] && List.for_all (fun (_, _, o) -> o.Program.completed) t.results

type report = {
  elapsed : int;
  programs : int;
  programs_completed : int;
  total_gate_calls : int;
  gate_cycles_total : int;
  compute_cycles_total : int;
  page_faults : int;
  security_overhead : float;
      (** gate-crossing cycles as a fraction of all cycles consumed *)
}

let kernel_entries t = t.kernel_entries

let report t =
  let outcomes = List.map (fun (_, _, o) -> o) t.results in
  let total = t.gate_cycles + t.compute_cycles in
  {
    elapsed = now t;
    programs = List.length outcomes;
    programs_completed = List.length (List.filter (fun o -> o.Program.completed) outcomes);
    total_gate_calls = t.kernel_entries;
    gate_cycles_total = t.gate_cycles;
    compute_cycles_total = t.compute_cycles;
    page_faults = Page_control.fault_count t.pc;
    security_overhead =
      (if total = 0 then 0.0 else float_of_int t.gate_cycles /. float_of_int total);
  }
