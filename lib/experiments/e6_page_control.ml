(* E6 — page control, sequential vs parallel kernel processes.

   "The path taken by a user process on a page fault is greatly
   simplified.  This process can just wait until a primary memory block
   is free and then initiate the transfer of the desired page into
   primary memory.  The overall structure looks as though it will be
   much simpler than that currently employed."

   Workload: P user processes each walking a working set larger than
   core, so every fault contends for frames and the eviction machinery
   runs continuously. *)

open Multics_mm
open Multics_proc
open Multics_vm

let id = "E6"

let title = "Page-fault handling: sequential cascade vs dedicated freeing processes"

let paper_claim =
  "with the current design this complex series of steps occurs sequentially ... in the \
   process which took the page fault; the new scheme involving multiple dedicated \
   processes is much simpler, and the fault path of the user process is greatly simplified"

type row = {
  scenario : string;
  discipline : string;
  faults : int;
  mean_latency : float;
  p90_latency : float;
  mean_steps : float;
  max_steps : float;
  cascaded : int;  (** faults whose own process ran the eviction *)
  deep_cascades : int;
  kernel_process_evictions : int;  (** evictions done by the dedicated processes *)
}

(* User processes share TWO virtual processors (a two-processor 6180);
   under the parallel discipline the freeing processes get their own
   dedicated VPs on top, per the paper's design.  Under the sequential
   discipline the eviction cascades compete with user computation for
   the same two processors — which is exactly the structural point. *)
let run_storm ?(think = 24_000) ~core ~bulk ~discipline ~processes ~pages_per_process ~sweeps ()
    =
  let shared_vps = 2 in
  let vps =
    match discipline with
    | Page_control.Sequential -> shared_vps
    | Page_control.Parallel_processes -> shared_vps + 2
  in
  let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:vps in
  let mem = Multics_mm.Memory.create ~cost:Multics_machine.Cost.h6180 ~core ~bulk ~disk:512 in
  let pc = Page_control.create ~core_target:3 sim ~mem ~discipline in
  Page_control.start pc;
  for w = 1 to processes do
    ignore
      (Sim.spawn sim
         ~name:(Printf.sprintf "user%d" w)
         (fun pid ->
           for _sweep = 1 to sweeps do
             for page_no = 0 to pages_per_process - 1 do
               let page = Page_id.make ~seg_uid:w ~page_no in
               ignore (Page_control.reference pc ~pid ~page ~write:(page_no mod 3 = 0));
               (* Computation between references: the room the dedicated
                  freeing processes use to run ahead of demand. *)
               Sim.compute think
             done
           done))
  done;
  Sim.run sim;
  (sim, pc)

(* Two memory scenarios:
   - "tight": bulk store smaller than the working set, so the full
     core -> bulk -> disk cascade appears (the structure the paper's
     quoted paragraph walks through);
   - "provisioned": a bulk store that holds the working set, the normal
     operating point, where the dedicated processes hide eviction work
     from the fault path. *)
let scenarios = [ ("tight", 8, 12); ("provisioned", 16, 96) ]

let measure ?(processes = 4) ?(pages_per_process = 10) ?(sweeps = 3) () =
  List.concat_map
    (fun (scenario, core, bulk) ->
      List.map
        (fun discipline ->
          let _sim, pc =
            run_storm ~core ~bulk ~discipline ~processes ~pages_per_process ~sweeps ()
          in
          let s = Page_control.summarize pc in
          let freer_evictions =
            match discipline with
            | Page_control.Parallel_processes ->
                s.Page_control.core_to_bulk + s.Page_control.bulk_to_disk
            | Page_control.Sequential -> 0
          in
          {
            scenario;
            discipline = Page_control.discipline_name discipline;
            faults = s.Page_control.fault_total;
            mean_latency = s.Page_control.latency.Multics_util.Stats.mean;
            p90_latency = s.Page_control.latency.Multics_util.Stats.p90;
            mean_steps = s.Page_control.steps.Multics_util.Stats.mean;
            max_steps = s.Page_control.steps.Multics_util.Stats.max;
            cascaded = s.Page_control.cascaded_faults;
            deep_cascades = s.Page_control.deep_cascade_faults;
            kernel_process_evictions = freer_evictions;
          })
        [ Page_control.Sequential; Page_control.Parallel_processes ])
    scenarios

let table () =
  let open Multics_util.Table in
  let t =
    create
      ~title:(Printf.sprintf "%s: %s" id title)
      ~columns:
        [
          ("memory", Left);
          ("discipline", Left);
          ("faults", Right);
          ("latency mean", Right);
          ("latency p90", Right);
          ("steps mean", Right);
          ("steps max", Right);
          ("cascaded in faulter", Right);
          ("deep cascades", Right);
          ("freer evictions", Right);
        ]
  in
  List.iter
    (fun r ->
      add_row t
        [
          r.scenario;
          r.discipline;
          string_of_int r.faults;
          fmt_float r.mean_latency;
          fmt_float r.p90_latency;
          fmt_float ~decimals:2 r.mean_steps;
          fmt_float ~decimals:0 r.max_steps;
          string_of_int r.cascaded;
          string_of_int r.deep_cascades;
          string_of_int r.kernel_process_evictions;
        ])
    (measure ());
  t

let render () = Multics_util.Table.render (table ())
