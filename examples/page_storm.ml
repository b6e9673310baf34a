(* Page storm: the parallel page-control machinery under load, with the
   dedicated kernel processes visible in the trace.

     dune exec examples/page_storm.exe
*)

open Multics_mm
open Multics_proc
open Multics_vm

let run ~discipline ~trace =
  let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:5 in
  Sim.set_trace sim trace;
  let mem = Memory.create ~cost:Multics_machine.Cost.h6180 ~core:6 ~bulk:10 ~disk:128 in
  let pc = Page_control.create sim ~mem ~discipline in
  Page_control.start pc;
  for w = 1 to 3 do
    ignore
      (Sim.spawn sim
         ~name:(Printf.sprintf "editor%d" w)
         (fun pid ->
           (* Each "editor" cycles over a working set bigger than its
              share of core, computing between references. *)
           for sweep = 1 to 2 do
             for page_no = 0 to 5 do
               let page = Page_id.make ~seg_uid:w ~page_no in
               ignore (Page_control.reference pc ~pid ~page ~write:(sweep = 2));
               Sim.compute 15_000
             done
           done))
  done;
  Sim.run sim;
  (sim, pc)

let () =
  print_endline "Page-fault storm: 3 editors, 6 core frames, 18-page working set.";
  print_endline "\n--- Old design: sequential page control in the faulting process ---";
  let _sim_seq, pc_seq = run ~discipline:Page_control.Sequential ~trace:false in
  let s = Page_control.summarize pc_seq in
  Printf.printf "faults=%d  latency(mean=%.0f p90=%.0f)  cascaded-in-faulter=%d deep=%d\n"
    s.Page_control.fault_total s.Page_control.latency.Multics_util.Stats.mean
    s.Page_control.latency.Multics_util.Stats.p90 s.Page_control.cascaded_faults
    s.Page_control.deep_cascade_faults;

  print_endline "\n--- New design: dedicated core-freeing and bulk-freeing processes ---";
  let sim, pc = run ~discipline:Page_control.Parallel_processes ~trace:true in
  let s = Page_control.summarize pc in
  Printf.printf "faults=%d  latency(mean=%.0f p90=%.0f)  cascaded-in-faulter=%d deep=%d\n"
    s.Page_control.fault_total s.Page_control.latency.Multics_util.Stats.mean
    s.Page_control.latency.Multics_util.Stats.p90 s.Page_control.cascaded_faults
    s.Page_control.deep_cascade_faults;
  Printf.printf "evictions by kernel processes: core->bulk=%d bulk->disk=%d\n"
    s.Page_control.core_to_bulk s.Page_control.bulk_to_disk;

  print_endline "\nTrace excerpt (the dedicated processes at work):";
  let interesting line =
    let contains s sub =
      let sl = String.length s and bl = String.length sub in
      let rec go i = i + bl <= sl && (String.sub s i bl = sub || go (i + 1)) in
      go 0
    in
    contains line "freer" || contains line "pc."
  in
  Sim.trace_lines sim
  |> List.filter (fun (_, line) -> interesting line)
  |> List.filteri (fun i _ -> i < 14)
  |> List.iter (fun (time, line) -> Printf.printf "  [%8d] %s\n" time line);

  print_endline "\nThe faulting editors never execute the eviction cascade themselves:";
  Printf.printf "  fault path steps: mean %.2f, max %.0f (sequential design reached %.0f)\n"
    s.Page_control.steps.Multics_util.Stats.mean s.Page_control.steps.Multics_util.Stats.max
    (Page_control.summarize pc_seq).Page_control.steps.Multics_util.Stats.max
