(* Tests for Multics_vm page control under both disciplines, and for
   the interrupt disciplines in Multics_proc. *)

open Multics_mm
open Multics_proc
open Multics_vm
module Smp = Multics_smp.Smp
module Cost = Multics_machine.Cost

let setup ?(core = 4) ?(bulk = 6) ?(disk = 40) ?(vps = 6) ?plant discipline =
  let sim = Sim.create ~cost:Cost.h6180 ~virtual_processors:vps in
  let mem = Memory.create ~cost:Cost.h6180 ~core ~bulk ~disk in
  let pc = Page_control.create ?plant sim ~mem ~discipline in
  Page_control.start pc;
  (sim, mem, pc)

let page seg n = Page_id.make ~seg_uid:seg ~page_no:n

let test_hit_costs_no_fault () =
  let sim, mem, pc = setup Page_control.Sequential in
  (match Memory.place mem (page 1 0) ~level:Level.Core with Ok _ -> () | Error _ -> assert false);
  let steps = ref (-1) in
  ignore
    (Sim.spawn sim ~name:"toucher" (fun pid -> steps := Page_control.reference pc ~pid ~page:(page 1 0)));
  Sim.run sim;
  Alcotest.(check int) "no steps on hit" 0 !steps;
  Alcotest.(check int) "no fault recorded" 0 (Page_control.fault_count pc)

let test_zero_fill_fault () =
  let sim, mem, pc = setup Page_control.Sequential in
  ignore (Sim.spawn sim ~name:"toucher" (fun pid -> ignore (Page_control.reference pc ~pid ~page:(page 1 0))));
  Sim.run sim;
  Alcotest.(check int) "one fault" 1 (Page_control.fault_count pc);
  match Memory.location mem (page 1 0) with
  | Some b -> Alcotest.(check string) "in core" "core" (Level.name (Block.level b))
  | None -> Alcotest.fail "page not placed"

let test_sequential_cascade () =
  (* Core 2, bulk 1: the third and later faults must evict, and once
     bulk fills the cascade must reach the disk. *)
  let sim, mem, pc = setup ~core:2 ~bulk:1 ~disk:10 Page_control.Sequential in
  ignore
    (Sim.spawn sim ~name:"storm" (fun pid ->
         for i = 0 to 5 do
           ignore (Page_control.reference pc ~pid ~page:(page 1 i))
         done));
  Sim.run sim;
  let s = Page_control.summarize pc in
  Alcotest.(check int) "six faults" 6 s.Page_control.fault_total;
  Alcotest.(check bool) "cascades happened" true (s.Page_control.cascaded_faults > 0);
  Alcotest.(check bool) "deep cascades happened" true (s.Page_control.deep_cascade_faults > 0);
  Alcotest.(check bool) "conservation" true (Memory.check_conservation mem)

let test_parallel_fault_storm () =
  let sim, mem, pc = setup ~core:4 ~bulk:4 ~disk:60 ~vps:8 Page_control.Parallel_processes in
  for w = 1 to 3 do
    ignore
      (Sim.spawn sim
         ~name:(Printf.sprintf "faulter%d" w)
         (fun pid ->
           for i = 0 to 7 do
             ignore (Page_control.reference pc ~pid ~page:(page w i))
           done))
  done;
  Sim.run sim;
  let s = Page_control.summarize pc in
  Alcotest.(check int) "24 faults" 24 s.Page_control.fault_total;
  Alcotest.(check bool) "conservation" true (Memory.check_conservation mem);
  (* No user process may be left blocked: the freers must have kept
     frames coming. *)
  let stuck =
    List.filter
      (fun pid ->
        match Sim.state_of sim pid with Sim.Blocked _ -> Sim.name_of sim pid <> "pc.core-freer" && Sim.name_of sim pid <> "pc.bulk-freer" | _ -> false)
      (Sim.processes sim)
  in
  Alcotest.(check (list int)) "no stuck faulters" [] stuck

let test_parallel_fault_path_simpler () =
  (* The paper's claim: under the parallel discipline the faulting
     process never runs the eviction cascade itself. *)
  let run discipline =
    let sim, _mem, pc = setup ~core:3 ~bulk:2 ~disk:60 ~vps:8 discipline in
    ignore
      (Sim.spawn sim ~name:"faulter" (fun pid ->
           for i = 0 to 11 do
             ignore (Page_control.reference pc ~pid ~page:(page 9 i))
           done));
    Sim.run sim;
    Page_control.summarize pc
  in
  let seq = run Page_control.Sequential in
  let par = run Page_control.Parallel_processes in
  Alcotest.(check bool) "sequential cascades in faulting process" true
    (seq.Page_control.cascaded_faults > 0);
  Alcotest.(check int) "parallel: faulting process never cascades" 0
    par.Page_control.cascaded_faults;
  Alcotest.(check int) "parallel: never deep-cascades" 0 par.Page_control.deep_cascade_faults

let test_second_chance_prefers_unused () =
  let sim, mem, pc = setup ~core:2 ~bulk:4 ~disk:10 Page_control.Sequential in
  ignore
    (Sim.spawn sim ~name:"w" (fun pid ->
         ignore (Page_control.reference pc ~pid ~page:(page 1 0));
         ignore (Page_control.reference pc ~pid ~page:(page 1 1));
         (* Re-touch page 0 so its used bit is set, then clear page 1's
            bit by sweeping: fault in page 2 and check the victim. *)
         ignore (Page_control.reference pc ~pid ~page:(page 1 0));
         Memory.clear_used mem (page 1 1);
         ignore (Page_control.reference pc ~pid ~page:(page 1 2))));
  Sim.run sim;
  (* Page 1 (unused) should have been evicted, page 0 (used) kept. *)
  (match Memory.location mem (page 1 0) with
  | Some b -> Alcotest.(check string) "used page kept in core" "core" (Level.name (Block.level b))
  | None -> Alcotest.fail "page 0 lost");
  match Memory.location mem (page 1 1) with
  | Some b -> Alcotest.(check string) "unused page evicted" "bulk" (Level.name (Block.level b))
  | None -> Alcotest.fail "page 1 lost"

let test_malicious_policy_denial_only () =
  (* A policy that refuses to pick victims causes denial of use (the
     faulting process eventually fails to progress) but cannot corrupt
     memory: conservation still holds.  Sequential discipline would
     livelock, so use parallel and bound the run. *)
  let sim, mem, pc = setup ~core:2 ~bulk:4 ~disk:10 ~vps:4 Page_control.Parallel_processes in
  Page_control.set_victim_policy pc (fun _ _ -> None);
  let progressed = ref 0 in
  ignore
    (Sim.spawn sim ~name:"victim-user" (fun pid ->
         for i = 0 to 5 do
           ignore (Page_control.reference pc ~pid ~page:(page 3 i));
           incr progressed
         done));
  Sim.run_until sim ~time:2_000_000;
  Alcotest.(check bool) "progress stalled (denial of use)" true (!progressed < 6);
  Alcotest.(check bool) "memory integrity intact" true (Memory.check_conservation mem)

let test_interrupt_inline_perturbs_victim () =
  let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:2 in
  let ic = Interrupt.create sim ~discipline:Interrupt.Inline in
  Interrupt.register ic ~name:"tty" ~service_cycles:2_000;
  let victim = Sim.spawn sim ~name:"victim" (fun _ -> Sim.compute 50_000) in
  for i = 1 to 5 do
    Interrupt.post ic ~delay:(5_000 * i) ~name:"tty"
  done;
  Sim.run sim;
  let s = Interrupt.stats_of ic ~name:"tty" in
  Alcotest.(check int) "all handled" 5 s.Interrupt.handled;
  Alcotest.(check int) "victim hit each time" 5 s.Interrupt.victim_hits;
  Alcotest.(check bool) "victim cycles stolen" true (Sim.cycles_of sim victim > 50_000);
  Alcotest.(check bool) "privileged work in borrowed context" true
    (s.Interrupt.borrowed_privileged_cycles > 0)

let test_interrupt_process_discipline_clean () =
  let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:3 in
  let ic = Interrupt.create sim ~discipline:Interrupt.Handler_processes in
  Interrupt.register ic ~name:"tty" ~service_cycles:2_000;
  let victim = Sim.spawn sim ~name:"victim" (fun _ -> Sim.compute 50_000) in
  for i = 1 to 5 do
    Interrupt.post ic ~delay:(5_000 * i) ~name:"tty"
  done;
  Sim.run sim;
  let s = Interrupt.stats_of ic ~name:"tty" in
  Alcotest.(check int) "all handled" 5 s.Interrupt.handled;
  Alcotest.(check int) "victim untouched" 0 s.Interrupt.victim_hits;
  Alcotest.(check int) "victim cycles exact" 50_000 (Sim.cycles_of sim victim);
  Alcotest.(check int) "no borrowed privileged work" 0 s.Interrupt.borrowed_privileged_cycles

let test_interrupt_action_runs () =
  let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:3 in
  let ic = Interrupt.create sim ~discipline:Interrupt.Handler_processes in
  let fired = ref 0 in
  Interrupt.register ic ~name:"disk" ~service_cycles:100 ~action:(fun () -> incr fired);
  Interrupt.post ic ~delay:10 ~name:"disk";
  Interrupt.post ic ~delay:20 ~name:"disk";
  Sim.run sim;
  Alcotest.(check int) "actions ran" 2 !fired

let test_interrupt_duplicate_rejected () =
  let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:2 in
  let ic = Interrupt.create sim ~discipline:Interrupt.Inline in
  Interrupt.register ic ~name:"tape" ~service_cycles:10;
  Alcotest.(check bool) "duplicate rejected" true
    (try
       Interrupt.register ic ~name:"tape" ~service_cycles:10;
       false
     with Invalid_argument _ -> true)

(* Property: random fault workloads preserve memory conservation under
   both disciplines and never lose a page. *)
let storm_conservation_prop =
  let gen = QCheck.Gen.(pair bool (list_size (int_range 1 60) (int_range 0 19))) in
  QCheck.Test.make ~name:"fault storms preserve conservation" ~count:40 (QCheck.make gen)
    (fun (parallel, refs) ->
      let discipline =
        if parallel then Page_control.Parallel_processes else Page_control.Sequential
      in
      let sim, mem, pc = setup ~core:3 ~bulk:3 ~disk:64 ~vps:6 discipline in
      ignore
        (Sim.spawn sim ~name:"storm" (fun pid ->
             List.iter (fun i -> ignore (Page_control.reference pc ~pid ~page:(page 7 i))) refs));
      Sim.run sim;
      Memory.check_conservation mem)

let suite =
  [
    ("hit costs no fault", `Quick, test_hit_costs_no_fault);
    ("zero fill fault", `Quick, test_zero_fill_fault);
    ("sequential cascade", `Quick, test_sequential_cascade);
    ("parallel fault storm", `Quick, test_parallel_fault_storm);
    ("parallel path simpler", `Quick, test_parallel_fault_path_simpler);
    ("second chance prefers unused", `Quick, test_second_chance_prefers_unused);
    ("malicious policy denies only", `Quick, test_malicious_policy_denial_only);
    ("interrupt inline perturbs", `Quick, test_interrupt_inline_perturbs_victim);
    ("interrupt process clean", `Quick, test_interrupt_process_discipline_clean);
    ("interrupt action runs", `Quick, test_interrupt_action_runs);
    ("interrupt duplicate rejected", `Quick, test_interrupt_duplicate_rejected);
    QCheck_alcotest.to_alcotest storm_conservation_prop;
  ]

(* ----- The backup daemon ----- *)

let test_backup_sweeps_modified_pages () =
  let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:4 in
  let mem = Memory.create ~cost:Multics_machine.Cost.h6180 ~core:8 ~bulk:8 ~disk:16 in
  (* Six resident pages, four of them dirtied. *)
  for i = 0 to 5 do
    match Memory.place mem (page 1 i) ~level:Level.Core with
    | Ok _ -> if i < 4 then Memory.dirty mem (page 1 i)
    | Error e -> Alcotest.fail (Memory.error_to_string e)
  done;
  let daemon = Backup.start_exn ~period:50_000 ~sweeps:2 sim ~mem in
  Alcotest.(check int) "four vulnerable before" 4 (List.length (Backup.vulnerable_pages daemon));
  Sim.run sim;
  Alcotest.(check int) "two sweeps ran" 2 (Backup.sweeps_done daemon);
  Alcotest.(check int) "four pages backed up" 4 (Backup.pages_backed_up daemon);
  Alcotest.(check int) "none vulnerable after" 0 (List.length (Backup.vulnerable_pages daemon));
  Alcotest.(check bool) "conservation" true (Memory.check_conservation mem)

let test_backup_catches_new_dirt () =
  (* Pages dirtied between sweeps are caught by the next sweep. *)
  let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:4 in
  let mem = Memory.create ~cost:Multics_machine.Cost.h6180 ~core:8 ~bulk:8 ~disk:16 in
  (match Memory.place mem (page 2 0) ~level:Level.Core with
  | Ok _ -> Memory.dirty mem (page 2 0)
  | Error e -> Alcotest.fail (Memory.error_to_string e));
  let daemon = Backup.start_exn ~period:10_000 ~sweeps:3 sim ~mem in
  (* Dirty a second page between the second and third sweeps. *)
  Sim.at sim ~delay:25_000 (fun () ->
      match Memory.place mem (page 2 1) ~level:Level.Core with
      | Ok _ -> Memory.dirty mem (page 2 1)
      | Error _ -> ());
  Sim.run sim;
  Alcotest.(check int) "both pages eventually backed" 2 (Backup.pages_backed_up daemon);
  let per_sweep = List.map snd (Backup.sweep_trace daemon) in
  Alcotest.(check (list int)) "sweep profile" [ 1; 0; 1 ] per_sweep

let test_backup_rejects_bad_args () =
  let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:2 in
  let mem = Memory.create ~cost:Multics_machine.Cost.h6180 ~core:2 ~bulk:2 ~disk:4 in
  (match Backup.start ~period:0 ~sweeps:1 sim ~mem with
  | Error (Backup.Bad_period 0) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Backup.pp_error e
  | Ok _ -> Alcotest.fail "zero period accepted");
  (match Backup.start ~period:10 ~sweeps:0 sim ~mem with
  | Error (Backup.Bad_sweeps 0) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Backup.pp_error e
  | Ok _ -> Alcotest.fail "zero sweeps accepted");
  Alcotest.(check bool) "start_exn still raises" true
    (try
       ignore (Backup.start_exn ~period:0 ~sweeps:1 sim ~mem);
       false
     with Invalid_argument _ -> true)

let backup_suite =
  [
    ("backup sweeps modified pages", `Quick, test_backup_sweeps_modified_pages);
    ("backup catches new dirt", `Quick, test_backup_catches_new_dirt);
    ("backup rejects bad args", `Quick, test_backup_rejects_bad_args);
  ]

(* ----- Page-table words on the plant -----

   Each CPU's PTW memory is the one place a page-table word is cached:
   page control's references run on the plant's current CPU. *)

let two_cpus () = Smp.create ~ncpus:2 ~cost:Cost.h6180 ()

let test_one_cpu_plant_costs_as_cpu_0 () =
  (* The same references — walks, hits, faults and evictions — cost the
     same on page control's own one-CPU plant as on CPU 0 of a 2-CPU
     plant. *)
  let run plant =
    let sim, mem, pc = setup ~core:3 ~bulk:2 ~disk:40 ?plant Page_control.Sequential in
    (match Memory.place mem (page 2 0) ~level:Level.Core with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Memory.error_to_string e));
    ignore
      (Sim.spawn sim ~name:"w" (fun pid ->
           List.iter
             (fun (seg, n) -> ignore (Page_control.reference pc ~pid ~page:(page seg n)))
             [ (2, 0); (2, 0); (1, 0); (1, 1); (1, 0); (1, 2); (1, 3); (1, 0); (2, 0); (1, 1) ]));
    Sim.run sim;
    let latency (f : Page_control.fault_record) = f.latency in
    (Sim.now sim, List.map latency (Page_control.faults pc))
  in
  let plant = two_cpus () in
  Smp.set_current plant 0;
  let one_clock, one_faults = run None and two_clock, two_faults = run (Some plant) in
  Alcotest.(check int) "same clock" one_clock two_clock;
  Alcotest.(check (list int)) "same faults" one_faults two_faults;
  Alcotest.(check bool) "faults happened" true (List.length one_faults >= 4)

let test_each_cpu_walks_its_own_table () =
  let plant = two_cpus () in
  let sim, _mem, pc = setup ~plant Page_control.Sequential in
  let p = page 1 0 in
  let costs = ref [] in
  ignore
    (Sim.spawn sim ~name:"w" (fun pid ->
         let timed () =
           let t0 = Sim.now sim in
           ignore (Page_control.reference pc ~pid ~page:p);
           costs := (Sim.now sim - t0) :: !costs
         in
         Smp.set_current plant 0;
         ignore (Page_control.reference pc ~pid ~page:p);
         timed ();
         Smp.set_current plant 1;
         timed ();
         timed ()));
  Sim.run sim;
  let c = Cost.h6180 in
  Alcotest.(check (list int))
    "CPU 0 hits; CPU 1 walks once, then hits"
    [ c.Cost.memory_reference; c.Cost.memory_reference + c.Cost.ptw_fetch; c.Cost.memory_reference ]
    (List.rev !costs);
  Alcotest.(check int) "one fault" 1 (Page_control.fault_count pc)

let test_eviction_revokes_every_cpu () =
  (* Warm p on both CPUs, then evict it from CPU 0's references with a
     tight core: CPU 1's next reference must fault, not hit. *)
  let plant = two_cpus () in
  let sim, _mem, pc = setup ~core:2 ~bulk:4 ~disk:40 ~plant Page_control.Sequential in
  let p = page 1 0 in
  Page_control.set_victim_policy pc (fun residents _ ->
      match residents with
      | _ when List.mem p residents -> Some p
      | q :: _ -> Some q
      | [] -> None);
  let held = ref [] and steps = ref (-1) in
  ignore
    (Sim.spawn sim ~name:"w" (fun pid ->
         let on cpu pg =
           Smp.set_current plant cpu;
           Page_control.reference pc ~pid ~page:pg
         in
         ignore (on 0 p);
         ignore (on 1 p);
         ignore (on 0 (page 1 1));
         ignore (on 0 (page 1 2));
         held := List.map (fun cpu -> List.length (Smp.ptw_keys plant ~cpu)) [ 0; 1 ];
         steps := on 1 p));
  Sim.run sim;
  Alcotest.(check (list int)) "after p's eviction: CPU 0 holds its two new pages, CPU 1 nothing"
    [ 2; 0 ] !held;
  Alcotest.(check bool) "CPU 1's next reference faults" true (!steps > 0);
  Alcotest.(check int) "four faults" 4 (Page_control.fault_count pc)

let test_blocked_fault_installs_where_it_began () =
  (* A reference on CPU 0 faults into a full core and blocks for a
     frame; meanwhile another process moves the plant to CPU 1.  The
     PTW the fault installs is CPU 0's.  (The core freer keeps two
     frames free, evicting the unused pages placed here before the
     faulter's own.) *)
  let plant = two_cpus () in
  let sim, mem, pc = setup ~core:4 ~bulk:6 ~disk:40 ~plant Page_control.Parallel_processes in
  List.iter
    (fun n ->
      match Memory.place mem (page 9 n) ~level:Level.Core with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Memory.error_to_string e))
    [ 0; 1; 2; 3 ];
  let faulter =
    Sim.spawn sim ~name:"faulter" (fun pid ->
        Smp.set_current plant 0;
        ignore (Page_control.reference pc ~pid ~page:(page 1 0)))
  in
  let moved = ref false in
  ignore
    (Sim.spawn sim ~name:"mover" (fun _ ->
         let rec wait n =
           match Sim.state_of sim faulter with
           | Sim.Blocked _ ->
               Smp.set_current plant 1;
               moved := true
           | _ ->
               if n > 0 then begin
                 Sim.compute 10;
                 wait (n - 1)
               end
         in
         wait 10_000));
  Sim.run sim;
  Alcotest.(check bool) "the faulter blocked and the plant moved to CPU 1" true
    (!moved && Smp.current plant = 1);
  Alcotest.(check (list int)) "the PTW is on CPU 0 alone" [ 1; 0 ]
    (List.map (fun cpu -> List.length (Smp.ptw_keys plant ~cpu)) [ 0; 1 ])

let plant_suite =
  [
    ("one-CPU plant costs as CPU 0 of two", `Quick, test_one_cpu_plant_costs_as_cpu_0);
    ("each CPU walks its own page table", `Quick, test_each_cpu_walks_its_own_table);
    ("eviction revokes the PTW on every CPU", `Quick, test_eviction_revokes_every_cpu);
    ("blocked fault installs where it began", `Quick, test_blocked_fault_installs_where_it_began);
  ]
