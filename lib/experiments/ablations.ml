(* Ablations: the design choices DESIGN.md calls out, varied one at a
   time.

   A1 — eviction policy (the policy half of the E9 partition): the
        second-chance clock against FIFO and random choice, on a
        hot/cold working set;
   A2 — layer-1 sizing: the fixed virtual-processor pool against a
        compute-bound process population;
   A3 — the core free-frame watermark the dedicated freeing process
        maintains: too low and faulters wait, too high and the freer
        thrashes pages out that are still wanted. *)

open Multics_mm
open Multics_proc
open Multics_vm

(* ----- A1: eviction policy ----- *)

module A1 = struct
  let id = "A1"

  let title = "Ablation: eviction policy (second-chance vs FIFO vs random)"

  let paper_claim =
    "the policy algorithm that decides which page to remove ... would execute in a less \
     privileged ring — making the policy replaceable; this ablation varies it"

  type row = { policy : string; faults : int; page_ins : int; latency_mean : float }

  (* "Fixed-frame": always evict whatever occupies the first frame.
     With a static working set this accidentally pins the rest of core;
     the phase change below is what exposes it. *)
  let fixed_frame_policy : Page_control.victim_policy =
   fun residents _usage -> match residents with [] -> None | page :: _ -> Some page

  let random_policy seed : Page_control.victim_policy =
    let prng = Multics_util.Prng.create ~seed in
    fun residents _usage ->
      match residents with [] -> None | _ :: _ -> Some (Multics_util.Prng.choose prng residents)

  (* A hot/cold workload with a phase change: 80% of references go to
     4 hot pages, the rest sweep 16 cold pages; halfway through, the
     hot set moves — the pattern usage bits exist to track. *)
  let run_with_policy ~name ~policy =
    let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:2 in
    let mem = Memory.create ~cost:Multics_machine.Cost.h6180 ~core:6 ~bulk:64 ~disk:256 in
    let pc = Page_control.create sim ~mem ~discipline:Page_control.Sequential in
    (match policy with Some p -> Page_control.set_victim_policy pc p | None -> ());
    Page_control.start pc;
    let prng = Multics_util.Prng.create ~seed:1975 in
    ignore
      (Sim.spawn sim ~name:"workload" (fun pid ->
           for step = 1 to 400 do
             let hot_base = if step <= 200 then 0 else 20 in
             let page_no =
               if Multics_util.Prng.chance prng ~num:4 ~den:5 then
                 hot_base + Multics_util.Prng.int prng 4
               else 4 + Multics_util.Prng.int prng 16
             in
             ignore (Page_control.reference pc ~pid ~page:(Page_id.make ~seg_uid:1 ~page_no));
             Sim.compute 500
           done));
    Sim.run sim;
    let s = Page_control.summarize pc in
    {
      policy = name;
      faults = s.Page_control.fault_total;
      page_ins = s.Page_control.page_ins;
      latency_mean = s.Page_control.latency.Multics_util.Stats.mean;
    }

  let measure () =
    [
      run_with_policy ~name:"second-chance (default)" ~policy:None;
      run_with_policy ~name:"fixed-frame" ~policy:(Some fixed_frame_policy);
      run_with_policy ~name:"random" ~policy:(Some (random_policy 42));
    ]

  let table () =
    let open Multics_util.Table in
    let t =
      create
        ~title:(Printf.sprintf "%s: %s" id title)
        ~columns:
          [ ("policy", Left); ("faults", Right); ("page-ins", Right); ("latency mean", Right) ]
    in
    List.iter
      (fun r ->
        add_row t
          [ r.policy; string_of_int r.faults; string_of_int r.page_ins; fmt_float r.latency_mean ])
      (measure ());
    t

  let render () = Multics_util.Table.render (table ())
end

(* ----- A2: virtual-processor pool size ----- *)

module A2 = struct
  let id = "A2"

  let title = "Ablation: layer-1 virtual-processor pool size"

  let paper_claim =
    "the first level multiplexes the processors into a larger fixed number of virtual \
     processors ... because the number is fixed, this layer need not depend on the virtual \
     memory — this ablation varies the fixed number"

  type row = { vps : int; makespan : int; speedup : float }

  let processes = 8

  let work_per_process = 60_000

  let run_with_vps vps =
    let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:vps in
    for i = 1 to processes do
      ignore
        (Sim.spawn sim
           ~name:(Printf.sprintf "cpu%d" i)
           (fun _ ->
             (* Compute in slices with blocking I/O pauses, the shape
                that exposes multiplexing quality. *)
             for _ = 1 to 6 do
               Sim.compute (work_per_process / 6)
             done))
    done;
    Sim.run sim;
    Sim.now sim

  let measure () =
    let base = run_with_vps 1 in
    List.map
      (fun vps ->
        let makespan = run_with_vps vps in
        { vps; makespan; speedup = float_of_int base /. float_of_int makespan })
      [ 1; 2; 4; 8; 12 ]

  let table () =
    let open Multics_util.Table in
    let t =
      create
        ~title:(Printf.sprintf "%s: %s (8 compute-bound processes)" id title)
        ~columns:[ ("virtual processors", Right); ("makespan", Right); ("speedup", Right) ]
    in
    List.iter
      (fun r -> add_row t [ string_of_int r.vps; string_of_int r.makespan; fmt_ratio r.speedup ])
      (measure ());
    t

  let render () = Multics_util.Table.render (table ())
end

(* ----- A3: the free-frame watermark ----- *)

module A3 = struct
  let id = "A3"

  let title = "Ablation: core free-frame watermark of the freeing process"

  let paper_claim =
    "one process runs in a loop making sure that some small number of free primary memory \
     blocks always exist — this ablation varies that small number"

  type row = {
    core_target : int;
    faults : int;
    latency_mean : float;
    freer_evictions : int;
  }

  let run_with_target core_target =
    let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:4 in
    let mem = Memory.create ~cost:Multics_machine.Cost.h6180 ~core:12 ~bulk:96 ~disk:256 in
    let pc = Page_control.create ~core_target sim ~mem ~discipline:Page_control.Parallel_processes in
    Page_control.start pc;
    for w = 1 to 2 do
      ignore
        (Sim.spawn sim
           ~name:(Printf.sprintf "user%d" w)
           (fun pid ->
             for _sweep = 1 to 3 do
               for page_no = 0 to 9 do
                 ignore
                   (Page_control.reference pc ~pid ~page:(Page_id.make ~seg_uid:w ~page_no));
                 Sim.compute 20_000
               done
             done))
    done;
    Sim.run sim;
    let s = Page_control.summarize pc in
    {
      core_target;
      faults = s.Page_control.fault_total;
      latency_mean = s.Page_control.latency.Multics_util.Stats.mean;
      freer_evictions = s.Page_control.core_to_bulk;
    }

  let measure () = List.map run_with_target [ 1; 2; 4; 6; 8 ]

  let table () =
    let open Multics_util.Table in
    let t =
      create
        ~title:(Printf.sprintf "%s: %s (12 core frames, 20-page demand)" id title)
        ~columns:
          [
            ("watermark", Right);
            ("faults", Right);
            ("latency mean", Right);
            ("freer evictions", Right);
          ]
    in
    List.iter
      (fun r ->
        add_row t
          [
            string_of_int r.core_target;
            string_of_int r.faults;
            fmt_float r.latency_mean;
            string_of_int r.freer_evictions;
          ])
      (measure ());
    t

  let render () = Multics_util.Table.render (table ())
end
