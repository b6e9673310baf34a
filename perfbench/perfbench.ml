(* The benchmark's entry point: one workload, one seed, untraced (end-to-end
   metrics) or traced (per-layer metrics).

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]

   Human-readable lines come first; the last line of standard output is
   one JSON object with the keys correct, attempted, failed and
   metrics. *)

let workloads = [ "gate_mix"; "revoke_churn"; "timeshare"; "mc_explore" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload (gate_mix|revoke_churn|timeshare|mc_explore) --seed N \
     --seconds S --trace 0|1 [--out-dir DIR]";
  exit 2

let parse argv =
  let rec go acc = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get name = match List.assoc_opt name args with Some v -> v | None -> usage () in
  let int name = match int_of_string_opt (get name) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  ( workload,
    int "seed",
    float_of_int seconds,
    trace = 1,
    Option.value ~default:".bench_out" (List.assoc_opt "out-dir" args) )

(* The pinned environment, printed with every result.  The MULTICS_*
   variables below would otherwise size the domain pool, the SMP plant
   and the site fleet; every workload passes its sizes explicitly. *)
let environment workload =
  let pinned =
    match workload with
    | "gate_mix" -> "cpus=1 sites=0 jobs=1"
    | "revoke_churn" -> "cpus=4 sites=0 jobs=1"
    | "timeshare" -> "cpus=1 sites=0 jobs=1"
    | _ -> "cpus=2 (the checker's plant) sites=0 jobs=1"
  in
  let inherited =
    List.map
      (fun v -> Printf.sprintf "%s=%s" v (Option.value ~default:"unset" (Sys.getenv_opt v)))
      [ "MULTICS_JOBS"; "MULTICS_NCPU"; "MULTICS_SITES" ]
  in
  Printf.sprintf "env: nproc=%d ocaml=%s pinned: %s (inherited, ignored: %s)"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version pinned (String.concat " " inherited)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let result_json (r : Report.t) =
  let metrics =
    List.map
      (fun (name, value, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit_)
      r.Report.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.Report.failed = 0) r.Report.attempted r.Report.failed (String.concat ", " metrics)

let () =
  let workload, seed, seconds, traced, out_dir = parse Sys.argv in
  let trace_path () =
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.jsonl" workload seed)
  in
  let result =
    match (workload, traced) with
    | "gate_mix", false -> Dispatch.run Population.Gate_mix ~seed ~seconds
    | "revoke_churn", false -> Dispatch.run Population.Revoke_churn ~seed ~seconds
    | "timeshare", false -> Batch.timeshare ~seed ~seconds
    | "mc_explore", false -> Batch.mc_explore ~seconds
    | "gate_mix", true -> Dispatch.traced Population.Gate_mix ~seed ~trace_path:(trace_path ())
    | "revoke_churn", true ->
        Dispatch.traced Population.Revoke_churn ~seed ~trace_path:(trace_path ())
    | "timeshare", true -> Batch.timeshare_traced ~seed ~trace_path:(trace_path ())
    | _, true -> Batch.mc_traced ~seed ~trace_path:(trace_path ())
    | _ -> usage ()
  in
  print_endline (environment workload);
  print_endline
    "not measured by any workload: lib/site fleets, lib/par above one domain, fault plans, \
     specialisation masks";
  Printf.printf "workload %s seed %d %s: %d attempted, %d failed\n" workload seed
    (if traced then "traced" else "untraced")
    result.Report.attempted result.Report.failed;
  List.iter print_endline result.Report.notes;
  List.iter
    (fun (name, value, unit_) -> Printf.printf "  %-28s %16.4f %s\n" name value unit_)
    result.Report.metrics;
  if traced then Printf.printf "trace written to %s\n" (trace_path ());
  print_endline (result_json result)
