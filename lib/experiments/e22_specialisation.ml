(* E22 — per-workload kernel specialisation: the attack-surface /
   functionality / dispatch-cost frontier.

   The paper's removal projects stripped gates for every installation
   at once (linker: 10% of entries; linker + naming: one third).  This
   experiment applies the same discipline per workload: three E17-style
   workload mixes (editor-compile interactive development, a
   wakeup-driven daemon, a minimal IPC ping) are profiled through the
   per-gate lib/obs dispatch counters, each profile is compiled into a
   specialised gate table (lib/spec) that strips every unused entry,
   and the frontier is measured:

   - attack surface: gates kept, functional and at the E12 paper scale
     (Inventory.specialised_surface);
   - functionality: which of a reference probe suite (the union of the
     mixes' gate traffic plus the network I/O gates) still succeeds;
   - dispatch cost: metered cycles per gate call under the mask;
   - security: the full E11 penetration corpus runs against every
     specialisation — stripping must never CREATE a violation, and
     stripped gates refuse with [Gate_absent] before any kernel state
     is touched;
   - equivalence: a 100-seed oracle drives identical request streams
     at a full and a specialised kernel — byte-identical responses on
     every admitted request, [Gate_absent] on every stripped one.

   Profiles round-trip through their serialisation before compilation,
   so the specialisations measured here are the replayed form. *)

open Multics_kernel
module Spec = Multics_spec.Spec
module Obs = Multics_obs.Obs
module Pentest = Multics_audit.Pentest
module Inventory = Multics_audit.Inventory
module Prng = Multics_util.Prng
module Table = Multics_util.Table

let id = "E22"

let title = "Per-workload specialisation: attack-surface/functionality/cost frontier"

let paper_claim =
  "removing supervisor entry points shrinks the surface that must be certified — the linker \
   removal eliminated 10% of the gates, linker plus naming one third; specialising the gate \
   table to an observed workload continues the same curve without changing any decision the \
   kernel makes on the requests it still admits"

let config = Config.kernel_6180

(* ----- A booted development system ----- *)

type env = {
  system : System.t;
  handle : int;
  home : int;  (* >udd>Dev>Alice *)
  data : int;  (* a shared scratch segment *)
  chan : int;  (* an IPC channel *)
  mutable uniq : int;  (* unique-name counter for create templates *)
}

let expect what = function
  | Ok v -> v
  | Error e -> invalid_arg (Printf.sprintf "E22 boot: %s: %s" what (Api.error_to_string e))

let dispatch env request = Api.Call.dispatch env.system ~handle:env.handle request

let acl_rw = Multics_access.Acl.of_strings [ ("Alice.Dev.*", "rew") ]
let label = Multics_access.Label.unclassified

(* Boot is identical on every call: same account, same segment
   numbers, same channel id — the parity oracle depends on it. *)
let boot () =
  let system = System.create config in
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Multics_access.Label.unclassified);
  let handle =
    match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
    | Ok handle -> handle
    | Error e -> invalid_arg ("E22 boot: login: " ^ System.login_error_to_string e)
  in
  let home =
    match User_env.resolve_path system ~handle ~path:">udd>Dev>Alice" with
    | Ok segno -> segno
    | Error e -> invalid_arg ("E22 boot: home: " ^ User_env.error_to_string e)
  in
  let env = { system; handle; home; data = 0; chan = 0; uniq = 0 } in
  let data =
    match
      dispatch env
        (Api.Call.Create_segment
           { dir_segno = home; name = "data"; acl = acl_rw; label; brackets = None })
    with
    | Ok (Api.Call.Segno segno) -> segno
    | Ok _ -> invalid_arg "E22 boot: create data: unexpected reply"
    | r -> expect "create data" (Result.map (fun _ -> 0) r)
  in
  let chan =
    match dispatch env Api.Call.Create_channel with
    | Ok (Api.Call.Channel chan) -> chan
    | Ok _ -> invalid_arg "E22 boot: create channel: unexpected reply"
    | r -> expect "create channel" (Result.map (fun _ -> 0) r)
  in
  expect "seed data"
    (Result.map (fun _ -> ())
       (dispatch env (Api.Call.Write_word { segno = data; offset = 0; value = 17 })));
  { env with data; chan }

(* ----- The workload mixes (E17's user classes, scripted) ----- *)

let ok what = function
  | Ok _ -> ()
  | Error e -> invalid_arg (Printf.sprintf "E22 mix: %s: %s" what (Api.error_to_string e))

(* Interactive development: tree walking, segment churn, editing,
   ACL management — the fs-directory and fs-content surface. *)
let editor_compile_mix env =
  ok "initiate" (dispatch env (Api.Call.Initiate { dir_segno = env.home; name = "data" }));
  for i = 1 to 3 do
    ok "create obj"
      (dispatch env
         (Api.Call.Create_segment
            {
              dir_segno = env.home;
              name = Printf.sprintf "obj_%d" i;
              acl = acl_rw;
              label;
              brackets = None;
            }))
  done;
  ok "mkdir"
    (dispatch env
       (Api.Call.Create_directory { dir_segno = env.home; name = "build"; acl = acl_rw; label }));
  for offset = 0 to 4 do
    ok "write" (dispatch env (Api.Call.Write_word { segno = env.data; offset; value = offset }));
    ok "read" (dispatch env (Api.Call.Read_word { segno = env.data; offset }))
  done;
  ok "ls" (dispatch env (Api.Call.List_directory { dir_segno = env.home }));
  ok "status" (dispatch env (Api.Call.Status_entry { dir_segno = env.home; name = "data" }));
  ok "set_acl" (dispatch env (Api.Call.Set_acl { segno = env.data; acl = acl_rw }));
  ok "rename"
    (dispatch env
       (Api.Call.Rename_entry { dir_segno = env.home; name = "obj_1"; new_name = "obj_1.old" }));
  ok "delete" (dispatch env (Api.Call.Delete_entry { dir_segno = env.home; name = "obj_1.old" }))

(* A background daemon: wakeup-driven service over a known segment —
   IPC plus content references, no directory churn. *)
let daemon_only_mix env =
  ok "initiate" (dispatch env (Api.Call.Initiate { dir_segno = env.home; name = "data" }));
  for round = 1 to 4 do
    ok "wakeup" (dispatch env (Api.Call.Send_wakeup { channel = env.chan }));
    ok "block" (dispatch env (Api.Call.Block { channel = env.chan }));
    ok "read" (dispatch env (Api.Call.Read_word { segno = env.data; offset = 0 }));
    ok "write" (dispatch env (Api.Call.Write_word { segno = env.data; offset = 0; value = round }))
  done

(* The minimal tenant: an IPC ping and nothing else. *)
let minimal_mix env =
  let chan =
    match dispatch env Api.Call.Create_channel with
    | Ok (Api.Call.Channel chan) -> chan
    | _ -> invalid_arg "E22 mix: minimal channel"
  in
  ok "wakeup" (dispatch env (Api.Call.Send_wakeup { channel = chan }));
  ok "block" (dispatch env (Api.Call.Block { channel = chan }))

let mixes =
  [
    ("editor-compile", editor_compile_mix);
    ("daemon-only", daemon_only_mix);
    ("minimal", minimal_mix);
  ]

(* Profile a mix on a fresh full-surface boot, then prove the profile
   survives serialisation and compile the replayed form. *)
let compile_mix (mix_name, mix) =
  let env = boot () in
  let profile, () = Spec.Profile.observe ~name:mix_name (fun () -> mix env) in
  let replayed =
    match Spec.Profile.of_string (Spec.Profile.to_string profile) with
    | Ok p when p = profile -> p
    | Ok _ -> invalid_arg (Printf.sprintf "E22: profile %s changed across round-trip" mix_name)
    | Error e -> invalid_arg (Printf.sprintf "E22: profile %s round-trip: %s" mix_name e)
  in
  Spec.Specialisation.compile ~name:mix_name config replayed

let specialisations () =
  Spec.Specialisation.full config :: List.map compile_mix mixes

(* ----- The functionality probe suite -----

   The union of the mixes' gate traffic plus the network I/O gates:
   one probe per gate, each expected to succeed against the full
   surface.  Under a mask, a probe whose gate is stripped refuses with
   [Gate_absent]; a probe whose setup another stripped gate broke
   fails too — both are honest functionality loss. *)

let probes : (string * (env -> bool)) list =
  let is_ok = function Ok _ -> true | Error _ -> false in
  [
    ("initiate", fun env -> is_ok (dispatch env (Api.Call.Initiate { dir_segno = env.home; name = "data" })));
    ( "create_segment",
      fun env ->
        is_ok
          (dispatch env
             (Api.Call.Create_segment
                { dir_segno = env.home; name = "probe_seg"; acl = acl_rw; label; brackets = None })) );
    ( "create_directory",
      fun env ->
        is_ok
          (dispatch env
             (Api.Call.Create_directory { dir_segno = env.home; name = "probe_dir"; acl = acl_rw; label })) );
    ( "rename_entry",
      fun env ->
        is_ok
          (dispatch env
             (Api.Call.Rename_entry
                { dir_segno = env.home; name = "probe_seg"; new_name = "probe_seg2" })) );
    ( "delete_entry",
      fun env ->
        is_ok (dispatch env (Api.Call.Delete_entry { dir_segno = env.home; name = "probe_seg2" })) );
    ("list_directory", fun env -> is_ok (dispatch env (Api.Call.List_directory { dir_segno = env.home })));
    ( "status_entry",
      fun env -> is_ok (dispatch env (Api.Call.Status_entry { dir_segno = env.home; name = "data" })) );
    ("set_acl", fun env -> is_ok (dispatch env (Api.Call.Set_acl { segno = env.data; acl = acl_rw })));
    ( "set_quota",
      fun env -> is_ok (dispatch env (Api.Call.Set_quota { segno = env.home; quota = Some 64 })) );
    ( "write_word",
      fun env -> is_ok (dispatch env (Api.Call.Write_word { segno = env.data; offset = 1; value = 7 })) );
    ("read_word", fun env -> is_ok (dispatch env (Api.Call.Read_word { segno = env.data; offset = 1 })));
    ("create_channel", fun env -> is_ok (dispatch env Api.Call.Create_channel));
    ("send_wakeup", fun env -> is_ok (dispatch env (Api.Call.Send_wakeup { channel = env.chan })));
    ("block", fun env -> is_ok (dispatch env (Api.Call.Block { channel = env.chan })));
    ( "net_attach",
      fun env -> is_ok (dispatch env (Api.Call.Attach_device { device = Multics_io.Device.Terminal })) );
    ( "net_io",
      fun env ->
        is_ok
          (dispatch env (Api.Call.Device_write { device = Multics_io.Device.Terminal; message = 9 })) );
    ( "net_detach",
      fun env -> is_ok (dispatch env (Api.Call.Detach_device { device = Multics_io.Device.Terminal })) );
  ]

(* Run the suite under a specialisation, metering dispatch cost
   through the gate counters (refusals cross the gate too). *)
let run_probes spec =
  let env = boot () in
  Spec.Specialisation.apply env.system spec;
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let before = Obs.Snapshot.capture () in
  let passed =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled was)
      (fun () -> List.length (List.filter (fun (_, probe) -> probe env) probes))
  in
  let after = Obs.Snapshot.capture () in
  let d = Obs.Snapshot.diff ~before ~after in
  let counter name = try List.assoc name d.Obs.Snapshot.counters with Not_found -> 0 in
  let calls = counter "gate.calls" and cycles = counter "gate.cycles" in
  let cost = if calls = 0 then 0.0 else float_of_int cycles /. float_of_int calls in
  (passed, cost)

(* ----- The E11 corpus under each specialisation ----- *)

let corpus_violations spec =
  let results =
    Pentest.run_corpus ~prepare:(fun system -> Spec.Specialisation.apply system spec) config
  in
  (Pentest.summarize results).Pentest.violated

(* ----- The 100-seed admitted-request parity oracle ----- *)

(* Request templates, one per dispatchable catalog gate.  [t_stream]
   marks templates safe to repeat mid-stream (terminate would tear
   down the scratch segment for the rest of the run — refusal parity
   would still hold, but the stream would stop exercising content
   gates).  Each template builds ONE request; the oracle dispatches
   the same value at both kernels. *)
type template = { t_gate : string; t_stream : bool; t_make : env -> Prng.t -> Api.Call.request }

let templates : template list =
  [
    { t_gate = "initiate"; t_stream = true;
      t_make = (fun env _ -> Api.Call.Initiate { dir_segno = env.home; name = "data" }) };
    { t_gate = "terminate"; t_stream = false;
      t_make = (fun env _ -> Api.Call.Terminate { segno = env.data }) };
    { t_gate = "create_segment"; t_stream = true;
      t_make =
        (fun env _ ->
          env.uniq <- env.uniq + 1;
          Api.Call.Create_segment
            { dir_segno = env.home; name = Printf.sprintf "s%d" env.uniq; acl = acl_rw; label;
              brackets = None }) };
    { t_gate = "create_directory"; t_stream = true;
      t_make =
        (fun env _ ->
          env.uniq <- env.uniq + 1;
          Api.Call.Create_directory
            { dir_segno = env.home; name = Printf.sprintf "d%d" env.uniq; acl = acl_rw; label }) };
    { t_gate = "delete_entry"; t_stream = true;
      t_make =
        (fun env _ ->
          (* Deletes the most recent creation when one exists;
             otherwise a No_entry refusal — identical on both sides. *)
          Api.Call.Delete_entry { dir_segno = env.home; name = Printf.sprintf "s%d" env.uniq }) };
    { t_gate = "rename_entry"; t_stream = true;
      t_make =
        (fun env _ ->
          Api.Call.Rename_entry
            { dir_segno = env.home; name = Printf.sprintf "d%d" env.uniq;
              new_name = Printf.sprintf "d%d.old" env.uniq }) };
    { t_gate = "list_directory"; t_stream = true;
      t_make = (fun env _ -> Api.Call.List_directory { dir_segno = env.home }) };
    { t_gate = "status_entry"; t_stream = true;
      t_make = (fun env _ -> Api.Call.Status_entry { dir_segno = env.home; name = "data" }) };
    { t_gate = "set_acl"; t_stream = true;
      t_make = (fun env _ -> Api.Call.Set_acl { segno = env.data; acl = acl_rw }) };
    { t_gate = "set_brackets"; t_stream = true;
      t_make =
        (fun env _ ->
          Api.Call.Set_brackets
            { segno = env.data; brackets = Multics_machine.Brackets.user_data }) };
    { t_gate = "set_gate_bound"; t_stream = true;
      t_make = (fun env prng -> Api.Call.Set_gate_bound { segno = env.data; gate_bound = Prng.int prng 6 }) };
    { t_gate = "set_quota"; t_stream = true;
      t_make = (fun env prng -> Api.Call.Set_quota { segno = env.home; quota = Some (32 + Prng.int prng 32) }) };
    { t_gate = "read_word"; t_stream = true;
      t_make = (fun env prng -> Api.Call.Read_word { segno = env.data; offset = Prng.int prng 8 }) };
    { t_gate = "write_word"; t_stream = true;
      t_make =
        (fun env prng ->
          Api.Call.Write_word { segno = env.data; offset = Prng.int prng 8; value = Prng.int prng 100 }) };
    { t_gate = "create_channel"; t_stream = true;
      t_make = (fun _ _ -> Api.Call.Create_channel) };
    { t_gate = "send_wakeup"; t_stream = true;
      t_make = (fun env _ -> Api.Call.Send_wakeup { channel = env.chan }) };
    { t_gate = "block"; t_stream = true;
      t_make = (fun env _ -> Api.Call.Block { channel = env.chan }) };
    { t_gate = "net_attach"; t_stream = true;
      t_make = (fun _ _ -> Api.Call.Attach_device { device = Multics_io.Device.Terminal }) };
    { t_gate = "net_io"; t_stream = true;
      t_make = (fun _ prng ->
          Api.Call.Device_write { device = Multics_io.Device.Terminal; message = Prng.int prng 50 }) };
    { t_gate = "net_detach"; t_stream = true;
      t_make = (fun _ _ -> Api.Call.Detach_device { device = Multics_io.Device.Terminal }) };
    { t_gate = "enter_subsystem"; t_stream = true;
      t_make = (fun _ _ -> Api.Call.Enter_subsystem { segno = 999; entry_offset = 0; name = "ss" }) };
  ]

let render_reply = function
  | Api.Call.Done -> "done"
  | Api.Call.Segno segno -> Printf.sprintf "segno %d" segno
  | Api.Call.Word value -> Printf.sprintf "word %d" value
  | Api.Call.Message None -> "message none"
  | Api.Call.Message (Some m) -> Printf.sprintf "message %d" m
  | Api.Call.Names names -> "names [" ^ String.concat ";" names ^ "]"
  | Api.Call.Status st ->
      Printf.sprintf "status %s/%d" st.Api.status_name st.Api.status_pages
  | Api.Call.Links links -> Printf.sprintf "links %d" (List.length links)
  | Api.Call.Snapped { segno; offset } -> Printf.sprintf "snapped %d+%d" segno offset
  | Api.Call.Entered ring -> Printf.sprintf "entered %d" (Multics_machine.Ring.to_int ring)
  | Api.Call.Channel chan -> Printf.sprintf "channel %d" chan
  | Api.Call.Consumed pending -> Printf.sprintf "consumed %b" pending
  | Api.Call.Process handle -> Printf.sprintf "process %d" handle
  | Api.Call.Processes handles ->
      "processes [" ^ String.concat ";" (List.map string_of_int handles) ^ "]"
  | Api.Call.Info info -> Printf.sprintf "info %s/%d" info.Api.info_principal info.Api.info_ring
  | Api.Call.Fault_report _ -> "fault_report"
  | Api.Call.Salvaged _ -> "salvaged"
  | Api.Call.Probed _ -> "probed"
  | Api.Call.Cache_report _ -> "cache_report"
  | Api.Call.Sched_report _ -> "sched_report"
  | Api.Call.Smp_report _ -> "smp_report"

let render_response = function
  | Ok reply -> "ok " ^ render_reply reply
  | Error e -> "err " ^ Api.error_to_string e

let parity_seeds = 100
let requests_per_seed = 40

(* One seed, one specialisation: a full and a specialised kernel boot
   identically, then serve the same admitted-request stream; every
   response must render identically.  Then every stripped gate with a
   dispatchable template is driven once at the specialised kernel and
   must refuse with its own [Gate_absent], leaving an audit record.
   Returns the number of divergences. *)
let parity_run spec seed =
  let prng = Prng.create_labeled ~seed ~label:("e22.parity." ^ Spec.Specialisation.name spec) in
  let full_env = boot () in
  let spec_env = boot () in
  if full_env.home <> spec_env.home || full_env.data <> spec_env.data then
    invalid_arg "E22: boot is not deterministic";
  Spec.Specialisation.apply spec_env.system spec;
  let divergences = ref 0 in
  let stream =
    List.filter
      (fun t -> t.t_stream && Spec.Specialisation.admits spec ~gate:t.t_gate)
      templates
  in
  let stream = Array.of_list stream in
  for _ = 1 to requests_per_seed do
    let t = stream.(Prng.int prng (Array.length stream)) in
    let request = t.t_make full_env prng in
    let at_full = render_response (Api.Call.dispatch full_env.system ~handle:full_env.handle request) in
    let at_spec = render_response (Api.Call.dispatch spec_env.system ~handle:spec_env.handle request) in
    if at_full <> at_spec then incr divergences
  done;
  List.iter
    (fun gate ->
      match List.find_opt (fun t -> t.t_gate = gate) templates with
      | None -> () (* the ring-1 page-mechanism gates have no Call surface *)
      | Some t ->
          let request = t.t_make full_env prng in
          let refusals_before = Audit_log.refusal_count (System.audit spec_env.system) in
          (match Api.Call.dispatch spec_env.system ~handle:spec_env.handle request with
          | Error (Api.Gate_absent g) when g = gate -> ()
          | _ -> incr divergences);
          if Audit_log.refusal_count (System.audit spec_env.system) <= refusals_before then
            incr divergences)
    (Spec.Specialisation.stripped spec);
  !divergences

let parity_oracle ?jobs specs =
  let stripped_specs = List.filter (fun s -> Spec.Specialisation.stripped s <> []) specs in
  let per_seed =
    Multics_par.Par.run_seeds ?jobs parity_seeds (fun seed ->
        List.fold_left (fun acc spec -> acc + parity_run spec seed) 0 stripped_specs)
  in
  (List.fold_left ( + ) 0 per_seed, List.length stripped_specs)

(* ----- Rendering ----- *)

type frontier_row = {
  fr_name : string;
  fr_kept : int;
  fr_stripped : int;
  fr_paper : Inventory.specialised_surface;
  fr_probes_ok : int;
  fr_cost : float;
  fr_violations : int;
}

let frontier_row spec =
  let probes_ok, cost = run_probes spec in
  {
    fr_name = Spec.Specialisation.name spec;
    fr_kept = Spec.Specialisation.gate_count spec;
    fr_stripped = List.length (Spec.Specialisation.stripped spec);
    fr_paper =
      Inventory.specialised_surface config ~admitted:(fun gate ->
          Spec.Specialisation.admits spec ~gate);
    fr_probes_ok = probes_ok;
    fr_cost = cost;
    fr_violations = corpus_violations spec;
  }

let frontier_table rows =
  let full = Spec.Specialisation.full config in
  let full_count = Spec.Specialisation.gate_count full in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "%s: specialisation frontier (%s, %d catalog gates)" id
           config.Config.name full_count)
      ~columns:
        [
          ("specialisation", Table.Left);
          ("gates kept", Table.Right);
          ("stripped", Table.Right);
          ("% of full", Table.Right);
          ("paper-scale surface", Table.Right);
          ("probes ok", Table.Right);
          ("cycles/call", Table.Right);
          ("E11 violations", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.fr_name;
          string_of_int r.fr_kept;
          string_of_int r.fr_stripped;
          Table.fmt_float ~decimals:0
            (100.0 *. float_of_int r.fr_kept /. float_of_int full_count);
          Printf.sprintf "%d of %d" r.fr_paper.Inventory.paper_kept
            r.fr_paper.Inventory.paper_full;
          Printf.sprintf "%d/%d" r.fr_probes_ok (List.length probes);
          Table.fmt_float ~decimals:0 r.fr_cost;
          string_of_int r.fr_violations;
        ])
    rows;
  t

let frontier_verdict rows =
  let counts = List.map (fun r -> r.fr_kept) rows in
  let rec non_increasing = function
    | a :: b :: rest -> a >= b && non_increasing (b :: rest)
    | _ -> true
  in
  let full = List.hd counts in
  let minimal = List.nth counts (List.length counts - 1) in
  let third_stripped =
    List.for_all (fun r -> r.fr_name = "full" || r.fr_stripped * 3 >= full) rows
  in
  let ok =
    non_increasing counts && minimal * 3 <= full * 2 && third_stripped
    && List.length rows >= 4
  in
  ( ok,
    Printf.sprintf
      "%d specialisations, gates %s; minimal keeps %d of %d (<= 2/3); every profiled \
       specialisation strips >= 1/3 of the entries"
      (List.length rows)
      (String.concat " >= " (List.map string_of_int counts))
      minimal full )

let surface_verdict rows =
  let violations = List.fold_left (fun acc r -> acc + r.fr_violations) 0 rows in
  ( violations = 0,
    Printf.sprintf
      "E11 corpus: %d successful penetrations across %d specialisations (%d attacks each); \
       stripped gates refuse with Gate_absent before any kernel state is touched"
      violations (List.length rows)
      (List.length Pentest.corpus) )

let parity_verdict ?jobs specs =
  let divergences, nspecs = parity_oracle ?jobs specs in
  let jobs = match jobs with Some j -> j | None -> Multics_par.Par.default_jobs () in
  ( divergences = 0,
    Printf.sprintf
      "%d seeds, %d admitted requests each, %d specialised kernels: %d divergences from the \
       full kernel; every stripped gate refused with Gate_absent (jobs=%d)"
      parity_seeds requests_per_seed nspecs divergences jobs )

let render () =
  let buf = Buffer.create 4096 in
  let specs = specialisations () in
  let rows = List.map frontier_row specs in
  Buffer.add_string buf (Table.render (frontier_table rows));
  let fr_ok, fr_line = frontier_verdict rows in
  Buffer.add_string buf
    (Printf.sprintf "\n%s %s\n" (if fr_ok then "[frontier]" else "[FRONTIER BROKEN]") fr_line);
  let su_ok, su_line = surface_verdict rows in
  Buffer.add_string buf
    (Printf.sprintf "%s %s\n" (if su_ok then "[surface]" else "[SURFACE BROKEN]") su_line);
  let pa_ok, pa_line = parity_verdict specs in
  Buffer.add_string buf
    (Printf.sprintf "%s %s\n" (if pa_ok then "[spec-parity]" else "[SPEC PARITY BROKEN]") pa_line);
  Buffer.contents buf
