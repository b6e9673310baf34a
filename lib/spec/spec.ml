(* Per-workload kernel specialisation.

   The paper's removal projects shrank the supervisor for *every*
   workload; this module applies the same discipline per installation:
   observe which gates a site's workload actually exercises, then
   compile a specialised gate table that strips every unused entry.
   A stripped gate refuses at [Api.Call.dispatch] with the existing
   [Gate_absent] error before any kernel state is touched — the same
   fail-secure refusal an entry removed at configuration time gets —
   so a specialised kernel is byte-identical to the full kernel on
   every request it admits and fails closed on everything else.

   Two halves:

   - {!Profile}: a gate-usage profile snapshotted from the per-gate
     [lib/obs] counters around an observed run, serialisable so a
     profile captured on one boot can be replayed against another.

   - {!Specialisation}: the profile compiled against a configuration's
     gate catalog into a keep-set, installed on a system as a gate
     mask ({!Multics_kernel.System.set_gate_mask}). *)

open Multics_kernel
module Obs = Multics_obs.Obs

(* ----- Profiles ----- *)

module Profile = struct
  type t = {
    profile_name : string;
    counts : (string * int) list;  (* gate operation -> observed calls, sorted *)
  }

  let name t = t.profile_name
  let counts t = t.counts

  (* Per-gate dispatch counters are named [gate.<operation>.calls];
     the aggregates ([gate.calls], [gate.cycles], ...) and per-config
     counters lack the inner operation component and fall out of the
     match.  Refused calls count too: a workload that *reaches* a gate
     needs it, whatever the reference monitor then says. *)
  let gate_op_of_counter counter =
    let prefix = "gate." and suffix = ".calls" in
    let plen = String.length prefix and slen = String.length suffix in
    let len = String.length counter in
    if
      len > plen + slen
      && String.sub counter 0 plen = prefix
      && String.sub counter (len - slen) slen = suffix
    then Some (String.sub counter plen (len - plen - slen))
    else None

  let of_counters ~name readings =
    let counts =
      List.filter_map
        (fun (counter, count) ->
          match gate_op_of_counter counter with
          | Some op when count > 0 -> Some (op, count)
          | _ -> None)
        readings
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    { profile_name = name; counts }

  let of_snapshot ~name (snapshot : Obs.Snapshot.t) =
    of_counters ~name snapshot.Obs.Snapshot.counters

  (* Observe a workload run: enable recording, diff the calling
     domain's registry around the thunk, keep the per-gate dispatch
     counters.  Restores the previous recording state. *)
  let observe ~name f =
    let was = Obs.enabled () in
    Obs.set_enabled true;
    let before = Obs.Snapshot.capture () in
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled was)
      (fun () ->
        let result = f () in
        let after = Obs.Snapshot.capture () in
        (of_snapshot ~name (Obs.Snapshot.diff ~before ~after), result))

  let used_gates t = List.map fst t.counts
  let calls t ~gate = match List.assoc_opt gate t.counts with Some n -> n | None -> 0
  let total_calls t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.counts

  let merge ~name a b =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (op, n) ->
        Hashtbl.replace tbl op (n + Option.value ~default:0 (Hashtbl.find_opt tbl op)))
      (a.counts @ b.counts);
    let counts =
      Hashtbl.fold (fun op n acc -> (op, n) :: acc) tbl []
      |> List.sort (fun (x, _) (y, _) -> String.compare x y)
    in
    { profile_name = name; counts }

  (* Serialisation: one header line, one "<operation> <count>" line per
     gate.  Operation names never contain spaces or newlines. *)
  let to_string t =
    String.concat "\n"
      (("profile " ^ t.profile_name)
      :: List.map (fun (op, n) -> Printf.sprintf "%s %d" op n) t.counts)
    ^ "\n"

  let of_string text =
    let lines =
      String.split_on_char '\n' text |> List.filter (fun line -> String.trim line <> "")
    in
    match lines with
    | [] -> Error "empty profile"
    | header :: rest ->
        if String.length header < 8 || String.sub header 0 8 <> "profile " then
          Error (Printf.sprintf "bad profile header %S" header)
        else
          let name = String.sub header 8 (String.length header - 8) in
          let rec parse acc = function
            | [] -> Ok (of_counters ~name (List.rev acc))
            | line :: rest -> (
                match String.index_opt line ' ' with
                | None -> Error (Printf.sprintf "bad profile line %S" line)
                | Some i -> (
                    let op = String.sub line 0 i in
                    let count = String.sub line (i + 1) (String.length line - i - 1) in
                    match int_of_string_opt (String.trim count) with
                    | Some n when n >= 0 && op <> "" ->
                        parse (("gate." ^ op ^ ".calls", n) :: acc) rest
                    | _ -> Error (Printf.sprintf "bad profile line %S" line)))
          in
          parse [] rest
end

(* ----- Specialisations ----- *)

module Specialisation = struct
  type t = {
    spec_name : string;
    config : Config.t;
    kept : string list;  (* catalog order *)
    stripped : string list;  (* catalog order *)
  }

  let name t = t.spec_name
  let config t = t.config
  let kept t = t.kept
  let stripped t = t.stripped
  let gate_count t = List.length t.kept
  let full_count t = Gate.count t.config

  (* The full surface: every catalog gate kept, nothing stripped.  The
     identity specialisation — applying it changes no decision. *)
  let full config =
    {
      spec_name = "full";
      config;
      kept = List.map (fun e -> e.Gate.gate_name) (Gate.catalog config);
      stripped = [];
    }

  (* Subsystem entry and logout survive every specialisation, so users
     can still reach and leave the machine whatever the profile saw. *)
  let always_kept = [ "enter_subsystem"; "logout" ]

  (* Compile a profile against a configuration's catalog: keep exactly
     the gates the profile exercised, plus [always_kept].  Profiled
     operations with no catalog entry (operator-surface operations,
     gates of another configuration) are ignored: they are not
     strippable surface. *)
  let compile ~name config profile =
    let wanted op = List.mem op always_kept || Profile.calls profile ~gate:op > 0 in
    let kept, stripped =
      List.partition_map
        (fun e ->
          let g = e.Gate.gate_name in
          if wanted g then Either.Left g else Either.Right g)
        (Gate.catalog config)
    in
    { spec_name = name; config; kept; stripped }

  let admits t ~gate = List.mem gate t.kept

  (* Install on a system: stripped gates now refuse at dispatch with
     [Gate_absent], before any kernel state is touched.  The full
     specialisation clears the mask — no table, no per-call lookup. *)
  let apply system t =
    if (System.config system).Config.name <> t.config.Config.name then
      invalid_arg
        (Printf.sprintf "Spec.apply: specialisation %s compiled for %s, system runs %s"
           t.spec_name t.config.Config.name (System.config system).Config.name);
    if t.stripped = [] then System.set_gate_mask system None
    else
      System.set_gate_mask system
        (Some (System.gate_mask_make ~name:t.spec_name ~gates:t.kept))

  let clear system = System.set_gate_mask system None

  let status system =
    match System.gate_mask system with
    | None ->
        Printf.sprintf "specialisation: none (full surface, %d gates)"
          (Gate.count (System.config system))
    | Some mask ->
        let admitted = System.gate_mask_gates mask in
        let full = Gate.count (System.config system) in
        Printf.sprintf "specialisation: %s (%d of %d gates admitted, %d stripped)"
          (System.gate_mask_name mask) (List.length admitted) full
          (full - List.length admitted)

  let describe t =
    Printf.sprintf "%s: %d of %d gates kept, %d stripped [%s]" t.spec_name (gate_count t)
      (full_count t) (List.length t.stripped)
      (String.concat ", " t.stripped)
end
