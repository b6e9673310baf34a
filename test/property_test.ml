(* Cross-cutting property tests: each checks an implementation against
   an independent model or invariant under randomized inputs. *)

open Multics_access
open Multics_machine

(* ----- Event queue vs a sorted-list model ----- *)

let event_queue_matches_model =
  let gen = QCheck.Gen.(list_size (int_range 0 120) (pair (int_range 0 50) small_nat)) in
  QCheck.Test.make ~name:"event queue = stable sort by time" ~count:300 (QCheck.make gen)
    (fun events ->
      let q = Multics_proc.Event_queue.create () in
      List.iter (fun (time, payload) -> Multics_proc.Event_queue.push q ~time payload) events;
      let rec drain acc =
        match Multics_proc.Event_queue.pop q with
        | None -> List.rev acc
        | Some (time, payload) -> drain ((time, payload) :: acc)
      in
      (* Stable sort on time preserves insertion order of ties — the
         queue's determinism guarantee. *)
      let model =
        List.stable_sort (fun (t1, _) (t2, _) -> Int.compare t1 t2) events
      in
      drain [] = model)

(* ----- Statistics ----- *)

let percentiles_ordered =
  let gen = QCheck.Gen.(list_size (int_range 1 60) (float_bound_inclusive 1000.0)) in
  QCheck.Test.make ~name:"percentiles are ordered and bounded" ~count:300 (QCheck.make gen)
    (fun samples ->
      let s = Multics_util.Stats.summarize samples in
      let open Multics_util.Stats in
      s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max
      && s.min <= s.mean && s.mean <= s.max)

let mean_matches_model =
  let gen = QCheck.Gen.(list_size (int_range 1 40) (float_bound_inclusive 100.0)) in
  QCheck.Test.make ~name:"mean matches direct computation" ~count:300 (QCheck.make gen)
    (fun samples ->
      let expected = List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples) in
      abs_float (Multics_util.Stats.mean samples -. expected) < 1e-6)

(* ----- Table rendering ----- *)

let table_rows_aligned =
  let cell = QCheck.Gen.(oneofl [ "a"; "bb"; "ccc"; ""; "multi word"; "1234567" ]) in
  let gen = QCheck.Gen.(list_size (int_range 1 8) (pair cell cell)) in
  QCheck.Test.make ~name:"rendered table lines align" ~count:200 (QCheck.make gen)
    (fun rows ->
      let t =
        Multics_util.Table.create ~title:"t"
          ~columns:[ ("x", Multics_util.Table.Left); ("y", Multics_util.Table.Right) ]
      in
      List.iter (fun (a, b) -> Multics_util.Table.add_row t [ a; b ]) rows;
      let lines =
        Multics_util.Table.render t |> String.split_on_char '\n'
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '|')
      in
      match lines with
      | [] -> false
      | first :: rest -> List.for_all (fun l -> String.length l = String.length first) rest)

(* ----- ACL evaluation vs a brute-force model ----- *)

let acl_matches_brute_force =
  let component = QCheck.Gen.oneofl [ "A"; "B"; "*" ] in
  let mode = QCheck.Gen.oneofl [ "r"; "rw"; "re"; "" ] in
  let entry =
    QCheck.Gen.(
      let* p = component and* j = component and* t = oneofl [ "a"; "*" ] and* m = mode in
      return (Printf.sprintf "%s.%s.%s" p j t, m))
  in
  let gen =
    QCheck.Gen.(
      let* entries = list_size (int_range 0 5) entry in
      let* person = oneofl [ "A"; "B" ] and* project = oneofl [ "A"; "B" ] in
      return (entries, person, project))
  in
  QCheck.Test.make ~name:"ACL decision = brute-force most-specific" ~count:500
    (QCheck.make gen) (fun (entries, person, project) ->
      let acl = Acl.of_strings entries in
      let principal = Principal.of_string (person ^ "." ^ project ^ ".a") in
      (* Model: among matching entries keep highest specificity; ties
         broken by pattern text; later duplicates replace earlier. *)
      let dedup =
        List.fold_left
          (fun acc (p, m) -> (p, m) :: List.filter (fun (q, _) -> q <> p) acc)
          [] entries
      in
      let matching =
        List.filter (fun (p, _) -> Principal.matches (Principal.pattern_of_string p) principal) dedup
      in
      let best =
        List.sort
          (fun (a, _) (b, _) ->
            let sa = Principal.pattern_specificity (Principal.pattern_of_string a) in
            let sb = Principal.pattern_specificity (Principal.pattern_of_string b) in
            match Int.compare sb sa with 0 -> String.compare a b | c -> c)
          matching
      in
      let expected = match best with [] -> Mode.none | (_, m) :: _ -> Mode.of_string m in
      Mode.equal (Acl.mode_for acl principal) expected)

(* ----- Hierarchy under random operation storms ----- *)

let hierarchy_quota_invariant =
  let gen = QCheck.Gen.(list_size (int_range 1 80) (pair (int_range 0 6) (int_range 0 9))) in
  QCheck.Test.make ~name:"quota accounting survives random storms" ~count:150
    (QCheck.make gen) (fun ops ->
      let open Multics_fs in
      let h = Hierarchy.create () in
      let admin = Multics_kernel.System.initializer_subject in
      let acl = Acl.of_strings [ ("*.*.*", "rew") ] in
      let dir =
        match
          Hierarchy.create_directory h ~subject:admin ~dir:Uid.root ~name:"arena" ~acl
            ~label:Label.unclassified
        with
        | Ok uid -> uid
        | Error _ -> Uid.root
      in
      ignore (Hierarchy.set_quota h ~subject:admin ~uid:dir ~quota:(Some 12));
      let wpp = Hierarchy.words_per_page in
      let subject =
        Policy.subject
          ~principal:(Principal.of_string "User.Proj.a")
          ~clearance:Label.unclassified ~ring:Ring.user ()
      in
      List.iter
        (fun (op, arg) ->
          let name = Printf.sprintf "s%d" (arg mod 4) in
          match op with
          | 0 | 1 ->
              ignore
                (Hierarchy.create_segment h ~subject ~dir ~name ~acl ~label:Label.unclassified)
          | 2 | 3 -> (
              match Hierarchy.lookup h ~subject ~dir ~name with
              | Ok uid ->
                  ignore (Gate_calls.store_word h ~uid ~offset:(arg * wpp) ~value:1)
              | Error _ -> ())
          | 4 -> ignore (Hierarchy.delete_entry h ~subject ~dir ~name)
          | 5 -> (
              match Hierarchy.lookup h ~subject ~dir ~name with
              | Ok uid -> ignore (Gate_calls.store_word h ~uid ~offset:0 ~value:2)
              | Error _ -> ())
          | _ -> ())
        ops;
      Hierarchy.check_quota_invariant h)

(* ----- KST under random make-known / terminate ----- *)

let kst_model =
  let gen = QCheck.Gen.(list_size (int_range 1 100) (pair bool (int_range 0 9))) in
  QCheck.Test.make ~name:"KST = model map under random ops" ~count:300 (QCheck.make gen)
    (fun ops ->
      let open Multics_fs in
      let kst = Kst.create ~variant:Kst.Split () in
      let gen_uids = Uid.generator () in
      let uids = Array.init 10 (fun _ -> Uid.fresh gen_uids) in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (make, i) ->
          let uid = uids.(i) in
          if make then begin
            let segno, already = Kst.make_known kst ~uid in
            let expected_already = Hashtbl.mem model (Uid.to_int uid) in
            if not already then Hashtbl.replace model (Uid.to_int uid) segno;
            already = expected_already
            && (match Hashtbl.find_opt model (Uid.to_int uid) with
               | Some s -> s = segno
               | None -> false)
          end
          else begin
            match Hashtbl.find_opt model (Uid.to_int uid) with
            | Some segno ->
                Hashtbl.remove model (Uid.to_int uid);
                Kst.terminate kst segno = Ok ()
            | None -> Kst.segno_of_uid kst ~uid = None
          end)
        ops
      && Kst.entry_count kst = Hashtbl.length model)

(* ----- Programs from a safe generator never escape ----- *)

let program_interpreter_total =
  let open Multics_kernel in
  let step_gen =
    QCheck.Gen.(
      oneof
        [
          return (Program.Compute 10);
          map (fun o -> Program.Read_word { seg = "d"; offset = o mod 64; slot = "v" }) small_nat;
          map
            (fun o -> Program.Write_word { seg = "d"; offset = o mod 64; value = Program.Const 1 })
            small_nat;
          return (Program.Lookup_name { name = "maybe"; slot = "x" });
          return (Program.Resolve { path = ">udd>Dev>Alice"; slot = "home" });
          return Program.Exit_subsystem;
        ])
  in
  let gen = QCheck.Gen.(list_size (int_range 0 25) step_gen) in
  QCheck.Test.make ~name:"program interpreter is total" ~count:100 (QCheck.make gen)
    (fun steps ->
      let system = System.create Config.kernel_6180 in
      ignore
        (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
           ~clearance:Label.unclassified);
      match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
      | Error _ -> false
      | Ok handle ->
          let program =
            Program.make ~name:"fuzz"
              (Program.Create_segment
                 {
                   path = ">udd>Dev>Alice>d";
                   acl = Acl.of_strings [ ("Alice.Dev.*", "rw") ];
                   label = Label.unclassified;
                   slot = "d";
                 }
              :: steps)
          in
          let outcome = Program.run system ~handle program in
          (* Totality: the interpreter returns an outcome; a failed
             step means everything after it was skipped. *)
          outcome.Program.steps_run <= List.length steps + 1)

(* ----- Sim cycle accounting ----- *)

let sim_cycles_conserved =
  let gen = QCheck.Gen.(list_size (int_range 1 8) (int_range 1 2_000)) in
  QCheck.Test.make ~name:"per-process cycles equal requested compute" ~count:100
    (QCheck.make gen) (fun workloads ->
      let sim =
        Multics_proc.Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:3
      in
      let pids =
        List.mapi
          (fun i work ->
            ( Multics_proc.Sim.spawn sim
                ~name:(Printf.sprintf "w%d" i)
                (fun _ -> Multics_proc.Sim.compute work),
              work ))
          workloads
      in
      Multics_proc.Sim.run sim;
      List.for_all (fun (pid, work) -> Multics_proc.Sim.cycles_of sim pid = work) pids)

let suite =
  [
    QCheck_alcotest.to_alcotest event_queue_matches_model;
    QCheck_alcotest.to_alcotest percentiles_ordered;
    QCheck_alcotest.to_alcotest mean_matches_model;
    QCheck_alcotest.to_alcotest table_rows_aligned;
    QCheck_alcotest.to_alcotest acl_matches_brute_force;
    QCheck_alcotest.to_alcotest hierarchy_quota_invariant;
    QCheck_alcotest.to_alcotest kst_model;
    QCheck_alcotest.to_alcotest program_interpreter_total;
    QCheck_alcotest.to_alcotest sim_cycles_conserved;
  ]
