(* The two dispatch workloads: 32 logged-in users issuing
   [Api.Call.dispatch] calls against [Config.kernel_6180], audit
   recording and lib/obs on, exactly as shipped.

   Population: 4 projects x 8 users, odd-numbered users secret, 8
   segments per user in the user's home.  s6 is secret; s7 is
   read-only to project-mates; the rest are project read-write.  Every
   workload process initiates its project's 64 segments, four times
   the 16-entry SDW associative memory.

   - [Gate_mix]: one client, uniprocessor kernel.  Mostly reads and
     writes with skewed segment popularity, ~10% directory calls
     (terminate/initiate pairs, status, list) and ~13% calls the kernel
     must refuse (ACL, lattice, unknown segno, a naming gate absent
     from kernel_6180).
   - [Revoke_churn]: the same population on a 4-CPU plant, user u
     pinned to CPU u mod 4.  A third of the calls revoke/grant ACLs or
     widen/restore ring brackets on segments the owner's project-mates
     on other CPUs keep reading.

   Inputs are a pure function of the seed, generated before the
   kernel boots.  Every reply is checked outside the timed region
   against a fresh recomputation ([Hierarchy.sdw_for] +
   [Hardware.check], the oracle behind lib/mc's P1), so a stale
   Permit fails the run instead of speeding it up. *)

open Multics_access
open Multics_machine
open Multics_kernel
module Call = Api.Call
module Hierarchy = Multics_fs.Hierarchy
module Kst = Multics_fs.Kst
module Uid = Multics_fs.Uid
module Smp = Multics_smp.Smp
module Prng = Multics_util.Prng

type kind = Gate_mix | Revoke_churn

let projects = 4
let per_project = 8
let nusers = projects * per_project
let segs = 8
let project_segs = per_project * segs
let offsets = 32
let ncpus = 4
let secret = Label.make Label.Secret []

(* Calls per episode.  Each episode boots a fresh kernel, so every
   episode sees the same audit-trail depths: a run repeats whole
   episodes rather than stopping mid-trail, which would charge a faster
   kernel a deeper trail. *)
let calls_per_episode = function Gate_mix -> 16_000 | Revoke_churn -> 12_000

let person u = Printf.sprintf "U%d" u
let project_of u = u / per_project
let project_name u = Printf.sprintf "P%d" (project_of u)
let is_secret u = u mod 2 = 1
let clearance u = if is_secret u then secret else Label.unclassified
let seg_name i = Printf.sprintf "s%d" i
let home_path u = Printf.sprintf ">udd>%s>%s" (project_name u) (person u)
let seg_label i = if i = 6 then secret else Label.unclassified
let owner_pattern u = Printf.sprintf "%s.%s.*" (person u) (project_name u)
let mates_pattern u = Printf.sprintf "*.%s.*" (project_name u)
let acl_of_user u i =
  Acl.of_strings [ (owner_pattern u, "rew"); (mates_pattern u, if i = 7 then "r" else "rw") ]
let acl_owner_only u = Acl.of_strings [ (owner_pattern u, "rew") ]
let widened = Brackets.make ~r1:4 ~r2:5 ~r3:5

(* Project segment j (0..63) of user u's project: member j / 8's
   segment j mod 8. *)
let owner_of u j = (project_of u * per_project) + (j / segs)
let global_seg u j = (owner_of u j * segs) + (j mod segs)
let unknown_segno = 9_999

(* ----- Inputs ----- *)

type op =
  | Read of { u : int; j : int; offset : int }
  | Write of { u : int; j : int; offset : int; value : int }
  | Terminate of { u : int; j : int }
  | Initiate of { u : int; j : int }
  | Status of { u : int; j : int }
  | List_home of { u : int; m : int }
  | Unknown_segno of { u : int }
  | Absent_gate of { u : int; j : int }
  | Set_acl of { u : int; j : int; grant : bool }
  | Set_brackets of { u : int; j : int; widen : bool }

let user_of = function
  | Read { u; _ } | Write { u; _ } | Terminate { u; _ } | Initiate { u; _ } | Status { u; _ }
  | List_home { u; _ } | Unknown_segno { u } | Absent_gate { u; _ } | Set_acl { u; _ }
  | Set_brackets { u; _ } ->
      u

(* The population's permissions as the generator models them: owner
   rew, mates rw (s7: r), the lattice's no-read-up and no-write-down.
   Only the call mix depends on this model; replies are checked
   against the kernel's own fresh recomputation. *)
let modelled_read u j = Label.dominates (clearance u) (seg_label (j mod segs))

let modelled_write u j =
  let o = owner_of u j and i = j mod segs in
  (o = u || i <> 7) && Label.dominates (seg_label i) (clearance u)

type inputs = {
  ops : op array;
  expected_refusals : int option;  (** the refusals the call mix fixes, if it fixes them *)
}

let cumulative weights =
  let acc = ref 0. in
  Array.map
    (fun w ->
      acc := !acc +. w;
      !acc)
    weights

let sample prng cum =
  let x = Prng.float prng cum.(Array.length cum - 1) in
  let rec find lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if cum.(mid) > x then find lo mid else find (mid + 1) hi
  in
  find 0 (Array.length cum - 1)

let gate_mix_inputs ~seed ~n =
  let prng = Prng.create_labeled ~seed ~label:"perfbench.gate_mix" in
  (* Skewed popularity: per user, a seeded ranking of the 64 project
     segments with Zipf weights 1/(rank+1). *)
  let ranking =
    Array.init nusers (fun _ -> Array.of_list (Prng.shuffle prng (List.init project_segs Fun.id)))
  in
  let cum = cumulative (Array.init project_segs (fun r -> 1. /. float_of_int (r + 1))) in
  let ops = ref [] and count = ref 0 and refusals = ref 0 in
  let emit op =
    ops := op :: !ops;
    incr count
  in
  let offset () = Prng.int prng offsets in
  while !count < n do
    let u = Prng.int prng nusers in
    let x = Prng.int prng 100 in
    if x < 77 then begin
      let j = ranking.(u).(sample prng cum) in
      let r = modelled_read u j and w = modelled_write u j in
      if w && ((not r) || Prng.int prng 10 < 3) then
        emit (Write { u; j; offset = offset (); value = Prng.int prng 1_000_000 })
      else emit (Read { u; j; offset = offset () })
    end
    else if x < 87 then begin
      let j = ranking.(u).(sample prng cum) in
      match Prng.int prng 3 with
      | 0 ->
          emit (Terminate { u; j });
          emit (Initiate { u; j })
      | 1 -> emit (Status { u; j })
      | _ -> emit (List_home { u; m = Prng.int prng per_project })
    end
    else begin
      incr refusals;
      let m = Prng.int prng per_project in
      match Prng.int prng 4 with
      | 0 ->
          (* ACL: a mate's s7 is read-only to the project *)
          let m = if m = u mod per_project then (m + 1) mod per_project else m in
          emit (Write { u; j = (m * segs) + 7; offset = offset (); value = 1 })
      | 1 ->
          (* lattice: no read up, no write down *)
          if is_secret u then
            emit (Write { u; j = (m * segs) + Prng.int prng 6; offset = offset (); value = 2 })
          else emit (Read { u; j = (m * segs) + 6; offset = offset () })
      | 2 -> emit (Unknown_segno { u })
      | _ -> emit (Absent_gate { u; j = (m * segs) + Prng.int prng segs })
    end
  done;
  { ops = Array.of_list (List.rev !ops); expected_refusals = Some !refusals }

(* Revocation targets: segments s0 and s1 of each project's
   unclassified members (a secret owner may not modify an unclassified
   home), 8 per project. *)
let hot_segments = Array.init 8 (fun h -> ((h / 2) * 2 * segs) + (h mod 2))

let revoke_churn_inputs ~seed ~n =
  let prng = Prng.create_labeled ~seed ~label:"perfbench.revoke_churn" in
  let revoked = Array.make (nusers * segs) false in
  let widened_now = Array.make (nusers * segs) false in
  let ops =
    Array.init n (fun _ ->
        let k = Prng.int prng projects in
        let j = hot_segments.(Prng.int prng 8) in
        let reader = (k * per_project) + Prng.int prng per_project in
        if Prng.int prng 3 = 0 then begin
          let owner = owner_of reader j in
          let g = global_seg reader j in
          if Prng.int prng 2 = 0 then begin
            revoked.(g) <- not revoked.(g);
            Set_acl { u = owner; j; grant = not revoked.(g) }
          end
          else begin
            widened_now.(g) <- not widened_now.(g);
            Set_brackets { u = owner; j; widen = widened_now.(g) }
          end
        end
        else Read { u = reader; j; offset = Prng.int prng offsets })
  in
  { ops; expected_refusals = None }

let inputs kind ~seed =
  let n = calls_per_episode kind in
  match kind with
  | Gate_mix -> gate_mix_inputs ~seed ~n
  | Revoke_churn -> revoke_churn_inputs ~seed ~n

(* ----- The population ----- *)

type pop = {
  system : System.t;
  plant : Smp.t option;
  handles : int array;  (** the workload session of each user *)
  segnos : int array array;  (** [u].(j): current segno of project segment j *)
  home_segnos : int array array;  (** [u].(m): segno of project member m's home *)
  uids : Uid.t array;  (** by global segment *)
  homes : Uid.t array;  (** by user *)
  shadow : int array;  (** by global segment * offsets + offset: the last word written *)
  owner_only : Acl.t array;  (** by user *)
}

let fail what msg = failwith (Printf.sprintf "perfbench set-up: %s: %s" what msg)
let env_ok what = function Ok x -> x | Error e -> fail what (User_env.error_to_string e)

let login ?level system u =
  match System.login ?level system ~person:(person u) ~project:(project_name u) ~password:"pw" with
  | Ok handle -> handle
  | Error e -> fail (person u) (System.login_error_to_string e)

let proc pop u =
  match System.proc pop.system pop.handles.(u) with Some p -> p | None -> fail "proc" (person u)

let on_cpu plant u = Option.iter (fun p -> Smp.set_current p (u mod ncpus)) plant

(* Everything before the first timed call; in the traced run each
   phase is a span. *)
let setup ?trace kind =
  let span name f =
    match trace with None -> f () | Some tr -> Trace.with_span tr ~name ~req:0 f
  in
  let system, plant =
    span "core.boot" (fun () ->
        let system = System.create Config.kernel_6180 in
        let plant =
          match kind with
          | Gate_mix -> None
          | Revoke_churn ->
              let p = Smp.create ~ncpus ~cost:(System.cost system) () in
              System.attach_plant system (Some p);
              Some p
        in
        (system, plant))
  in
  (* Segments are made from unclassified sessions: the homes are
     unclassified, and a secret session may not append to them. *)
  let makers =
    span "core.login" (fun () ->
        Array.init nusers (fun u ->
            ignore
              (System.add_account system ~person:(person u) ~project:(project_name u)
                 ~password:"pw" ~clearance:(clearance u));
            login ~level:Label.unclassified system u))
  in
  span "core.populate" (fun () ->
      Array.iteri
        (fun u handle ->
          on_cpu plant u;
          for i = 0 to segs - 1 do
            ignore
              (env_ok "create"
                 (User_env.create_segment_at system ~handle
                    ~path:(home_path u ^ ">" ^ seg_name i)
                    ~acl:(acl_of_user u i) ~label:(seg_label i)))
          done;
          ignore (System.logout system ~handle))
        makers);
  let handles = span "core.login" (fun () -> Array.init nusers (fun u -> login system u)) in
  let segnos, home_segnos =
    span "core.initiate" (fun () ->
        let homes = Array.make_matrix nusers per_project 0 in
        let segnos =
          Array.init nusers (fun u ->
              on_cpu plant u;
              let handle = handles.(u) in
              Array.init project_segs (fun j ->
                  let o = owner_of u j in
                  if j mod segs = 0 then
                    homes.(u).(j / segs) <-
                      env_ok "initiate" (User_env.resolve_path system ~handle ~path:(home_path o));
                  env_ok "initiate"
                    (User_env.resolve_path system ~handle
                       ~path:(home_path o ^ ">" ^ seg_name (j mod segs)))))
        in
        (segnos, homes))
  in
  span "fs.av_rebuild" (fun () -> ignore (Hierarchy.rebuild_av_table (System.hierarchy system)));
  let uid_via u segno =
    match System.proc system handles.(u) with
    | Some p -> (
        match Kst.uid_of_segno p.System.kst segno with Ok uid -> uid | Error _ -> fail "uid" "")
    | None -> fail "uid" (person u)
  in
  let uids =
    Array.init (nusers * segs) (fun g ->
        let o = g / segs in
        uid_via o segnos.(o).(((o mod per_project) * segs) + (g mod segs)))
  in
  let homes =
    Array.init nusers (fun u ->
        match System.find_account system ~person:(person u) ~project:(project_name u) with
        | Some a -> a.System.home
        | None -> fail "account" (person u))
  in
  {
    system;
    plant;
    handles;
    segnos;
    home_segnos;
    uids;
    homes;
    shadow = Array.make (nusers * segs * offsets) 0;
    owner_only = Array.init nusers acl_owner_only;
  }

let request pop = function
  | Read { u; j; offset } -> Call.Read_word { segno = pop.segnos.(u).(j); offset }
  | Write { u; j; offset; value } -> Call.Write_word { segno = pop.segnos.(u).(j); offset; value }
  | Terminate { u; j } -> Call.Terminate { segno = pop.segnos.(u).(j) }
  | Initiate { u; j } ->
      Call.Initiate { dir_segno = pop.home_segnos.(u).(j / segs); name = seg_name (j mod segs) }
  | Status { u; j } ->
      Call.Status_entry { dir_segno = pop.home_segnos.(u).(j / segs); name = seg_name (j mod segs) }
  | List_home { u; m } -> Call.List_directory { dir_segno = pop.home_segnos.(u).(m) }
  | Unknown_segno _ -> Call.Read_word { segno = unknown_segno; offset = 0 }
  | Absent_gate { u; j } ->
      Call.Initiate_by_path { path = home_path (owner_of u j) ^ ">" ^ seg_name (j mod segs) }
  | Set_acl { u; j; grant } ->
      let g = global_seg u j in
      Call.Set_acl
        { segno = pop.segnos.(u).(j); acl = (if grant then acl_of_user (g / segs) (g mod segs) else pop.owner_only.(u)) }
  | Set_brackets { u; j; widen } ->
      Call.Set_brackets
        { segno = pop.segnos.(u).(j); brackets = (if widen then widened else Brackets.user_data) }

(* ----- The oracle ----- *)

(* Would a fresh descriptor recomputation let user u make this
   reference to project segment j? *)
let fresh_allows pop u j operation =
  let p = proc pop u in
  match
    Hierarchy.sdw_for (System.hierarchy pop.system) ~subject:(System.subject_of p)
      ~uid:pop.uids.(global_seg u j)
  with
  | None -> false
  | Some sdw -> (
      match Hardware.check sdw ~ring:p.System.ring ~operation with
      | Hardware.Granted _ -> true
      | Hardware.Denied _ -> false)

(* May user u modify attributes of segment j (modify on its home)? *)
let fresh_may_modify pop u j =
  match
    Hierarchy.check_access_fresh (System.hierarchy pop.system)
      ~subject:(System.subject_of (proc pop u))
      ~uid:pop.homes.(owner_of u j) ~requested:Mode.w
  with
  | Some Policy.Permit -> true
  | _ -> false

type expectation = Grant | Refuse

let expect pop = function
  | Read { u; j; _ } -> if fresh_allows pop u j Hardware.Read then Grant else Refuse
  | Write { u; j; _ } -> if fresh_allows pop u j Hardware.Write then Grant else Refuse
  | Set_acl { u; j; _ } | Set_brackets { u; j; _ } -> if fresh_may_modify pop u j then Grant else Refuse
  | Terminate _ | Initiate _ | Status _ | List_home _ -> Grant
  | Unknown_segno _ | Absent_gate _ -> Refuse

let home_names = List.sort compare (List.init segs seg_name)

(* Check one reply against the expectation computed before the call,
   and advance the benchmark's model of the kernel state. *)
let check pop op expectation (reply : Call.response) =
  let hierarchy = System.hierarchy pop.system in
  match (op, expectation, reply) with
  | Read { u; j; offset }, Grant, Ok (Call.Word v) ->
      v = pop.shadow.((global_seg u j * offsets) + offset)
  | Write { u; j; offset; value }, Grant, Ok Call.Done ->
      pop.shadow.((global_seg u j * offsets) + offset) <- value;
      true
  | (Read _ | Write _), Refuse, Error (Api.Hardware_denied _) -> true
  | Terminate { u; j }, Grant, Ok Call.Done ->
      pop.segnos.(u).(j) <- unknown_segno;
      true
  | Initiate { u; j }, Grant, Ok (Call.Segno segno) -> (
      pop.segnos.(u).(j) <- segno;
      match Kst.uid_of_segno (proc pop u).System.kst segno with
      | Ok uid -> Uid.equal uid pop.uids.(global_seg u j)
      | Error _ -> false)
  | Status { j; _ }, Grant, Ok (Call.Status s) ->
      String.equal s.Api.status_name (seg_name (j mod segs))
      && Label.equal s.Api.status_label (seg_label (j mod segs))
      && s.Api.status_kind = Hierarchy.Segment
  | List_home _, Grant, Ok (Call.Names names) -> List.sort compare names = home_names
  | Unknown_segno _, Refuse, Error (Api.Kst_error (Kst.Unknown_segno _)) -> true
  | Absent_gate _, Refuse, Error (Api.Gate_absent _) -> true
  | Set_acl { u; j; grant }, Grant, Ok Call.Done ->
      let g = global_seg u j in
      let acl = if grant then acl_of_user (g / segs) (g mod segs) else pop.owner_only.(u) in
      Option.map Acl.entries (Hierarchy.acl_of hierarchy pop.uids.(g)) = Some (Acl.entries acl)
  | Set_brackets { u; j; widen }, Grant, Ok Call.Done ->
      Option.map
        (Brackets.equal (if widen then widened else Brackets.user_data))
        (Hierarchy.brackets_of hierarchy pop.uids.(global_seg u j))
      = Some true
  | (Set_acl _ | Set_brackets _), Refuse, Error _ -> true
  | _ -> false

let is_mutation = function Set_acl _ | Set_brackets _ -> true | _ -> false
