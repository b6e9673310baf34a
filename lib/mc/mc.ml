(* Bounded exhaustive model checking of the reference monitor.

   The 100-seed oracles (E15/E18/E19/E20) sample the interleaving
   space; the certification bar is exhaustive: no stale Permit, no
   fail-open, no downward flow under EVERY interleaving of a bounded
   plant.  This module enumerates, breadth-first, all interleavings of
   a small action alphabet on a 2-CPU / 2-segment / 2-principal plant,
   executing every action through the real kernel paths —
   [Api.Call.dispatch], the [Smp] connect protocol, the [Salvager] —
   never a hand-written abstraction of them.

   Design:

   - {b A state is its trace, replayed on a memory image.}  A state
     is the deterministic replay of its action trace from the booted
     plant.  As the paper moves initialization into a memory image
     loaded at start-up, an exploration boots its plant once, into an
     image nothing replays, and runs every replay on a copy of it
     ([System.copy], field by field, plus a fresh [Sim]); a copy
     behaves as a boot on the copying domain would.
     [violations_of_trace] still boots afresh: it is the reference the
     copies are tested against.  Replay pushes every action of the
     trace into the simulator's event queue at the same firing time
     and lets [Sim.run] drain it — ties fire in insertion order
     ([Event_queue]'s stability contract), which is exactly what makes
     replay deterministic.

   - {b Canonicalization.}  After replay the instance is rendered to
     one canonical string: object attributes and contents, per-process
     KST/SDW state, every cache front that can hold a descriptor
     (per-process associative memories, per-CPU CAMs and PTW fronts),
     queued connects, the crash journal (sans timestamps) and the
     MC-level taint sets.  Timing observables (clocks, lock free-at,
     obs counters, audit length) are deliberately excluded — mediation
     state, not timing, is what the safety predicates range over.  The
     visited set keys on the string's ten components, each interned to
     an id ([State_key]): injective, so no hash collision can merge
     distinct states, and each distinct component is held once.
     [fingerprint] digests the string for display and tests.
     [successor_check] is the evidence that merging on the string is
     sound: every merged trace's successors must render as its
     representative's.

   - {b Predicates at every state.}  P1 no stale Permit: every fresh
     entry in every SDW front must not grant a mode a fresh
     [Hierarchy.sdw_for] recomputation refuses.  P2 fail-secure:
     granted content accesses re-validated against
     [Hierarchy.effective_mode] at grant time, faulted gate calls must
     return an error, and a salvage must leave zero descriptor
     disagreements and an empty journal (the E15 invariant).  P3 no
     downward flow: E10-style taint accounting over the granted
     accesses — an object may never accumulate a taint its label does
     not dominate, a subject never a taint its clearance does not
     dominate.  P4 AV parity: the compiled access-vector verdict must
     equal the structured [Policy.check] recomputation for every
     subject x object x mode.

   - {b The seeded-bug leg.}  [Smp.set_deferred_connects] re-enables
     the pre-PR 5 stale-Permit window (remote connects queue instead
     of delivering synchronously).  With [~bug:true] the alphabet
     gains explicit [Deliver] actions and the checker finds the
     minimal two-action counterexample — warm a remote CPU's CAM, then
     revoke — that the seeded oracles only trip over probabilistically.

   - {b Streamed levels.}  Each BFS level is generated from the
     frontier as it is replayed, traces stored reversed so a candidate
     shares its parent's trace.  Candidates go through [Par.map] a
     chunk at a time and merge in task order, so the outcome is
     byte-identical at any [MULTICS_JOBS] pool size, and only a chunk's
     replayed states are held before they are merged.  Exploration
     stops at the depth cap or when the frontier empties, whichever
     comes first. *)

module System = Multics_kernel.System
module Config = Multics_kernel.Config
module Api = Multics_kernel.Api
module Call = Api.Call
module Salvager = Multics_kernel.Salvager
module Smp = Multics_smp.Smp
module Sim = Multics_proc.Sim
module Hierarchy = Multics_fs.Hierarchy
module Kst = Multics_fs.Kst
module Uid = Multics_fs.Uid
module Hardware = Multics_machine.Hardware
module Sdw = Multics_machine.Sdw
module Mode = Multics_machine.Mode
module Brackets = Multics_machine.Brackets
module Ring = Multics_machine.Ring
module Label = Multics_access.Label
module Acl = Multics_access.Acl
module Principal = Multics_access.Principal
module Policy = Multics_access.Policy
module Par = Multics_par.Par
module Avc = Multics_cache.Avc
module Prng = Multics_util.Prng

(* ----- The action alphabet ----- *)

type principal = Alice | Bob
type seg = S0 | S1

type action =
  | Read of principal * seg
  | Write of principal * seg
  | Acl_revoke  (** s0's ACL back to owner-only: the revoking edit *)
  | Acl_grant  (** s0's ACL widened to owner + Bob rw *)
  | Bracket_widen  (** s0's ring brackets (4,4,4) -> (4,5,5) *)
  | Bracket_restore  (** s0's ring brackets back to user_data *)
  | Faulted_create
      (** a [gate.abort=nth:1] plan armed around a [Create_segment]:
          the mutation lands, the call is torn down mid-flight and
          journaled — the fault interleaving P2 ranges over *)
  | Salvage
  | Deliver of int  (** bug mode only: drain one CPU's queued connects *)

let principal_name = function Alice -> "alice" | Bob -> "bob"
let seg_name = function S0 -> "s0" | S1 -> "s1"

let action_to_string = function
  | Read (who, seg) -> Printf.sprintf "read_%s_%s" (principal_name who) (seg_name seg)
  | Write (who, seg) -> Printf.sprintf "write_%s_%s" (principal_name who) (seg_name seg)
  | Acl_revoke -> "acl_revoke"
  | Acl_grant -> "acl_grant"
  | Bracket_widen -> "bracket_widen"
  | Bracket_restore -> "bracket_restore"
  | Faulted_create -> "faulted_create"
  | Salvage -> "salvage"
  | Deliver cpu -> Printf.sprintf "deliver_cpu%d" cpu

(* Alice runs on CPU 0, Bob on CPU 1 — two principals exercising two
   CPUs' cache fronts against each other is the smallest plant in
   which cross-CPU staleness can exist at all. *)
let alphabet ~bug =
  List.concat_map (fun who -> List.map (fun seg -> Read (who, seg)) [ S0; S1 ]) [ Alice; Bob ]
  @ List.concat_map
      (fun who -> List.map (fun seg -> Write (who, seg)) [ S0; S1 ])
      [ Alice; Bob ]
  @ [ Acl_revoke; Acl_grant; Bracket_widen; Bracket_restore; Faulted_create; Salvage ]
  @ if bug then [ Deliver 0; Deliver 1 ] else []

let action_of_string s =
  List.find_opt (fun a -> action_to_string a = s) (alphabet ~bug:true)

let trace_to_string trace = String.concat "," (List.map action_to_string trace)

let trace_of_string s =
  if String.trim s = "" then Some []
  else
    let parts = String.split_on_char ',' s in
    let actions = List.map (fun p -> action_of_string (String.trim p)) parts in
    if List.for_all Option.is_some actions then Some (List.map Option.get actions) else None

(* ----- Violations ----- *)

type violation = { predicate : string; detail : string }

(* ----- The plant ----- *)

let secret = Label.make Label.Secret []
let acl_s0_initial = Acl.of_strings [ ("Alice.Dev.*", "rew"); ("Bob.Dev.*", "r") ]
let acl_s0_revoked = Acl.of_strings [ ("Alice.Dev.*", "rew") ]
let acl_s0_granted = Acl.of_strings [ ("Alice.Dev.*", "rew"); ("Bob.Dev.*", "rw") ]
let acl_s1 = Acl.of_strings [ ("Alice.Dev.*", "rew"); ("Bob.Dev.*", "r") ]
let widened_brackets = Brackets.make ~r1:4 ~r2:5 ~r3:5

type instance = {
  system : System.t;
  plant : Smp.t;
  sim : Sim.t;
  alice : int;
  bob : int;
  home : Uid.t;  (** Alice's home directory — where the plant objects live *)
  home_segno : int;  (** ... as Alice addresses it *)
  s0 : Uid.t;
  s1 : Uid.t;
  alice_s0 : int;  (** per-principal segment numbers *)
  alice_s1 : int;
  bob_s0 : int;
  bob_s1 : int;
  (* E10-style taint accounting at the checker level: granted reads
     accumulate the object's taints into the subject, granted writes
     deposit the subject's carried taints into the object. *)
  mutable alice_carried : Label.t list;
  mutable bob_carried : Label.t list;
  mutable s0_taints : Label.t list;
  mutable s1_taints : Label.t list;
  mutable violations : violation list;  (** newest first; per-action (P2/P3) checks land here *)
}

let plumbing what = function
  | Ok reply -> reply
  | Error e -> failwith (Printf.sprintf "Mc plant %s: %s" what (Api.error_to_string e))

let expect_segno what response =
  match plumbing what response with
  | Call.Segno segno -> segno
  | _ -> failwith (Printf.sprintf "Mc plant %s: unexpected reply shape" what)

let handle_of t = function Alice -> t.alice | Bob -> t.bob
let cpu_of = function Alice -> 0 | Bob -> 1

let proc_of t who =
  match System.proc t.system (handle_of t who) with
  | Some p -> p
  | None -> failwith "Mc plant: process vanished"

(* Every action dispatches from its principal's CPU — the point of the
   plant is two CPUs' descriptor fronts diverging. *)
let dispatch t ~who request =
  Smp.set_current t.plant (cpu_of who);
  Call.dispatch t.system ~handle:(handle_of t who) request

let uid_of t = function S0 -> t.s0 | S1 -> t.s1
let segno_of t who seg =
  match (who, seg) with
  | Alice, S0 -> t.alice_s0
  | Alice, S1 -> t.alice_s1
  | Bob, S0 -> t.bob_s0
  | Bob, S1 -> t.bob_s1

let carried t = function Alice -> t.alice_carried | Bob -> t.bob_carried

let set_carried t who taints =
  match who with Alice -> t.alice_carried <- taints | Bob -> t.bob_carried <- taints

let taints_of t = function S0 -> t.s0_taints | S1 -> t.s1_taints

let set_taints t seg taints =
  match seg with S0 -> t.s0_taints <- taints | S1 -> t.s1_taints <- taints

let add_taints existing extra =
  List.fold_left
    (fun acc l -> if List.exists (Label.equal l) acc then acc else l :: acc)
    existing extra

let level_of t who = (proc_of t who).System.clearance

let boot ~bug () =
  let system = System.create Config.kernel_6180 in
  let plant = Smp.create ~ncpus:2 ~cost:(System.cost system) () in
  System.attach_plant system (Some plant);
  let sim = Sim.create ~cost:(System.cost system) ~virtual_processors:1 in
  Smp.set_now plant (fun () -> Sim.now sim);
  if bug then Smp.set_deferred_connects plant true;
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  ignore
    (System.add_account system ~person:"Bob" ~project:"Dev" ~password:"pw" ~clearance:secret);
  let login person =
    match System.login system ~person ~project:"Dev" ~password:"pw" with
    | Ok handle -> handle
    | Error e -> failwith (System.login_error_to_string e)
  in
  let alice = login "Alice" in
  let bob = login "Bob" in
  let aproc =
    match System.proc system alice with Some p -> p | None -> failwith "Mc: no Alice"
  in
  let home = aproc.System.working_dir in
  let home_segno = System.install_known system aproc ~uid:home in
  Smp.set_current plant 0;
  (* s0 is secret, s1 unclassified, both in Alice's (unclassified)
     home: Bob (secret) may read s0 and not write s1; Alice may write
     s0 blind and not read it — every lattice rule has a live case. *)
  let create name acl label =
    let segno =
      expect_segno ("create " ^ name)
        (Call.dispatch system ~handle:alice
           (Call.Create_segment { dir_segno = home_segno; name; acl; label; brackets = None }))
    in
    match Kst.uid_of_segno aproc.System.kst segno with
    | Ok uid -> (segno, uid)
    | Error _ -> failwith ("Mc plant: no uid for " ^ name)
  in
  let alice_s0, s0 = create "s0" acl_s0_initial secret in
  let alice_s1, s1 = create "s1" acl_s1 Label.unclassified in
  let bproc = match System.proc system bob with Some p -> p | None -> failwith "Mc: no Bob" in
  let bob_s0 = System.install_known system bproc ~uid:s0 in
  let bob_s1 = System.install_known system bproc ~uid:s1 in
  {
    system;
    plant;
    sim;
    alice;
    bob;
    home;
    home_segno;
    s0;
    s1;
    alice_s0;
    alice_s1;
    bob_s0;
    bob_s1;
    alice_carried = [ Label.unclassified ];
    bob_carried = [ secret ];
    s0_taints = [ secret ];
    s1_taints = [ Label.unclassified ];
    violations = [];
  }

let record t predicate detail = t.violations <- { predicate; detail } :: t.violations

(* ----- Applying one action (through the real gate layer) ----- *)

let fresh_mode t who seg =
  let p = proc_of t who in
  Hierarchy.effective_mode (System.hierarchy t.system) ~subject:(System.subject_of p)
    ~uid:(uid_of t seg)

(* E15's invariant-2 oracle: every installed descriptor must agree
   with a fresh recomputation from ACL x label x brackets. *)
let descriptor_disagreements t =
  List.fold_left
    (fun bad handle ->
      match System.proc t.system handle with
      | None -> bad
      | Some p ->
          let subject = System.subject_of p in
          let hierarchy = System.hierarchy t.system in
          List.fold_left
            (fun bad segno ->
              match Kst.sdw_of p.System.kst segno with
              | None -> bad
              | Some installed -> (
                  match
                    Kst.uid_of_segno p.System.kst segno |> Result.to_option
                    |> Fun.flip Option.bind (fun uid ->
                           Hierarchy.sdw_for hierarchy ~subject ~uid)
                  with
                  | None -> bad + 1
                  | Some fresh ->
                      if
                        Mode.equal (Sdw.mode installed) (Sdw.mode fresh)
                        && Brackets.equal (Sdw.brackets installed) (Sdw.brackets fresh)
                        && Sdw.gate_bound installed = Sdw.gate_bound fresh
                      then bad
                      else bad + 1))
            bad
            (Kst.known_segnos p.System.kst))
    0 (System.handles t.system)

let apply_action t action =
  match action with
  | Read (who, seg) -> (
      match dispatch t ~who (Call.Read_word { segno = segno_of t who seg; offset = 0 }) with
      | Ok _ ->
          (* P2: the grant must survive a fresh recomputation now. *)
          let m = fresh_mode t who seg in
          if not m.Mode.read then
            record t "P2-fail-secure"
              (Printf.sprintf "%s was granted read on %s but a fresh recomputation refuses"
                 (principal_name who) (seg_name seg));
          (* P3: the reader now carries the object's taints. *)
          set_carried t who (add_taints (carried t who) (taints_of t seg))
      | Error _ -> ())
  | Write (who, seg) -> (
      match
        dispatch t ~who (Call.Write_word { segno = segno_of t who seg; offset = 0; value = 7 })
      with
      | Ok _ ->
          let m = fresh_mode t who seg in
          if not m.Mode.write then
            record t "P2-fail-secure"
              (Printf.sprintf "%s was granted write on %s but a fresh recomputation refuses"
                 (principal_name who) (seg_name seg));
          (* P3: the object absorbs the writer's carried taints. *)
          set_taints t seg
            (add_taints (taints_of t seg) (level_of t who :: carried t who))
      | Error _ -> ())
  | Acl_revoke ->
      ignore
        (plumbing "acl_revoke"
           (dispatch t ~who:Alice
              (Call.Set_acl { segno = segno_of t Alice S0; acl = acl_s0_revoked })))
  | Acl_grant ->
      ignore
        (plumbing "acl_grant"
           (dispatch t ~who:Alice
              (Call.Set_acl { segno = segno_of t Alice S0; acl = acl_s0_granted })))
  | Bracket_widen ->
      ignore
        (plumbing "bracket_widen"
           (dispatch t ~who:Alice
              (Call.Set_brackets { segno = segno_of t Alice S0; brackets = widened_brackets })))
  | Bracket_restore ->
      ignore
        (plumbing "bracket_restore"
           (dispatch t ~who:Alice
              (Call.Set_brackets { segno = segno_of t Alice S0; brackets = Brackets.user_data })))
  | Faulted_create ->
      (* Arm a deterministic one-shot abort at the gate layer, tear a
         creation down mid-flight, disarm.  The orphan branch and its
         journal entry persist into the reachable state space until
         some interleaving salvages them. *)
      ignore
        (plumbing "arm"
           (dispatch t ~who:Alice (Call.Set_fault_plan { seed = 1; spec = "gate.abort=nth:1" })));
      (match
         dispatch t ~who:Alice
           (Call.Create_segment
              {
                dir_segno = t.home_segno;
                name = "tmp";
                acl = Acl.of_strings [ ("Alice.Dev.*", "rew") ];
                label = Label.unclassified;
                brackets = None;
              })
       with
      | Ok _ -> record t "P2-fail-secure" "a faulted create returned success"
      | Error _ -> ());
      ignore (plumbing "disarm" (dispatch t ~who:Alice Call.Clear_faults))
  | Salvage -> (
      match dispatch t ~who:Alice Call.Salvage with
      | Ok (Call.Salvaged report) ->
          if not report.Salvager.quota_ok then
            record t "P2-fail-secure" "quota invariant broken after salvage";
          if System.crash_journal t.system <> [] then
            record t "P2-fail-secure" "crash journal survived a salvage";
          let bad = descriptor_disagreements t in
          if bad > 0 then
            record t "P2-fail-secure"
              (Printf.sprintf "%d descriptor disagreements survived a salvage" bad)
      | Ok _ | Error _ -> failwith "Mc plant salvage: unexpected response")
  | Deliver cpu -> ignore (Smp.deliver_connects t.plant ~cpu)

(* ----- The memory image -----

   An exploration boots its plant once, into an image nothing replays,
   and runs every replay on a copy of it ([System.copy]: the kernel,
   its processes and the attached plant; a fresh [Sim], as every boot
   gets).  The image's AV cells are detached from the booting domain's
   ACL generation, so they read the same whatever ACLs that domain
   builds afterwards; each copy folds in the domain it is made on,
   exactly as a boot there would. *)

let copy_instance t =
  let system = System.copy t.system in
  let plant =
    match System.plant system with Some plant -> plant | None -> failwith "Mc: no plant"
  in
  let sim = Sim.create ~cost:(System.cost system) ~virtual_processors:1 in
  Smp.set_now plant (fun () -> Sim.now sim);
  {
    system;
    plant;
    sim;
    alice = t.alice;
    bob = t.bob;
    home = t.home;
    home_segno = t.home_segno;
    s0 = t.s0;
    s1 = t.s1;
    alice_s0 = t.alice_s0;
    alice_s1 = t.alice_s1;
    bob_s0 = t.bob_s0;
    bob_s1 = t.bob_s1;
    alice_carried = t.alice_carried;
    bob_carried = t.bob_carried;
    s0_taints = t.s0_taints;
    s1_taints = t.s1_taints;
    violations = t.violations;
  }

type image = { image_bug : bool; booted : instance }

let build_image ~bug =
  let booted = boot ~bug () in
  Hierarchy.set_acl_epoch (System.hierarchy booted.system) (Avc.Gen.new_epoch ());
  { image_bug = bug; booted }

let copy image = copy_instance image.booted

(* ----- Replay: canonical re-execution through the event queue -----

   Every action of the trace is pushed at the same firing time; the
   queue's tie-order stability (insertion order) is what makes the
   schedule — and therefore the state — a pure function of the trace. *)
let run t trace =
  List.iter (fun action -> Sim.at t.sim ~delay:1 (fun () -> apply_action t action)) trace;
  Sim.run t.sim;
  t

(* ----- Canonicalization -----

   Rendered by direct [Buffer] adds: a capture runs once per replay,
   and interpreting format strings ([Printf.ksprintf], a fresh
   formatter per [Fmt.str], [string_of_int]) took about a quarter of an
   exploration's time.  The golden canonical-state test pins the
   bytes. *)

let add_int = Multics_util.Decimal.add

(* "(r1,r2,r3)", as [Brackets.pp] prints them. *)
let add_brackets b brackets =
  Buffer.add_char b '(';
  add_int b (Ring.to_int (Brackets.write_top brackets));
  Buffer.add_char b ',';
  add_int b (Ring.to_int (Brackets.execute_top brackets));
  Buffer.add_char b ',';
  add_int b (Ring.to_int (Brackets.call_top brackets));
  Buffer.add_char b ')'

let add_sdw b sdw =
  Buffer.add_string b (Mode.to_string (Sdw.mode sdw));
  Buffer.add_char b '/';
  add_brackets b (Sdw.brackets sdw);
  Buffer.add_char b '/';
  add_int b (Sdw.gate_bound sdw)

let add_sorted b ~sep strings =
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b sep;
      Buffer.add_string b s)
    (List.sort String.compare strings)

(* A cache front holds at most one entry per key, so ordering by key
   alone is the order [compare] gives the pairs. *)
let by_key entries = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries

let add_acl b acl =
  add_sorted b ~sep:" "
    (List.map
       (fun (pattern, mode) -> Principal.pattern_to_string pattern ^ ":" ^ Mode.to_string mode)
       (Acl.entries acl))

let add_labels b labels = add_sorted b ~sep:"+" (List.map Label.to_string labels)

(* The orphan branch a faulted create leaves behind, found by name so
   its (run-dependent) uid never leaks into the canonical form. *)
let tmp_uid t =
  match
    Hierarchy.lookup (System.hierarchy t.system) ~subject:System.initializer_subject
      ~dir:t.home ~name:"tmp"
  with
  | Ok uid -> Some uid
  | Error _ -> None

(* The canonical form is ten lines, one per component: s0, s1 and tmp,
   each process, each CPU's fronts, the pending connects, the journal
   and the taints.  [render] returns the text and the offset where each
   component starts, plus the end. *)
let components_per_state = 10

let render t =
  let b = Buffer.create 1024 in
  let cuts = Array.make (components_per_state + 1) 0 in
  let next_cut = ref 1 in
  let cut () =
    cuts.(!next_cut) <- Buffer.length b;
    incr next_cut
  in
  let add = Buffer.add_string b and addc = Buffer.add_char b and addi = add_int b in
  let add_key key =
    addc ' ';
    addi key
  in
  let add_entry (key, sdw) =
    add_key key;
    addc '=';
    add_sdw b sdw
  in
  let hierarchy = System.hierarchy t.system in
  (* Objects: attributes + the one tracked word of contents. *)
  let render_object name uid =
    add "obj ";
    add name;
    match Hierarchy.acl_of hierarchy uid with
    | None -> add " absent\n"
    | Some acl ->
        add " acl{";
        add_acl b acl;
        add "} label=";
        add
          (match Hierarchy.label_of hierarchy uid with
          | Some l -> Label.to_string l
          | None -> "?");
        add " brackets=";
        (match Hierarchy.brackets_of hierarchy uid with
        | Some brackets -> add_brackets b brackets
        | None -> addc '?');
        add " gate=";
        addi (Option.value ~default:0 (Hierarchy.gate_bound_of hierarchy uid));
        add " word0=";
        addi (Option.value ~default:(-1) (Hierarchy.raw_read_word hierarchy ~uid ~offset:0));
        addc '\n'
  in
  render_object "s0" t.s0;
  cut ();
  render_object "s1" t.s1;
  cut ();
  (match tmp_uid t with None -> add "obj tmp absent\n" | Some uid -> render_object "tmp" uid);
  cut ();
  (* Processes: ring, known segments, installed SDWs, and the
     per-process associative-memory front. *)
  List.iter
    (fun who ->
      let p = proc_of t who in
      add "proc ";
      add (principal_name who);
      add " ring=";
      addi (Ring.to_int p.System.ring);
      add " kst{";
      List.iter
        (fun segno ->
          match Kst.sdw_of p.System.kst segno with
          | Some sdw -> add_entry (segno, sdw)
          | None ->
              add_key segno;
              add "=-")
        (Kst.known_segnos p.System.kst);
      add " } assoc{";
      List.iter add_entry (by_key (Hardware.Assoc.entries p.System.assoc));
      add " }\n";
      cut ())
    [ Alice; Bob ];
  (* Per-CPU fronts. *)
  for cpu = 0 to 1 do
    add "cpu ";
    addi cpu;
    add " cam{";
    List.iter add_entry (by_key (Smp.cam_entries t.plant ~cpu));
    add " } ptw{";
    List.iter add_key (List.sort Int.compare (Smp.ptw_keys t.plant ~cpu));
    add " }\n";
    cut ()
  done;
  (* Queued (undelivered) connects, in arrival order. *)
  add "pending{";
  List.iter
    (fun (cpu, tag) ->
      add_key cpu;
      addc ':';
      add tag)
    (Smp.pending_connects t.plant);
  add " }\n";
  cut ();
  (* The crash journal, sans timestamps (timing is not state). *)
  add "journal{";
  List.iter
    (fun (e : System.journal_entry) ->
      add_key e.System.handle;
      addc ':';
      add e.System.operation;
      addc ':';
      (match e.System.dir with Some uid -> addi (Uid.to_int uid) | None -> addc '-');
      addc ':';
      add (Option.value ~default:"-" e.System.entry_name))
    (System.crash_journal t.system);
  add " }\n";
  cut ();
  (* Taint accounting (the P3 state). *)
  add "taints alice{";
  add_labels b t.alice_carried;
  add "} bob{";
  add_labels b t.bob_carried;
  add "} s0{";
  add_labels b t.s0_taints;
  add "} s1{";
  add_labels b t.s1_taints;
  add "}\n";
  cut ();
  (b, cuts)

let canonical t = Buffer.contents (fst (render t))

(* The same text, one string per component: [canonical] is their
   concatenation. *)
let components t =
  let b, cuts = render t in
  Array.init components_per_state (fun i -> Buffer.sub b cuts.(i) (cuts.(i + 1) - cuts.(i)))

let fingerprint canon = Digest.to_hex (Digest.string canon)

(* ----- The state predicates ----- *)

(* P1: no front may hold a descriptor granting a mode a fresh
   recomputation refuses.  More-restrictive staleness is a freshness
   bug, not a security one; the predicate is exactly "no stale
   Permit".  (PTW fronts carry no access bits — a stale PTW entry
   skips a page-table walk, never a mediation — so the SDW-bearing
   fronts are the ones walked.) *)
type front = Assoc_of of principal | Cam_of of int

(* Formatted only when a violation is recorded: P1 walks every cached
   entry of every front at every state. *)
let front_to_string = function
  | Assoc_of who -> principal_name who ^ "'s associative memory"
  | Cam_of cpu -> Printf.sprintf "cpu %d's CAM" cpu

let stale_permit t ~front ~segno ~cached ~uid_opt ~subject =
  let hierarchy = System.hierarchy t.system in
  let fresh = Option.bind uid_opt (fun uid -> Hierarchy.sdw_for hierarchy ~subject ~uid) in
  let cached_mode = Sdw.mode cached in
  match fresh with
  | None ->
      if not (Mode.is_none cached_mode) then
        record t "P1-stale-permit"
          (Printf.sprintf "%s holds %s for dangling segno %d" (front_to_string front)
             (Mode.to_string cached_mode) segno)
  | Some fresh ->
      if not (Mode.subset cached_mode (Sdw.mode fresh)) then
        record t "P1-stale-permit"
          (Printf.sprintf "%s grants %s on segno %d; fresh descriptor grants only %s"
             (front_to_string front) (Mode.to_string cached_mode) segno
             (Mode.to_string (Sdw.mode fresh)))

let check_p1 t =
  List.iter
    (fun who ->
      let p = proc_of t who in
      let subject = System.subject_of p in
      List.iter
        (fun (segno, cached) ->
          stale_permit t ~front:(Assoc_of who) ~segno ~cached
            ~uid_opt:(Result.to_option (Kst.uid_of_segno p.System.kst segno))
            ~subject)
        (Hardware.Assoc.entries p.System.assoc))
    [ Alice; Bob ];
  for cpu = 0 to 1 do
    List.iter
      (fun (key, cached) ->
        let handle, segno = Smp.split_cam_key key in
        match System.proc t.system handle with
        | None ->
            if not (Mode.is_none (Sdw.mode cached)) then
              record t "P1-stale-permit"
                (Printf.sprintf "cpu %d CAM holds a grant for vanished process %d" cpu handle)
        | Some p ->
            stale_permit t ~front:(Cam_of cpu) ~segno ~cached
              ~uid_opt:(Result.to_option (Kst.uid_of_segno p.System.kst segno))
              ~subject:(System.subject_of p))
      (Smp.cam_entries t.plant ~cpu)
  done

(* P3: accumulated taints stay dominated — no interleaving of granted
   accesses moved information downward. *)
let check_p3 t =
  let hierarchy = System.hierarchy t.system in
  let object_check name uid taints =
    match Hierarchy.label_of hierarchy uid with
    | None -> ()
    | Some label ->
        List.iter
          (fun taint ->
            if not (Label.dominates label taint) then
              record t "P3-lattice-flow"
                (Printf.sprintf "%s (label %s) carries taint %s" name (Label.to_string label)
                   (Label.to_string taint)))
          taints
  in
  object_check "s0" t.s0 t.s0_taints;
  object_check "s1" t.s1 t.s1_taints;
  List.iter
    (fun who ->
      let clearance = level_of t who in
      List.iter
        (fun taint ->
          if not (Label.dominates clearance taint) then
            record t "P3-lattice-flow"
              (Printf.sprintf "%s (clearance %s) carries taint %s" (principal_name who)
                 (Label.to_string clearance) (Label.to_string taint)))
        (carried t who))
    [ Alice; Bob ]

(* P4: the compiled access-vector table must agree with the structured
   monitor on every subject x object x mode of the plant. *)
let check_p4 t =
  let hierarchy = System.hierarchy t.system in
  let permits = function Some Policy.Permit -> true | Some (Policy.Refuse _) | None -> false in
  List.iter
    (fun who ->
      let subject = System.subject_of (proc_of t who) in
      List.iter
        (fun (name, uid) ->
          List.iter
            (fun (mode_name, requested) ->
              let compiled = Hierarchy.check_access hierarchy ~subject ~uid ~requested in
              let structured = Hierarchy.check_access_fresh hierarchy ~subject ~uid ~requested in
              if permits compiled <> permits structured then
                record t "P4-av-parity"
                  (Printf.sprintf "%s x %s x %s: table says %b, structured monitor says %b"
                     (principal_name who) name mode_name (permits compiled)
                     (permits structured)))
            [ ("r", Mode.r); ("w", Mode.w); ("rw", Mode.rw) ])
        [ ("s0", t.s0); ("s1", t.s1) ])
    [ Alice; Bob ]

(* Run the state predicates; call only after [canonical] — P4's table
   probe may warm caches the capture must not see. *)
let check_state t =
  check_p1 t;
  check_p3 t;
  check_p4 t

(* The full per-trace verdict on a booted plant [t]: replay, capture
   the state, then run the predicates.  Violations come back
   oldest-first. *)
let verdict capture t trace =
  let t = run t trace in
  let state = capture t in
  check_state t;
  (state, List.rev t.violations)

(* The reference every image copy is tested against: a fresh boot. *)
let violations_of_trace ~bug trace = verdict canonical (boot ~bug ()) trace

module Image = struct
  type t = image

  let build = build_image
  let violations_of_trace image trace = verdict canonical (copy image) trace

  (* Rendered on a copy: even a read-only capture compiles AV cells
     ([tmp_uid]'s lookup), and the image is never written. *)
  let canonical image = canonical (copy image)
end

(* ----- State keys -----

   The visited set keys on an [int array]: one id per canonical
   component, interned in a table that lives as long as one
   exploration.  Two keys are equal exactly when every component is,
   that is, when the canonical strings are: the key is injective, never
   a digest.  A state's ~600 bytes of text become eleven words, and a
   component shared by many states is held once. *)
module State_key = struct
  type table = (string, int) Hashtbl.t

  let create () : table = Hashtbl.create 64

  let intern table component =
    match Hashtbl.find_opt table component with
    | Some id -> id
    | None ->
        let id = Hashtbl.length table in
        Hashtbl.add table component id;
        id

  let of_components table components = Array.map (intern table) components

  let of_trace table ~bug trace =
    of_components table (fst (verdict components (boot ~bug ()) trace))
end

(* The polymorphic hash looks at no more than ten values, so the key's
   hash folds in every id itself. *)
module Visited = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec same i = i = n || (a.(i) = b.(i) && same (i + 1)) in
    same 0

  let hash (key : t) = Array.fold_left (fun h id -> (h * 65599) + id) 0 key land max_int
end)

(* ----- Bounded exhaustive exploration ----- *)

type counterexample = { trace : action list; violation : violation }

type depth_row = {
  row_depth : int;
  row_new_states : int;  (** states first reached at this depth *)
  row_states : int;  (** cumulative distinct states *)
  row_expansions : int;  (** replays executed at this depth *)
  row_cpu_s : float;  (** process CPU seconds from the start of the exploration to this row *)
}

type outcome = {
  o_depth : int;
  o_bug : bool;
  o_states : int;
  o_expansions : int;
  o_rows : depth_row list;
  o_counterexamples : counterexample list;
      (** at most one per predicate — the first (shortest) trace found *)
  o_fixpoint : bool;  (** the frontier emptied within [o_depth] *)
}

let note_counterexample found trace violation =
  if not (List.exists (fun c -> c.violation.predicate = violation.predicate) !found) then
    found := !found @ [ { trace; violation } ]

(* The healthy plant's frontier empties at depth 11; the cap leaves
   room for a plant that grows. *)
let depth_cap = 16

(* Candidates replayed per [Par.map] round: a fixed multiple of the
   pool size, so a level of any width keeps a bounded number of
   replayed states in flight while every domain still gets a batch;
   each pooled round spawns and joins the pool's domains, which a
   smaller multiple pays for more often. *)
let chunk_size ~jobs = 64 * jobs

(* The search [explore] and [successor_check] share.  [on_state rtrace
   key ~fresh] sees every replayed trace (reversed) as it merges, with
   its state's key and whether the state is new. *)
let search ~jobs ~image ~depth ~on_state =
  let bug = image.image_bug in
  let chunk = chunk_size ~jobs in
  let alpha = alphabet ~bug in
  let keys = State_key.create () in
  let visited = Visited.create 64 in
  let found = ref [] in
  let started = Sys.time () in
  (* Merge one replayed candidate, given by its trace reversed: note its
     violations, and put it on [next] iff its state is new — unseen at
     any earlier depth and not claimed by an earlier candidate of this
     level (BFS keeps the first, i.e. lexicographically least, trace per
     state). *)
  let merge next rtrace (components, violations) =
    if violations <> [] then begin
      let trace = List.rev rtrace in
      List.iter (note_counterexample found trace) violations
    end;
    let key = State_key.of_components keys components in
    let fresh = not (Visited.mem visited key) in
    on_state rtrace key ~fresh;
    if fresh then begin
      Visited.add visited key ();
      rtrace :: next
    end
    else next
  in
  let replay rtrace = verdict components (copy image) (List.rev rtrace) in
  (* The root is the image's own state.  An exploration that expands
     nothing makes no copy after the root, so it checks the root on the
     image itself: one boot and no copy. *)
  let root = if depth < 1 then image.booted else copy image in
  ignore (merge [] [] (verdict components root []));
  (* A level's candidates are generated from the frontier in order,
     [a :: rtrace] sharing the parent's trace, and replayed a chunk at a
     time.  Each chunk merges in task order, so the outcome is
     byte-identical at any pool size. *)
  let rec level d frontier rows =
    if d > depth || frontier = [] then (frontier, List.rev rows)
    else begin
      let next = ref [] and batch = ref [] and batched = ref 0 and expansions = ref 0 in
      let flush () =
        let candidates = List.rev !batch in
        batch := [];
        batched := 0;
        next := List.fold_left2 merge !next candidates (Par.map ~jobs replay candidates)
      in
      List.iter
        (fun rtrace ->
          List.iter
            (fun a ->
              batch := (a :: rtrace) :: !batch;
              incr batched;
              incr expansions;
              if !batched = chunk then flush ())
            alpha)
        frontier;
      flush ();
      let next = List.rev !next in
      let row =
        {
          row_depth = d;
          row_new_states = List.length next;
          row_states = Visited.length visited;
          row_expansions = !expansions;
          row_cpu_s = Sys.time () -. started;
        }
      in
      level (d + 1) next (row :: rows)
    end
  in
  let frontier, rows = level 1 [ [] ] [] in
  {
    o_depth = depth;
    o_bug = bug;
    o_states = Visited.length visited;
    o_expansions = List.fold_left (fun n r -> n + r.row_expansions) 0 rows;
    o_rows = rows;
    o_counterexamples = !found;
    o_fixpoint = frontier = [];
  }

let default_jobs = function Some j -> j | None -> Par.default_jobs ()

let explore ?jobs ?(bug = false) ~depth () =
  search ~jobs:(default_jobs jobs) ~image:(build_image ~bug) ~depth
    ~on_state:(fun _ _ ~fresh:_ -> ())

(* ----- The successor check -----

   The visited set merges two traces whose canonical strings are
   equal; that is sound only if the string hides nothing that decides
   later behaviour.  Every trace of the search that merged into a state
   already visited (its representative) must therefore have successors
   that render exactly as the representative's do, action by action. *)

type successor_report = {
  sr_merged : int;  (** traces that merged into an earlier state *)
  sr_pairs : int;  (** (merged successor, representative successor) pairs compared *)
  sr_divergent : (action list * action list * action) list;
      (** (merged trace, its representative, the action after which
          their canonical strings differ) *)
}

let successor_check ?jobs ?(bug = false) ~depth () =
  let jobs = default_jobs jobs in
  (* Each state's representative and the traces merged into it, newest
     first. *)
  let groups = Visited.create 64 and order = ref [] in
  let on_state rtrace key ~fresh =
    if fresh then begin
      let group = (rtrace, ref []) in
      Visited.add groups key group;
      order := group :: !order
    end
    else
      let _, merged = Visited.find groups key in
      merged := rtrace :: !merged
  in
  let image = build_image ~bug in
  ignore (search ~jobs ~image ~depth ~on_state);
  let groups = List.filter (fun (_, merged) -> !merged <> []) (List.rev !order) in
  let alpha = alphabet ~bug in
  let successor rtrace a = fst (verdict canonical (copy image) (List.rev (a :: rtrace))) in
  (* One task per representative: its successors are replayed once, then
     compared with each merged trace's. *)
  let check (rep, merged) =
    let expected = List.map (fun a -> (a, successor rep a)) alpha in
    List.concat_map
      (fun rtrace ->
        List.filter_map
          (fun (a, want) ->
            if String.equal want (successor rtrace a) then None
            else Some (List.rev rtrace, List.rev rep, a))
          expected)
      (List.rev !merged)
  in
  let merged = List.fold_left (fun n (_, m) -> n + List.length !m) 0 groups in
  {
    sr_merged = merged;
    sr_pairs = merged * List.length alpha;
    sr_divergent = List.concat (Par.map ~jobs check groups);
  }

(* ----- Rendering ----- *)

let violation_to_string v = Printf.sprintf "%s: %s" v.predicate v.detail

let counterexample_script c =
  String.concat "\n"
    [
      "#!/bin/sh";
      Printf.sprintf "# %s" (violation_to_string c.violation);
      "# Replay the counterexample trace through the operator console";
      "# (the bug flag re-enables the deferred-connect window):";
      "dune exec bin/shell.exe <<'EOF'";
      Printf.sprintf "mc replay %s bug" (trace_to_string c.trace);
      "EOF";
      "";
    ]

let summary o =
  let b = Buffer.create 256 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "plant: 2 CPUs, 2 principals, 2 segments; alphabet of %d actions%s\n"
    (List.length (alphabet ~bug:o.o_bug))
    (if o.o_bug then " (deferred-connect bug enabled)" else "");
  bpf "  %5s  %12s  %12s  %12s\n" "depth" "expansions" "new states" "states";
  bpf "  %5d  %12s  %12s  %12d\n" 0 "-" "-" 1;
  List.iter
    (fun r ->
      bpf "  %5d  %12d  %12d  %12d\n" r.row_depth r.row_expansions r.row_new_states r.row_states)
    o.o_rows;
  let violations = List.length o.o_counterexamples in
  let plural = if violations = 1 then "" else "s" in
  if o.o_fixpoint then
    bpf "  fixpoint at depth %d: all %d reachable states, %d replays, %d violation%s\n"
      (List.length o.o_rows) o.o_states o.o_expansions violations plural
  else
    bpf "  exhaustive to depth %d: %d distinct states, %d replays, %d violation%s\n" o.o_depth
      o.o_states o.o_expansions violations plural;
  List.iter
    (fun c ->
      bpf "  counterexample (depth %d): [%s]\n    %s\n" (List.length c.trace)
        (trace_to_string c.trace) (violation_to_string c.violation))
    o.o_counterexamples;
  Buffer.contents b

(* ----- Random traces (for the replay-determinism regression) ----- *)

let random_trace ~seed ~length =
  let prng = Prng.create_labeled ~seed ~label:"mc.trace" in
  let alpha = Array.of_list (alphabet ~bug:true) in
  List.init length (fun _ -> alpha.(Prng.int prng (Array.length alpha)))
