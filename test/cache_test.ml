(* The access-decision caches: unit tests for the associative memory
   ([Hardware.Assoc], a CPU's SDW and PTW memories), the AV table's
   generation counters ([Av_table.Gen]), revocation coverage for every
   mutating entry point of the hierarchy, the salvager's cache
   invalidation, and the 100-seed parity property — the cached
   mediation path must agree with fresh recomputation at every step,
   including under flush storms. *)

open Multics_access
open Multics_machine
open Multics_kernel
module Gen = Av_table.Gen
module Hierarchy = Multics_fs.Hierarchy
module Uid = Multics_fs.Uid
module Obs = Multics_obs.Obs
module Smp = Multics_smp.Smp

(* Counter names are shared per memory [name], so every test uses its
   own name to keep readings isolated. *)
let counter_of m field = List.assoc field (Hardware.Assoc.counters m)

let test_assoc_basics () =
  Obs.set_enabled true;
  let m = Hardware.Assoc.create ~slots:8 ~name:"t.basics" in
  Alcotest.(check (option int)) "miss before install" None (Hardware.Assoc.lookup m ~key:1);
  Hardware.Assoc.install m ~key:1 10;
  Alcotest.(check (option int)) "hit after install" (Some 10) (Hardware.Assoc.lookup m ~key:1);
  Alcotest.(check int) "size" 1 (Hardware.Assoc.size m);
  Alcotest.(check int) "one hit" 1 (counter_of m "hits");
  Alcotest.(check int) "one miss" 1 (counter_of m "misses")

let test_assoc_invalidate () =
  Obs.set_enabled true;
  let m = Hardware.Assoc.create ~slots:8 ~name:"t.inv_obj" in
  Hardware.Assoc.install m ~key:1 10;
  Hardware.Assoc.install m ~key:2 20;
  Hardware.Assoc.invalidate m ~key:1;
  Alcotest.(check (option int)) "revoked entry dropped" None (Hardware.Assoc.lookup m ~key:1);
  Alcotest.(check (option int)) "other key unaffected" (Some 20) (Hardware.Assoc.lookup m ~key:2);
  Alcotest.(check int) "invalidation counted" 1 (counter_of m "invalidations");
  Hardware.Assoc.install m ~key:1 11;
  Alcotest.(check (option int)) "re-install after invalidation hits" (Some 11)
    (Hardware.Assoc.lookup m ~key:1)

(* A flush empties every slot at once. *)
let test_assoc_flush () =
  Obs.set_enabled true;
  let m = Hardware.Assoc.create ~slots:8 ~name:"t.inv_all" in
  Hardware.Assoc.install m ~key:1 10;
  Hardware.Assoc.install m ~key:2 20;
  Hardware.Assoc.flush m;
  Alcotest.(check int) "nothing occupied" 0 (Hardware.Assoc.size m);
  Alcotest.(check (option int)) "entry 1 gone" None (Hardware.Assoc.lookup m ~key:1);
  Alcotest.(check (option int)) "entry 2 gone" None (Hardware.Assoc.lookup m ~key:2);
  Alcotest.(check int) "flush counted" 1 (counter_of m "flushes")

let test_assoc_direct_mapped_displacement () =
  Obs.set_enabled true;
  (* Keys 1 and 5 share slot 1 of four: displacement must evict the
     resident entry, and the key compare must keep a collision from
     ever being served as a hit. *)
  let m = Hardware.Assoc.create ~slots:4 ~name:"t.collide" in
  Hardware.Assoc.install m ~key:1 10;
  Hardware.Assoc.install m ~key:5 50;
  Alcotest.(check (option int)) "displaced entry is a miss" None (Hardware.Assoc.lookup m ~key:1);
  Alcotest.(check (option int)) "resident entry hits" (Some 50) (Hardware.Assoc.lookup m ~key:5);
  Alcotest.(check int) "one slot occupied" 1 (Hardware.Assoc.size m)

let test_assoc_slots_power_of_two () =
  List.iter
    (fun slots ->
      Alcotest.check_raises
        (Printf.sprintf "%d slots refused" slots)
        (Invalid_argument
           (Printf.sprintf "Hardware.Assoc.create: %d slots is not a power of two" slots))
        (fun () -> ignore (Hardware.Assoc.create ~slots ~name:"t.cap")))
    [ 0; 10; 48; -4 ];
  Alcotest.(check int) "a power of two is accepted" 0
    (Hardware.Assoc.size (Hardware.Assoc.create ~slots:64 ~name:"t.cap"))

let test_assoc_entries_skip_revoked () =
  let m = Hardware.Assoc.create ~slots:8 ~name:"t.keys" in
  Hardware.Assoc.install m ~key:1 10;
  Hardware.Assoc.install m ~key:2 20;
  Hardware.Assoc.invalidate m ~key:2;
  Alcotest.(check (list (pair int int))) "only live entries" [ (1, 10) ] (Hardware.Assoc.entries m);
  Alcotest.(check int) "the revoked one still occupies its slot" 2 (Hardware.Assoc.size m)

let test_gen_dense_and_overflow_ids () =
  (* Ids in [0, 2^16) count their own bumps, however far apart they
     lie; every other id reads and bumps the one overflow counter. *)
  let g = Gen.create () in
  let reads what want id = Alcotest.(check int) what want (Gen.of_object g id) in
  reads "unbumped dense id" 0 3;
  Gen.bump_object g 3;
  Gen.bump_object g 3;
  reads "dense id bumped twice" 2 3;
  reads "dense id beyond the array" 0 5_000;
  Gen.bump_object g 5_000;
  reads "grown dense id" 1 5_000;
  reads "growth keeps earlier counts" 2 3;
  Gen.bump_object g (Gen.dense_limit - 1);
  reads "last dense id" 1 (Gen.dense_limit - 1);
  Gen.bump_object g (-7);
  reads "negative id reads the overflow counter" 1 (-7);
  reads "so does the first id past the range" 1 Gen.dense_limit;
  Gen.bump_object g max_int;
  reads "a bump of one stales every id outside the range" 2 (-7);
  reads "dense ids keep their own counts" 1 5_000;
  Gen.bump_global g;
  Alcotest.(check int) "global independent" 1 (Gen.global g)

let test_gen_counters_bounded () =
  (* Whatever ids are bumped, the counter array never outgrows the
     dense range: ids outside it cost nothing, and bumping every id of
     0..2^20 leaves one array of 2^16 counters. *)
  let g = Gen.create () in
  let words () = Obj.reachable_words (Obj.repr g) in
  let empty = words () in
  List.iter (Gen.bump_object g) [ max_int; -7; min_int ];
  Alcotest.(check int) "ids outside the range allocate nothing" empty (words ());
  for id = 0 to 1 lsl 20 do
    Gen.bump_object g id
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d words <= 2^16 counters plus the record" (words ()))
    true
    (words () <= Gen.dense_limit + empty + 1);
  Alcotest.(check int) "last dense id counted" 1 (Gen.of_object g (Gen.dense_limit - 1));
  Alcotest.(check int) "every other id shares one counter"
    (3 + (1 lsl 20) + 1 - Gen.dense_limit)
    (Gen.of_object g (-1))

(* The flat counters against a reference model: a hashtable of every
   bumped id in [0, 2^16), one counter for every other id, and the
   global generation.  Ids span 0..2^17, both sides of the dense
   limit, the limit's neighbourhood and negative ids. *)
type gen_op = Bump of int | Bump_global

let run_gen_model ops =
  let g = Gen.create () in
  let model = Hashtbl.create 64 and overflow = ref 0 and global = ref 0 in
  let dense id = id >= 0 && id < Gen.dense_limit in
  let model_get id =
    if dense id then Option.value (Hashtbl.find_opt model id) ~default:0 else !overflow
  in
  let probe id = Gen.of_object g id = model_get id in
  List.for_all
    (fun op ->
      (match op with
      | Bump_global ->
          Gen.bump_global g;
          incr global
      | Bump id ->
          Gen.bump_object g id;
          if dense id then Hashtbl.replace model id (model_get id + 1) else incr overflow);
      Gen.global g = !global
      &&
      match op with
      | Bump id -> probe id && probe (id + 1) && probe (id - 1)
      | Bump_global -> true)
    ops
  && Hashtbl.fold (fun id n ok -> ok && Gen.of_object g id = n) model true
  && probe (-1) && probe Gen.dense_limit && probe max_int

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun id -> Bump id) (int_range 0 (1 lsl 17)));
        (2, map (fun id -> Bump (Gen.dense_limit + id)) (int_range (-4) 4));
        (2, map (fun id -> Bump (-id)) (int_range 1 max_int));
        (1, return Bump_global);
      ])

let test_gen_flat_model =
  QCheck.Test.make ~name:"gen: flat counters match a model with one overflow counter" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 300) gen_op))
    run_gen_model

(* A CPU CAM's keys: the process handle above the segment number's 12
   bits, as [Smp] packs them. *)
let cam_key handle segno = (handle lsl 12) lor segno

(* A CPU's SDW memory, as [Smp] builds it. *)
let cam () = Hardware.Assoc.create ~slots:16 ~name:"hw.assoc"

let sdws =
  [|
    Sdw.user_data_segment ~writable:true;
    Sdw.user_data_segment ~writable:false;
    Sdw.kernel_data_segment;
    Sdw.kernel_gate_segment ~gate_bound:4;
  |]

let test_assoc_revoked_not_shadowed () =
  (* From handle 16 on, a CAM key lies past 2^16.  Invalidations for
     handles 8 and 9 in the same slot must neither revoke the entry
     nor hide its own later invalidation: once revoked it stays
     revoked. *)
  let cam = cam () in
  let victim = cam_key 16 2 in
  Hardware.Assoc.install cam ~key:victim sdws.(0);
  Hardware.Assoc.invalidate cam ~key:(cam_key 8 2);
  Hardware.Assoc.invalidate cam ~key:(cam_key 9 2);
  Alcotest.(check (list int)) "other keys leave the entry" [ victim ]
    (List.map fst (Hardware.Assoc.entries cam));
  Hardware.Assoc.invalidate cam ~key:victim;
  Hardware.Assoc.invalidate cam ~key:(cam_key 8 2);
  Hardware.Assoc.invalidate cam ~key:(cam_key 9 2);
  Alcotest.(check bool) "revoked CAM entry stays revoked" true
    (Option.is_none (Hardware.Assoc.lookup cam ~key:victim))

let test_assoc_stamp () =
  (* The model checker re-renders a CPU's CAM only when its change
     stamp moved: every change to what would hit moves it, and no
     reader does. *)
  let cam = cam () in
  let check_moves what moved f =
    let before = Hardware.Assoc.stamp cam in
    f ();
    Alcotest.(check bool) what moved (Hardware.Assoc.stamp cam <> before)
  in
  let key = cam_key 1 2 in
  check_moves "install moves the stamp" true (fun () -> Hardware.Assoc.install cam ~key sdws.(0));
  check_moves "a lookup that hits leaves it" false (fun () ->
      Alcotest.(check bool) "hit" true (Option.is_some (Hardware.Assoc.lookup cam ~key)));
  check_moves "a lookup that misses leaves it" false (fun () ->
      ignore (Hardware.Assoc.lookup cam ~key:(cam_key 1 3)));
  check_moves "entries leaves it" false (fun () -> ignore (Hardware.Assoc.entries cam));
  check_moves "invalidating a key it does not hold leaves it" false (fun () ->
      Hardware.Assoc.invalidate cam ~key:(cam_key 2 2));
  let c = Hardware.Assoc.copy cam in
  let stamp = Hardware.Assoc.stamp cam in
  Alcotest.(check int) "copy keeps the stamp" stamp (Hardware.Assoc.stamp c);
  Hardware.Assoc.install c ~key:(cam_key 1 5) sdws.(1);
  Alcotest.(check bool) "an install in the copy moves its stamp" true
    (Hardware.Assoc.stamp c <> stamp);
  Alcotest.(check int) "and leaves the source's" stamp (Hardware.Assoc.stamp cam);
  check_moves "invalidating a held key moves it" true (fun () ->
      Hardware.Assoc.invalidate cam ~key);
  check_moves "invalidating it again leaves it" false (fun () ->
      Hardware.Assoc.invalidate cam ~key);
  check_moves "dropping the revoked entry on lookup leaves it" false (fun () ->
      ignore (Hardware.Assoc.lookup cam ~key));
  check_moves "flush moves it" true (fun () -> Hardware.Assoc.flush cam)

let test_gen_allocated_on_first_write () =
  (* Most caches a boot creates are never invalidated object by object:
     their generations must cost a few words, not a counter array. *)
  let n = 100 in
  let gens = Array.make n (Gen.create ()) in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    gens.(i) <- Gen.create ()
  done;
  let per_gen = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "Gen.create allocates %.0f words < 64" per_gen) true
    (per_gen < 64.);
  (* Gen i bumps ids of its own; every id reads 1 in its own Gen and 0
     in every other, and a Gen that was never bumped reads 0 at every
     dense id — whatever the bumps shared, nothing shared was
     written. *)
  let ids i = [ i; 300 + i; 1_000 + (7 * i) ] in
  Array.iteri (fun i g -> List.iter (Gen.bump_object g) (ids i)) gens;
  Array.iteri
    (fun i g ->
      List.iter
        (fun j ->
          List.iter
            (fun id ->
              Alcotest.(check int)
                (Printf.sprintf "gen %d reads id %d" i id)
                (if i = j then 1 else 0)
                (Gen.of_object g id))
            (ids j))
        [ 0; (i + 1) mod n; n - 1 ])
    gens;
  let fresh = Gen.create () in
  for id = 0 to (1 lsl 16) - 1 do
    if Gen.of_object fresh id <> 0 then Alcotest.failf "a fresh Gen reads id %d as bumped" id
  done

(* ----- Revocation through every mutating entry point ----- *)

let operator =
  Policy.subject ~trusted:true
    ~principal:(Principal.make ~person:"Initializer" ~project:"SysDaemon" ~tag:"z")
    ~clearance:(Label.system_high []) ~ring:(Ring.of_int 1) ()

let alice =
  Policy.subject
    ~principal:(Principal.make ~person:"Alice" ~project:"Dev" ~tag:"a")
    ~clearance:Label.unclassified ~ring:(Ring.of_int 4) ()

let fs_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.fail (what ^ ": " ^ Hierarchy.error_to_string e)

let permissive_acl = Acl.of_strings [ ("*.*.*", "rw"); ("Initializer.*.*", "rew") ]

let make_segment h name =
  fs_ok ("create " ^ name)
    (Hierarchy.create_segment h ~subject:operator ~dir:Uid.root ~name ~acl:permissive_acl
       ~label:Label.unclassified)

let verdict = Alcotest.testable Policy.pp_verdict ( = )

let check_both h ~subject ~uid ~requested =
  let fresh = Hierarchy.check_access_fresh h ~subject ~uid ~requested in
  let cached = Hierarchy.check_access h ~subject ~uid ~requested in
  Alcotest.(check (option verdict)) "cached = fresh" fresh cached;
  cached

let policy_counts h =
  List.map (fun f -> (f, List.assoc f (Hierarchy.cache_stats h))) [ "hits"; "misses"; "invalidations" ]

let test_verdicts_answer_to_own_object () =
  (* A compiled verdict is revoked by an edit of its own object and by
     nothing else: building ACLs, editing a second hierarchy and
     editing another object of the same one leave Alice's warmed read
     of [s] a hit; replacing [s]'s own ACL refuses her with one
     invalidation and one miss.  Counters are shared by cache name, so
     each delta is taken around one reference alone. *)
  Obs.set_enabled true;
  let h = Hierarchy.create () in
  let s = make_segment h "s" and t = make_segment h "t" in
  let other = Hierarchy.create () in
  let u = make_segment other "u" in
  let reference uid = check_both h ~subject:alice ~uid ~requested:Mode.r in
  let counted what want uid =
    let before = policy_counts h in
    let verdict = reference uid in
    Alcotest.(check (list (pair string int)))
      what want
      (List.map2 (fun (f, a) (_, b) -> (f, b - a)) before (policy_counts h));
    verdict
  in
  ignore (reference s);
  ignore (reference s);
  ignore (reference t);
  let built = Acl.of_strings [ ("Bob.*.*", "r"); ("Carol.*.*", "rw") ] in
  let built = Acl.add_string built ~pattern:"Initializer.*.*" ~mode:"rew" in
  let built = Acl.remove built ~pattern:(Principal.pattern_of_string "Carol.*.*") in
  fs_ok "set_acl on another hierarchy"
    (Hierarchy.set_acl other ~subject:operator ~uid:u ~acl:built);
  fs_ok "set_acl on another object" (Hierarchy.set_acl h ~subject:operator ~uid:t ~acl:built);
  Alcotest.(check (option verdict))
    "still permitted" (Some Policy.Permit)
    (counted "still fresh: one hit" [ ("hits", 1); ("misses", 0); ("invalidations", 0) ] s);
  fs_ok "set_acl on s" (Hierarchy.set_acl h ~subject:operator ~uid:s ~acl:built);
  match
    counted "revoked: one invalidation, one miss"
      [ ("hits", 0); ("misses", 1); ("invalidations", 1) ]
      s
  with
  | Some (Policy.Refuse _) -> ()
  | _ -> Alcotest.fail "an edit of s did not revoke Alice's cached read"

(* Boot a hierarchy, warm its table, and keep only a weak pointer to
   the table.  A separate, never-inlined function so no register or
   stack slot of the caller keeps the hierarchy alive. *)
let[@inline never] boot_and_drop weak =
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  ignore (Hierarchy.check_access h ~subject:alice ~uid ~requested:Mode.r);
  Weak.set weak 0 (Some (Hierarchy.av_table h))

let test_dropped_kernel_collected () =
  (* Booting a kernel must leave nothing behind that keeps it alive:
     no domain-wide state holds its AV table (and the generation
     counters the table owns) after it is dropped. *)
  let weak = Weak.create 1 in
  boot_and_drop weak;
  Gc.full_major ();
  Alcotest.(check bool) "AV table collected" false (Weak.check weak 0)

let test_set_acl_revokes () =
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  (match check_both h ~subject:alice ~uid ~requested:Mode.rw with
  | Some Policy.Permit -> ()
  | _ -> Alcotest.fail "expected initial permit");
  fs_ok "set_acl"
    (Hierarchy.set_acl h ~subject:operator ~uid ~acl:(Acl.of_strings [ ("Initializer.*.*", "rew") ]));
  match check_both h ~subject:alice ~uid ~requested:Mode.rw with
  | Some (Policy.Refuse _) -> ()
  | _ -> Alcotest.fail "ACL edit did not revoke the cached grant"

let test_raw_set_label_revokes () =
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  ignore (check_both h ~subject:alice ~uid ~requested:Mode.r);
  Alcotest.(check bool) "raw_set_label applies" true
    (Hierarchy.raw_set_label h ~uid ~label:(Label.make Label.Top_secret [ "crypto" ]));
  match check_both h ~subject:alice ~uid ~requested:Mode.r with
  | Some (Policy.Refuse _) -> ()
  | _ -> Alcotest.fail "label change did not revoke the cached grant"

let test_delete_revokes () =
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  ignore (check_both h ~subject:alice ~uid ~requested:Mode.r);
  ignore (fs_ok "delete" (Hierarchy.delete_entry h ~subject:operator ~dir:Uid.root ~name:"s"));
  Alcotest.(check (option verdict)) "deleted object unanswerable" None
    (Hierarchy.check_access h ~subject:alice ~uid ~requested:Mode.r)

let test_set_brackets_applies_on_cached_path () =
  (* Ring brackets are recomputed on every reference (as on the 6180),
     so a bracket edit takes effect even while the policy verdict is
     served from the cache. *)
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  (match check_both h ~subject:alice ~uid ~requested:Mode.r with
  | Some Policy.Permit -> ()
  | _ -> Alcotest.fail "expected initial permit");
  fs_ok "set_brackets"
    (Hierarchy.set_brackets h ~subject:operator ~uid ~brackets:(Brackets.make ~r1:1 ~r2:1 ~r3:1));
  match check_both h ~subject:alice ~uid ~requested:Mode.r with
  | Some (Policy.Refuse refusals) ->
      Alcotest.(check bool) "refused by the ring check" true
        (List.exists (function Policy.Ring_hardware _ -> true | _ -> false) refusals)
  | _ -> Alcotest.fail "bracket edit did not take effect"

let test_rename_keeps_parity () =
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  ignore (check_both h ~subject:alice ~uid ~requested:Mode.r);
  ignore (fs_ok "rename" (Hierarchy.rename_entry h ~subject:operator ~dir:Uid.root ~name:"s" ~new_name:"t"));
  ignore (check_both h ~subject:alice ~uid ~requested:Mode.r)

(* ----- The salvager must invalidate cached verdicts ----- *)

let test_salvage_invalidates_caches () =
  Obs.set_enabled true;
  let system = System.create Config.kernel_6180 in
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  let handle =
    match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
    | Ok h -> h
    | Error e -> Alcotest.fail (System.login_error_to_string e)
  in
  let segno =
    match
      User_env.create_segment_at system ~handle ~path:">udd>Dev>Alice>scratch"
        ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ])
        ~label:Label.unclassified
    with
    | Ok segno -> segno
    | Error e -> Alcotest.fail (User_env.error_to_string e)
  in
  (* Warm the CPU's SDW associative memory and the policy cache. *)
  (match Gate_calls.write_word system ~handle ~segno ~offset:0 ~value:7 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Api.error_to_string e));
  (match Gate_calls.read_word system ~handle ~segno ~offset:0 with
  | Ok 7 -> ()
  | Ok v -> Alcotest.failf "unexpected word %d" v
  | Error e -> Alcotest.fail (Api.error_to_string e));
  let p = Option.get (System.proc system handle) in
  let cam_size () = List.assoc "cam_size" (Smp.cpu_status (System.plant system) 0) in
  Alcotest.(check bool) "assoc memory warmed" true (cam_size () > 0);
  let h = System.hierarchy system in
  let subject = System.subject_of p in
  let uid = fs_ok "resolve" (Hierarchy.resolve h ~subject ~path:">udd>Dev>Alice>scratch") in
  (* Warm the policy cache: the second check is served from it. *)
  ignore (Hierarchy.check_access h ~subject ~uid ~requested:Mode.r);
  ignore (Hierarchy.check_access h ~subject ~uid ~requested:Mode.r);
  let insertions_before = List.assoc "insertions" (Hierarchy.cache_stats h) in
  ignore (Hierarchy.check_access h ~subject ~uid ~requested:Mode.r);
  Alcotest.(check int) "warm check does not re-insert" insertions_before
    (List.assoc "insertions" (Hierarchy.cache_stats h));
  (match Api.Call.dispatch system ~handle Api.Call.Salvage with
  | Ok (Api.Call.Salvaged _) -> ()
  | Ok _ -> Alcotest.fail "unexpected salvage reply"
  | Error e -> Alcotest.fail (Api.error_to_string e));
  Alcotest.(check int) "assoc memory flushed by salvage" 0 (cam_size ());
  (* Every previously cached policy verdict is stale: the next check
     must recompute and re-insert rather than replay a pre-salvage
     grant. *)
  (match Hierarchy.check_access h ~subject ~uid ~requested:Mode.r with
  | Some Policy.Permit -> ()
  | _ -> Alcotest.fail "expected permit after salvage");
  let insertions_after = List.assoc "insertions" (Hierarchy.cache_stats h) in
  Alcotest.(check bool) "post-salvage check re-derived its verdict" true
    (insertions_after > insertions_before)

(* ----- The 100-seed parity property -----

   Random interleavings of mutations, revocations and flush storms;
   after every step the cached path must agree with fresh
   recomputation for sampled (subject, object, mode) triples. *)

let lcg seed =
  let state = ref (if seed <= 0 then 1 else seed) in
  fun bound ->
    state := !state * 48271 mod 0x7fffffff;
    !state mod bound

let parity_subjects =
  [|
    operator;
    alice;
    Policy.subject
      ~principal:(Principal.make ~person:"Bob" ~project:"Ops" ~tag:"b")
      ~clearance:(Label.make Label.Secret [ "crypto" ])
      ~ring:(Ring.of_int 4) ();
  |]

let parity_acls =
  [|
    permissive_acl;
    Acl.of_strings [ ("Alice.Dev.*", "rw"); ("Initializer.*.*", "rew") ];
    Acl.of_strings [ ("*.*.*", "r"); ("Initializer.*.*", "rew") ];
    Acl.of_strings [ ("Initializer.*.*", "rew") ];
  |]

let parity_labels =
  [|
    Label.unclassified;
    Label.make Label.Confidential [];
    Label.make Label.Secret [ "crypto" ];
    Label.make Label.Top_secret [ "crypto"; "nuclear" ];
  |]

let parity_modes = [| Mode.r; Mode.rw; Mode.w; Mode.re |]

let run_parity_seed seed =
  let rand = lcg (seed + 1) in
  let h = Hierarchy.create () in
  let live = ref [] in
  let fresh_name =
    let n = ref 0 in
    fun () -> incr n; Printf.sprintf "s%d_%d" seed !n
  in
  let storm = ref false in
  (* The flush storm fires through the same probe the fault injector
     uses; roughly one lookup in three while armed. *)
  Hierarchy.set_cache_probe h (Some (fun () -> !storm && rand 3 = 0));
  let create () =
    if List.length !live < 10 then begin
      let name = fresh_name () in
      let uid =
        fs_ok "create"
          (Hierarchy.create_segment h ~subject:operator ~dir:Uid.root ~name
             ~acl:parity_acls.(rand (Array.length parity_acls))
             ~label:parity_labels.(rand (Array.length parity_labels)))
      in
      live := (name, uid) :: !live
    end
  in
  create ();
  let pick_live () = List.nth !live (rand (List.length !live)) in
  let assert_parity () =
    for _ = 1 to 4 do
      let subject = parity_subjects.(rand (Array.length parity_subjects)) in
      let _, uid = pick_live () in
      let requested = parity_modes.(rand (Array.length parity_modes)) in
      let fresh = Hierarchy.check_access_fresh h ~subject ~uid ~requested in
      let cached = Hierarchy.check_access h ~subject ~uid ~requested in
      if cached <> fresh then
        Alcotest.failf "seed %d: cached verdict diverged from fresh recomputation" seed
    done
  in
  for _step = 1 to 40 do
    (match rand 10 with
    | 0 | 1 -> create ()
    | 2 ->
        if List.length !live > 1 then begin
          let name, _ = pick_live () in
          ignore (fs_ok "delete" (Hierarchy.delete_entry h ~subject:operator ~dir:Uid.root ~name));
          live := List.remove_assoc name !live
        end
    | 3 | 4 ->
        let _, uid = pick_live () in
        fs_ok "set_acl"
          (Hierarchy.set_acl h ~subject:operator ~uid
             ~acl:parity_acls.(rand (Array.length parity_acls)))
    | 5 ->
        let _, uid = pick_live () in
        ignore
          (Hierarchy.raw_set_label h ~uid ~label:parity_labels.(rand (Array.length parity_labels)))
    | 6 ->
        let name, uid = pick_live () in
        let new_name = fresh_name () in
        ignore
          (fs_ok "rename"
             (Hierarchy.rename_entry h ~subject:operator ~dir:Uid.root ~name ~new_name));
        live := (new_name, uid) :: List.remove_assoc name !live
    | 7 -> Hierarchy.invalidate_cached_verdicts h
    | 8 -> Hierarchy.flush_cached_verdicts h
    | _ -> storm := not !storm);
    assert_parity ()
  done;
  (* Final full sweep, storm armed. *)
  storm := true;
  List.iter
    (fun (_, uid) ->
      Array.iter
        (fun subject ->
          Array.iter
            (fun requested ->
              let fresh = Hierarchy.check_access_fresh h ~subject ~uid ~requested in
              let cached = Hierarchy.check_access h ~subject ~uid ~requested in
              if cached <> fresh then
                Alcotest.failf "seed %d: final sweep diverged" seed)
            parity_modes)
        parity_subjects)
    !live

let test_parity_100_seeds () =
  for seed = 0 to 99 do
    run_parity_seed seed
  done

(* ----- The CAM against a slot-history model -----

   The model keeps each slot's history since the slot was last emptied
   (by a flush, or by a lookup dropping a revoked entry), newest first,
   and derives every answer from it: a slot holds the key of its latest
   install, and that entry is revoked iff an invalidation of its key
   came after the install.  The CAM must answer every lookup alike,
   move the counters the model predicts, and hold the same entries in
   the same order.  Keys of handles 1..8 and segment numbers 0..63
   collide in every slot. *)

type assoc_op = Lookup of int | Install of int * int | Invalidate of int | Flush
type slot_event = Installed of int * int | Invalidated of int

(* The latest install, and whether an invalidation of its key came
   after it. *)
let rec resident = function
  | [] -> None
  | Installed (key, v) :: _ -> Some (key, v, false)
  | Invalidated key :: older -> (
      match resident older with
      | Some (k, v, _) when k = key -> Some (k, v, true)
      | r -> r)

(* One op on the model: its answer and the counter deltas it predicts,
   in [Hardware.Assoc.counters]' order. *)
let model_step slots op =
  let count fields =
    List.map
      (fun name -> (name, if List.mem name fields then 1 else 0))
      [ "hits"; "misses"; "invalidations"; "insertions"; "flushes" ]
  in
  let i key = key land 15 in
  match op with
  | Lookup key -> (
      match resident slots.(i key) with
      | Some (k, v, false) when k = key -> (Some sdws.(v), count [ "hits" ])
      | Some (k, _, true) when k = key ->
          slots.(i key) <- [];
          (None, count [ "invalidations"; "misses" ])
      | Some _ | None -> (None, count [ "misses" ]))
  | Install (key, v) ->
      slots.(i key) <- Installed (key, v) :: slots.(i key);
      (None, count [ "insertions" ])
  | Invalidate key ->
      slots.(i key) <- Invalidated key :: slots.(i key);
      (None, count [])
  | Flush ->
      Array.fill slots 0 16 [];
      (None, count [ "flushes" ])

let model_size slots =
  Array.fold_left (fun n h -> if Option.is_some (resident h) then n + 1 else n) 0 slots

(* Highest slot first, as [Hardware.Assoc.entries] lists them. *)
let model_entries slots =
  List.filter_map
    (fun i ->
      match resident slots.(i) with Some (k, v, false) -> Some (k, sdws.(v)) | _ -> None)
    (List.init 16 (fun i -> 15 - i))

let assoc_op =
  let key = QCheck.Gen.map2 cam_key (QCheck.Gen.int_range 1 8) (QCheck.Gen.int_range 0 63) in
  QCheck.Gen.(
    frequency
      [
        (4, map (fun k -> Lookup k) key);
        (3, map2 (fun k v -> Install (k, v)) key (int_bound (Array.length sdws - 1)));
        (2, map (fun k -> Invalidate k) key);
        (1, return Flush);
      ])

let run_assoc_differential ops =
  Obs.set_enabled true;
  let cam = cam () in
  let slots = Array.make 16 [] in
  List.for_all
    (fun op ->
      let before = Hardware.Assoc.counters cam in
      let got =
        match op with
        | Lookup key -> Hardware.Assoc.lookup cam ~key
        | Install (key, v) -> Hardware.Assoc.install cam ~key sdws.(v); None
        | Invalidate key -> Hardware.Assoc.invalidate cam ~key; None
        | Flush -> Hardware.Assoc.flush cam; None
      in
      let cam_delta =
        List.map2 (fun (name, a) (_, b) -> (name, b - a)) before (Hardware.Assoc.counters cam)
      in
      let want, model_delta = model_step slots op in
      got = want && cam_delta = model_delta
      && Hardware.Assoc.size cam = model_size slots
      && Hardware.Assoc.entries cam = model_entries slots)
    ops

let test_assoc_differential =
  QCheck.Test.make ~name:"assoc: a CPU's CAM answers as a 16-slot history model" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 300) assoc_op))
    run_assoc_differential

let test_assoc_invalidations_allocate_nothing () =
  (* A CAM is 16 slots whatever it is told to forget: 10^5
     invalidations of distinct keys, the resident ones among them,
     leave its reachable words where they were. *)
  let cam = cam () in
  let ring = Ring.of_int 4 in
  for segno = 0 to 15 do
    ignore
      (Hardware.check_via_assoc cam ~key:(cam_key 1 segno)
         ~fetch:(fun () -> Some sdws.(0))
         ~ring ~operation:Hardware.Read)
  done;
  let words () = Obj.reachable_words (Obj.repr cam) in
  let before = words () in
  for i = 0 to 99_999 do
    Hardware.Assoc.invalidate cam ~key:(cam_key (1 + (i / 4096)) (i mod 4096))
  done;
  Alcotest.(check int) "reachable words unchanged" before (words ())

let test_gen_copy_reads_as_source () =
  (* A copy reads exactly as its source did: its global and per-object
     counters are the source's, and a bump on one side never reaches
     the other. *)
  let g = Gen.create () in
  Gen.bump_object g 5;
  Gen.bump_global g;
  let global = Gen.global g and obj = Gen.of_object g 5 in
  let c = Gen.copy g in
  Alcotest.(check int) "global reads as the source's" global (Gen.global c);
  Alcotest.(check int) "object reads as the source's" obj (Gen.of_object c 5);
  Alcotest.(check int) "an unbumped id reads as the source's" 0 (Gen.of_object c 6);
  Gen.bump_object c 5;
  Gen.bump_global c;
  Alcotest.(check int) "a bump on the copy stays there (object)" obj (Gen.of_object g 5);
  Alcotest.(check int) "a bump on the copy stays there (global)" global (Gen.global g);
  Gen.bump_object g 6;
  Gen.bump_global g;
  Alcotest.(check int) "a bump on the source stays there (object)" 0 (Gen.of_object c 6);
  Alcotest.(check int) "a bump on the source stays there (global)" (global + 1)
    (Gen.global c)

let suite =
  [
    Alcotest.test_case "assoc: lookup/install basics" `Quick test_assoc_basics;
    Alcotest.test_case "assoc: invalidate revokes one key" `Quick test_assoc_invalidate;
    Alcotest.test_case "assoc: flush empties every slot" `Quick test_assoc_flush;
    Alcotest.test_case "assoc: direct-mapped displacement" `Quick
      test_assoc_direct_mapped_displacement;
    Alcotest.test_case "assoc: non-power-of-two slots refused" `Quick
      test_assoc_slots_power_of_two;
    Alcotest.test_case "assoc: entries skip revoked entries" `Quick test_assoc_entries_skip_revoked;
    Alcotest.test_case "gen: dense ids and one overflow counter" `Quick
      test_gen_dense_and_overflow_ids;
    Alcotest.test_case "gen: counters never outgrow 2^16" `Quick test_gen_counters_bounded;
    QCheck_alcotest.to_alcotest test_gen_flat_model;
    Alcotest.test_case "assoc: a revoked entry stays revoked" `Quick
      test_assoc_revoked_not_shadowed;
    Alcotest.test_case "revocation: set_acl" `Quick test_set_acl_revokes;
    Alcotest.test_case "revocation: raw_set_label" `Quick test_raw_set_label_revokes;
    Alcotest.test_case "revocation: delete" `Quick test_delete_revokes;
    Alcotest.test_case "revocation: set_brackets on cached path" `Quick
      test_set_brackets_applies_on_cached_path;
    Alcotest.test_case "revocation: rename keeps parity" `Quick test_rename_keeps_parity;
    Alcotest.test_case "salvage invalidates cached verdicts" `Quick test_salvage_invalidates_caches;
    Alcotest.test_case "parity: 100 seeds incl. flush storms" `Quick test_parity_100_seeds;
    QCheck_alcotest.to_alcotest test_assoc_differential;
    Alcotest.test_case "assoc: invalidations allocate nothing" `Quick
      test_assoc_invalidations_allocate_nothing;
    Alcotest.test_case "gen: bookkeeping allocated on first write" `Quick
      test_gen_allocated_on_first_write;
    Alcotest.test_case "verdicts answer only to their own object's edits" `Quick
      test_verdicts_answer_to_own_object;
    Alcotest.test_case "a dropped kernel is collected" `Quick test_dropped_kernel_collected;
    Alcotest.test_case "gen: a copy reads as its source, bumps stay on their side" `Quick
      test_gen_copy_reads_as_source;
    Alcotest.test_case "assoc: the change stamp moves exactly with the entries" `Quick
      test_assoc_stamp;
  ]
