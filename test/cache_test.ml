(* The access-decision cache (AVC): unit tests for the generic
   associative memory, revocation coverage for every mutating entry
   point of the hierarchy, the salvager's cache invalidation, and the
   100-seed parity property — the cached mediation path must agree with
   fresh recomputation at every step, including under flush storms. *)

open Multics_access
open Multics_machine
open Multics_kernel
module Avc = Multics_cache.Avc
module Hierarchy = Multics_fs.Hierarchy
module Uid = Multics_fs.Uid
module Obs = Multics_obs.Obs

(* Counter names are shared per cache [name], so every test uses its
   own name to keep readings isolated. *)
let counter_of t field = List.assoc field (Avc.counters t)

let test_avc_basics () =
  Obs.set_enabled true;
  let c = Avc.create ~capacity:8 ~name:"t.basics" () in
  Alcotest.(check (option int)) "miss before add" None (Avc.find c 1);
  Avc.add c ~obj:1 1 10;
  Alcotest.(check (option int)) "hit after add" (Some 10) (Avc.find c 1);
  Alcotest.(check int) "size" 1 (Avc.size c);
  Alcotest.(check int) "one hit" 1 (counter_of c "hits");
  Alcotest.(check int) "one miss" 1 (counter_of c "misses")

let test_avc_invalidate_object () =
  Obs.set_enabled true;
  let c = Avc.create ~capacity:8 ~name:"t.inv_obj" () in
  Avc.add c ~obj:1 1 10;
  Avc.add c ~obj:2 2 20;
  Avc.invalidate_object c 1;
  Alcotest.(check (option int)) "stale entry dropped" None (Avc.find c 1);
  Alcotest.(check (option int)) "other object unaffected" (Some 20) (Avc.find c 2);
  Alcotest.(check int) "invalidation counted" 1 (counter_of c "invalidations");
  Avc.add c ~obj:1 1 11;
  Alcotest.(check (option int)) "re-add after invalidation hits" (Some 11) (Avc.find c 1)

let test_avc_invalidate_all () =
  Obs.set_enabled true;
  let c = Avc.create ~capacity:8 ~name:"t.inv_all" () in
  Avc.add c ~obj:1 1 10;
  Avc.add c ~obj:2 2 20;
  Avc.invalidate_all c;
  Alcotest.(check (option int)) "entry 1 dead" None (Avc.find c 1);
  Alcotest.(check (option int)) "entry 2 dead" None (Avc.find c 2)

let test_avc_flush_probe () =
  Obs.set_enabled true;
  let c = Avc.create ~capacity:8 ~name:"t.probe" () in
  Avc.add c ~obj:1 1 10;
  let armed = ref false in
  Avc.set_flush_probe c (Some (fun () -> !armed));
  Alcotest.(check (option int)) "probe quiet: hit" (Some 10) (Avc.find c 1);
  armed := true;
  Alcotest.(check (option int)) "probe fires: flushed before lookup" None (Avc.find c 1);
  Alcotest.(check int) "flush counted" 1 (counter_of c "flushes");
  Alcotest.(check int) "emptied" 0 (Avc.size c)

let test_avc_direct_mapped_displacement () =
  Obs.set_enabled true;
  (* Force every key into one slot: displacement must evict the
     resident entry, and equality must keep a collision from ever
     being served as a hit. *)
  let c = Avc.create ~capacity:4 ~hash:(fun _ -> 0) ~equal:Int.equal ~name:"t.collide" () in
  Avc.add c ~obj:1 1 10;
  Avc.add c ~obj:2 2 20;
  Alcotest.(check (option int)) "displaced entry is a miss" None (Avc.find c 1);
  Alcotest.(check (option int)) "resident entry hits" (Some 20) (Avc.find c 2);
  Alcotest.(check int) "population stays 1" 1 (Avc.size c)

let test_avc_capacity_rounding () =
  let c = Avc.create ~capacity:10 ~name:"t.cap" () in
  Alcotest.(check int) "rounded to power of two" 16 (Avc.capacity c)

let test_avc_find_or_add () =
  Obs.set_enabled true;
  let c = Avc.create ~capacity:8 ~name:"t.foa" () in
  let computes = ref 0 in
  let compute () = incr computes; 42 in
  Alcotest.(check (pair int bool)) "first computes" (42, false) (Avc.find_or_add c ~obj:1 1 compute);
  Alcotest.(check (pair int bool)) "second hits" (42, true) (Avc.find_or_add c ~obj:1 1 compute);
  Alcotest.(check int) "computed once" 1 !computes

let test_avc_keys_skip_stale () =
  let c = Avc.create ~capacity:8 ~name:"t.keys" () in
  Avc.add c ~obj:1 1 10;
  Avc.add c ~obj:2 2 20;
  Avc.invalidate_object c 2;
  Alcotest.(check (list int)) "only fresh keys" [ 1 ] (List.sort compare (Avc.keys c))

let test_gen_sparse_and_dense_ids () =
  (* Small non-negative ids take the dense-array path; huge or negative
     ids (hashed page ids) take the hashtable fallback.  Both must
     count bumps correctly. *)
  let g = Avc.Gen.create () in
  Alcotest.(check int) "unbumped dense id" 0 (Avc.Gen.of_object g 3);
  Avc.Gen.bump_object g 3;
  Avc.Gen.bump_object g 3;
  Alcotest.(check int) "dense id bumped twice" 2 (Avc.Gen.of_object g 3);
  Alcotest.(check int) "dense id beyond initial array" 0 (Avc.Gen.of_object g 5_000);
  Avc.Gen.bump_object g 5_000;
  Alcotest.(check int) "grown dense id" 1 (Avc.Gen.of_object g 5_000);
  Avc.Gen.bump_object g (-7);
  Alcotest.(check int) "negative id via fallback" 1 (Avc.Gen.of_object g (-7));
  Avc.Gen.bump_object g max_int;
  Alcotest.(check int) "huge id via fallback" 1 (Avc.Gen.of_object g max_int);
  Avc.Gen.bump_global g;
  Alcotest.(check int) "global independent" 1 (Avc.Gen.global g)

let test_gen_sparse_table_bounded () =
  (* The long-run leak: hashed page ids churn forever (objects die,
     ids are never reused), so without pruning the sparse table grows
     without bound.  Churn 10^5 distinct hashed ids and demand the
     table stays within its limit, compacting as it goes. *)
  let churn = 100_000 in
  let hashed i = (1 lsl 16) + i in
  let c = Avc.create ~capacity:16 ~hash:(fun k -> k) ~equal:Int.equal ~name:"t.gen_churn" () in
  let g = Avc.gens c in
  (* A verdict revoked before the churn must stay revoked across every
     compaction: a compaction resets the per-object counter the entry
     was stamped against, which would resurrect it were the global
     epoch not bumped first. *)
  let victim = hashed (churn + 1) in
  Avc.add c ~obj:victim victim 99;
  Alcotest.(check (option int)) "victim cached" (Some 99) (Avc.find c victim);
  Avc.invalidate_object c victim;
  for i = 0 to churn - 1 do
    Avc.Gen.bump_object g (hashed i)
  done;
  Alcotest.(check bool) "sparse table bounded" true
    (Avc.Gen.sparse_size g <= Avc.Gen.sparse_limit);
  let floor = (churn / Avc.Gen.sparse_limit) - 1 in
  Alcotest.(check bool)
    (Printf.sprintf "compactions happened (>= %d)" floor)
    true
    (Avc.Gen.compactions g >= floor);
  Alcotest.(check (option int)) "revoked verdict never resurrected" None (Avc.find c victim);
  (* The cache still works after compaction: fresh entries hit. *)
  Avc.add c ~obj:victim victim 7;
  Alcotest.(check (option int)) "fresh entry after compaction hits" (Some 7) (Avc.find c victim)

(* The paged dense range against a reference model: a plain hashtable
   of every bumped id, plus the sparse compaction rule (a bump of a new
   sparse id into a full sparse table folds the table into the global
   epoch: every sparse id reads 0 again, the bumped one 1).  Ids span
   0..2^17 — both sides of the dense limit — and the composite CAM keys
   [(handle lsl 12) lor segno] of handles 1..40, whose first bumps land
   4,096 ids apart. *)
type gen_op = Bump of int | Bump_global

let run_gen_model ops =
  let g = Avc.Gen.create () in
  let model = Hashtbl.create 64 and global = ref 0 and sparse = ref 0 in
  let is_sparse id = id < 0 || id >= 1 lsl 16 in
  let model_get id = Option.value (Hashtbl.find_opt model id) ~default:0 in
  let ok =
    List.for_all
      (fun op ->
        (match op with
        | Bump_global ->
            Avc.Gen.bump_global g;
            incr global
        | Bump id ->
            Avc.Gen.bump_object g id;
            if is_sparse id && (not (Hashtbl.mem model id)) && !sparse >= Avc.Gen.sparse_limit
            then begin
              incr global;
              Hashtbl.filter_map_inplace (fun k v -> if is_sparse k then None else Some v) model;
              sparse := 0
            end;
            if is_sparse id && not (Hashtbl.mem model id) then incr sparse;
            Hashtbl.replace model id (model_get id + 1));
        let probe id = Avc.Gen.of_object g id = model_get id in
        Avc.Gen.global g = !global
        && Avc.Gen.sparse_size g = !sparse
        && (match op with Bump id -> probe id && probe (id + 1) && probe (id - 1) | Bump_global -> true))
      ops
    && Hashtbl.fold (fun id n ok -> ok && Avc.Gen.of_object g id = n) model true
  in
  (ok, Avc.Gen.compactions g)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun id -> Bump id) (int_range 0 (1 lsl 17)));
        ( 4,
          map2
            (fun handle segno -> Bump ((handle lsl 12) lor segno))
            (int_range 1 40) (int_range 0 4095) );
        (1, return Bump_global);
      ])

let test_gen_paging_model =
  QCheck.Test.make ~name:"gen: paged counters match a hashtable model" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 300) gen_op))
    (fun ops -> fst (run_gen_model ops))

let test_gen_compaction_model () =
  (* Cross the sparse threshold: fill the sparse table with composite
     keys of handles 16 and 17 (past the dense range), interleaved with
     repeats and dense bumps, then bump one more new sparse id. *)
  let sparse_key i = ((16 + (i / 4096)) lsl 12) lor (i mod 4096) in
  let ops =
    List.concat
      (List.init (Avc.Gen.sparse_limit + 2) (fun i ->
           [ Bump (sparse_key i); Bump (sparse_key (i / 2)); Bump ((1 + (i mod 15)) lsl 12) ]))
  in
  let ok, compactions = run_gen_model ops in
  Alcotest.(check int) "one compaction" 1 compactions;
  Alcotest.(check bool) "model agrees across the compaction" true ok

let test_gen_sparse_key_not_shadowed () =
  (* A CPU CAM's keys for handles 16 and up lie past the dense range.
     Invalidations for handles 8 and 9 must not make a later
     invalidation of such a key invisible: a dense array grown past
     the dense limit would shadow those ids, reading 0 where the bump
     had gone to the sparse table — a revoked CAM entry served as
     fresh. *)
  let key handle segno = (handle lsl 12) lor segno in
  let c = Avc.create ~capacity:16 ~hash:(fun k -> k) ~equal:Int.equal ~name:"t.cam_keys" () in
  let victim = key 16 2 in
  Avc.add c ~obj:victim victim 1;
  Avc.invalidate_object c (key 8 1);
  Avc.invalidate_object c (key 9 1);
  Avc.invalidate_object c victim;
  Alcotest.(check (option int)) "revoked CAM entry stays revoked" None (Avc.find c victim)

let test_gen_page_allocation () =
  (* The first invalidation for handle 8 on a fresh CPU CAM must cost
     one page, not a dense array grown to cover id 32,775. *)
  let g = Avc.Gen.create () in
  let id = (8 lsl 12) lor 7 in
  let before = Gc.allocated_bytes () in
  Avc.Gen.bump_object g id;
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "bumped" 1 (Avc.Gen.of_object g id);
  Alcotest.(check bool) (Printf.sprintf "allocated %.0f bytes < 8 KB" allocated) true
    (allocated < 8192.)

let test_gen_allocated_on_first_write () =
  (* Most caches a boot creates are never invalidated object by object:
     their generations must cost a few words, not a page directory. *)
  let n = 100 in
  let gens = Array.make n (Avc.Gen.create ()) in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    gens.(i) <- Avc.Gen.create ()
  done;
  let per_gen = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "Gen.create allocates %.0f words < 64" per_gen) true
    (per_gen < 64.);
  (* Gen i bumps ids of its own in pages no other Gen touches; every
     id reads 1 in its own Gen and 0 in every other, and a Gen that was
     never bumped reads 0 at every dense id — whatever the bumps
     shared, nothing shared was written. *)
  let ids i = [ i; 300 + i; (1 lsl 12) lor i; 60_000 + i ] in
  Array.iteri (fun i g -> List.iter (Avc.Gen.bump_object g) (ids i)) gens;
  Array.iteri
    (fun i g ->
      List.iter
        (fun j ->
          List.iter
            (fun id ->
              Alcotest.(check int)
                (Printf.sprintf "gen %d reads id %d" i id)
                (if i = j then 1 else 0)
                (Avc.Gen.of_object g id))
            (ids j))
        [ 0; (i + 1) mod n; n - 1 ])
    gens;
  let fresh = Avc.Gen.create () in
  for id = 0 to (1 lsl 16) - 1 do
    if Avc.Gen.of_object fresh id <> 0 then Alcotest.failf "a fresh Gen reads id %d as bumped" id
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

let test_acl_backstop () =
  (* Any ACL built anywhere in the domain stales every compiled
     verdict, even one on an object the edit never touched: the next
     reference counts one invalidation and one miss and recompiles, the
     one after hits again. *)
  Obs.set_enabled true;
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  ignore (check_both h ~subject:alice ~uid ~requested:Mode.r);
  ignore (check_both h ~subject:alice ~uid ~requested:Mode.r);
  let delta before after = List.map2 (fun (f, a) (_, b) -> (f, b - a)) before after in
  let before = policy_counts h in
  ignore (Acl.of_strings [ ("Bob.*.*", "r"); ("Carol.*.*", "rw") ]);
  ignore (Hierarchy.check_access h ~subject:alice ~uid ~requested:Mode.r);
  let after_edit = policy_counts h in
  Alcotest.(check (list (pair string int)))
    "stale: one invalidation, one miss"
    [ ("hits", 0); ("misses", 1); ("invalidations", 1) ]
    (delta before after_edit);
  ignore (Hierarchy.check_access h ~subject:alice ~uid ~requested:Mode.r);
  Alcotest.(check (list (pair string int)))
    "recompiled: one hit"
    [ ("hits", 1); ("misses", 0); ("invalidations", 0) ]
    (delta after_edit (policy_counts h))

(* Boot a hierarchy, warm its table, and keep only a weak pointer to
   its generation counters.  A separate, never-inlined function so no
   register or stack slot of the caller keeps the hierarchy alive. *)
let[@inline never] boot_and_drop weak =
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  ignore (Hierarchy.check_access h ~subject:alice ~uid ~requested:Mode.r);
  Weak.set weak 0 (Some (Multics_access.Av_table.gens (Hierarchy.av_table h)))

let test_dropped_kernel_collected () =
  (* Booting a kernel must leave nothing behind that keeps it alive:
     the ACL backstop is pulled by the hierarchy, so no domain-wide
     list holds its counters after it is dropped. *)
  let weak = Weak.create 1 in
  boot_and_drop weak;
  Gc.full_major ();
  Alcotest.(check bool) "generation counters collected" false (Weak.check weak 0)

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
  (* Warm the per-process SDW associative memory and the policy cache. *)
  (match Gate_calls.write_word system ~handle ~segno ~offset:0 ~value:7 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Api.error_to_string e));
  (match Gate_calls.read_word system ~handle ~segno ~offset:0 with
  | Ok 7 -> ()
  | Ok v -> Alcotest.failf "unexpected word %d" v
  | Error e -> Alcotest.fail (Api.error_to_string e));
  let p = Option.get (System.proc system handle) in
  Alcotest.(check bool) "assoc memory warmed" true (Hardware.Assoc.size p.System.assoc > 0);
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
  Alcotest.(check int) "assoc memory flushed by salvage" 0 (Hardware.Assoc.size p.System.assoc);
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

let test_gen_copy_rebased () =
  (* A copy onto another epoch reads exactly as its source did: a stamp
     fresh in the source is fresh in the copy, a stale one stays stale
     whatever either epoch does next, and bumps on one side never reach
     the other. *)
  let epoch = Avc.Gen.new_epoch () in
  let g = Avc.Gen.create ~epoch () in
  Avc.Gen.bump_object g 5;
  let stale = Avc.Gen.global g in
  Avc.Gen.advance epoch;
  let fresh = Avc.Gen.global g and obj = Avc.Gen.of_object g 5 in
  let other = Avc.Gen.new_epoch () in
  List.iter (fun _ -> Avc.Gen.advance other) [ 1; 2; 3 ];
  let c = Avc.Gen.copy ~epoch:other g in
  Alcotest.(check int) "global reads as the source's" fresh (Avc.Gen.global c);
  Alcotest.(check int) "object reads as the source's" obj (Avc.Gen.of_object c 5);
  Avc.Gen.advance epoch;
  Alcotest.(check int) "the source's epoch no longer reaches the copy" fresh (Avc.Gen.global c);
  Avc.Gen.advance other;
  Alcotest.(check bool) "the copy's epoch stales its fresh stamps" true (Avc.Gen.global c > fresh);
  Alcotest.(check bool) "and never revives a stale one" true (Avc.Gen.global c <> stale);
  Avc.Gen.bump_object c 5;
  Alcotest.(check int) "a bump on the copy stays there" obj (Avc.Gen.of_object g 5);
  Avc.Gen.set_epoch g other;
  Alcotest.(check int) "set_epoch keeps the reading" (fresh + 1) (Avc.Gen.global g)

let suite =
  [
    Alcotest.test_case "avc: find/add basics" `Quick test_avc_basics;
    Alcotest.test_case "avc: invalidate object" `Quick test_avc_invalidate_object;
    Alcotest.test_case "avc: invalidate all" `Quick test_avc_invalidate_all;
    Alcotest.test_case "avc: flush probe storms" `Quick test_avc_flush_probe;
    Alcotest.test_case "avc: direct-mapped displacement" `Quick test_avc_direct_mapped_displacement;
    Alcotest.test_case "avc: capacity rounds to power of two" `Quick test_avc_capacity_rounding;
    Alcotest.test_case "avc: find_or_add computes once" `Quick test_avc_find_or_add;
    Alcotest.test_case "avc: keys skip stale entries" `Quick test_avc_keys_skip_stale;
    Alcotest.test_case "gen: dense and sparse object ids" `Quick test_gen_sparse_and_dense_ids;
    Alcotest.test_case "gen: sparse table bounded under churn" `Quick test_gen_sparse_table_bounded;
    Alcotest.test_case "revocation: set_acl" `Quick test_set_acl_revokes;
    Alcotest.test_case "revocation: raw_set_label" `Quick test_raw_set_label_revokes;
    Alcotest.test_case "revocation: delete" `Quick test_delete_revokes;
    Alcotest.test_case "revocation: set_brackets on cached path" `Quick
      test_set_brackets_applies_on_cached_path;
    Alcotest.test_case "revocation: rename keeps parity" `Quick test_rename_keeps_parity;
    Alcotest.test_case "salvage invalidates cached verdicts" `Quick test_salvage_invalidates_caches;
    Alcotest.test_case "parity: 100 seeds incl. flush storms" `Quick test_parity_100_seeds;
    QCheck_alcotest.to_alcotest test_gen_paging_model;
    Alcotest.test_case "gen: model agrees across a sparse compaction" `Quick
      test_gen_compaction_model;
    Alcotest.test_case "gen: sparse CAM keys are never shadowed" `Quick
      test_gen_sparse_key_not_shadowed;
    Alcotest.test_case "gen: first CAM-key bump allocates one page" `Quick test_gen_page_allocation;
    Alcotest.test_case "gen: bookkeeping allocated on first write" `Quick
      test_gen_allocated_on_first_write;
    Alcotest.test_case "acl backstop stales every compiled verdict" `Quick test_acl_backstop;
    Alcotest.test_case "a dropped kernel is collected" `Quick test_dropped_kernel_collected;
    Alcotest.test_case "gen: a copy onto another epoch reads as its source" `Quick
      test_gen_copy_rebased;
  ]
