(* E16 — associative-memory simulation: the access-decision cache on
   the mediation hot path.

   The 6180 makes repeated segment references cheap because the
   processor re-validates access from a descriptor held in its
   associative memory instead of re-walking the descriptor segment;
   the price of that speed is the "setfaults" discipline — any
   attribute change must reach every cached copy immediately.  This
   experiment drives the software analogue (the {!Multics_fs}
   verdict cache: lib/access's [Av_table], stamped by lib/cache's
   generation counters) with workloads of varying
   locality and revocation churn, reads the hit ratio out of the
   cache's own obs counters, and prices a reference on both processor
   models:

     cost/ref = memory_reference + (1 - hit) * sdw_fetch

   where [sdw_fetch] stands for the descriptor fetch plus the policy
   recomputation a miss forces.  The uncached column charges the
   fetch on every reference — the system with no associative memory.

   Every reference is also recomputed from scratch
   ([check_access_fresh]) and compared: the [parity] column is the
   revocation-correctness claim, measured rather than assumed. *)

open Multics_access
open Multics_fs
open Multics_machine

let id = "E16"

let title = "AVC hit ratio vs per-reference mediation cost (H645 vs H6180)"

let paper_claim =
  "the 6180 validates most references from its associative memory, so mediation on every \
   reference is affordable; revocation (setfaults) must invalidate cached descriptors \
   immediately, and churn shows up as misses, never as stale grants"

(* Deterministic multiplicative LCG (Park–Miller) so the recorded
   table reproduces bit-for-bit. *)
let lcg seed =
  let state = ref (if seed <= 0 then 1 else seed) in
  fun bound ->
    state := !state * 48271 mod 0x7fffffff;
    !state mod bound

type workload = {
  wname : string;
  objects : int;
  hot : int;  (** size of the hot set *)
  hot_bias : int;  (** percent of references that stay in the hot set *)
  refs : int;
  edit_every : int;  (** ACL-edit one random object every N refs; 0 = never *)
}

let workloads =
  [
    { wname = "tight loop, no edits"; objects = 64; hot = 8; hot_bias = 100; refs = 20_000; edit_every = 0 };
    { wname = "hot/cold 90/10, rare edits"; objects = 256; hot = 16; hot_bias = 90; refs = 20_000; edit_every = 500 };
    { wname = "uniform, rare edits"; objects = 256; hot = 256; hot_bias = 0; refs = 20_000; edit_every = 500 };
    { wname = "hot/cold 90/10, edit storm"; objects = 256; hot = 16; hot_bias = 90; refs = 20_000; edit_every = 8 };
  ]

type row = {
  row_workload : string;
  refs : int;
  edits : int;
  hit_ratio : float;
  invalidations : int;
  parity_ok : bool;  (** cached verdict = fresh verdict at every step *)
}

let operator =
  Policy.subject ~trusted:true
    ~principal:(Principal.make ~person:"Initializer" ~project:"SysDaemon" ~tag:"z")
    ~clearance:(Label.system_high []) ~ring:(Ring.of_int 1) ()

let reader =
  Policy.subject
    ~principal:(Principal.make ~person:"Jones" ~project:"Apps" ~tag:"a")
    ~clearance:(Label.make Label.Secret []) ~ring:(Ring.of_int 4) ()

let counter_of stats name = try List.assoc name stats with Not_found -> 0

(* The two equivalent ACL variants the loop's edits alternate between.
   An ACL is an immutable value, so they are built once; each edit
   replaces a branch's list and revokes only that object's verdicts. *)
let acl_variants =
  let base = [ ("Jones.*.*", "rw"); ("Initializer.*.*", "rew") ] in
  ( Acl.of_strings base,
    Acl.of_strings (("Backup.SysDaemon.*", "r") :: base) )

let run_workload w =
  let h = Hierarchy.create () in
  let acl_a, acl_b = acl_variants in
  let uids =
    Array.init w.objects (fun i ->
        match
          Hierarchy.create_segment h ~subject:operator ~dir:Uid.root
            ~name:(Printf.sprintf "seg_%03d" i) ~acl:acl_a
            ~label:(Label.make Label.Confidential [])
        with
        | Ok uid -> uid
        | Error e -> invalid_arg ("E16: create_segment: " ^ Hierarchy.error_to_string e))
  in
  let rand = lcg (17 + w.objects + w.edit_every) in
  let before = Hierarchy.cache_stats h in
  let edits = ref 0 in
  let parity_ok = ref true in
  for i = 1 to w.refs do
    if w.edit_every > 0 && i mod w.edit_every = 0 then begin
      let victim = uids.(rand w.objects) in
      let acl = if !edits land 1 = 0 then acl_b else acl_a in
      (match Hierarchy.set_acl h ~subject:operator ~uid:victim ~acl with
      | Ok () -> incr edits
      | Error e -> invalid_arg ("E16: set_acl: " ^ Hierarchy.error_to_string e))
    end;
    let idx =
      if rand 100 < w.hot_bias then rand w.hot else rand w.objects
    in
    let uid = uids.(idx) in
    let requested = if rand 4 = 0 then Mode.w else Mode.r in
    let cached = Hierarchy.check_access h ~subject:reader ~uid ~requested in
    let fresh = Hierarchy.check_access_fresh h ~subject:reader ~uid ~requested in
    if cached <> fresh then parity_ok := false
  done;
  let after = Hierarchy.cache_stats h in
  let delta name = counter_of after name - counter_of before name in
  let hits = delta "hits" and misses = delta "misses" in
  {
    row_workload = w.wname;
    refs = w.refs;
    edits = !edits;
    hit_ratio = (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
    invalidations = delta "invalidations";
    parity_ok = !parity_ok;
  }

let measure () = List.map run_workload workloads

(* The cost model applied to a measured hit ratio. *)
let cost_per_ref cost ~hit_ratio =
  float_of_int cost.Cost.memory_reference
  +. ((1.0 -. hit_ratio) *. float_of_int cost.Cost.sdw_fetch)

let uncached_cost_per_ref cost =
  float_of_int (cost.Cost.memory_reference + cost.Cost.sdw_fetch)

let table () =
  let open Multics_util.Table in
  let t =
    create
      ~title:(Printf.sprintf "%s: %s" id title)
      ~columns:
        [
          ("workload", Left);
          ("refs", Right);
          ("edits", Right);
          ("hit ratio", Right);
          ("inval", Right);
          ("645 cyc/ref", Right);
          ("645 speedup", Right);
          ("6180 cyc/ref", Right);
          ("6180 speedup", Right);
          ("parity", Left);
        ]
  in
  List.iter
    (fun r ->
      let c645 = cost_per_ref Cost.h645 ~hit_ratio:r.hit_ratio in
      let c6180 = cost_per_ref Cost.h6180 ~hit_ratio:r.hit_ratio in
      add_row t
        [
          r.row_workload;
          string_of_int r.refs;
          string_of_int r.edits;
          fmt_pct r.hit_ratio;
          string_of_int r.invalidations;
          fmt_float ~decimals:1 c645;
          fmt_ratio (uncached_cost_per_ref Cost.h645 /. c645);
          fmt_float ~decimals:1 c6180;
          fmt_ratio (uncached_cost_per_ref Cost.h6180 /. c6180);
          (if r.parity_ok then "ok" else "STALE VERDICT");
        ])
    (measure ());
  t

let render () = Multics_util.Table.render (table ())
