(* A revocation-correct decision cache, kept the way the 6180 keeps its
   associative memories.

   The 6180 the paper describes pays the full mediation cost (descriptor
   fetch, access computation) only on an associative-memory miss; on a
   hit the hardware replays a previously computed decision.  That
   substitution is only sound because Multics invalidates the
   associative memory the moment any input to the cached decision
   changes ("setfaults" on an attribute change) — revocation is
   immediate, never deferred to a timeout.

   This module simulates that discipline with epochs instead of selective
   search: every cached entry is stamped with the generation counters
   current at insertion (one global, one per object).  Any mutation that
   could change a decision bumps a counter; a lookup whose stamps no
   longer match the live counters is treated as a miss and dropped.  A
   stale Permit therefore cannot outlive the authority that granted it:
   the entry dies in the same step as the ACL edit, label change,
   deletion, branch move or salvager repair that revoked it.  Stamps
   pay off where one bump must reach many entries at once.

   It backs page control's PTW lookaside and each CPU's PTW front,
   which share page control's [Gen]: each keys by a page SID, which
   also names the object its decision derives from.  Each instance
   reports hits/misses/invalidations through [lib/obs] under
   "cache.<name>.*".  The policy-verdict cache is [Av_table]
   (lib/access), a flat table that shares only [Gen] and these counter
   names.  A CPU's SDW associative memory is [Hardware.Assoc]
   (lib/machine): an invalidation there reaches one slot, which it
   clears itself. *)

module Obs = Multics_obs.Obs

module Gen = struct
  (* [of_object] sits on the hit path of every cache lookup.  The ids
     the caches key by are small non-negative ints (uids, page SIDs),
     so each has a counter in one flat array, grown by doubling to
     cover the highest id bumped so far and never past [dense_limit].
     A read past the array's end reads generation 0: that id was never
     bumped.  A cache that is never invalidated object by object (most
     of those a boot creates) allocates no array at all.  Every id
     outside [0, dense_limit) shares the one [overflow] counter, so a
     bump of any of them stales the entries of all of them: more than
     needed, never a revoked entry brought back. *)
  let dense_limit = 1 lsl 16

  type t = { mutable global : int; mutable counts : int array; mutable overflow : int }

  let create () = { global = 0; counts = [||]; overflow = 0 }
  let global t = t.global
  let is_dense obj = obj >= 0 && obj < dense_limit

  let of_object t obj =
    if is_dense obj then
      if obj < Array.length t.counts then Array.unsafe_get t.counts obj else 0
    else t.overflow

  let bump_global t = t.global <- t.global + 1

  let rec cover n obj = if n > obj then n else cover (2 * n) obj

  let bump_object t obj =
    if is_dense obj then begin
      let len = Array.length t.counts in
      if obj >= len then begin
        let counts = Array.make (cover (max 8 len) obj) 0 in
        Array.blit t.counts 0 counts 0 len;
        t.counts <- counts
      end;
      t.counts.(obj) <- t.counts.(obj) + 1
    end
    else t.overflow <- t.overflow + 1

  (* Same readings, private counters. *)
  let copy t = { global = t.global; counts = Array.copy t.counts; overflow = t.overflow }
end

type 'v entry = { key : int; value : 'v; g_global : int; g_obj : int }

(* The table is a direct-mapped slot array indexed by the key's low
   bits, like the set-associative memories it simulates: a hit is one
   array probe, one integer compare and two generation reads, well
   under the cost of the decision the cache bypasses, which is the
   entire point of the mechanism.

   Direct mapping also settles the replacement question the hardware
   way: a new decision whose slot is occupied by a different key
   simply displaces it.  Displacement only ever discards a cached
   decision, so it is always sound. *)
type 'v t = {
  name : string;
  capacity : int;  (** number of slots, rounded up to a power of two *)
  mask : int;
  gens : Gen.t;
  slots : 'v entry option array;
  mutable population : int;
  obs : instruments;
}

and instruments = {
  hits : Obs.Counter.t;
  misses : Obs.Counter.t;
  invalidations : Obs.Counter.t;
  insertions : Obs.Counter.t;
  flushes : Obs.Counter.t;
}

let instruments =
  Obs.Local.keyed (fun registry name ->
      let counter field = Obs.Registry.counter registry ("cache." ^ name ^ "." ^ field) in
      {
        hits = counter "hits";
        misses = counter "misses";
        invalidations = counter "invalidations";
        insertions = counter "insertions";
        flushes = counter "flushes";
      })

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ~capacity ?gens ~name () =
  let gens = match gens with Some g -> g | None -> Gen.create () in
  let capacity = pow2_at_least (max 1 capacity) 1 in
  {
    name;
    capacity;
    mask = capacity - 1;
    gens;
    slots = Array.make capacity None;
    population = 0;
    obs = instruments name;
  }

(* Entries are immutable, so copying the slot array copies the cache.
   The counters are the copying domain's. *)
let copy ?gens t =
  {
    t with
    gens = (match gens with Some g -> g | None -> Gen.copy t.gens);
    slots = Array.copy t.slots;
    obs = instruments t.name;
  }

let capacity t = t.capacity
let gens t = t.gens
let size t = t.population

let flush t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.population <- 0;
  Obs.Counter.incr t.obs.flushes

let fresh t e = e.g_global = Gen.global t.gens && e.g_obj = Gen.of_object t.gens e.key

let find t key =
  let i = key land t.mask in
  match t.slots.(i) with
  | Some e when e.key = key ->
      if fresh t e then begin
        Obs.Counter.incr t.obs.hits;
        Some e.value
      end
      else begin
        t.slots.(i) <- None;
        t.population <- t.population - 1;
        Obs.Counter.incr t.obs.invalidations;
        Obs.Counter.incr t.obs.misses;
        None
      end
  | Some _ | None ->
      Obs.Counter.incr t.obs.misses;
      None

let add t key value =
  (* Direct-mapped, hardware-style: a collision displaces the resident
     entry rather than maintain LRU bookkeeping the 6180 never had.
     Displacement discards a decision; it can never resurrect one. *)
  let i = key land t.mask in
  if Option.is_none t.slots.(i) then t.population <- t.population + 1;
  t.slots.(i) <-
    Some { key; value; g_global = Gen.global t.gens; g_obj = Gen.of_object t.gens key };
  Obs.Counter.incr t.obs.insertions

let entries t =
  Array.fold_left
    (fun acc slot ->
      match slot with
      | Some e when fresh t e -> (e.key, e.value) :: acc
      | Some _ | None -> acc)
    [] t.slots

let invalidate_object t key = Gen.bump_object t.gens key

let counters t =
  [
    ("hits", Obs.Counter.get t.obs.hits);
    ("misses", Obs.Counter.get t.obs.misses);
    ("invalidations", Obs.Counter.get t.obs.invalidations);
    ("insertions", Obs.Counter.get t.obs.insertions);
    ("flushes", Obs.Counter.get t.obs.flushes);
  ]
