(* A revocation-correct decision cache — the associative memory of the
   6180.

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
   deletion, branch move or salvager repair that revoked it.

   One mechanism backs the hardware's caches: each CPU's SDW
   associative memory, page control's PTW lookaside and each CPU's PTW
   front.  Each keys by a small integer (a CAM tag, a page SID) that
   also names the object its decision derives from.  Each instance
   reports hits/misses/invalidations through [lib/obs] under
   "cache.<name>.*".  The policy-verdict cache is [Av_table]
   (lib/access), a flat table that shares only [Gen] and these counter
   names. *)

module Obs = Multics_obs.Obs

module Gen = struct
  (* [of_object] sits on the hit path of every cache lookup, so the
     common case — small non-negative object ids (uids, segnos, CAM
     keys) — reads a two-level dense table: a fixed directory of
     [page_size]-id pages, each allocated on the first bump of an id in
     its range.  Until then a directory slot points at [zero_page],
     shared and never written, so a read is two array loads whether or
     not the page exists, and an id whose page was never allocated
     reads generation 0.  The directory itself covers only the pages
     up to the highest one bumped so far: it starts empty, and a read
     past its end reads generation 0 like an unallocated page.  A cache
     that is never invalidated object by object (most of those a boot
     creates) allocates no directory at all.  Paging matters because
     the dense ids are not compact: a CPU's CAM keys its entries by
     [(handle lsl 12) lor segno], so one
     process's first invalidation lands thousands of ids past the
     previous one, and a flat array grown to cover it would cost tens
     of KB per boot.  Anything outside the dense range (e.g. hashed
     page ids) falls back to a hashtable.

     [epoch] is an external counter folded into [global]: owned by
     someone else (the domain's ACL mutation generation, for the
     hierarchy's table), it stales every entry when it advances,
     without its owner holding a reference to this [Gen.t].  It can
     only advance, so sharing it can only ever stale entries. *)
  type epoch = { mutable ticks : int }

  let new_epoch () = { ticks = 0 }
  let advance e = e.ticks <- e.ticks + 1

  (* Shared by every [Gen.t] created without an epoch; never advanced
     (it does not escape this module). *)
  let no_epoch = new_epoch ()

  let page_bits = 6
  let page_size = 1 lsl page_bits
  let dense_limit = 1 lsl 16
  let zero_page = Array.make page_size 0
  let max_pages = dense_limit lsr page_bits

  type t = {
    mutable global : int;
    mutable epoch : epoch;
    mutable pages : int array array;
    mutable sparse : (int, int) Hashtbl.t option;  (** allocated on the first sparse bump *)
    mutable compactions : int;
  }

  (* The sparse table's size bound.  Hashed ids (page ids) churn
     forever on a long run — objects are deleted, their ids never
     reused — so without pruning the table grows without bound.  When
     a bump would push it past this limit the whole table is folded
     into the global epoch instead (see [compact]). *)
  let sparse_limit = 1 lsl 12

  let obs_compactions = Obs.Local.counter "cache.gen.compactions"

  let create ?(epoch = no_epoch) () =
    {
      global = 0;
      epoch;
      pages = [||];
      sparse = None;
      compactions = 0;
    }

  let global t = t.global + t.epoch.ticks
  let is_dense obj = obj >= 0 && obj < dense_limit

  let of_object t obj =
    if is_dense obj then begin
      let p = obj lsr page_bits in
      if p < Array.length t.pages then
        Array.unsafe_get (Array.unsafe_get t.pages p) (obj land (page_size - 1))
      else 0
    end
    else
      match t.sparse with
      | Some sparse -> Option.value (Hashtbl.find_opt sparse obj) ~default:0
      | None -> 0

  let bump_global t = t.global <- t.global + 1

  (* Epoch compaction — the pruning rule for sparse per-object entries.
     Dropping one object's entry in isolation would be UNSOUND: an
     entry stamped with generation 0 before the object was ever bumped
     would read as fresh again once [of_object] falls back to 0 — a
     revoked Permit resurrected.  Folding the table into the global
     epoch first makes the drop sound: after [bump_global] no existing
     entry in any cache sharing this [Gen.t] can match, so every
     per-object counter is dead weight and the table can be cleared
     wholesale.  Cost: one full-flush-equivalent miss storm, bounded to
     once per [sparse_limit] distinct hashed objects — performance,
     never correctness. *)
  let compact t =
    bump_global t;
    Option.iter Hashtbl.reset t.sparse;
    t.compactions <- t.compactions + 1;
    if Obs.enabled () then Obs.Counter.incr (obs_compactions ())

  let bump_object t obj =
    if is_dense obj then begin
      let p = obj lsr page_bits in
      let covered = Array.length t.pages in
      if p >= covered then begin
        let pages = Array.make (min max_pages (max (p + 1) (2 * covered))) zero_page in
        Array.blit t.pages 0 pages 0 covered;
        t.pages <- pages
      end;
      if t.pages.(p) == zero_page then t.pages.(p) <- Array.make page_size 0;
      let page = t.pages.(p) and i = obj land (page_size - 1) in
      page.(i) <- page.(i) + 1
    end
    else begin
      let sparse =
        match t.sparse with
        | Some sparse -> sparse
        | None ->
            let sparse = Hashtbl.create 16 in
            t.sparse <- Some sparse;
            sparse
      in
      if Hashtbl.length sparse >= sparse_limit && not (Hashtbl.mem sparse obj) then compact t;
      Hashtbl.replace sparse obj (of_object t obj + 1)
    end

  let sparse_size t = match t.sparse with Some sparse -> Hashtbl.length sparse | None -> 0
  let compactions t = t.compactions

  (* Rebasing [global] onto the new epoch keeps the reading what it is
     now, so every stamp that matches still matches and no stale stamp
     revives; from then on the reading advances with [epoch]. *)
  let set_epoch t epoch =
    t.global <- global t - epoch.ticks;
    t.epoch <- epoch

  (* Same readings, private counters.  The directory is copied whole
     and only its allocated pages replaced: a CPU CAM's directory runs
     to ~130 slots for two pages. *)
  let copy ?epoch t =
    let pages = Array.copy t.pages in
    for i = 0 to Array.length pages - 1 do
      let page = pages.(i) in
      if page != zero_page then pages.(i) <- Array.copy page
    done;
    let c =
      {
        global = t.global;
        epoch = t.epoch;
        pages;
        sparse = Option.map Hashtbl.copy t.sparse;
        compactions = t.compactions;
      }
    in
    Option.iter (set_epoch c) epoch;
    c
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
