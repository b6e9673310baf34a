(* The compiled access-vector table: the mediation hot path as two
   array loads.

   Policy + ring brackets, compiled per (subject SID, object uid) into
   a handful of access-vector bits in a preallocated 2-D int array.  A
   reference asks "does the cell cover the requested mode's bits?" —
   one multiply-add index, three array reads (vector + two generation
   stamps), one mask compare.  No allocation, no hashing, no
   structured comparison: the flat-table analogue of the 6180 paying
   full mediation cost only on an associative-memory miss, and the
   SELinux access-vector-table arrangement applied to the paper's
   kernel.

   Revocation correctness rests on epochs: every cell is stamped with
   the table's generation counters ([Gen]: one global, one per object)
   current when it was compiled.  An ACL edit, label change, bracket
   change, delete, rename or salvage bumps a counter through
   [invalidate_object] or [invalidate_all], and a stamped cell whose
   counters moved reads as empty — the table is "rebuilt
   incrementally" by lazy refill on the next reference (an eager
   [rebuild] exists for measurement and for warming).  A stale Permit
   therefore cannot outlive the authority that granted it: the cell
   dies in the same step as the edit that revoked it, and one bump
   reaches every subject's cell for the object at once.

   The bit encoding is sound because permission is conjunctive per
   mode bit: [Policy.check] refuses iff some requested bit lacks its
   (mandatory AND discretionary) grant, and the ring-bracket rule
   refuses iff some requested bit lacks its bracket grant.  So a
   6-bit vector — r/e/w policy bits plus bracket-read/bracket-write —
   decides every (subject, object, mode) question exactly.  The
   refusal DETAILS (which mechanism, which labels) are not in the
   table; a covered request Permits directly, anything else falls to
   the structured recompute path, which is also what keeps audit
   refusal counters and refusal lists byte-identical to the uncached
   kernel. *)

open Multics_machine
module Obs = Multics_obs.Obs

module Gen = struct
  (* [of_object] sits on the hit path of every lookup.  Object uids are
     small non-negative ints, so each has a counter in one flat array,
     grown by doubling to cover the highest id bumped so far and never
     past [dense_limit].  A read past the array's end reads generation
     0: that id was never bumped.  A table that is never invalidated
     object by object allocates no array at all.  Every id outside [0,
     dense_limit) shares the one [overflow] counter, so a bump of any of
     them stales the cells of all of them: more than needed, never a
     revoked cell brought back. *)
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

(* The obs counters behind a table name, resolved once per domain and
   name. *)
type instruments = {
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

(* ----- Access-vector bits ----- *)

let bit_read = 1
let bit_execute = 2
let bit_write = 4
let bit_bracket_read = 8
let bit_bracket_write = 16

(* The bits a request must cover: observe bits need the read bracket,
   the modify bit needs the write bracket — exactly the split of
   [Hierarchy.ring_refusals]. *)
let required (m : Mode.t) =
  (if m.Mode.read then bit_read lor bit_bracket_read else 0)
  lor (if m.Mode.execute then bit_execute lor bit_bracket_read else 0)
  lor if m.Mode.write then bit_write lor bit_bracket_write else 0

let covers ~av ~need = av land need = need

(* Compile one cell: the conjunctive form of [Policy.check] (with the
   trusted-subject carve-out) and the bracket rule.  The E19 oracle
   and the unit tests hold this pointwise equal to the structured
   path. *)
let compute ~(subject : Policy.subject) ~object_label ~acl ~brackets =
  let granted = Acl.mode_for acl subject.Policy.principal in
  let observe_ok =
    subject.Policy.trusted || Label.dominates subject.Policy.clearance object_label
  in
  let modify_ok =
    subject.Policy.trusted || Label.dominates object_label subject.Policy.clearance
  in
  let ring = subject.Policy.ring in
  (if granted.Mode.read && observe_ok then bit_read else 0)
  lor (if granted.Mode.execute && observe_ok then bit_execute else 0)
  lor (if granted.Mode.write && modify_ok then bit_write else 0)
  lor (if Brackets.read_ok brackets ~ring then bit_bracket_read else 0)
  lor if Brackets.write_ok brackets ~ring then bit_bracket_write else 0

(* ----- The table ----- *)

(* Columns are object uids (already a dense SID space); cells for uids
   past [Gen]'s dense range are never cached — they recompute, exactly
   like a miss — so every cached column has a generation counter of its
   own. *)
let max_objects = Gen.dense_limit

type t = {
  name : string;
  gens : Gen.t;
  sids : Policy.Subject_sids.t;  (** row minting: subject identity -> row index *)
  mutable rows : int;  (** allocated row capacity *)
  mutable cols : int;  (** allocated column capacity (the row stride) *)
  mutable av : int array;  (** rows x cols access vectors *)
  mutable g_global : int array;  (** per-cell global stamp; -1 = empty *)
  mutable g_obj : int array;  (** per-cell object stamp *)
  mutable max_obj : int;  (** highest uid ever cached, bounds the size scan *)
  mutable flush_probe : (unit -> bool) option;
  obs : instruments;
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ?(subjects = 2) ?(objects = 16) ~name () =
  let rows = max 1 subjects in
  let cols = pow2_at_least (max 16 objects) 1 in
  let cells = rows * cols in
  {
    name;
    gens = Gen.create ();
    sids = Policy.Subject_sids.create ();
    rows;
    cols;
    av = Array.make cells 0;
    g_global = Array.make cells (-1);
    g_obj = Array.make cells 0;
    max_obj = -1;
    flush_probe = None;
    obs = instruments name;
  }

(* Cells, stamps, generations and SIDs copied, so every cell reads
   fresh or stale exactly as in [t].  The probe fires its source's
   fault injector, so the copy has none; the counters are the copying
   domain's. *)
let copy t =
  {
    name = t.name;
    gens = Gen.copy t.gens;
    sids = Policy.Subject_sids.copy t.sids;
    rows = t.rows;
    cols = t.cols;
    av = Array.copy t.av;
    g_global = Array.copy t.g_global;
    g_obj = Array.copy t.g_obj;
    max_obj = t.max_obj;
    flush_probe = None;
    obs = instruments t.name;
  }

let name t = t.name
let invalidate_object t obj = Gen.bump_object t.gens obj
let invalidate_all t = Gen.bump_global t.gens
let subject_sid t subject = Policy.Subject_sids.sid_of t.sids subject
let subject_count t = Policy.Subject_sids.count t.sids
let set_flush_probe t probe = t.flush_probe <- probe

let flush t =
  Array.fill t.g_global 0 (Array.length t.g_global) (-1);
  Obs.Counter.incr t.obs.flushes

let probe_fault t =
  match t.flush_probe with Some fires when fires () -> flush t | _ -> ()

(* Grow to cover at least (rows, cols), re-laying out the cells under
   the new stride.  Growth is geometric and happens only on the
   insertion (cold) path. *)
let grow t ~rows ~cols =
  let rows = max rows t.rows in
  let cols = pow2_at_least cols t.cols in
  let av = Array.make (rows * cols) 0 in
  let g_global = Array.make (rows * cols) (-1) in
  let g_obj = Array.make (rows * cols) 0 in
  for r = 0 to t.rows - 1 do
    Array.blit t.av (r * t.cols) av (r * cols) t.cols;
    Array.blit t.g_global (r * t.cols) g_global (r * cols) t.cols;
    Array.blit t.g_obj (r * t.cols) g_obj (r * cols) t.cols
  done;
  t.rows <- rows;
  t.cols <- cols;
  t.av <- av;
  t.g_global <- g_global;
  t.g_obj <- g_obj

(* The hot lookup.  Returns the access vector, or -1 for a miss — an
   int, not an option, so a hit allocates nothing. *)
let find t ~subj ~obj =
  probe_fault t;
  let s = Sid.to_int subj in
  if s >= t.rows || obj < 0 || obj >= t.cols then begin
    Obs.Counter.incr t.obs.misses;
    -1
  end
  else begin
    let i = (s * t.cols) + obj in
    if
      Array.unsafe_get t.g_global i = Gen.global t.gens
      && Array.unsafe_get t.g_obj i = Gen.of_object t.gens obj
    then begin
      Obs.Counter.incr t.obs.hits;
      Array.unsafe_get t.av i
    end
    else begin
      (* A stamped cell whose counters moved was revoked: mark it
         empty now (so it is counted once), miss. *)
      if Array.unsafe_get t.g_global i >= 0 then begin
        Array.unsafe_set t.g_global i (-1);
        Obs.Counter.incr t.obs.invalidations
      end;
      Obs.Counter.incr t.obs.misses;
      -1
    end
  end

(* [find]'s reading, with nothing written, counted or probed. *)
let peek t ~subject ~obj =
  match Policy.Subject_sids.find t.sids subject with
  | None -> -1
  | Some subj ->
      let s = Sid.to_int subj in
      if s >= t.rows || obj < 0 || obj >= t.cols then -1
      else
        let i = (s * t.cols) + obj in
        if t.g_global.(i) = Gen.global t.gens && t.g_obj.(i) = Gen.of_object t.gens obj then
          t.av.(i)
        else -1

let set t ~subj ~obj av =
  if obj >= 0 && obj < max_objects then begin
    let s = Sid.to_int subj in
    if s >= t.rows || obj >= t.cols then grow t ~rows:(2 * (s + 1)) ~cols:(obj + 1);
    let i = (s * t.cols) + obj in
    t.av.(i) <- av;
    t.g_global.(i) <- Gen.global t.gens;
    t.g_obj.(i) <- Gen.of_object t.gens obj;
    if obj > t.max_obj then t.max_obj <- obj;
    Obs.Counter.incr t.obs.insertions
  end

(* Fresh-cell population.  A scan, not a counter: staleness is decided
   by the epoch stamps at read time, so any running count would drift.
   Bounded by (minted rows x highest uid cached) — status-command
   cost, not hot-path cost. *)
let size t =
  let live = ref 0 in
  let rows = min t.rows (Policy.Subject_sids.count t.sids) in
  for s = 0 to rows - 1 do
    for obj = 0 to min t.max_obj (t.cols - 1) do
      let i = (s * t.cols) + obj in
      if t.g_global.(i) = Gen.global t.gens && t.g_obj.(i) = Gen.of_object t.gens obj then
        Stdlib.incr live
    done
  done;
  !live

let counters t =
  let get c = Obs.Counter.get c in
  [
    ("hits", get t.obs.hits);
    ("misses", get t.obs.misses);
    ("invalidations", get t.obs.invalidations);
    ("insertions", get t.obs.insertions);
    ("flushes", get t.obs.flushes);
  ]

let hit_ratio t =
  let h = float_of_int (Obs.Counter.get t.obs.hits) in
  let m = float_of_int (Obs.Counter.get t.obs.misses) in
  if h +. m = 0. then 0. else h /. (h +. m)

(* Eagerly recompile every minted (subject, object) pair, given the
   caller's view of the live objects.  [objects] yields (uid, label,
   acl, brackets); returns the number of cells filled.  Measurement
   and warm-up path — correctness never needs it, lazy refill under
   the stamps is already exact. *)
let rebuild t ~objects =
  let filled = ref 0 in
  Policy.Subject_sids.iter
    (fun sid subject ->
      objects (fun ~obj ~label ~acl ~brackets ->
          set t ~subj:sid ~obj (compute ~subject ~object_label:label ~acl ~brackets);
          Stdlib.incr filled))
    t.sids;
  !filled
