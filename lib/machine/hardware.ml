(* The full hardware access check: mode bits + ring brackets + gates.

   This is the innermost layer of the reference monitor; it validates
   every simulated memory reference against the SDW, exactly as the
   6180 appending unit does on each instruction.  Everything above
   (ACLs, the mandatory-access lattice) only decides what SDWs say;
   this module decides what a given SDW permits. *)

module Obs = Multics_obs.Obs

type operation = Read | Write | Execute | Call of int  (** entry offset *)

type grant =
  | Access_ok  (** read/write/execute in the current ring *)
  | Gate_entry of Ring.t  (** inward call; execution continues in this ring *)

type denial =
  | Missing_permission of Mode.t  (** mode bits lack the needed permission *)
  | Outside_write_bracket
  | Outside_read_bracket
  | Outside_call_bracket
  | Not_a_gate of int  (** inward call to a non-gate entry offset *)
  | Outward_call

type decision = Granted of grant | Denied of denial

let denial_to_string = function
  | Missing_permission m -> "missing permission " ^ Mode.to_string m
  | Outside_write_bracket -> "outside write bracket"
  | Outside_read_bracket -> "outside read bracket"
  | Outside_call_bracket -> "outside call bracket"
  | Not_a_gate off -> Printf.sprintf "entry %d is not a gate" off
  | Outward_call -> "outward call"

(* Observability: the hardware check is the innermost mediation point,
   so its counters are the ground truth every other layer's numbers
   must reconcile with. *)
let obs_checks = Obs.Local.counter "hw.checks"
let obs_denials = Obs.Local.counter "hw.denials"
let obs_denial = Obs.Local.keyed (fun r label -> Obs.Registry.counter r ("hw.denials." ^ label))

let denial_label = function
  | Missing_permission _ -> "missing-permission"
  | Outside_write_bracket -> "write-bracket"
  | Outside_read_bracket -> "read-bracket"
  | Outside_call_bracket -> "call-bracket"
  | Not_a_gate _ -> "not-a-gate"
  | Outward_call -> "outward-call"

let observe decision =
  if Obs.enabled () then begin
    Obs.Counter.incr (obs_checks ());
    match decision with
    | Granted _ -> ()
    | Denied d ->
        Obs.Counter.incr (obs_denials ());
        Obs.Counter.incr (obs_denial (denial_label d))
  end;
  decision

let check sdw ~ring ~operation =
  observe
  @@
  let mode = Sdw.mode sdw in
  let brackets = Sdw.brackets sdw in
  match operation with
  | Read ->
      if not mode.Mode.read then Denied (Missing_permission Mode.r)
      else if Brackets.read_ok brackets ~ring then Granted Access_ok
      else Denied Outside_read_bracket
  | Write ->
      if not mode.Mode.write then Denied (Missing_permission Mode.w)
      else if Brackets.write_ok brackets ~ring then Granted Access_ok
      else Denied Outside_write_bracket
  | Execute -> (
      if not mode.Mode.execute then Denied (Missing_permission Mode.e)
      else
        match Brackets.transfer brackets ~ring with
        | Brackets.Execute_in_place -> Granted Access_ok
        | Brackets.Inward_call _ ->
            (* A plain transfer (not a call instruction) may not change
               rings: jumping inward without the gate discipline would
               bypass argument validation. *)
            Denied Outside_read_bracket
        | Brackets.Outward_call_fault -> Denied Outward_call
        | Brackets.Beyond_call_bracket -> Denied Outside_call_bracket)
  | Call entry_offset -> (
      if not mode.Mode.execute then Denied (Missing_permission Mode.e)
      else
        match Brackets.transfer brackets ~ring with
        | Brackets.Execute_in_place -> Granted Access_ok
        | Brackets.Inward_call target_ring ->
            if Sdw.is_gate_offset sdw entry_offset then Granted (Gate_entry target_ring)
            else Denied (Not_a_gate entry_offset)
        | Brackets.Outward_call_fault -> Denied Outward_call
        | Brackets.Beyond_call_bracket -> Denied Outside_call_bracket)

let allowed sdw ~ring ~operation =
  match check sdw ~ring ~operation with Granted _ -> true | Denied _ -> false

(* An associative memory: one of the 6180's per-CPU CAMs that let the
   processor skip a table fetch on a repeated reference.  Each CPU of
   the plant has two: a 16-entry memory of SDWs, which skips the
   descriptor-segment fetch, and a 64-entry memory of PTWs, which skips
   the page-table walk.  Both are keyed by an integer tag their owner
   chooses.  Correctness leans entirely on invalidation: Multics
   "setfaults" clears a CPU's entries whenever a segment's attributes
   change, and an eviction clears the page's; the plant does the same
   through {!invalidate}/{!flush}, so a cached entry always equals what
   the table it caches currently holds.

   The memory is direct-mapped: key [k] lives in slot [k land (slots -
   1)], and an install displaces whatever the slot held.  [invalidate]
   clears only the one slot that can hold its key.  It marks the entry
   revoked rather than emptying the slot: the next lookup of that key
   drops it and counts an invalidation and a miss, and until then it
   still counts towards [size].  Entries are immutable, so a copy of
   the slot array is a copy of the memory.  The change stamp moves
   whenever the entries that would hit change: on every install and
   flush, and on an invalidation that revokes an entry.  Dropping a
   revoked entry on lookup changes nothing a hit can see. *)
module Assoc = struct
  type 'v entry = { key : int; value : 'v; revoked : bool }

  type instruments = {
    hits : Obs.Counter.t;
    misses : Obs.Counter.t;
    invalidations : Obs.Counter.t;
    insertions : Obs.Counter.t;
    flushes : Obs.Counter.t;
  }

  type 'v t = {
    name : string;
    mask : int;
    slots : 'v entry option array;
    obs : instruments;
    mutable stamp : int;
  }

  let instruments =
    Obs.Local.keyed (fun r name ->
        let counter field = Obs.Registry.counter r ("cache." ^ name ^ "." ^ field) in
        {
          hits = counter "hits";
          misses = counter "misses";
          invalidations = counter "invalidations";
          insertions = counter "insertions";
          flushes = counter "flushes";
        })

  let create ~slots ~name =
    if slots < 1 || slots land (slots - 1) <> 0 then
      invalid_arg (Printf.sprintf "Hardware.Assoc.create: %d slots is not a power of two" slots);
    { name; mask = slots - 1; slots = Array.make slots None; obs = instruments name; stamp = 0 }

  (* The counters are the copying domain's. *)
  let copy t = { t with slots = Array.copy t.slots; obs = instruments t.name }

  let stamp t = t.stamp
  let touch t = t.stamp <- t.stamp + 1

  let lookup t ~key =
    let i = key land t.mask in
    match t.slots.(i) with
    | Some e when e.key = key ->
        if e.revoked then begin
          t.slots.(i) <- None;
          Obs.Counter.incr t.obs.invalidations;
          Obs.Counter.incr t.obs.misses;
          None
        end
        else begin
          Obs.Counter.incr t.obs.hits;
          Some e.value
        end
    | Some _ | None ->
        Obs.Counter.incr t.obs.misses;
        None

  let install t ~key value =
    t.slots.(key land t.mask) <- Some { key; value; revoked = false };
    touch t;
    Obs.Counter.incr t.obs.insertions

  let invalidate t ~key =
    let i = key land t.mask in
    match t.slots.(i) with
    | Some e when e.key = key && not e.revoked ->
        t.slots.(i) <- Some { e with revoked = true };
        touch t
    | Some _ | None -> ()

  let flush t =
    Array.fill t.slots 0 (Array.length t.slots) None;
    touch t;
    Obs.Counter.incr t.obs.flushes

  let size t = Array.fold_left (fun n e -> if Option.is_some e then n + 1 else n) 0 t.slots

  let counters t =
    let get = Obs.Counter.get in
    [
      ("hits", get t.obs.hits);
      ("misses", get t.obs.misses);
      ("invalidations", get t.obs.invalidations);
      ("insertions", get t.obs.insertions);
      ("flushes", get t.obs.flushes);
    ]

  (* Highest slot first. *)
  let entries t =
    Array.fold_left
      (fun acc -> function
        | Some e when not e.revoked -> (e.key, e.value) :: acc
        | Some _ | None -> acc)
      [] t.slots
end

let check_via_assoc assoc ~key ~fetch ~ring ~operation =
  match Assoc.lookup assoc ~key with
  | Some sdw -> Some (check sdw ~ring ~operation)
  | None -> (
      match fetch () with
      | None -> None
      | Some sdw ->
          Assoc.install assoc ~key sdw;
          Some (check sdw ~ring ~operation))

let pp_decision ppf = function
  | Granted Access_ok -> Fmt.string ppf "granted"
  | Granted (Gate_entry r) -> Fmt.pf ppf "granted via gate into %a" Ring.pp r
  | Denied d -> Fmt.pf ppf "denied (%s)" (denial_to_string d)
