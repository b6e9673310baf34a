(* Discretionary access control lists.

   Each branch in the storage hierarchy carries an ACL: an ordered set
   of (principal pattern -> mode) entries.  Evaluation follows the
   Multics rule: the most specific matching entry decides, with the
   person component most significant.  An explicit null-mode entry is
   how access is denied to a specific principal while a broader entry
   grants it to everyone else. *)

open Multics_machine

type entry = { pattern : Principal.pattern; mode : Mode.t }

type t = entry list (* kept sorted, most specific first *)

let empty = []

(* Mutation generation.  ACLs are pure values, so "mutation" means
   producing a modified list — but cached access decisions derive from
   ACL contents, and a cache that misses a revocation is a security
   hole.  Every entry point that produces a modified ACL therefore
   bumps a module-level generation, so a cache that folds it into its
   epoch (see Hierarchy) cannot miss an edit even if a caller stores
   the new list somewhere unexpected.  Callers that track *which*
   object changed layer per-object generations on top.

   The counter is pulled, never pushed: nothing here holds a reference
   to a cache, so a dropped kernel is garbage and an edit costs one
   increment however many kernels the process has booted.  It is
   domain-local: a kernel booted on a worker domain (a parallel
   per-seed experiment task) reads the counter of the domain it was
   booted on, and ACL edits on other domains neither stale its
   verdicts nor race with it. *)
module Gen = Multics_cache.Avc.Gen

let generation_key = Domain.DLS.new_key Gen.new_epoch
let generation () = Domain.DLS.get generation_key
let note_mutation () = Gen.advance (generation ())

let entry_compare a b =
  (* Most specific first; ties broken by pattern text for determinism. *)
  match
    Int.compare (Principal.pattern_specificity b.pattern) (Principal.pattern_specificity a.pattern)
  with
  | 0 ->
      String.compare
        (Principal.pattern_to_string a.pattern)
        (Principal.pattern_to_string b.pattern)
  | c -> c

let add t ~pattern ~mode =
  note_mutation ();
  let without =
    List.filter
      (fun e -> Principal.pattern_to_string e.pattern <> Principal.pattern_to_string pattern)
      t
  in
  List.sort entry_compare ({ pattern; mode } :: without)

let add_string t ~pattern ~mode =
  add t ~pattern:(Principal.pattern_of_string pattern) ~mode:(Mode.of_string mode)

let remove t ~pattern =
  note_mutation ();
  List.filter
    (fun e -> Principal.pattern_to_string e.pattern <> Principal.pattern_to_string pattern)
    t

let of_strings entries =
  List.fold_left (fun acc (pattern, mode) -> add_string acc ~pattern ~mode) empty entries

let entries t = List.map (fun e -> (e.pattern, e.mode)) t

let rec mode_for t principal =
  match t with
  | [] -> Mode.none
  | e :: rest -> if Principal.matches e.pattern principal then e.mode else mode_for rest principal

let permits t principal ~requested = Mode.subset requested (mode_for t principal)

let pp ppf t =
  let pp_entry ppf e = Fmt.pf ppf "%a %a" Mode.pp e.mode Principal.pp_pattern e.pattern in
  Fmt.(list ~sep:semi pp_entry) ppf t
