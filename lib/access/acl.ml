(* Discretionary access control lists.

   Each branch in the storage hierarchy carries an ACL: an ordered set
   of (principal pattern -> mode) entries.  Evaluation follows the
   Multics rule: the most specific matching entry decides, with the
   person component most significant.  An explicit null-mode entry is
   how access is denied to a specific principal while a broader entry
   grants it to everyone else.

   An ACL is an immutable value: [add] and [remove] return a new list.
   A verdict compiled from one can therefore go stale only when a
   branch's ACL is replaced, and [Hierarchy.set_acl] revokes it then. *)

open Multics_machine

type entry = { pattern : Principal.pattern; mode : Mode.t }

type t = entry list (* kept sorted, most specific first *)

let empty = []

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
  let without =
    List.filter
      (fun e -> Principal.pattern_to_string e.pattern <> Principal.pattern_to_string pattern)
      t
  in
  List.sort entry_compare ({ pattern; mode } :: without)

let add_string t ~pattern ~mode =
  add t ~pattern:(Principal.pattern_of_string pattern) ~mode:(Mode.of_string mode)

let remove t ~pattern =
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
