(* Security labels for the Mitre formal model.

   The paper's footnote 2: "The formal model specifies a set of access
   constraints that restrict information flow in a hierarchy of
   compartments to patterns consistent with the national security
   classification scheme."  A label is a classification level plus a
   set of compartments; labels are partially ordered by dominance
   (level order on the first component, set inclusion on the second)
   and form a lattice under that order. *)

module Compartments = Set.Make (String)

type level = Unclassified | Confidential | Secret | Top_secret

type t = { level : level; compartments : Compartments.t }

let level_rank = function Unclassified -> 0 | Confidential -> 1 | Secret -> 2 | Top_secret -> 3

let level_of_rank = function
  | 0 -> Unclassified
  | 1 -> Confidential
  | 2 -> Secret
  | 3 -> Top_secret
  | n -> invalid_arg (Printf.sprintf "Label.level_of_rank: %d" n)

let level_name = function
  | Unclassified -> "Unclassified"
  | Confidential -> "Confidential"
  | Secret -> "Secret"
  | Top_secret -> "TopSecret"

let all_levels = [ Unclassified; Confidential; Secret; Top_secret ]

let make level compartments =
  { level; compartments = Compartments.of_list compartments }

let level t = t.level

let compartments t = Compartments.elements t.compartments

let unclassified = make Unclassified []

let system_high compartment_names = make Top_secret compartment_names

(* [dominates a b]: information labelled [b] may flow to a subject
   cleared at [a]. *)
let dominates a b =
  level_rank a.level >= level_rank b.level && Compartments.subset b.compartments a.compartments

let equal a b = a.level = b.level && Compartments.equal a.compartments b.compartments

let comparable a b = dominates a b || dominates b a

let lub a b =
  {
    level = level_of_rank (max (level_rank a.level) (level_rank b.level));
    compartments = Compartments.union a.compartments b.compartments;
  }

let glb a b =
  {
    level = level_of_rank (min (level_rank a.level) (level_rank b.level));
    compartments = Compartments.inter a.compartments b.compartments;
  }

let to_string t =
  match Compartments.elements t.compartments with
  | [] -> level_name t.level
  | cs -> level_name t.level ^ "{" ^ String.concat "," cs ^ "}"

let pp ppf t = Fmt.string ppf (to_string t)
