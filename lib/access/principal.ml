(* Principal identifiers: Person.Project.Tag.

   Multics names every access subject with a three-component principal
   identifier.  The tag distinguishes instances of the same person
   acting in different capacities (interactive "a", absentee "m",
   daemon "z").  ACL entries are patterns over these components, with
   "*" matching any value in that component. *)

(* [text] is the [Person.Project.Tag] rendering, computed once at
   construction: ACL edits compare entries by it and every audit record
   of a process carries it, so rendering it per use would cost a
   format per comparison.  It is a function of the other fields and
   comes last, so structural equality and ordering still follow the
   components. *)
type t = { person : string; project : string; tag : string; text : string }

let render a b c = String.concat "." [ a; b; c ]

let component_ok s =
  String.length s > 0
  && String.for_all (fun c -> c <> '.' && c <> ' ' && c <> ',') s

let make ~person ~project ~tag =
  if not (component_ok person && component_ok project && component_ok tag) then
    invalid_arg
      (Printf.sprintf "Principal.make: bad component in %s.%s.%s" person project tag);
  { person; project; tag; text = render person project tag }

let person t = t.person
let project t = t.project
let tag t = t.tag

let interactive ~person ~project = make ~person ~project ~tag:"a"

let system_daemon = make ~person:"Initializer" ~project:"SysDaemon" ~tag:"z"

let of_string s =
  match String.split_on_char '.' s with
  | [ person; project; tag ] -> make ~person ~project ~tag
  | [ person; project ] -> make ~person ~project ~tag:"a"
  | _ -> invalid_arg ("Principal.of_string: " ^ s)

let to_string t = t.text

let equal a b = a.person = b.person && a.project = b.project && a.tag = b.tag

let compare a b = String.compare a.text b.text

let pp ppf t = Fmt.string ppf (to_string t)

(* ----- Patterns ----- *)

type pattern = { p_person : string; p_project : string; p_tag : string; p_text : string }

let pattern_of_string s =
  let components =
    match String.split_on_char '.' s with
    | [ a; b; c ] -> (a, b, c, s)
    | [ a; b ] -> (a, b, "*", render a b "*")
    | [ a ] -> (a, "*", "*", render a "*" "*")
    | _ -> invalid_arg ("Principal.pattern_of_string: " ^ s)
  in
  let check c = if not (c = "*" || component_ok c) then invalid_arg ("bad pattern component " ^ c) in
  let p_person, p_project, p_tag, p_text = components in
  check p_person;
  check p_project;
  check p_tag;
  { p_person; p_project; p_tag; p_text }

let pattern_to_string p = p.p_text

let anyone = pattern_of_string "*.*.*"

let matches pattern t =
  let component_matches pat value = pat = "*" || pat = value in
  component_matches pattern.p_person t.person
  && component_matches pattern.p_project t.project
  && component_matches pattern.p_tag t.tag

(* Specificity orders ACL entries: an exact component beats a star, and
   earlier components dominate later ones — the Multics ACL matching
   rule (person most significant, then project, then tag). *)
let pattern_specificity p =
  let score c = if c = "*" then 0 else 1 in
  (4 * score p.p_person) + (2 * score p.p_project) + score p.p_tag

let pp_pattern ppf p = Fmt.string ppf (pattern_to_string p)
