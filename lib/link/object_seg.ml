(* Object segments: the linker's input format.

   An object segment carries executable text, a definition section
   (exported entry points) and a linkage section (symbolic references
   to [segname$entry] pairs, "snapped" to direct addresses on first
   use).  Because users construct object segments themselves, the
   format admits deliberate malformations — the paper singles the
   linker out precisely because it "[has] to accept user-constructed
   code segments as input data", with a high chance of a maliciously
   malstructured argument "causing the linker to malfunction while
   executing in the supervisor". *)

open Multics_fs

type definition = { def_name : string; def_offset : int }

type link = {
  target_seg : string;  (** symbolic segment name *)
  target_entry : string;  (** symbolic entry name *)
  mutable snapped : (Uid.t * int) option;
}

type malformation =
  | Bad_definition_offset of int
      (** a definition points outside the segment's text *)
  | Cyclic_definition_chain  (** the definition list loops forever *)
  | Oversized_link_count of int
      (** the header claims more links than the section holds: a
          parser that trusts the count overruns the section *)

let malformation_to_string = function
  | Bad_definition_offset off -> Printf.sprintf "definition offset %d outside text" off
  | Cyclic_definition_chain -> "cyclic definition chain"
  | Oversized_link_count n -> Printf.sprintf "header claims %d links" n

type t = {
  text_words : int;
  definitions : definition list;
  links : link array;
  malformation : malformation option;
}

let make ?(malformation = None) ~text_words ~definitions ~links () =
  if text_words < 0 then invalid_arg "Object_seg.make: negative text size";
  {
    text_words;
    definitions;
    links =
      Array.of_list
        (List.map (fun (target_seg, target_entry) -> { target_seg; target_entry; snapped = None }) links);
    malformation;
  }

(* Links are snapped in place, so each copy holds link records of its
   own. *)
let copy t =
  {
    text_words = t.text_words;
    definitions = t.definitions;
    links =
      Array.map
        (fun l -> { target_seg = l.target_seg; target_entry = l.target_entry; snapped = l.snapped })
        t.links;
    malformation = t.malformation;
  }

let text_words t = t.text_words
let definitions t = t.definitions
let link_count t = Array.length t.links
let malformation t = t.malformation

let link t index =
  if index < 0 || index >= Array.length t.links then None else Some t.links.(index)

let find_definition t name = List.find_opt (fun d -> d.def_name = name) t.definitions

let snapped_links t =
  Array.to_list t.links |> List.filter (fun l -> l.snapped <> None) |> List.length

let unsnap_all t = Array.iter (fun l -> l.snapped <- None) t.links

(* ----- The object store: structured contents per segment uid ----- *)

module Store = struct
  type obj = t

  type t = (int, obj) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let put store ~uid obj = Hashtbl.replace store (Uid.to_int uid) obj

  let get store ~uid = Hashtbl.find_opt store (Uid.to_int uid)

  let remove store ~uid = Hashtbl.remove store (Uid.to_int uid)

  (* Only looked up by uid, so refilling loses nothing. *)
  let copy store =
    let copied = Hashtbl.create (Hashtbl.length store) in
    Hashtbl.iter (fun uid obj -> Hashtbl.replace copied uid (copy obj)) store;
    copied
end
