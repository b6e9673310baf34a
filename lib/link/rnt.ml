(* The Reference Name Table: per-process bindings from reference names
   to segment numbers.

   Pre-removal this table lived inside the kernel as part of address
   space management; Bratt's project moved it to a private, user-ring
   structure.  The [placement] records where it lives, which determines
   whether its footprint counts as protected kernel data. *)

type placement = In_kernel | In_user_ring

let placement_name = function In_kernel -> "in-kernel" | In_user_ring -> "user-ring"

type t = {
  placement : placement;
  mutable bindings : (string * int) list;  (** name -> segno, most recent first *)
}

type error = Name_not_bound of string | Name_already_bound of string

let error_to_string = function
  | Name_not_bound name -> Printf.sprintf "reference name %S is not bound" name
  | Name_already_bound name -> Printf.sprintf "reference name %S is already bound" name

let create ~placement = { placement; bindings = [] }

let copy t = { placement = t.placement; bindings = t.bindings }
let placement t = t.placement

let bind t ~name ~segno =
  if List.mem_assoc name t.bindings then Error (Name_already_bound name)
  else begin
    t.bindings <- (name, segno) :: t.bindings;
    Ok ()
  end

let lookup t ~name =
  match List.assoc_opt name t.bindings with
  | Some segno -> Ok segno
  | None -> Error (Name_not_bound name)

let unbind t ~name =
  if List.mem_assoc name t.bindings then begin
    t.bindings <- List.filter (fun (n, _) -> n <> name) t.bindings;
    Ok ()
  end
  else Error (Name_not_bound name)

let names_for_segno t ~segno =
  List.filter_map (fun (name, s) -> if s = segno then Some name else None) t.bindings

let binding_count t = List.length t.bindings

(* Each binding holds a 32-char name buffer plus the segno: 9 words. *)
let words_per_binding = 9

let protected_words t =
  match t.placement with
  | In_user_ring -> 0
  | In_kernel -> 16 + (binding_count t * words_per_binding)
