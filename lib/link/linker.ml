(* The dynamic linker, in both placements.

   Pre-removal, the linker was a supervisor mechanism: a link fault
   trapped into ring 0, where the linker parsed the (user-constructed!)
   faulting object segment, searched the file system, and snapped the
   link.  Janson's removal project (MAC-TR-132) showed that "linking
   procedures together across protection boundaries could be done
   without resort to a mechanism common to both protection regions" —
   the user-ring linker runs with the faulting process's own authority,
   so a malformed object segment can damage only its owner.

   The kernel placement carries two injectable flaws reproducing the
   historical vulnerabilities:

   - [Unvalidated_input]: the ring-0 parser trusts the object header;
     a malformation corrupts supervisor state (the "numerous
     accidents" the paper mentions);
   - [Supervisor_authority_walk]: the ring-0 search walks directories
     with supervisor authority instead of the faulting user's, so a
     link can name and reach a segment its owner could never see. *)

open Multics_access
open Multics_fs

type placement = In_kernel | In_user_ring

let placement_name = function
  | In_kernel -> "in-kernel (ring 0)"
  | In_user_ring -> "user-ring"

type flaw = Unvalidated_input | Supervisor_authority_walk

let flaw_to_string = function
  | Unvalidated_input -> "unvalidated object-segment input"
  | Supervisor_authority_walk -> "directory walk with supervisor authority"

type outcome =
  | Snapped of { target : Uid.t; offset : int; dirs_searched : int }
  | Already_snapped of { target : Uid.t; offset : int }
  | Segment_not_found of string
  | Definition_not_found of { seg : string; entry : string }
  | Malformed_rejected of Object_seg.malformation
      (** validated parser: refused before damage *)
  | Supervisor_damaged of Object_seg.malformation
      (** ring-0 parser consumed hostile input: a security incident *)
  | User_ring_fault of Object_seg.malformation
      (** user-ring parser crashed in the caller's own ring: contained *)
  | No_such_link of int
  | Not_an_object of Uid.t

let outcome_is_security_incident = function
  | Supervisor_damaged _ -> true
  | Snapped _ | Already_snapped _ | Segment_not_found _ | Definition_not_found _
  | Malformed_rejected _ | User_ring_fault _ | No_such_link _ | Not_an_object _ -> false

let outcome_to_string = function
  | Snapped { target; offset; dirs_searched } ->
      Fmt.str "snapped to %a offset %d (%d dirs searched)" Uid.pp target offset dirs_searched
  | Already_snapped { target; offset } -> Fmt.str "already snapped to %a offset %d" Uid.pp target offset
  | Segment_not_found name -> Printf.sprintf "segment %S not found" name
  | Definition_not_found { seg; entry } -> Printf.sprintf "no definition %s$%s" seg entry
  | Malformed_rejected m -> "rejected malformed input: " ^ Object_seg.malformation_to_string m
  | Supervisor_damaged m -> "SUPERVISOR DAMAGED by " ^ Object_seg.malformation_to_string m
  | User_ring_fault m -> "fault in user ring: " ^ Object_seg.malformation_to_string m
  | No_such_link i -> Printf.sprintf "no link %d" i
  | Not_an_object u -> Fmt.str "%a has no object structure" Uid.pp u

type t = {
  placement : placement;
  flaws : flaw list;
  store : Object_seg.Store.t;
  hierarchy : Hierarchy.t;
  mutable supervisor_damage_count : int;
  mutable links_snapped : int;
}

let create ?(flaws = []) ~placement ~store ~hierarchy () =
  { placement; flaws; store; hierarchy; supervisor_damage_count = 0; links_snapped = 0 }

(* The counters carry over; the store and the hierarchy are the
   copying system's. *)
let copy t ~store ~hierarchy =
  {
    placement = t.placement;
    flaws = t.flaws;
    store;
    hierarchy;
    supervisor_damage_count = t.supervisor_damage_count;
    links_snapped = t.links_snapped;
  }

let placement t = t.placement
let has_flaw t flaw = List.mem flaw t.flaws
let supervisor_damage_count t = t.supervisor_damage_count
let links_snapped t = t.links_snapped

(* Parsing the object segment.  A validated parser rejects
   malformations; the flawed ring-0 parser executes them. *)
let parse_outcome t obj =
  match Object_seg.malformation obj with
  | None -> None
  | Some m -> (
      match t.placement with
      | In_user_ring ->
          (* The parser runs in the faulting ring: the damage is the
             caller's own problem. *)
          Some (User_ring_fault m)
      | In_kernel ->
          if has_flaw t Unvalidated_input then begin
            t.supervisor_damage_count <- t.supervisor_damage_count + 1;
            Some (Supervisor_damaged m)
          end
          else Some (Malformed_rejected m))

(* The directory walk.  The correct walk searches with the faulting
   user's own authority; the flawed ring-0 walk uses the supervisor's
   unmediated view, so it finds (and will happily snap to) segments the
   user could never see. *)
let search_for_target t ~(subject : Policy.subject) ~rules ~name =
  if t.placement = In_kernel && has_flaw t Supervisor_authority_walk then begin
    let rec raw_walk consulted = function
      | [] -> (None, consulted)
      | dir :: rest -> (
          match Hierarchy.raw_lookup t.hierarchy ~dir ~name with
          | Some uid -> (Some uid, consulted + 1)
          | None -> raw_walk (consulted + 1) rest)
    in
    raw_walk 0 (Search_rules.dirs rules)
  end
  else Search_rules.search rules t.hierarchy ~subject ~name

(* Resolve link [link_index] of the object segment at [from_uid] on
   behalf of [subject], consulting [rules]. *)
let resolve_link t ~subject ~rules ~from_uid ~link_index =
  match Object_seg.Store.get t.store ~uid:from_uid with
  | None -> Not_an_object from_uid
  | Some obj -> (
      match parse_outcome t obj with
      | Some bad -> bad
      | None -> (
          match Object_seg.link obj link_index with
          | None -> No_such_link link_index
          | Some link -> (
              match link.Object_seg.snapped with
              | Some (target, offset) -> Already_snapped { target; offset }
              | None -> (
                  match
                    search_for_target t ~subject ~rules ~name:link.Object_seg.target_seg
                  with
                  | None, _ -> Segment_not_found link.Object_seg.target_seg
                  | Some target, dirs_searched -> (
                      match Object_seg.Store.get t.store ~uid:target with
                      | None ->
                          Definition_not_found
                            { seg = link.Object_seg.target_seg; entry = link.Object_seg.target_entry }
                      | Some target_obj -> (
                          match
                            Object_seg.find_definition target_obj link.Object_seg.target_entry
                          with
                          | None ->
                              Definition_not_found
                                {
                                  seg = link.Object_seg.target_seg;
                                  entry = link.Object_seg.target_entry;
                                }
                          | Some def ->
                              link.Object_seg.snapped <-
                                Some (target, def.Object_seg.def_offset);
                              t.links_snapped <- t.links_snapped + 1;
                              Snapped
                                {
                                  target;
                                  offset = def.Object_seg.def_offset;
                                  dirs_searched;
                                }))))))

(* Resolve every link in an object segment; returns the outcomes in
   link order. *)
let resolve_all t ~subject ~rules ~from_uid =
  match Object_seg.Store.get t.store ~uid:from_uid with
  | None -> [ Not_an_object from_uid ]
  | Some obj ->
      List.init (Object_seg.link_count obj) (fun link_index ->
          resolve_link t ~subject ~rules ~from_uid ~link_index)
