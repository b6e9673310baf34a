(* Partitioning: separating the page-removal policy from its
   mechanism (experiment E9).

   "Programs in the most privileged ring would implement the mechanics
   of page removal, providing gate entry points for requesting the
   movement of a particular page from primary memory to a particular
   free block on the bulk store, and for obtaining usage information
   about pages in primary memory.  The policy algorithm ... would
   execute in a less privileged ring ... The policy algorithm, however,
   could never read or write the contents of pages, learn the segment
   to which each page belonged, or cause one page to overwrite another
   ... It could only cause denial of use."

   The two placements differ in the *capability* handed to the policy:

   - ring 0 (unpartitioned): the policy closure receives raw handles
     to physical memory and the hierarchy — it can do anything;
   - ring 1 (partitioned): the policy receives only the mechanism view
     (anonymized page handles + usage bits) and can only answer "evict
     this one" — release and modification are unexpressible.

   Note the ring-1 view hides even the segment identity: pages are
   presented as opaque indices, reproducing "never ... learn the
   segment to which each page belonged". *)

open Multics_fs
open Multics_mm

(* What the ring-1 policy is allowed to see: opaque handles and usage
   bits only. *)
type mechanism_view = { page_handles : int list; used_bits : (int * bool) list }

(* What unpartitioned ring-0 code can touch. *)
type raw_view = { mem : Memory.t; hierarchy : Hierarchy.t; core_pages : Page_id.t list }

type verdict = { released : bool; modified : bool; denied : bool; note : string }

let verdict ~released ~modified ~denied note = { released; modified; denied; note }

(* Build the restricted view: the mechanism assigns opaque indices in
   rotation order; the mapping back to real pages never leaves ring 0. *)
let mechanism_view_of mem =
  let residents = Memory.core_residents mem in
  let indexed = List.mapi (fun i page -> (i, page)) residents in
  let used (_, page) =
    match Memory.frame_usage mem page with Some (used, _) -> used | None -> false
  in
  ( { page_handles = List.map fst indexed; used_bits = List.map (fun e -> (fst e, used e)) indexed },
    fun handle -> List.assoc_opt handle indexed )

(* ----- The three attacks a malicious policy might attempt ----- *)

type attack = Read_secret | Overwrite_segment | Deny_service

let attack_name = function
  | Read_secret -> "unauthorized release (read a secret word)"
  | Overwrite_segment -> "unauthorized modification (overwrite a word)"
  | Deny_service -> "denial of use (refuse to free frames)"

(* A malicious policy running UNPARTITIONED in ring 0: it holds raw
   views, so all three violations succeed. *)
let run_in_ring0 (view : raw_view) ~attack ~secret_uid =
  match attack with
  | Read_secret -> (
      match Hierarchy.raw_read_word view.hierarchy ~uid:secret_uid ~offset:0 with
      | Some value ->
          verdict ~released:true ~modified:false ~denied:false
            (Printf.sprintf "read secret word %d through raw memory access" value)
      | None -> verdict ~released:false ~modified:false ~denied:false "segment unreadable")
  | Overwrite_segment ->
      if Hierarchy.raw_write_word view.hierarchy ~uid:secret_uid ~offset:0 ~value:0xDEAD then
        verdict ~released:false ~modified:true ~denied:false "overwrote word 0 of the segment"
      else verdict ~released:false ~modified:false ~denied:false "segment unwritable"
  | Deny_service ->
      (* Refuse every eviction decision: faulting processes starve. *)
      verdict ~released:false ~modified:false ~denied:true "policy refuses all evictions"

(* The same malicious intent PARTITIONED into ring 1: the mechanism
   view simply has no operation that reads, writes or names a page, so
   the only damage expressible is refusing to choose victims. *)
let run_in_ring1 (_view : mechanism_view) ~attack =
  match attack with
  | Read_secret ->
      verdict ~released:false ~modified:false ~denied:false
        "no gate in the ring-1 interface reads page contents"
  | Overwrite_segment ->
      verdict ~released:false ~modified:false ~denied:false
        "no gate moves one page onto another or writes words"
  | Deny_service ->
      verdict ~released:false ~modified:false ~denied:true "policy refuses all evictions"

type experiment_row = {
  placement : Config.policy_placement;
  attack : attack;
  result : verdict;
}

(* Run the full attack matrix against a little world with one secret
   segment and a few resident pages. *)
let attack_matrix () =
  let hierarchy = Hierarchy.create () in
  let subject = System.initializer_subject in
  let secret_uid =
    match
      Hierarchy.create_segment hierarchy ~subject ~dir:Uid.root ~name:"secret"
        ~acl:(Multics_access.Acl.of_strings [ ("Initializer.*.*", "rw") ])
        ~label:(Multics_access.Label.make Multics_access.Label.Top_secret [ "crypto" ])
    with
    | Ok uid -> uid
    | Error e -> invalid_arg (Hierarchy.error_to_string e)
  in
  ignore (Hierarchy.raw_write_word hierarchy ~uid:secret_uid ~offset:0 ~value:31337);
  let mem = Memory.create ~cost:Multics_machine.Cost.h6180 ~core:4 ~bulk:4 ~disk:16 in
  List.iteri
    (fun i () ->
      ignore (Memory.place mem (Page_id.make ~seg_uid:(Uid.to_int secret_uid) ~page_no:i) ~level:Level.Core))
    [ (); (); () ];
  let raw = { mem; hierarchy; core_pages = Memory.core_residents mem } in
  let restricted, _reveal = mechanism_view_of mem in
  List.concat_map
    (fun attack ->
      [
        {
          placement = Config.Policy_in_ring0;
          attack;
          result = run_in_ring0 raw ~attack ~secret_uid;
        };
        { placement = Config.Policy_in_ring1; attack; result = run_in_ring1 restricted ~attack };
      ])
    [ Read_secret; Overwrite_segment; Deny_service ]
