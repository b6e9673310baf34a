(* The protected storage hierarchy.

   Directories hold branches; each branch carries the object's ACL,
   security label, and (for segments) ring brackets — everything the
   reference monitor needs to compute a process's access to the object.
   All operations here are kernel primitives: they take the requesting
   subject and enforce both the discretionary and the mandatory checks
   before touching anything.

   Directory modes are interpreted the Multics way:
     read    = status/list the directory,
     write   = modify or delete existing entries,
     execute = append new entries.

   Resolution deliberately "lies convincingly": when the subject lacks
   status permission on an intermediate directory, the walk reports
   [No_entry] rather than a permission failure, so the existence of
   names the subject may not see is not leaked. *)

open Multics_access
open Multics_machine
module Int_table = Multics_util.Int_table


type kind = Segment | Directory

type node = {
  uid : Uid.t;
  mutable name : string;
  kind : kind;
  mutable acl : Acl.t;
  mutable label : Label.t;
  mutable brackets : Brackets.t;
  mutable gate_bound : int;  (** segments only: entries callable as gates *)
  parent : Uid.t option;  (** [None] only for the root *)
  mutable entries : (string * Uid.t) list;  (** directories: insertion order *)
  mutable pages : int;  (** segments: length in pages *)
  mutable words : int array;  (** segments: contents, grown on demand *)
  mutable quota : int option;  (** directories: page quota cell, if any *)
  mutable pages_charged : int;  (** directories with a quota: pages charged *)
  mutable stamp : int;  (** the branch's change stamp (see [touch]) *)
}

type error =
  | No_entry of string
  | Permission_denied of Policy.refusal list
  | Name_duplicated of string
  | Not_a_directory of string
  | Not_a_segment of string
  | Invalid_path of string
  | Directory_not_empty of string
  | Out_of_bounds of int
  | Quota_exceeded of { dir : string; quota : int; needed : int }
  | Brackets_below_ring of { requested_r1 : int; ring : int }

let error_to_string = function
  | No_entry name -> Printf.sprintf "no entry %S" name
  | Permission_denied refusals ->
      "permission denied: "
      ^ String.concat "; " (List.map Policy.refusal_to_string refusals)
  | Name_duplicated name -> Printf.sprintf "name %S already exists" name
  | Not_a_directory name -> Printf.sprintf "%S is not a directory" name
  | Not_a_segment name -> Printf.sprintf "%S is not a segment" name
  | Invalid_path path -> Printf.sprintf "invalid path %S" path
  | Directory_not_empty name -> Printf.sprintf "directory %S is not empty" name
  | Out_of_bounds i -> Printf.sprintf "word offset %d out of bounds" i
  | Quota_exceeded { dir; quota; needed } ->
      Printf.sprintf "quota of %d pages on %S exceeded (would need %d)" quota dir needed
  | Brackets_below_ring { requested_r1; ring } ->
      Printf.sprintf "cannot mint brackets with r1 = %d from ring %d" requested_r1 ring

type t = {
  nodes : node Int_table.t;
  uids : Uid.generator;
  (* The compiled access-decision table: Policy + brackets flattened
     into access-vector bits per (subject SID, object uid).  Every
     access-relevant mutation below revokes the object's cells, so
     revocation is immediate — the simulated analogue of "setfaults"
     clearing the 6180's associative memory on an attribute change.
     Uids are the object-SID space directly: the uid generator already
     mints small dense ints and never reuses them. *)
  avtab : Av_table.t;
  (* The last change stamp minted.  Each branch carries its own:
     [touch] mints the next one into a branch on every write to it or,
     for a directory, to its entries, and nothing else moves one —
     compiling a cell, a lookup and a read leave them.  One counter for
     all branches, so a branch made after another was deleted never
     repeats a stamp the deleted one held. *)
  mutable minted : int;
}

let words_per_page = 64

let mint t =
  t.minted <- t.minted + 1;
  t.minted

let touch t n = n.stamp <- mint t

(* Any ACL edit, label change, deletion or branch move revokes the
   cached verdicts derived from the object, and is a write. *)
let note_change t n =
  touch t n;
  Av_table.invalidate_object t.avtab (Uid.to_int n.uid)

let invalidate_cached_verdicts t = Av_table.invalidate_all t.avtab
let av_table t = t.avtab
let subject_sid t subject = Av_table.subject_sid t.avtab subject
let set_cache_probe t probe = Av_table.set_flush_probe t.avtab probe
let cache_stats t = ("size", Av_table.size t.avtab) :: Av_table.counters t.avtab
let cache_hit_ratio t = Av_table.hit_ratio t.avtab
let flush_cached_verdicts t = Av_table.flush t.avtab

let create () =
  let nodes = Int_table.create 64 in
  let root =
    {
      uid = Uid.root;
      name = ">";
      kind = Directory;
      (* Listable by everyone; only the Initializer appends or
         modifies.  Fixed at creation: the root has no parent branch,
         so [set_acl] cannot reach it. *)
      acl = Acl.of_strings [ ("Initializer.*.*", "rew"); ("*.*.*", "r") ];
      label = Label.unclassified;
      (* Directory brackets bound the rings that may use the directory
         at all; (4,4,4) admits the user ring and everything inward. *)
      brackets = Brackets.user_data;
      gate_bound = 0;
      parent = None;
      entries = [];
      pages = 0;
      words = [||];
      quota = None;
      pages_charged = 0;
      stamp = 0;
    }
  in
  Int_table.replace nodes (Uid.to_int Uid.root) root;
  {
    nodes;
    uids = Uid.generator ();
    avtab = Av_table.create ~name:"policy" ();
    minted = 0;
  }

(* A branch's attributes are immutable values; only its contents are
   copied. *)
let copy_node n =
  {
    uid = n.uid;
    name = n.name;
    kind = n.kind;
    acl = n.acl;
    label = n.label;
    brackets = n.brackets;
    gate_bound = n.gate_bound;
    parent = n.parent;
    entries = n.entries;
    pages = n.pages;
    words = Array.copy n.words;
    quota = n.quota;
    pages_charged = n.pages_charged;
    stamp = n.stamp;
  }

(* Every compiled cell of the copy reads fresh or stale exactly as in
   [t], on any domain.  The node table is refilled: what reads its
   iteration order (the quota check, the eager AV rebuild) computes the
   same result in any order. *)
let copy t =
  let nodes = Int_table.create (Int_table.length t.nodes) in
  Int_table.iter (fun uid n -> Int_table.replace nodes uid (copy_node n)) t.nodes;
  {
    nodes;
    uids = Uid.copy_generator t.uids;
    avtab = Av_table.copy t.avtab;
    minted = t.minted;
  }

let node t uid = Int_table.find_opt t.nodes (Uid.to_int uid)

let node_exn t uid =
  match node t uid with
  | Some n -> n
  | None -> invalid_arg (Fmt.str "Hierarchy: dangling %a" Uid.pp uid)

let uid_exists t uid = Int_table.mem t.nodes (Uid.to_int uid)
let stamp_of t uid = match node t uid with Some n -> n.stamp | None -> -1

(* ----- Attribute readers (no access check: callers are kernel code
   that has already mediated, or the audit tooling) ----- *)

let kind_of t uid = Option.map (fun n -> n.kind) (node t uid)
let label_of t uid = Option.map (fun n -> n.label) (node t uid)
let acl_of t uid = Option.map (fun n -> n.acl) (node t uid)
let brackets_of t uid = Option.map (fun n -> n.brackets) (node t uid)
let gate_bound_of t uid = Option.map (fun n -> n.gate_bound) (node t uid)
let page_count_of t uid = Option.map (fun n -> n.pages) (node t uid)

(* ----- The access check used by every operation -----

   Three mechanisms compose: the lattice, the ACL, and the node's ring
   brackets applied against the subject's ring of execution — so code
   confined to an outer ring (e.g. a borrowed program run in ring 5)
   cannot observe or modify (4,4,4) objects even with the owner's
   identity. *)

let ring_refusals n ~(subject : Policy.subject) ~(requested : Mode.t) =
  let observe =
    if
      (requested.Mode.read || requested.Mode.execute)
      && not (Brackets.read_ok n.brackets ~ring:subject.Policy.ring)
    then [ Policy.Ring_hardware Hardware.Outside_read_bracket ]
    else []
  in
  let modify =
    if requested.Mode.write && not (Brackets.write_ok n.brackets ~ring:subject.Policy.ring)
    then [ Policy.Ring_hardware Hardware.Outside_write_bracket ]
    else []
  in
  observe @ modify

(* The recompute path, bypassing the table — the parity oracle the
   property tests compare [check_node] against at every step, and the
   path every uncovered (refused) request takes, so refusal lists and
   audit counters stay byte-identical to the uncached kernel. *)
let check_node_fresh (subject : Policy.subject) n ~requested =
  match Policy.check ~subject ~object_label:n.label ~acl:n.acl ~requested with
  | Policy.Refuse refusals ->
      Policy.verdict_of_refusals (refusals @ ring_refusals n ~subject ~requested)
  | Policy.Permit -> Policy.verdict_of_refusals (ring_refusals n ~subject ~requested)

(* The mediation hot path: policy AND brackets served from the
   compiled access-vector table.  A covered request is a Permit by
   construction of the bits ([Av_table.compute] is the conjunctive
   form of [Policy.check] + [ring_refusals]); the policy counters are
   replayed through [Policy.observe] so caching stays observationally
   transparent.  An uncovered request recomputes the structured
   verdict — refusals carry details (which mechanism, which labels)
   the bits deliberately do not encode.  Unlike the PR-3 verdict
   cache, bracket edits are covered by the same per-object stamp as
   ACL edits ([set_brackets] runs [note_change]), so compiling the
   bracket comparison into the cell is revocation-correct. *)
let check_node t (subject : Policy.subject) n ~requested =
  let obj = Uid.to_int n.uid in
  let subj = Av_table.subject_sid t.avtab subject in
  let av = Av_table.find t.avtab ~subj ~obj in
  let av =
    if av >= 0 then av
    else begin
      let compiled =
        Av_table.compute ~subject ~object_label:n.label ~acl:n.acl ~brackets:n.brackets
      in
      Av_table.set t.avtab ~subj ~obj compiled;
      compiled
    end
  in
  if Av_table.covers ~av ~need:(Av_table.required requested) then
    Policy.observe Policy.Permit
  else check_node_fresh subject n ~requested

let guard t subject n ~requested k =
  match check_node t subject n ~requested with
  | Policy.Permit -> k ()
  | Policy.Refuse refusals -> Error (Permission_denied refusals)

let dir_node t uid =
  match node t uid with
  | None -> Error (No_entry (Fmt.str "%a" Uid.pp uid))
  | Some n -> if n.kind = Directory then Ok n else Error (Not_a_directory n.name)

let seg_node t uid =
  match node t uid with
  | None -> Error (No_entry (Fmt.str "%a" Uid.pp uid))
  | Some n -> if n.kind = Segment then Ok n else Error (Not_a_segment n.name)

let ( let* ) r f = Result.bind r f

(* ----- Quota cells -----

   A directory may carry a page quota; a segment's pages are charged to
   the nearest ancestor directory holding a quota cell (the Multics
   quota-cell arrangement).  No cell on the path means no limit.
   Quota is the kernel's defense against the unauthorized-denial-of-use
   class: one user exhausting the storage everyone shares. *)

let rec quota_cell t n =
  match n.parent with
  | None -> None
  | Some parent_uid ->
      let parent = node_exn t parent_uid in
      if parent.quota <> None then Some parent else quota_cell t parent

(* Charge (or refund, when negative) pages against the governing cell. *)
let charge_pages t n delta =
  match quota_cell t n with
  | None -> Ok ()
  | Some cell -> (
      match cell.quota with
      | None -> Ok ()
      | Some quota ->
          let needed = cell.pages_charged + delta in
          if needed > quota then Error (Quota_exceeded { dir = cell.name; quota; needed })
          else begin
            cell.pages_charged <- max 0 needed;
            touch t cell;
            Ok ()
          end)

(* Total segment pages in the subtree, not counting subtrees governed
   by their own inner quota cells. *)
let rec subtree_pages t n =
  match n.kind with
  | Segment -> n.pages
  | Directory ->
      List.fold_left
        (fun acc (_, child_uid) ->
          let child = node_exn t child_uid in
          if child.kind = Directory && child.quota <> None then acc
          else acc + subtree_pages t child)
        0 n.entries

let quota_of t uid = Option.bind (node t uid) (fun n -> n.quota)

let pages_charged_of t uid = Option.map (fun n -> n.pages_charged) (node t uid)

(* Accounting invariant: every quota cell's charge equals the actual
   page total of the subtree it governs, and never exceeds its limit.
   Used by tests after random operation storms. *)
let check_quota_invariant t =
  Int_table.fold
    (fun _ n ok ->
      ok
      &&
      match (n.kind, n.quota) with
      | Directory, Some limit -> n.pages_charged = subtree_pages t n && n.pages_charged <= limit
      | Directory, None | Segment, _ -> true)
    t.nodes true

(* ----- Directory operations ----- *)

let valid_entry_name name =
  String.length name > 0
  && String.length name <= 32
  && String.for_all (fun c -> c <> '>' && c <> ' ') name

(* Unmediated lookup: how ring-0 code sees the hierarchy through its
   own descriptors.  Kernel-internal; exposing this to user input is
   precisely the Supervisor_authority_walk flaw. *)
let raw_lookup t ~dir ~name =
  match dir_node t dir with
  | Error _ -> None
  | Ok d -> List.assoc_opt name d.entries

let lookup t ~subject ~dir ~name =
  let* d = dir_node t dir in
  (* Listing a name requires status permission on the directory; a
     refusal is reported as No_entry to hide the name space. *)
  match check_node t subject d ~requested:Mode.r with
  | Policy.Refuse _ -> Error (No_entry name)
  | Policy.Permit -> (
      match List.assoc_opt name d.entries with
      | Some uid -> Ok uid
      | None -> Error (No_entry name))

let list_entries t ~subject ~dir =
  let* d = dir_node t dir in
  guard t subject d ~requested:Mode.r (fun () -> Ok d.entries)

(* A subject may not mint brackets inner to its own ring of execution:
   code with an inner write bracket EXECUTES inner, so allowing it
   would let any user install a gate into ring 0 holding his own text —
   instant escalation.  (The Initializer, in ring 0, may install
   anything.) *)
let brackets_permitted ~(subject : Policy.subject) ~brackets =
  let r1 = Ring.to_int (Brackets.write_top brackets) in
  let ring = Ring.to_int subject.Policy.ring in
  if r1 < ring then Error (Brackets_below_ring { requested_r1 = r1; ring }) else Ok ()

let add_entry t ~subject ~dir ~name ~kind ~acl ~label ~brackets =
  if not (valid_entry_name name) then Error (Invalid_path name)
  else begin
    let* () = brackets_permitted ~subject ~brackets in
    let* d = dir_node t dir in
    (* Appending an entry needs the append (execute) permission, and
       creating below the directory must not move information down:
       the new object's label must dominate the directory's. *)
    guard t subject d ~requested:Mode.e (fun () ->
        if not (Label.dominates label d.label) then
          Error
            (Permission_denied
               [ Policy.Mandatory_write_down { subject_label = label; object_label = d.label } ])
        else if List.mem_assoc name d.entries then Error (Name_duplicated name)
        else begin
          let uid = Uid.fresh t.uids in
          let n =
            {
              uid;
              name;
              kind;
              acl;
              label;
              brackets;
              gate_bound = 0;
              parent = Some d.uid;
              entries = [];
              pages = 0;
              words = [||];
              quota = None;
              pages_charged = 0;
              stamp = mint t;
            }
          in
          Int_table.replace t.nodes (Uid.to_int uid) n;
          d.entries <- d.entries @ [ (name, uid) ];
          touch t d;
          Ok uid
        end)
  end

let create_directory t ~subject ~dir ~name ~acl ~label =
  add_entry t ~subject ~dir ~name ~kind:Directory ~acl ~label ~brackets:Brackets.user_data

let create_segment ?(brackets = Brackets.user_data) t ~subject ~dir ~name ~acl ~label =
  add_entry t ~subject ~dir ~name ~kind:Segment ~acl ~label ~brackets

let delete_entry t ~subject ~dir ~name =
  let* d = dir_node t dir in
  guard t subject d ~requested:Mode.w (fun () ->
      match List.assoc_opt name d.entries with
      | None -> Error (No_entry name)
      | Some uid ->
          let n = node_exn t uid in
          if n.kind = Directory && n.entries <> [] then Error (Directory_not_empty name)
          else begin
            (* Refund the deleted segment's pages to its quota cell. *)
            if n.kind = Segment && n.pages > 0 then ignore (charge_pages t n (-n.pages));
            d.entries <- List.filter (fun (entry_name, _) -> entry_name <> name) d.entries;
            touch t d;
            Int_table.remove t.nodes (Uid.to_int uid);
            note_change t n;
            Ok uid
          end)

let rename_entry t ~subject ~dir ~name ~new_name =
  if not (valid_entry_name new_name) then Error (Invalid_path new_name)
  else begin
    let* d = dir_node t dir in
    guard t subject d ~requested:Mode.w (fun () ->
        match List.assoc_opt name d.entries with
        | None -> Error (No_entry name)
        | Some uid ->
            if List.mem_assoc new_name d.entries then Error (Name_duplicated new_name)
            else begin
              let n = node_exn t uid in
              n.name <- new_name;
              d.entries <-
                List.map (fun (en, eu) -> if en = name then (new_name, eu) else (en, eu)) d.entries;
              touch t d;
              note_change t n;
              Ok uid
            end)
  end

let set_acl t ~subject ~uid ~acl =
  match node t uid with
  | None -> Error (No_entry (Fmt.str "%a" Uid.pp uid))
  | Some n ->
      (* Changing an ACL is a modification of the branch, controlled by
         modify permission on the containing directory. *)
      let* parent =
        match n.parent with
        | Some p -> dir_node t p
        | None -> Error (Not_a_segment n.name)
      in
      guard t subject parent ~requested:Mode.w (fun () ->
          n.acl <- acl;
          note_change t n;
          Ok ())

let set_gate_bound t ~subject ~uid ~gate_bound =
  if gate_bound < 0 then Error (Out_of_bounds gate_bound)
  else begin
    let* n = seg_node t uid in
    let* parent =
      match n.parent with Some p -> dir_node t p | None -> Error (Not_a_segment n.name)
    in
    guard t subject parent ~requested:Mode.w (fun () ->
        n.gate_bound <- gate_bound;
        note_change t n;
        Ok ())
  end

let set_brackets t ~subject ~uid ~brackets =
  let* () = brackets_permitted ~subject ~brackets in
  let* n = seg_node t uid in
  let* parent =
    match n.parent with Some p -> dir_node t p | None -> Error (Not_a_segment n.name)
  in
  guard t subject parent ~requested:Mode.w (fun () ->
      n.brackets <- brackets;
      note_change t n;
      Ok ())

(* Install (or clear) a quota cell on a directory.  Requires modify
   permission on the directory itself.  Installing a cell takes over
   accounting for the subtree below it (up to inner cells), so the
   current usage is computed and must already fit. *)
let set_quota t ~subject ~uid ~quota =
  let* d = dir_node t uid in
  guard t subject d ~requested:Mode.w (fun () ->
      match quota with
      | None ->
          d.quota <- None;
          d.pages_charged <- 0;
          touch t d;
          Ok ()
      | Some limit ->
          if limit < 0 then Error (Out_of_bounds limit)
          else begin
            let used = subtree_pages t d in
            if used > limit then
              Error (Quota_exceeded { dir = d.name; quota = limit; needed = used })
            else begin
              d.quota <- Some limit;
              d.pages_charged <- used;
              touch t d;
              Ok ()
            end
          end)

(* Kernel-internal: remove an entry and everything below it — the
   cleanup of a process directory at logout.  Unmediated: only kernel
   code on already-authorized paths may call it. *)
let rec raw_delete_subtree t ~dir ~name =
  match dir_node t dir with
  | Error _ -> false
  | Ok d -> (
      match List.assoc_opt name d.entries with
      | None -> false
      | Some uid ->
          let n = node_exn t uid in
          (if n.kind = Directory then
             let children = List.map fst n.entries in
             List.iter (fun child -> ignore (raw_delete_subtree t ~dir:uid ~name:child)) children);
          if n.kind = Segment && n.pages > 0 then ignore (charge_pages t n (-n.pages));
          d.entries <- List.filter (fun (entry_name, _) -> entry_name <> name) d.entries;
          touch t d;
          Int_table.remove t.nodes (Uid.to_int uid);
          note_change t n;
          true)

(* Kernel-internal: rewrite an object's security label (the upgrade/
   downgrade performed by the security administrator's tools; there is
   no mediated gate for it).  The cached verdicts derived from the old
   label are revoked in the same step. *)
let raw_set_label t ~uid ~label =
  match node t uid with
  | None -> false
  | Some n ->
      n.label <- label;
      note_change t n;
      true

(* ----- The mediated access question, exposed for gate dispatch and
   the parity tests ----- *)

(* [Some Permit] as a structured constant: the covered-hit path of
   [check_access] must not allocate per reference. *)
let some_permit = Some Policy.Permit

let check_access t ~subject ~uid ~requested =
  match node t uid with
  | None -> None
  | Some n -> (
      match check_node t subject n ~requested with
      | Policy.Permit -> some_permit
      | v -> Some v)

let check_access_fresh t ~subject ~uid ~requested =
  match node t uid with
  | None -> None
  | Some n -> Some (check_node_fresh subject n ~requested)

(* Eagerly recompile the whole table — every subject it has ever
   interned against every live node.  Lazy refill under the epoch
   stamps already keeps the table exact; this is the measured
   "rebuild cost" of the compiled view (bench E19) and a warm-up for
   the experiments. *)
let rebuild_av_table t =
  Av_table.rebuild t.avtab ~objects:(fun fill ->
      Int_table.iter
        (fun _ n -> fill ~obj:(Uid.to_int n.uid) ~label:n.label ~acl:n.acl ~brackets:n.brackets)
        t.nodes)

(* ----- Path resolution (the kernel-resident tree walk) ----- *)

let split_path path =
  if path = ">" then Ok []
  else if String.length path = 0 || path.[0] <> '>' then Error (Invalid_path path)
  else begin
    let components = String.split_on_char '>' (String.sub path 1 (String.length path - 1)) in
    if List.for_all valid_entry_name components then Ok components else Error (Invalid_path path)
  end

(* Walk a tree name from the root.  Each intermediate lookup applies
   the status check (with the No_entry lie); this is the complex
   kernel-resident mechanism the removal project pushes out to the
   user ring. *)
let resolve t ~subject ~path =
  let* components = split_path path in
  let rec walk dir = function
    | [] -> Ok dir
    | name :: rest -> (
        let* uid = lookup t ~subject ~dir ~name in
        match rest with
        | [] -> Ok uid
        | _ :: _ -> (
            match kind_of t uid with
            | Some Directory -> walk uid rest
            | Some Segment -> Error (Not_a_directory name)
            | None -> Error (No_entry name)))
  in
  walk Uid.root components

let path_of t uid =
  let rec climb acc uid =
    match node t uid with
    | None -> None
    | Some n -> (
        match n.parent with
        | None -> Some (">" ^ String.concat ">" acc)
        | Some parent -> climb (n.name :: acc) parent)
  in
  climb [] uid

(* ----- Segment contents ----- *)

let ensure_capacity n offset =
  let needed = offset + 1 in
  if Array.length n.words < needed then begin
    let pages = (needed + words_per_page - 1) / words_per_page in
    let grown = Array.make (pages * words_per_page) 0 in
    Array.blit n.words 0 grown 0 (Array.length n.words);
    n.words <- grown;
    n.pages <- max n.pages pages
  end

let max_segment_words = 256 * 1024

let pages_for offset = ((offset + 1) + words_per_page - 1) / words_per_page

(* Charge the quota cell for growing a segment to cover [offset],
   without touching contents: segment control charges the governing
   cell before any page materializes.  The write gate calls it before
   [raw_write_word]. *)
let charge_growth t ~uid ~offset =
  let* n = seg_node t uid in
  let growth = max 0 (pages_for offset - n.pages) in
  if growth > 0 then charge_pages t n growth else Ok ()

(* Unmediated accessors: the content gates call them once the SDW has
   granted the reference, and kernel-internal paths and the audit
   tooling call them directly. *)
let raw_read_word t ~uid ~offset =
  match seg_node t uid with
  | Error _ -> None
  | Ok n -> if offset < 0 then None else if offset >= Array.length n.words then Some 0 else Some n.words.(offset)

let raw_write_word t ~uid ~offset ~value =
  match seg_node t uid with
  | Error _ -> false
  | Ok n ->
      if offset < 0 || offset >= max_segment_words then false
      else begin
        ensure_capacity n offset;
        n.words.(offset) <- value;
        touch t n;
        true
      end

(* The SDW the kernel would build for this subject and segment: the
   meeting point of ACL, label and brackets.  Returns the effective
   mode (possibly null). *)
let effective_mode t ~subject ~uid =
  match node t uid with
  | None -> Mode.none
  | Some n ->
      let discretionary = Acl.mode_for n.acl subject.Policy.principal in
      let observe_ok = Label.dominates subject.Policy.clearance n.label in
      let modify_ok = Label.dominates n.label subject.Policy.clearance in
      {
        Mode.read = discretionary.Mode.read && observe_ok;
        Mode.execute = discretionary.Mode.execute && observe_ok;
        Mode.write = discretionary.Mode.write && modify_ok;
      }

let sdw_for t ~subject ~uid =
  match node t uid with
  | None -> None
  | Some n ->
      Some
        (Sdw.make ~gate_bound:n.gate_bound ~mode:(effective_mode t ~subject ~uid)
           ~brackets:n.brackets ())

let node_count t = Int_table.length t.nodes
