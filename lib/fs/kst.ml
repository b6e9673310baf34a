(* The Known Segment Table: per-process binding of segment numbers to
   file-system objects.

   Bratt's removal project split this table: the part that must be
   protected (segment number -> unique id -> computed access) stays in
   the kernel; reference names and pathname bookkeeping move to a
   private, user-ring structure.  The [variant] records which shape
   this KST has:

   - [Unified]  (pre-removal): the kernel table also carries each
     entry's pathname — the large protected address-space manager;
   - [Split]    (post-removal): the kernel half is the minimal map;
     naming lives outside (see {!Multics_link.Rnt}).

   [protected_words] makes the difference measurable: experiment E2
   compares the protected-data footprint of the two shapes. *)

module Int_table = Multics_util.Int_table

type variant = Unified | Split

type entry = {
  segno : int;
  uid : Uid.t;
  mutable sdw : Multics_machine.Sdw.t option;  (** computed descriptor, cached *)
  mutable pathname : string option;  (** Unified variant only *)
}

type t = {
  variant : variant;
  mutable next_segno : int;
  by_segno : entry Int_table.t;
  by_uid : entry Int_table.t;
  mutable on_sdw_change : int -> unit;
      (** fired with the segno on every descriptor change — the
          "setfaults" hook the SDW associative memory hangs off *)
  mutable stamp : int;  (** moved by every binding and descriptor change *)
}

type error = Unknown_segno of int | Naming_not_in_kernel

let error_to_string = function
  | Unknown_segno n -> Printf.sprintf "segment number %d is not known" n
  | Naming_not_in_kernel -> "pathname bookkeeping has been removed from the kernel"

(* Segment numbers below this one are the kernel's own segments. *)
let start_segno = 8

let create ~variant () =
  {
    variant;
    next_segno = start_segno;
    by_segno = Int_table.create 16;
    by_uid = Int_table.create 16;
    on_sdw_change = (fun _ -> ());
    stamp = 0;
  }

let variant t = t.variant
let stamp t = t.stamp
let touch t = t.stamp <- t.stamp + 1
let set_on_sdw_change t f = t.on_sdw_change <- f

(* Both indexes must lead to one record per entry, so they are refilled
   from the copied entries (nothing reads either table's iteration
   order: [known_segnos] sorts).  The hook belongs to whoever owns the
   source's caches: the copy starts unhooked. *)
let copy t =
  let by_segno = Int_table.create 16 and by_uid = Int_table.create 16 in
  Int_table.iter
    (fun segno e ->
      let e = { segno = e.segno; uid = e.uid; sdw = e.sdw; pathname = e.pathname } in
      Int_table.replace by_segno segno e;
      Int_table.replace by_uid (Uid.to_int e.uid) e)
    t.by_segno;
  {
    variant = t.variant;
    next_segno = t.next_segno;
    by_segno;
    by_uid;
    on_sdw_change = ignore;
    stamp = t.stamp;
  }

(* Make a segment known: idempotent per uid; returns the segment
   number and whether it was already known. *)
let make_known t ~uid =
  match Int_table.find_opt t.by_uid (Uid.to_int uid) with
  | Some entry -> (entry.segno, true)
  | None ->
      let segno = t.next_segno in
      t.next_segno <- segno + 1;
      let entry = { segno; uid; sdw = None; pathname = None } in
      Int_table.replace t.by_segno segno entry;
      Int_table.replace t.by_uid (Uid.to_int uid) entry;
      touch t;
      (segno, false)

let uid_of_segno t segno =
  match Int_table.find_opt t.by_segno segno with
  | Some entry -> Ok entry.uid
  | None -> Error (Unknown_segno segno)

let segno_of_uid t ~uid =
  Option.map (fun e -> e.segno) (Int_table.find_opt t.by_uid (Uid.to_int uid))

let set_sdw t segno sdw =
  match Int_table.find_opt t.by_segno segno with
  | Some entry ->
      entry.sdw <- Some sdw;
      touch t;
      t.on_sdw_change segno;
      Ok ()
  | None -> Error (Unknown_segno segno)

let sdw_of t segno =
  match Int_table.find_opt t.by_segno segno with
  | Some { sdw = Some sdw; _ } -> Some sdw
  | Some { sdw = None; _ } | None -> None

let record_pathname t segno path =
  match t.variant with
  | Split -> Error Naming_not_in_kernel
  | Unified -> (
      match Int_table.find_opt t.by_segno segno with
      | Some entry ->
          entry.pathname <- Some path;
          Ok ()
      | None -> Error (Unknown_segno segno))

let terminate t segno =
  match Int_table.find_opt t.by_segno segno with
  | None -> Error (Unknown_segno segno)
  | Some entry ->
      Int_table.remove t.by_segno segno;
      Int_table.remove t.by_uid (Uid.to_int entry.uid);
      touch t;
      t.on_sdw_change segno;
      Ok ()

let entry_count t = Int_table.length t.by_segno

let known_segnos t =
  Int_table.fold (fun segno _ acc -> segno :: acc) t.by_segno [] |> List.sort Int.compare

(* Protected footprint, in (synthetic) 36-bit words.  A split entry is
   the minimal segno/uid/descriptor triple; a unified entry also holds
   the pathname buffer and name-list head the real KST carried. *)
let words_per_entry = function Split -> 4 | Unified -> 40

let protected_words t = 8 + (entry_count t * words_per_entry t.variant)
