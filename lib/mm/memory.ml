(* The physical memory substrate: block pools at each level, page
   occupancy, usage bits, and the transfer engine.

   The module is deliberately passive about time: a [transfer] returns
   the cycle cost of the move and lets the initiating (simulated)
   process consume it, so page traffic is charged to whichever process
   performed it — exactly the distinction the sequential-vs-parallel
   page-control experiment measures. *)

module Page_map = Hashtbl.Make (struct
  type t = Page_id.t

  let equal = Page_id.equal
  let hash = Page_id.hash
end)

type frame = {
  mutable occupant : Page_id.t option;
  mutable used : bool;  (** referenced since last sweep (core only) *)
  mutable modified : bool;  (** dirtied since arrival (core only) *)
}

type pool = {
  level : Level.t;
  frames : frame array;
  mutable free : int list;  (** indices of free frames *)
  mutable free_count : int;
}

type error =
  | No_free_block of Level.t
  | Page_not_resident of Page_id.t
  | Page_already_resident of Page_id.t * Block.t

type t = {
  cost : Multics_machine.Cost.t;
  pools : pool array;  (** indexed by Level.depth *)
  locations : Block.t Page_map.t;
}

let error_to_string = function
  | No_free_block level -> "no free block at level " ^ Level.name level
  | Page_not_resident page -> Fmt.str "page %a is not resident" Page_id.pp page
  | Page_already_resident (page, block) ->
      Fmt.str "page %a already resident at %a" Page_id.pp page Block.pp block

let make_pool level capacity =
  if capacity <= 0 then invalid_arg "Memory.create: capacity must be positive";
  {
    level;
    frames = Array.init capacity (fun _ -> { occupant = None; used = false; modified = false });
    free = List.init capacity (fun i -> i);
    free_count = capacity;
  }

let create ~cost ~core ~bulk ~disk =
  {
    cost;
    pools = [| make_pool Level.Core core; make_pool Level.Bulk bulk; make_pool Level.Disk disk |];
    locations = Page_map.create 1024;
  }

let pool t level = t.pools.(Level.depth level)

let capacity t level = Array.length (pool t level).frames

let free_count t level = (pool t level).free_count

let location t page = Page_map.find_opt t.locations page

let occupant t block = (pool t (Block.level block)).frames.(Block.index block).occupant

(* ----- Allocation ----- *)

let take_free p =
  match p.free with
  | [] -> None
  | index :: rest ->
      p.free <- rest;
      p.free_count <- p.free_count - 1;
      Some index

let put_free p index =
  p.free <- index :: p.free;
  p.free_count <- p.free_count + 1

let place t page ~level =
  match location t page with
  | Some block -> Error (Page_already_resident (page, block))
  | None -> (
      let p = pool t level in
      match take_free p with
      | None -> Error (No_free_block level)
      | Some index ->
          let frame = p.frames.(index) in
          frame.occupant <- Some page;
          frame.used <- false;
          frame.modified <- false;
          let block = Block.make ~level ~index in
          Page_map.replace t.locations page block;
          Ok block)

let evict_page t page =
  match location t page with
  | None -> Error (Page_not_resident page)
  | Some block ->
      let p = pool t (Block.level block) in
      let frame = p.frames.(Block.index block) in
      frame.occupant <- None;
      frame.used <- false;
      frame.modified <- false;
      put_free p (Block.index block);
      Page_map.remove t.locations page;
      Ok block

(* ----- Transfer ----- *)

let transfer_cost t ~from_level ~to_level =
  let involves_disk = Level.equal from_level Level.Disk || Level.equal to_level Level.Disk in
  if involves_disk then t.cost.Multics_machine.Cost.disk_transfer
  else t.cost.Multics_machine.Cost.core_transfer

(* Move a page to [dest]; returns the new block and the cycle cost the
   caller must charge to the moving process. *)
let transfer t page ~dest =
  match location t page with
  | None -> Error (Page_not_resident page)
  | Some src_block ->
      let src_level = Block.level src_block in
      if Level.equal src_level dest then Ok (src_block, 0)
      else begin
        let dest_pool = pool t dest in
        match take_free dest_pool with
        | None -> Error (No_free_block dest)
        | Some index ->
            let src_pool = pool t src_level in
            let src_frame = src_pool.frames.(Block.index src_block) in
            src_frame.occupant <- None;
            src_frame.used <- false;
            src_frame.modified <- false;
            put_free src_pool (Block.index src_block);
            let dest_frame = dest_pool.frames.(index) in
            dest_frame.occupant <- Some page;
            dest_frame.used <- false;
            dest_frame.modified <- false;
            let dest_block = Block.make ~level:dest ~index in
            Page_map.replace t.locations page dest_block;
            Ok (dest_block, transfer_cost t ~from_level:src_level ~to_level:dest)
      end

(* ----- Usage bits (core frames) ----- *)

let with_core_frame t page f =
  match location t page with
  | Some block when Level.equal (Block.level block) Level.Core ->
      f (pool t Level.Core).frames.(Block.index block)
  | Some _ | None -> ()

let touch t page = with_core_frame t page (fun frame -> frame.used <- true)

let dirty t page =
  with_core_frame t page (fun frame ->
      frame.used <- true;
      frame.modified <- true)

let clear_used t page = with_core_frame t page (fun frame -> frame.used <- false)

(* Mark a page clean (after backup has copied it out). *)
let clean t page = with_core_frame t page (fun frame -> frame.modified <- false)

let frame_usage t page =
  match location t page with
  | Some block when Level.equal (Block.level block) Level.Core ->
      let frame = (pool t Level.Core).frames.(Block.index block) in
      Some (frame.used, frame.modified)
  | Some _ | None -> None

let core_residents t =
  let p = pool t Level.Core in
  Array.to_list p.frames |> List.filter_map (fun frame -> frame.occupant)

let residents t level =
  let p = pool t level in
  Array.to_list p.frames |> List.filter_map (fun frame -> frame.occupant)

(* ----- Invariants ----- *)

(* Conservation: every page in the location map occupies exactly the
   frame it claims; every occupied frame is in the map; free counts
   agree with frame state. *)
let check_conservation t =
  let ok = ref true in
  Array.iter
    (fun p ->
      let occupied = ref 0 in
      Array.iteri
        (fun index frame ->
          match frame.occupant with
          | None -> ()
          | Some page -> (
              incr occupied;
              match location t page with
              | Some block ->
                  if not (Block.equal block (Block.make ~level:p.level ~index)) then ok := false
              | None -> ok := false))
        p.frames;
      if p.free_count <> Array.length p.frames - !occupied then ok := false;
      if List.length p.free <> p.free_count then ok := false)
    t.pools;
  Page_map.iter
    (fun page block ->
      match occupant t block with
      | Some occupant_page -> if not (Page_id.equal occupant_page page) then ok := false
      | None -> ok := false)
    t.locations;
  !ok
