(** Physical memory: block pools per level, page occupancy, usage bits,
    and the transfer engine.

    Transfers return their cycle cost rather than advancing a clock, so
    page traffic is charged to whichever simulated process performed
    it. *)

type t

type error =
  | No_free_block of Level.t
  | Page_not_resident of Page_id.t
  | Page_already_resident of Page_id.t * Block.t

val error_to_string : error -> string

val create : cost:Multics_machine.Cost.t -> core:int -> bulk:int -> disk:int -> t
(** Capacities are block counts per level; all must be positive. *)

val capacity : t -> Level.t -> int
val free_count : t -> Level.t -> int

val location : t -> Page_id.t -> Block.t option
val occupant : t -> Block.t -> Page_id.t option

val place : t -> Page_id.t -> level:Level.t -> (Block.t, error) result
(** Bring a page into the hierarchy at the given level (e.g. a fresh
    zero page into core, or a page known to live on disk). *)

val evict_page : t -> Page_id.t -> (Block.t, error) result
(** Remove a page from the hierarchy entirely (segment deletion),
    freeing the block it occupied. *)

val transfer : t -> Page_id.t -> dest:Level.t -> (Block.t * int, error) result
(** Move a resident page to a free block at [dest].  Returns the new
    block and the cycle cost to charge.  Moving to its current level
    costs 0. *)

val touch : t -> Page_id.t -> unit
(** Set the used bit (core-resident pages only; no-op otherwise). *)

val dirty : t -> Page_id.t -> unit
(** Set used + modified bits. *)

val clear_used : t -> Page_id.t -> unit

val clean : t -> Page_id.t -> unit
(** Clear the modified bit (backup copied the page out). *)

val frame_usage : t -> Page_id.t -> (bool * bool) option
(** [(used, modified)] for a core-resident page. *)

val core_residents : t -> Page_id.t list
val residents : t -> Level.t -> Page_id.t list

val check_conservation : t -> bool
(** Structural invariant: every page at exactly one claimed frame, free
    lists consistent.  Used by tests and assertions. *)
