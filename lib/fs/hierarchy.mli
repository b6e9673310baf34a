(** The protected storage hierarchy: directories, branches, ACLs,
    labels, ring brackets, and segment contents.

    Every operation takes the requesting {!Multics_access.Policy.subject}
    and enforces both the discretionary and the mandatory checks.
    Directory modes follow Multics: read = status/list, write = modify
    or delete entries, execute = append entries.

    Resolution "lies convincingly": a lookup in a directory the subject
    may not status reports [No_entry], never a permission failure, so
    protected name spaces do not leak existence. *)

open Multics_access
open Multics_machine

type t

type kind = Segment | Directory

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
      (** a subject may not mint brackets inner to its own ring *)

val error_to_string : error -> string

val create : unit -> t
(** A hierarchy containing only the root directory [>] (listable by
    anyone, label Unclassified). *)

val copy : t -> t
(** An independent hierarchy holding the same branches, contents, uid
    generator and compiled access-vector cells, in which every cell is
    fresh or stale exactly as in [t], whichever domain makes the copy.
    Later edits of either side do not reach the other.  The copy has
    no cache probe. *)

val words_per_page : int
(** 64: the page size segment contents and quota are counted in. *)

val stamp_of : t -> Uid.t -> int
(** The branch's change stamp, or [-1] when no branch has the uid.
    Every write to the branch (its ACL, label, brackets, gate bound,
    name, contents or quota cell) and, for a directory, to its entries
    moves it, to a value no branch of this hierarchy has held; nothing
    else does, so a lookup, an access check, a compiled access-vector
    cell, a content read or a write to another branch leaves it where
    it was.  {!copy} keeps every stamp, and the copy's move
    independently of the source's.  A reader that saw a branch's stamp
    unchanged may reuse what it derived from that branch then. *)

(** {1 Attributes (kernel-internal, unmediated)} *)

val uid_exists : t -> Uid.t -> bool
val kind_of : t -> Uid.t -> kind option
val label_of : t -> Uid.t -> Label.t option
val acl_of : t -> Uid.t -> Acl.t option
val brackets_of : t -> Uid.t -> Brackets.t option
val gate_bound_of : t -> Uid.t -> int option
val page_count_of : t -> Uid.t -> int option
val path_of : t -> Uid.t -> string option
val node_count : t -> int

(** {1 Mediated directory operations} *)

val raw_lookup : t -> dir:Uid.t -> name:string -> Uid.t option
(** Unmediated lookup, as ring-0 code sees the hierarchy.  Kernel
    internal; exposing it to user-supplied names is the
    supervisor-authority-walk flaw. *)

val lookup :
  t -> subject:Policy.subject -> dir:Uid.t -> name:string -> (Uid.t, error) result

val list_entries :
  t -> subject:Policy.subject -> dir:Uid.t -> ((string * Uid.t) list, error) result

val create_directory :
  t ->
  subject:Policy.subject ->
  dir:Uid.t ->
  name:string ->
  acl:Acl.t ->
  label:Label.t ->
  (Uid.t, error) result
(** Requires append permission on [dir] and [label] dominating the
    directory's label (no downward placement). *)

val create_segment :
  ?brackets:Brackets.t ->
  t ->
  subject:Policy.subject ->
  dir:Uid.t ->
  name:string ->
  acl:Acl.t ->
  label:Label.t ->
  (Uid.t, error) result

val delete_entry :
  t -> subject:Policy.subject -> dir:Uid.t -> name:string -> (Uid.t, error) result
(** Requires modify permission; refuses to delete non-empty
    directories. *)

val rename_entry :
  t -> subject:Policy.subject -> dir:Uid.t -> name:string -> new_name:string ->
  (Uid.t, error) result

val set_acl : t -> subject:Policy.subject -> uid:Uid.t -> acl:Acl.t -> (unit, error) result
(** Controlled by modify permission on the containing directory. *)

val set_gate_bound :
  t -> subject:Policy.subject -> uid:Uid.t -> gate_bound:int -> (unit, error) result

(** {1 Quota cells}

    A directory may carry a page quota; segment growth is charged to
    the nearest ancestor cell.  Quota is the kernel's defense against
    denial of use by storage exhaustion. *)

val set_quota :
  t -> subject:Policy.subject -> uid:Uid.t -> quota:int option -> (unit, error) result
(** Install ([Some limit]) or clear ([None]) a cell on a directory;
    requires modify permission on the directory itself.  Installing
    fails if the subtree already exceeds the limit. *)

val quota_of : t -> Uid.t -> int option
val pages_charged_of : t -> Uid.t -> int option

val charge_growth : t -> uid:Uid.t -> offset:int -> (unit, error) result
(** Charge the governing cell for growing the segment to cover
    [offset] (no contents touched); the write gate calls it before
    {!raw_write_word}. *)

val check_quota_invariant : t -> bool
(** Every cell's charge equals its governed subtree's page total and
    respects its limit. *)

val set_brackets :
  t -> subject:Policy.subject -> uid:Uid.t -> brackets:Brackets.t -> (unit, error) result

val raw_delete_subtree : t -> dir:Uid.t -> name:string -> bool
(** Kernel-internal, unmediated recursive delete (process-directory
    cleanup at logout); refunds quota.  False if the entry is absent. *)

val raw_set_label : t -> uid:Uid.t -> label:Label.t -> bool
(** Kernel-internal label rewrite (the security administrator's
    upgrade/downgrade).  Revokes the cached verdicts derived from the
    old label in the same step.  False if the uid is dangling. *)

(** {1 The compiled access-decision table}

    [check_access] is the cached mediation question — the composition
    of the mandatory lattice, the ACL and the ring brackets this
    hierarchy's operations apply — served from a compiled
    {!Multics_access.Av_table}: a flat int array of access-vector bits
    indexed by (subject SID, object uid), where a covered request
    Permits with no allocation or hashing and anything else recomputes
    the structured verdict.  Every ACL edit, label change, bracket
    change, deletion or branch move above bumps the object's
    generation, so revocation is immediate (the "setfaults"
    discipline), never TTL-based.  [check_access_fresh] recomputes
    from scratch; the property tests hold the two equal at every
    step. *)

val check_access :
  t -> subject:Policy.subject -> uid:Uid.t -> requested:Mode.t -> Policy.verdict option
(** [None] if the uid is dangling. *)

val check_access_fresh :
  t -> subject:Policy.subject -> uid:Uid.t -> requested:Mode.t -> Policy.verdict option

val av_table : t -> Av_table.t
(** The compiled table itself, for the benches and status surfaces. *)

val subject_sid : t -> Policy.subject -> Sid.t
(** The subject's dense SID in this hierarchy's table (interned on
    first sight, memoized on the record thereafter). *)

val rebuild_av_table : t -> int
(** Eagerly recompile every interned subject against every live node;
    returns the number of cells filled.  Measurement and warm-up only
    — lazy refill under the epoch stamps is already exact. *)

val invalidate_cached_verdicts : t -> unit
(** Bump the global generation: every cached verdict dies.  Called by
    the salvager after repairs and by the [cache clear] gate. *)

val flush_cached_verdicts : t -> unit
(** Drop the cached entries outright (storage, not just staleness). *)

val set_cache_probe : t -> (unit -> bool) option -> unit
(** Install the fault-injection probe ([cache.flush] storms). *)

val cache_stats : t -> (string * int) list
(** [("size", _)] plus the obs counter readings for the verdict
    cache. *)

val cache_hit_ratio : t -> float

(** {1 Path resolution (the kernel-resident tree walk)} *)

val resolve : t -> subject:Policy.subject -> path:string -> (Uid.t, error) result
(** Walk a [>a>b>c] tree name from the root, applying the status check
    (and its No_entry lie) at each step. *)

(** {1 Segment contents}

    Unmediated: the content gates ([Read_word]/[Write_word]) call
    these once the SDW has granted the reference, after refusing an
    offset outside [0 .. max_segment_words - 1] with
    [Out_of_bounds]. *)

val max_segment_words : int

val raw_read_word : t -> uid:Uid.t -> offset:int -> int option
(** [None] if not a segment or the offset is negative.  Reading past
    the written length yields 0 (segments are zero-extended). *)

val raw_write_word : t -> uid:Uid.t -> offset:int -> value:int -> bool
(** [false] if not a segment or the offset is outside the maximum
    length; charges no quota (see {!charge_growth}). *)

(** {1 Descriptor construction} *)

val effective_mode : t -> subject:Policy.subject -> uid:Uid.t -> Mode.t
(** ACL mode intersected with what the lattice permits this subject on
    this object — the mode the kernel would put in the SDW. *)

val sdw_for : t -> subject:Policy.subject -> uid:Uid.t -> Sdw.t option
