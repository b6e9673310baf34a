(** A deterministic fleet of cooperating kernel sites with fail-secure
    cross-site revocation.

    Each site is a fully booted kernel ({!Multics_kernel.System});
    sites are joined pairwise by {!Multics_io.Network.Link}
    attachments.  Users are sharded to a home site by a deterministic
    function, and every request enters a kernel — local or remote —
    only through {!Multics_kernel.Api.Call.dispatch}, so cross-site
    traffic is audited and metered exactly like a local gate call.

    {b Replication model.}  Access-control state (the hierarchy's
    ACLs, labels, brackets, and the branch structure reached through
    the path-addressed gates) is replicated to every site; segment
    {e contents} and process state are home-local, like a shard owning
    its users' data.  A mutating call executes at the caller's home
    site and then broadcasts to every peer as a {e network connect}: a
    verbatim replay of the same request, under the same process
    handle, through the peer kernel's own [Api.Call.dispatch] — whose
    setfaults/AV-table machinery performs the remote invalidation.
    The broadcast completes before the mutating call returns
    (synchronous coherence, {!Multics_smp.Smp}'s discipline
    generalized over lossy links).  Replays land identically because
    boots, account creation, and logins are replicated
    deterministically, so every site holds the same handle space and
    the same access-control state.

    {b Failure model.}  Each link consults the [site.drop] /
    [site.delay] / [site.partition] fault sites and an
    operator-severed partition flag.  An unacknowledged connect is
    retried with exponential backoff up to {!Multics_smp.Smp.max_retries}
    losses; past the budget the origin {e fails secure}: it has
    stalled through the whole retry window (the mutation's completion
    window), and rather than let the silent peer serve decisions it
    cannot prove fresh, it marks the peer [Suspect] and fences its
    shard — every call homed there is refused with
    {!Multics_kernel.Api.Site_fenced} until the peer rejoins.  A
    fenced or crashed site serves {e nothing}: stale Permits are
    structurally impossible.  Rejoin is a salvage-and-resync
    handshake: Salvager rollback, replay of every missed epoch from
    the fleet's mutation backlog, a full AV-table rebuild, and a
    whole-site cache invalidation.

    Determinism: for a fixed (seed, plan, traffic) triple the fleet is
    reproducible, and mediation results are site-count-invariant —
    experiment E20's coherence-parity oracle checks a 1-site fleet
    against 2- and 4-site fleets under fault plans and requires zero
    divergences.  Site counts change timing (cross-site stalls,
    backoff, fencing cost), never verdicts. *)

module System = Multics_kernel.System
module Api = Multics_kernel.Api
module Salvager = Multics_kernel.Salvager

val max_sites : int

val default_nsites : unit -> int
(** [MULTICS_SITES] from the environment when it parses as
    1..{!max_sites}; 1 otherwise. *)

type status = Active | Suspect | Crashed

val status_name : status -> string

type rejoin_report = {
  rj_salvage : Salvager.report;  (** the rollback that opened the handshake *)
  rj_replayed : int;  (** backlog epochs replayed to catch up *)
  rj_av_cells : int;  (** cells filled by the full AV-table rebuild *)
  rj_epoch : int;  (** the site's epoch after resync (= fleet epoch) *)
}

type t

val create : nsites:int -> ?config:Multics_kernel.Config.t -> unit -> t
(** Boot [nsites] identical kernels and join them pairwise with links
    of one-way latency {!Multics_io.Network.Link.latency}.  Nothing
    here reads [MULTICS_SITES]: the caller picks the count (the shell
    passes {!default_nsites}[ ()]).  An operator principal is created
    and logged in on every site (same handle everywhere, by
    determinism of the boot).  Obs
    instruments: ["site.connects.sent"/".lost"/".retries"],
    ["site.fenced"], ["site.fenced.refusals"], ["site.rejoins"],
    ["site.replica.mismatch"], the ["site.revocation.cycles"]
    histogram, and the ["net.link.*"] family. *)

val nsites : t -> int
val operator : t -> int
(** The operator's process handle (valid on every site). *)

val member_system : t -> int -> System.t
(** Site [i]'s kernel, for direct inspection in tests and experiments.
    Mutating it other than through {!dispatch} forfeits replication. *)

val status : t -> int -> status
val epoch : t -> int
(** The fleet's mutation epoch: one per replicated mutation. *)

val site_epoch : t -> int -> int
(** The last epoch site [i] has applied; trails {!epoch} only while
    the site is fenced or crashed. *)

val now : t -> int
(** The fleet's cycle clock: every cross-site round trip, backoff
    stall, and fencing window is charged here. *)

val set_faults : t -> Multics_fault.Fault.Injector.t option -> unit
(** Install one injector on every link (the [site.*] sites) and every
    member kernel (the gate/cache sites), mirroring the Workload
    convention: one seeded plan drives the whole fleet. *)

(** {1 Sharding and accounts} *)

val home_site : t -> user:int -> int
(** The deterministic user→site sharding function. *)

val add_account :
  t -> person:string -> project:string -> password:string ->
  clearance:Multics_access.Label.t -> unit
(** Replicated to every active site (and to fenced sites at rejoin,
    via the backlog). *)

val login :
  ?level:Multics_access.Label.t ->
  t -> person:string -> project:string -> password:string ->
  (int, System.login_error) result
(** Replicated login: the same handle is allocated on every site,
    which is what lets a replicated mutation replay verbatim under the
    originator's handle. *)

val logout : t -> handle:int -> bool

(** {1 Dispatch} *)

val dispatch : t -> user:int -> handle:int -> Api.Call.request -> Api.Call.response
(** Route the request to [user]'s home site and dispatch it there
    through the audited gate surface.  If the home site is fenced
    (suspect) or crashed the call is refused with
    {!Api.Site_fenced} / {!Api.Site_unreachable} — the fail-secure
    degradation; nothing is served from a site that cannot prove its
    decisions fresh.  A successful path-addressed mutation (ACL,
    brackets, create, delete, salvage, cache-clear, channel creation)
    is broadcast to every peer before this call returns.
    Segment-number-addressed hierarchy mutations ([Set_acl],
    [Create_segment], ...) are refused at the fleet surface — their
    operands are process-local, so they cannot be replayed remotely;
    the path-addressed forms are the fleet calling sequence. *)

val dispatch_at : t -> site:int -> handle:int -> Api.Call.request -> Api.Call.response
(** Site-local dispatch with the fence applied but {e no replication}
    — the operator/test surface for probing one site.  Refuses when
    the site is not [Active]. *)

val probe :
  t -> site:int -> handle:int -> path:string ->
  requested:Multics_machine.Mode.t ->
  (Multics_access.Policy.verdict, Api.error) result
(** Resolve [path] on one site and run the real cached decision path
    there ([Probe_access] through the audited gates); fenced sites
    refuse.  The cross-site coherence check of the directed tests. *)

(** {1 Faults, partitions, crashes, rejoin} *)

val partition : t -> int -> int -> unit
(** Operator-sever the link between two sites ([site partition a b]). *)

val heal_link : t -> int -> int -> unit

val crash : t -> int -> unit
(** Take a site down: volatile state (every cached access decision) is
    lost; durable state (hierarchy, accounts, processes) survives as
    on disk.  The site serves nothing until {!rejoin}. *)

val rejoin : t -> int -> rejoin_report option
(** The salvage-and-resync handshake: Salvager rollback, backlog
    replay of every missed epoch, full AV-table rebuild, whole-site
    cache invalidation; the site returns to [Active].  [None] if the
    site was already active.  Rejoining across a still-severed link
    succeeds (the handshake is the operator's out-of-band channel) —
    but the next lost connect will fence the site again. *)

val heal_all : t -> int * (int * rejoin_report) list
(** [site heal]: heal every operator-severed link, then rejoin every
    fenced/crashed site.  Returns (links healed, rejoins performed). *)

(** {1 Fleet-wide accounting} *)

val hash_string : int -> string -> int
(** [hash_string h s] folds [s] into the djb2 digest [h] (30 bits);
    start a fold at 5381.  The fleet digests below and
    [Workload]'s audit-trail digest share it. *)

val signature : t -> int
(** Order-preserving djb2 digest of every primary dispatch
    ((user, operation, outcome) per call, fenced refusals included).
    The E20 parity oracle compares this across site counts. *)

val multiset_signature : t -> int
(** Commutative digest of the same records: a sum of per-record
    hashes, so it is invariant under reorderings of the dispatch
    sequence.  The parity handle for schedule-driven workloads
    (Workload sessions run under a scheduler whose interleaving shifts
    with cross-site timing); the sequential drivers compare the
    stronger {!signature}. *)

val granted : t -> int
val refused : t -> int
val fenced_refusals : t -> int
val revocations : t -> int
(** Replicated mutations that revoke (ACL/bracket edits, deletes,
    salvages, cache clears) — each one a fleet-wide connect storm. *)

val status_table : t -> (int * string * int * (string * int) list) list
(** Per-site rows [(id, status, epoch, counters)]: audit totals,
    replica applications and mismatches, process count — the
    [site status] shell payload. *)

val link_table : t -> ((int * int) * bool * (string * int) list) list
(** Per-link rows [((a, b), partitioned, counters)]. *)
