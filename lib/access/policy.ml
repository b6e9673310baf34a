(* The security model the kernel enforces, as one composed check.

   A request passes only if all three independent mechanisms agree:

   - the mandatory (Mitre-model) lattice check: simple security (no
     read up) and the confinement *-property (no write down);
   - the discretionary check: the branch ACL grants the requested mode
     to the requesting principal;
   - the ring check: applied by the hardware against the SDW (see
     {!Multics_machine.Hardware}); callers combine it via
     [refusals_of_hardware].

   The composed verdict carries every reason that failed, because the
   audit trail (and the penetration experiments) need to distinguish
   "refused by the lattice" from "refused by an ACL". *)

open Multics_machine
module Obs = Multics_obs.Obs

(* [trusted] marks the small set of administrative subjects (the
   Initializer/daemons) exempt from the mandatory checks — the standard
   trusted-subject carve-out of the Mitre-style models.  They remain
   subject to the discretionary and ring checks. *)
type subject = {
  principal : Principal.t;
  clearance : Label.t;
  ring : Ring.t;
  trusted : bool;
  mutable sid_memo : int * int;
      (** [(registry stamp, memoized SID)] for the dense-SID memo (see
          {!Subject_sids}); stamp 0 = never interned.  One field holding
          an immutable pair, so the stamp and the SID it validates are
          written (and read) atomically — a subject record shared across
          domains can lose a memo race, never tear into an aliased SID.
          Internal to the SID layer. *)
}

let subject ?(trusted = false) ~principal ~clearance ~ring () =
  { principal; clearance; ring; trusted; sid_memo = (0, -1) }

type refusal =
  | Mandatory_read_up of { subject_label : Label.t; object_label : Label.t }
  | Mandatory_write_down of { subject_label : Label.t; object_label : Label.t }
  | Discretionary of { principal : Principal.t; granted : Mode.t; requested : Mode.t }
  | Ring_hardware of Hardware.denial

type verdict = Permit | Refuse of refusal list

let refusal_to_string = function
  | Mandatory_read_up { subject_label; object_label } ->
      Printf.sprintf "mandatory: read up (%s cannot read %s)"
        (Label.to_string subject_label) (Label.to_string object_label)
  | Mandatory_write_down { subject_label; object_label } ->
      Printf.sprintf "mandatory: write down (%s cannot write %s)"
        (Label.to_string subject_label) (Label.to_string object_label)
  | Discretionary { principal; granted; requested } ->
      Printf.sprintf "discretionary: %s holds %s, requested %s" (Principal.to_string principal)
        (Mode.to_string granted) (Mode.to_string requested)
  | Ring_hardware denial -> "ring: " ^ Hardware.denial_to_string denial

(* Simple security: observing (read or execute) an object requires the
   subject's clearance to dominate the object's label. *)
let mandatory_observe_refusals ~subject_label ~object_label =
  if Label.dominates subject_label object_label then []
  else [ Mandatory_read_up { subject_label; object_label } ]

(* *-property: modifying an object requires the object's label to
   dominate the subject's clearance, so information cannot be copied
   into a lower compartment through a writable object. *)
let mandatory_modify_refusals ~subject_label ~object_label =
  if Label.dominates object_label subject_label then []
  else [ Mandatory_write_down { subject_label; object_label } ]

let mandatory_refusals ~subject_label ~object_label ~(requested : Mode.t) =
  let observe =
    if requested.Mode.read || requested.Mode.execute then
      mandatory_observe_refusals ~subject_label ~object_label
    else []
  in
  let modify =
    if requested.Mode.write then mandatory_modify_refusals ~subject_label ~object_label
    else []
  in
  observe @ modify

let discretionary_refusals ~acl ~principal ~requested =
  let granted = Acl.mode_for acl principal in
  if Mode.subset requested granted then []
  else [ Discretionary { principal; granted; requested } ]

let refusals_of_hardware decision =
  match decision with Hardware.Granted _ -> [] | Hardware.Denied d -> [ Ring_hardware d ]

let verdict_of_refusals = function [] -> Permit | refusals -> Refuse refusals

(* Observability: one counter per refusal cause, so the audit story
   ("refused by the lattice" vs "refused by an ACL") is visible live.
   Resolved once per domain as one record, so a check pays one
   domain-local lookup; a refusal counter is created on its first
   refusal, as the registry has always shown it. *)
type meters = {
  checks : Obs.Counter.t;
  refusals : Obs.Counter.t Lazy.t;
  read_up : Obs.Counter.t Lazy.t;
  write_down : Obs.Counter.t Lazy.t;
  discretionary : Obs.Counter.t Lazy.t;
  ring_hardware : Obs.Counter.t Lazy.t;
}

let meters =
  Obs.Local.make (fun r ->
      let lazy_counter name = lazy (Obs.Registry.counter r name) in
      {
        checks = Obs.Registry.counter r "policy.checks";
        refusals = lazy_counter "policy.refusals";
        read_up = lazy_counter "policy.refusals.mandatory-read-up";
        write_down = lazy_counter "policy.refusals.mandatory-write-down";
        discretionary = lazy_counter "policy.refusals.discretionary";
        ring_hardware = lazy_counter "policy.refusals.ring-hardware";
      })

let refusal_counter m = function
  | Mandatory_read_up _ -> m.read_up
  | Mandatory_write_down _ -> m.write_down
  | Discretionary _ -> m.discretionary
  | Ring_hardware _ -> m.ring_hardware

(* A loop, not [List.iter] over a closure holding [m]: a refused check
   allocates nothing. *)
let rec count_refusals m = function
  | [] -> ()
  | r :: rest ->
      Obs.Counter.incr (Lazy.force (refusal_counter m r));
      count_refusals m rest

let observe verdict =
  let m = meters () in
  if Obs.Counter.recording m.checks then begin
    Obs.Counter.incr m.checks;
    match verdict with
    | Permit -> ()
    | Refuse refusals ->
        Obs.Counter.incr (Lazy.force m.refusals);
        count_refusals m refusals
  end;
  verdict

let check ~subject:s ~object_label ~acl ~requested =
  let mandatory =
    if s.trusted then []
    else mandatory_refusals ~subject_label:s.clearance ~object_label ~requested
  in
  observe
    (verdict_of_refusals
       (mandatory @ discretionary_refusals ~acl ~principal:s.principal ~requested))

let permitted = function Permit -> true | Refuse _ -> false

(* ----- Subject SIDs -----

   Everything a verdict depends on besides the object's attributes and
   the requested mode is the subject's identity: principal, clearance,
   trusted flag, ring (two processes of one principal can run at
   different session levels, so the principal alone is not enough).
   Interning that identity to a dense SID lets the compiled tables and
   the verdict cache key on one small int.  The hash skips the
   compartment set (equality splits the rare bucket shared by two
   levels), and equality takes the physical fast path first: a hot
   caller re-presents the same record reference for reference. *)

let subject_identity_hash (s : subject) =
  ((Hashtbl.hash (Principal.to_string s.principal) * 31)
  + (Label.level_rank (Label.level s.clearance) * 31))
  + (Ring.to_int s.ring * 2)
  + if s.trusted then 1 else 0

let subject_identity_equal (a : subject) b =
  a == b
  || a.trusted = b.trusted
     && Ring.equal a.ring b.ring
     && (a.principal == b.principal || a.principal = b.principal)
     && (a.clearance == b.clearance || Label.equal a.clearance b.clearance)

module Subject_sids = struct
  type nonrec t = { reg : int; map : subject Sid.Map.t }

  (* Registry ids are minted from 1 and never reused — atomically, so
     registries created on different domains stay distinct — and a
     subject record stamped by a dead (or foreign-domain) registry can
     only miss the memo check: it re-interns, it never aliases. *)
  let next_reg = Atomic.make 0

  let create () =
    {
      reg = Atomic.fetch_and_add next_reg 1 + 1;
      map =
        Sid.Map.create ~initial:16 ~hash:subject_identity_hash ~equal:subject_identity_equal ();
    }

  let sid_of t (s : subject) =
    let reg, sid = s.sid_memo in
    if reg = t.reg then Sid.of_int sid
    else begin
      let sid = Sid.Map.intern t.map s in
      s.sid_memo <- (t.reg, Sid.to_int sid);
      sid
    end

  let find t (s : subject) =
    let reg, sid = s.sid_memo in
    if reg = t.reg then Some (Sid.of_int sid) else Sid.Map.find t.map s

  (* A registry of its own: a record memoized against the source reads
     a foreign stamp here and re-interns to the SID the copied map
     already holds. *)
  let copy t = { reg = Atomic.fetch_and_add next_reg 1 + 1; map = Sid.Map.copy t.map }

  let count t = Sid.Map.count t.map
  let subject_of t sid = Sid.Map.value t.map sid
  let iter f t = Sid.Map.iter f t.map
end

let pp_verdict ppf = function
  | Permit -> Fmt.string ppf "permit"
  | Refuse refusals ->
      Fmt.pf ppf "refuse [%s]" (String.concat "; " (List.map refusal_to_string refusals))
