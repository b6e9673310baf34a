(* The full hardware access check: mode bits + ring brackets + gates.

   This is the innermost layer of the reference monitor; it validates
   every simulated memory reference against the SDW, exactly as the
   6180 appending unit does on each instruction.  Everything above
   (ACLs, the mandatory-access lattice) only decides what SDWs say;
   this module decides what a given SDW permits. *)

module Obs = Multics_obs.Obs

type operation = Read | Write | Execute | Call of int  (** entry offset *)

type grant =
  | Access_ok  (** read/write/execute in the current ring *)
  | Gate_entry of Ring.t  (** inward call; execution continues in this ring *)

type denial =
  | Missing_permission of Mode.t  (** mode bits lack the needed permission *)
  | Outside_write_bracket
  | Outside_read_bracket
  | Outside_call_bracket
  | Not_a_gate of int  (** inward call to a non-gate entry offset *)
  | Outward_call

type decision = Granted of grant | Denied of denial

let denial_to_string = function
  | Missing_permission m -> "missing permission " ^ Mode.to_string m
  | Outside_write_bracket -> "outside write bracket"
  | Outside_read_bracket -> "outside read bracket"
  | Outside_call_bracket -> "outside call bracket"
  | Not_a_gate off -> Printf.sprintf "entry %d is not a gate" off
  | Outward_call -> "outward call"

(* Observability: the hardware check is the innermost mediation point,
   so its counters are the ground truth every other layer's numbers
   must reconcile with. *)
let obs_checks = Obs.Local.counter "hw.checks"
let obs_denials = Obs.Local.counter "hw.denials"
let obs_denial = Obs.Local.keyed (fun r label -> Obs.Registry.counter r ("hw.denials." ^ label))

let denial_label = function
  | Missing_permission _ -> "missing-permission"
  | Outside_write_bracket -> "write-bracket"
  | Outside_read_bracket -> "read-bracket"
  | Outside_call_bracket -> "call-bracket"
  | Not_a_gate _ -> "not-a-gate"
  | Outward_call -> "outward-call"

let observe decision =
  if Obs.enabled () then begin
    Obs.Counter.incr (obs_checks ());
    match decision with
    | Granted _ -> ()
    | Denied d ->
        Obs.Counter.incr (obs_denials ());
        Obs.Counter.incr (obs_denial (denial_label d))
  end;
  decision

let check sdw ~ring ~operation =
  observe
  @@
  let mode = Sdw.mode sdw in
  let brackets = Sdw.brackets sdw in
  match operation with
  | Read ->
      if not mode.Mode.read then Denied (Missing_permission Mode.r)
      else if Brackets.read_ok brackets ~ring then Granted Access_ok
      else Denied Outside_read_bracket
  | Write ->
      if not mode.Mode.write then Denied (Missing_permission Mode.w)
      else if Brackets.write_ok brackets ~ring then Granted Access_ok
      else Denied Outside_write_bracket
  | Execute -> (
      if not mode.Mode.execute then Denied (Missing_permission Mode.e)
      else
        match Brackets.transfer brackets ~ring with
        | Brackets.Execute_in_place -> Granted Access_ok
        | Brackets.Inward_call _ ->
            (* A plain transfer (not a call instruction) may not change
               rings: jumping inward without the gate discipline would
               bypass argument validation. *)
            Denied Outside_read_bracket
        | Brackets.Outward_call_fault -> Denied Outward_call
        | Brackets.Beyond_call_bracket -> Denied Outside_call_bracket)
  | Call entry_offset -> (
      if not mode.Mode.execute then Denied (Missing_permission Mode.e)
      else
        match Brackets.transfer brackets ~ring with
        | Brackets.Execute_in_place -> Granted Access_ok
        | Brackets.Inward_call target_ring ->
            if Sdw.is_gate_offset sdw entry_offset then Granted (Gate_entry target_ring)
            else Denied (Not_a_gate entry_offset)
        | Brackets.Outward_call_fault -> Denied Outward_call
        | Brackets.Beyond_call_bracket -> Denied Outside_call_bracket)

let allowed sdw ~ring ~operation =
  match check sdw ~ring ~operation with Granted _ -> true | Denied _ -> false

(* The SDW associative memory — the 6180's 16-entry CAM that lets the
   appending unit skip the descriptor-segment fetch on repeated
   references.  Each CPU of the plant has one, keyed by a tag its
   owner chooses.  Correctness leans entirely on invalidation:
   Multics "setfaults" clears these entries whenever a segment's
   attributes change, and the plant does the same through
   {!invalidate}/{!flush}, so a cached SDW always equals the SDW the
   descriptor segment currently holds. *)
module Assoc = struct
  type t = Sdw.t Multics_cache.Avc.t

  (* 16 entries, as on the 6180 appending unit. *)
  let create () = Multics_cache.Avc.create ~capacity:16 ~name:"hw.assoc" ()
  let copy t = Multics_cache.Avc.copy t
  let lookup t ~key = Multics_cache.Avc.find t key
  let install t ~key sdw = Multics_cache.Avc.add t key sdw
  let invalidate t ~key = Multics_cache.Avc.invalidate_object t key
  let flush t = Multics_cache.Avc.flush t
  let size t = Multics_cache.Avc.size t
  let counters t = Multics_cache.Avc.counters t
  let entries t = Multics_cache.Avc.entries t
end

let check_via_assoc assoc ~key ~fetch ~ring ~operation =
  match Assoc.lookup assoc ~key with
  | Some sdw -> Some (check sdw ~ring ~operation)
  | None -> (
      match fetch () with
      | None -> None
      | Some sdw ->
          Assoc.install assoc ~key sdw;
          Some (check sdw ~ring ~operation))

let pp_decision ppf = function
  | Granted Access_ok -> Fmt.string ppf "granted"
  | Granted (Gate_entry r) -> Fmt.pf ppf "granted via gate into %a" Ring.pp r
  | Denied d -> Fmt.pf ppf "denied (%s)" (denial_to_string d)
