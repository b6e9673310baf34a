(* The kernel audit trail.

   Every mediated operation appends a record of who asked for what and
   how the reference monitor ruled.  Certification needs the trail both
   ways: to show refused attacks were refused, and to show legitimate
   traffic was not. *)

open Multics_access

type verdict = Granted | Refused of string

type record = {
  seq : int;
  subject : string;  (** principal identifier *)
  ring : int;
  operation : string;
  target : string;
  verdict : verdict;
}

type t = { mutable records : record list; mutable next_seq : int; mutable enabled : bool }

let create () = { records = []; next_seq = 0; enabled = true }

(* Records are immutable, so the copy shares the trail so far. *)
let copy t = { records = t.records; next_seq = t.next_seq; enabled = t.enabled }

let set_enabled t enabled = t.enabled <- enabled

let log t ~(subject : Policy.subject) ~operation ~target ~verdict =
  if t.enabled then begin
    let record =
      {
        seq = t.next_seq;
        subject = Principal.to_string subject.Policy.principal;
        ring = Multics_machine.Ring.to_int subject.Policy.ring;
        operation;
        target;
        verdict;
      }
    in
    t.next_seq <- t.next_seq + 1;
    t.records <- record :: t.records
  end

let records t = List.rev t.records

let length t = List.length t.records

let refusals t =
  List.filter (fun r -> match r.verdict with Refused _ -> true | Granted -> false) (records t)

let refusal_count t = List.length (refusals t)

let pp_record ppf r =
  let verdict = match r.verdict with Granted -> "granted" | Refused why -> "REFUSED: " ^ why in
  Fmt.pf ppf "#%d %s (ring %d) %s %s -> %s" r.seq r.subject r.ring r.operation r.target verdict
