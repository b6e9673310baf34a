(* The replay oracles.  An exploration replays each parent trace once,
   on a copy of one booted image, and derives each of its candidates
   from a copy of that replay; [Mc.violations_of_trace] boots afresh
   for every trace.

   - Copy versus boot: a copy's replay must reach the fresh boot's
     canonical state and violations, and count exactly what the fresh
     boot counts past the boot itself.
   - Derived versus full: a candidate derived from its replayed parent
     must reach the canonical state and violations of its full replay
     on an image copy, and the two obs counts must add exactly; the
     parent must render the same before and after its children.
   - Incremental versus full capture: the exploration's own derivation
     of a candidate renders only the components whose change witness
     moved and keeps the parent's text for the rest; together they must
     be the full render of the same candidate, component by component,
     with the same violations and counts.
   - Witnessed versus probed P4: the exploration's own derivation of a
     candidate re-probes a P4 pair only when its inputs moved and takes
     the parent's answers for the rest; every triple's compiled and
     structured answer must be a full probe's of the same candidate.
     The healthy plant never violates P4, so this, not the violation
     list, is what can tell a wrong witness from a right one. *)

module Mc = Multics_mc.Mc
module Obs = Multics_obs.Obs

(* The non-zero counter deltas (gauges aside) of running [f], sorted. *)
let counted f =
  let before = Obs.Snapshot.capture () in
  let result = f () in
  let d = Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ()) in
  let counts =
    List.filter (fun (name, n) -> n <> 0 && not (List.mem name d.Obs.Snapshot.gauges)) d.counters
  in
  (result, counts)

let add_counts a b =
  List.fold_left
    (fun acc (name, n) ->
      let m = Option.value ~default:0 (List.assoc_opt name acc) in
      (name, m + n) :: List.remove_assoc name acc)
    a b
  |> List.sort compare

type t = { image : Mc.Image.t; bug : bool; boot_counts : (string * int) list }

(* Counting needs the calling domain's recording switch on. *)
let create ~bug =
  Obs.set_enabled true;
  let image, boot_counts = counted (fun () -> Mc.Image.build ~bug) in
  { image; bug; boot_counts }

let image t = t.image

(* What differs between two verdicts and their counts, if anything. *)
let differs (canon, violations) (canon', violations') counts counts' =
  if not (String.equal canon canon') then Some "canonical state"
  else if violations <> violations' then Some "violations"
  else if counts <> counts' then Some "obs counts"
  else None

(* A full replay of [trace] on an image copy, with its counts. *)
let replay t trace = counted (fun () -> Mc.Image.violations_of_trace t.image trace)

(* [None] when a fresh boot's replay of [trace] agrees with the copy's,
   otherwise what differs. *)
let against_boot t trace (by_copy, copy_counts) =
  let by_boot, fresh_counts = counted (fun () -> Mc.violations_of_trace ~bug:t.bug trace) in
  differs by_boot by_copy fresh_counts (add_counts copy_counts t.boot_counts)
  |> Option.map (fun what -> Printf.sprintf "[%s]: %s differs" (Mc.trace_to_string trace) what)

(* The copy's canonical state, and [None] when its replay of [trace]
   agrees with a fresh boot's, otherwise what differs. *)
let check t trace =
  let copy = replay t trace in
  (fst (fst copy), against_boot t trace copy)

(* [None] when a candidate's incremental capture ([changed], with the
   parent's [rendered] components in place of each [None]) is [full],
   the full render of the same candidate, component by component, and
   its violations and counts are the full-render derivation's;
   otherwise what differs, naming the first divergent component. *)
let against_render ~rendered ~full (violations, counts) ((changed, violations'), counts') =
  let component i = Option.value changed.(i) ~default:rendered.(i) in
  let rec first i =
    if i = Array.length full then None
    else if String.equal (component i) full.(i) then first (i + 1)
    else Some (Printf.sprintf "component %d" i)
  in
  if Array.length changed <> Array.length full then Some "the component count"
  else
    match first 0 with
    | Some _ as differing -> differing
    | None ->
        if violations <> violations' then Some "violations"
        else if counts <> counts' then Some "obs counts"
        else None

type derived = {
  prefix : string list;
      (** derived candidates that are not their full replays, and a
          parent whose rendering moved under its children *)
  capture : string list;  (** incremental captures that are not the full render *)
  witness : string list;  (** witnessed P4 answers that are not a full probe's *)
}

(* [None] when the P4 answers of [parent]·[a] as the exploration
   derives them are those of [candidate], the same candidate with every
   pair probed ([Mc.Image.extend parent [a]]), triple by triple;
   otherwise what differs, naming the first divergent triple. *)
let against_probes parent a candidate =
  let rec first = function
    | [], [] -> None
    | (w : Mc.av_answer) :: ws, p :: ps ->
        if w = p then first (ws, ps)
        else
          Some
            (Printf.sprintf "P4 answer %s (compiled %b, structured %b; probed %b, %b)"
               w.Mc.triple w.Mc.compiled w.Mc.structured p.Mc.compiled p.Mc.structured)
    | _ -> Some "the P4 triple count"
  in
  first (Mc.Image.derived_av_answers parent a, Mc.Image.av_answers candidate)

(* Each successor of [trace], derived from one replay of it
   ([Mc.Image.extend]), against its full replay, given in alphabet
   order: counts(full t·a) = counts(replay t) + counts(derived a).  And
   the exploration's own derivation of each ([Mc.Image.derive]), whose
   incremental capture renders only what the action changed, against
   the full render of the same candidate.  Returns what differs, one
   line per divergent candidate, plus one if the parent's rendering
   moved. *)
let against_full t trace full =
  let parent, parent_counts = counted (fun () -> Mc.Image.extend t.image trace) in
  let rendered = Mc.Image.components parent in
  let compared =
    List.map
      (fun (a, (by_full, full_counts)) ->
        let derived, derived_counts =
          counted (fun () -> Mc.Image.violations_of_trace parent [ a ])
        in
        let incremental = counted (fun () -> Mc.Image.derive parent a) in
        let candidate = Mc.Image.extend parent [ a ] in
        let divergence what =
          Printf.sprintf "[%s] derived from [%s]: %s differs"
            (Mc.trace_to_string (trace @ [ a ]))
            (Mc.trace_to_string trace) what
        in
        ( differs by_full derived full_counts (add_counts derived_counts parent_counts)
          |> Option.map divergence,
          against_render ~rendered ~full:(Mc.Image.components candidate)
            (snd derived, derived_counts) incremental
          |> Option.map (fun what ->
                 divergence (Printf.sprintf "%s after %s" what (Mc.action_to_string a))),
          against_probes parent a candidate
          |> Option.map (fun what ->
                 divergence (Printf.sprintf "%s after %s" what (Mc.action_to_string a))) ))
      (List.combine (Mc.alphabet ~bug:t.bug) full)
  in
  let moved =
    if String.equal (String.concat "" (Array.to_list rendered)) (Mc.Image.canonical parent) then []
    else
      [ Printf.sprintf "[%s]: the parent's canonical state moved under its children"
          (Mc.trace_to_string trace) ]
  in
  {
    prefix = List.filter_map (fun (d, _, _) -> d) compared @ moved;
    capture = List.filter_map (fun (_, d, _) -> d) compared;
    witness = List.filter_map (fun (_, _, d) -> d) compared;
  }

let successors t trace = List.map (fun a -> trace @ [ a ]) (Mc.alphabet ~bug:t.bug)

let check_derived t trace =
  let d = against_full t trace (List.map (replay t) (successors t trace)) in
  d.prefix @ d.capture

(* Witnessed versus probed P4 alone, over every successor of [trace]. *)
let check_witnessed t trace =
  let parent = Mc.Image.extend t.image trace in
  List.filter_map
    (fun a ->
      against_probes parent a (Mc.Image.extend parent [ a ])
      |> Option.map
           (Printf.sprintf "[%s] derived from its parent: %s differs"
              (Mc.trace_to_string (trace @ [ a ]))))
    (Mc.alphabet ~bug:t.bug)

(* Both checks over every successor of [trace], sharing each full
   replay: each successor's [check] result, in alphabet order, and
   [check_derived]'s divergences. *)
let check_successors t trace =
  let candidates = successors t trace in
  let full = List.map (replay t) candidates in
  ( List.map2
      (fun candidate copy -> (fst (fst copy), against_boot t candidate copy))
      candidates full,
    against_full t trace full )
