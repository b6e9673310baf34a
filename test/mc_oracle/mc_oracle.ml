(* The copy-versus-boot oracle.  An exploration replays every trace on
   a copy of one booted image; [Mc.violations_of_trace] boots afresh
   for each.  A copy's replay must reach the same canonical state and
   violations, and count exactly what the fresh boot counts past the
   boot itself. *)

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

(* The copy's canonical state, and [None] when its replay of [trace]
   agrees with a fresh boot's, otherwise what differs. *)
let check t trace =
  let (canon, violations), by_boot = counted (fun () -> Mc.violations_of_trace ~bug:t.bug trace) in
  let (canon', violations'), by_copy =
    counted (fun () -> Mc.Image.violations_of_trace t.image trace)
  in
  let what =
    if not (String.equal canon canon') then Some "canonical state"
    else if violations <> violations' then Some "violations"
    else if by_boot <> add_counts by_copy t.boot_counts then Some "obs counts"
    else None
  in
  let report what = Printf.sprintf "[%s]: %s differs" (Mc.trace_to_string trace) what in
  (canon', Option.map report what)
