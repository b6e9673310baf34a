(* What one run hands back: operations attempted and failed, the
   metrics by name and unit, and human-readable notes (the per-layer
   breakdown, what was not measured and why). *)

type t = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;
}

module Obs = Multics_obs.Obs

(* A counter's movement between two snapshots of the obs registry. *)
let delta ~before ~after name =
  let get (s : Obs.Snapshot.t) = Option.value ~default:0 (List.assoc_opt name s.Obs.Snapshot.counters) in
  get after - get before

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let hit_ratio ~before ~after cache =
  let hits = delta ~before ~after ("cache." ^ cache ^ ".hits") in
  ratio hits (hits + delta ~before ~after ("cache." ^ cache ^ ".misses"))

(* Per-layer metrics a workload does not exercise are reported as 0 and
   named here with the reason. *)
let not_measured names ~why =
  List.map (fun (name, unit_) -> (name, 0., unit_)) names,
  Printf.sprintf "not measured on this workload (%s): %s" why
    (String.concat ", " (List.map fst names))

(* Layer self times from a trace, beside the traced episode's wall and
   the same episode's untraced wall. *)
let self_time_lines trace ~root ~untraced_ns =
  let wall = Trace.duration trace root in
  let pct ns = 100. *. float_of_int ns /. float_of_int (max 1 wall) in
  Printf.sprintf "layer self time over the traced episode (%.1f ms wall; untraced %.1f ms):"
    (float_of_int wall /. 1e6) (float_of_int untraced_ns /. 1e6)
  :: List.map
       (fun (layer, ns) ->
         Printf.sprintf "  %-8s %10.3f ms  %5.1f%%" layer (float_of_int ns /. 1e6) (pct ns))
       (Trace.self_times trace ~root)
