(* The healthy plant's whole reachable space, checked five ways.

   - The successor check: every trace that merged into an already
     visited state must lead, action by action, to the canonical
     states its representative leads to ([Mc.successor_check] to the
     depth cap).
   - Copy versus boot: every candidate of the fixpoint exploration,
     found by a breadth-first search of its own keyed on canonical
     strings, replayed on an image copy and on a fresh boot.
   - Derived versus full: every candidate of that search derived from
     one replay of its parent, as the exploration derives it, against
     the same replay on an image copy.
   - Incremental versus full capture: every candidate's key as the
     exploration derives it, from the components its action changed and
     its parent's for the rest, against the full render.
   - Witnessed versus probed P4: every candidate's P4 answers as the
     exploration derives them, re-probing only the pairs whose inputs
     moved, against a probe of every pair of the same candidate.

   [Mc_oracle.check_successors] makes the last four comparisons,
   sharing each candidate's replay on an image copy.

   Prints one verdict line per check and exits 1 on any divergence. *)

module Mc = Multics_mc.Mc

let successors () =
  let r = Mc.successor_check ~depth:Mc.depth_cap () in
  let divergent = List.length r.Mc.sr_divergent in
  Printf.printf "[mc-successors] %d merged traces, %d successor pairs: %d divergent\n%!"
    r.Mc.sr_merged r.Mc.sr_pairs divergent;
  List.iteri
    (fun i (merged, rep, a) ->
      if i < 10 then
        Printf.printf "  [%s] vs [%s] after %s\n" (Mc.trace_to_string merged)
          (Mc.trace_to_string rep) (Mc.action_to_string a))
    r.Mc.sr_divergent;
  divergent = 0

let fixpoint_candidates () =
  let oracle = Mc_oracle.create ~bug:false in
  let alpha = Mc.alphabet ~bug:false in
  let seen = Hashtbl.create 4096 in
  Hashtbl.replace seen (Mc.Image.canonical (Mc_oracle.image oracle)) ();
  let candidates = ref 0 and by_boot = ref [] and by_prefix = ref [] and by_capture = ref [] in
  let by_witness = ref [] in
  let rec level frontier =
    if frontier <> [] then begin
      let next =
        List.concat_map
          (fun trace ->
            let checked, derived = Mc_oracle.check_successors oracle trace in
            by_prefix := List.rev_append derived.Mc_oracle.prefix !by_prefix;
            by_capture := List.rev_append derived.Mc_oracle.capture !by_capture;
            by_witness := List.rev_append derived.Mc_oracle.witness !by_witness;
            List.filter_map
              (fun (a, (canon, divergence)) ->
                incr candidates;
                Option.iter (fun d -> by_boot := d :: !by_boot) divergence;
                if Hashtbl.mem seen canon then None
                else begin
                  Hashtbl.replace seen canon ();
                  Some (trace @ [ a ])
                end)
              (List.combine alpha checked))
          frontier
      in
      level next
    end
  in
  level [ [] ];
  let verdict line divergent =
    Printf.printf "%s, %d divergent\n%!" line (List.length divergent);
    List.iteri (fun i d -> if i < 10 then Printf.printf "  %s\n" d) (List.rev divergent);
    divergent = []
  in
  let image_ok =
    verdict
      (Printf.sprintf
         "[mc-image] %d fixpoint candidates (%d states): image copies agree with fresh boots"
         !candidates (Hashtbl.length seen))
      !by_boot
  in
  let prefix_ok =
    verdict
      (Printf.sprintf
         "[mc-prefix] %d fixpoint candidates: parent-derived replays agree with full replays"
         !candidates)
      !by_prefix
  in
  let capture_ok =
    verdict
      (Printf.sprintf
         "[mc-capture] %d fixpoint candidates: incremental keys agree with full renders"
         !candidates)
      !by_capture
  in
  let witness_ok =
    verdict
      (Printf.sprintf
         "[mc-witness] %d fixpoint candidates: witnessed P4 answers agree with full probes"
         !candidates)
      !by_witness
  in
  image_ok && prefix_ok && capture_ok && witness_ok

let () =
  let ok = successors () in
  let ok = fixpoint_candidates () && ok in
  if not ok then exit 1
