(* The healthy plant's whole reachable space, checked two ways.

   - The successor check: every trace that merged into an already
     visited state must lead, action by action, to the canonical
     states its representative leads to ([Mc.successor_check] to the
     depth cap).
   - Copy versus boot: every candidate of the fixpoint exploration,
     found by a breadth-first search of its own keyed on canonical
     strings, replayed on an image copy and on a fresh boot
     ([Mc_oracle]).

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

let copies_are_boots () =
  let oracle = Mc_oracle.create ~bug:false in
  let alpha = Mc.alphabet ~bug:false in
  let seen = Hashtbl.create 4096 in
  Hashtbl.replace seen (Mc.Image.canonical (Mc_oracle.image oracle)) ();
  let candidates = ref 0 and divergent = ref [] in
  let rec level frontier =
    if frontier <> [] then begin
      let next =
        List.concat_map
          (fun trace ->
            List.filter_map
              (fun a ->
                let trace = trace @ [ a ] in
                incr candidates;
                let canon, divergence = Mc_oracle.check oracle trace in
                Option.iter (fun d -> divergent := d :: !divergent) divergence;
                if Hashtbl.mem seen canon then None
                else begin
                  Hashtbl.replace seen canon ();
                  Some trace
                end)
              alpha)
          frontier
      in
      level next
    end
  in
  level [ [] ];
  Printf.printf
    "[mc-image] %d fixpoint candidates (%d states): image copies agree with fresh boots, %d divergent\n%!"
    !candidates (Hashtbl.length seen) (List.length !divergent);
  List.iteri (fun i d -> if i < 10 then Printf.printf "  %s\n" d) (List.rev !divergent);
  !divergent = []

let () =
  let ok = successors () in
  let ok = copies_are_boots () && ok in
  if not ok then exit 1
