(* Spans around the benchmark's own calls into each layer.

   A span records its name, start, end, parent span and request id.
   Spans stay in memory (flat int arrays, grown geometrically) and are
   written out once, when the run ends.  A span's layer is its name up
   to the first '.', so "core.dispatch.read" belongs to core; a layer's
   self time is the time its spans cover minus the time their child
   spans cover. *)

type t = {
  mutable names : string array;
  mutable starts : int array;
  mutable ends : int array;
  mutable parents : int array;
  mutable reqs : int array;
  mutable count : int;
  mutable open_spans : int list;  (** innermost first *)
}

let create () =
  let n = 1024 in
  {
    names = Array.make n "";
    starts = Array.make n 0;
    ends = Array.make n 0;
    parents = Array.make n (-1);
    reqs = Array.make n 0;
    count = 0;
    open_spans = [];
  }

let grow t =
  let n = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.count;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0;
  t.ends <- extend t.ends 0;
  t.parents <- extend t.parents (-1);
  t.reqs <- extend t.reqs 0

let enter t ~name ~req =
  if t.count = Array.length t.names then grow t;
  let id = t.count in
  t.count <- id + 1;
  t.names.(id) <- name;
  t.parents.(id) <- (match t.open_spans with p :: _ -> p | [] -> -1);
  t.reqs.(id) <- req;
  t.open_spans <- id :: t.open_spans;
  t.starts.(id) <- Meter.now_ns ();
  id

(* [name] renames the span on close: a dispatch's class (granted read,
   refusal, ...) is known only from its reply. *)
let leave ?name t id =
  t.ends.(id) <- Meter.now_ns ();
  Option.iter (fun n -> t.names.(id) <- n) name;
  match t.open_spans with
  | top :: rest when top = id -> t.open_spans <- rest
  | _ -> invalid_arg "Trace.leave: spans must close innermost first"

let with_span t ~name ~req f =
  let id = enter t ~name ~req in
  let r = f () in
  leave t id;
  r

let duration t id = t.ends.(id) - t.starts.(id)

(* Durations (ns) of every span with exactly this name. *)
let durations t ~name =
  let acc = ref [] in
  for id = t.count - 1 downto 0 do
    if String.equal t.names.(id) name then acc := float_of_int (duration t id) :: !acc
  done;
  !acc

let layer_of name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self time per layer over [root] and its descendants, in ns, sorted
   by layer name.  A parent is always recorded before its children. *)
let self_times t ~root =
  let inside = Array.init t.count (fun id -> id = root) in
  let children = Array.make t.count 0 in
  for id = root + 1 to t.count - 1 do
    let p = t.parents.(id) in
    if p >= 0 && inside.(p) then begin
      inside.(id) <- true;
      children.(p) <- children.(p) + duration t id
    end
  done;
  let totals = Hashtbl.create 16 in
  for id = root to t.count - 1 do
    if inside.(id) then begin
      let layer = layer_of t.names.(id) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt totals layer) in
      Hashtbl.replace totals layer (prev + duration t id - children.(id))
    end
  done;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])

let write t ~path =
  let oc = open_out path in
  for id = 0 to t.count - 1 do
    Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
      id t.names.(id) t.starts.(id) t.ends.(id) t.parents.(id) t.reqs.(id)
  done;
  close_out oc
