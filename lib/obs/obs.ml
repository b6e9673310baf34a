(* Kernel observability: counters, gauges and log-bucketed histograms,
   in named registries, with text-table and JSON renderers.

   Design constraints, in order:

   1. the disabled path must stay branch-cheap — every recording
      primitive starts by testing its domain's switch, one load plus a
      branch;
   2. zero dependencies — the kernel's innermost layers (the hardware
      check, the simulator) record here, so this library must sit
      below everything;
   3. recording must never allocate on the hot path — counters mutate
      an int field, histograms mutate a preallocated array.

   Domain-safety: every piece of mutable state here — the enable flag,
   the default registry, the instruments themselves — is domain-local.
   A worker domain running a per-seed experiment task (lib/par) records
   into its own registry, never contending with (or corrupting) another
   domain's instruments; after the join the caller absorbs each task's
   snapshot in task order ({!Snapshot.absorb}), so the merged counter
   totals match a sequential run exactly, and so does each gauge, whose
   merge is the last write in task order.

   The switch is one mutable cell per domain.  Every instrument holds
   the cell of the domain whose registry created it, so a recording
   primitive tests that cell directly: a domain-local lookup per
   increment cost more than the increment, and a gate call makes
   dozens.  An instrument is only ever used on its own domain, so the
   cell it holds is the calling domain's. *)

type switch = { mutable on : bool }

let switch_key = Domain.DLS.new_key (fun () -> { on = true })
let enabled () = (Domain.DLS.get switch_key).on
let set_enabled flag = (Domain.DLS.get switch_key).on <- flag

let with_disabled f =
  let saved = enabled () in
  set_enabled false;
  Fun.protect ~finally:(fun () -> set_enabled saved) f

(* ----- Counters ----- *)

module Counter = struct
  type t = { name : string; switch : switch; mutable value : int }

  let make switch name = { name; switch; value = 0 }
  let name c = c.name
  let incr ?(by = 1) c = if c.switch.on then c.value <- c.value + by
  let get c = c.value
  let recording c = c.switch.on
  let reset c = c.value <- 0
end

(* ----- Gauges ----- *)

(* [written] tells a reading from a gauge nobody set since the last
   reset: a parallel task that never set a gauge must not overwrite the
   earlier task's reading when the caller absorbs its snapshot. *)
module Gauge = struct
  type t = { name : string; switch : switch; mutable value : int; mutable written : bool }

  let make switch name = { name; switch; value = 0; written = false }
  let name g = g.name

  let write g v =
    g.value <- v;
    g.written <- true

  let set g v = if g.switch.on then write g v
  let get g = g.value

  let reset g =
    g.value <- 0;
    g.written <- false
end

(* ----- Histograms ----- *)

module Histogram = struct
  (* Bucket i holds samples whose highest set bit is i: the range
     [2^i, 2^(i+1) - 1].  Bucket 0 also absorbs 0 (and, defensively,
     negative samples).  62 buckets cover every OCaml int. *)
  let bucket_count = 62

  type t = {
    name : string;
    switch : switch;
    buckets : int array;
    mutable count : int;
    mutable sum : int;
    mutable min_value : int;
    mutable max_value : int;
    mutable saturated : bool;
  }

  let make switch name =
    {
      name;
      switch;
      buckets = Array.make bucket_count 0;
      count = 0;
      sum = 0;
      min_value = max_int;
      max_value = 0;
      saturated = false;
    }

  let name h = h.name

  (* The highest set bit by halving the search range: six tests for
     any int, where a bit-at-a-time loop takes one per bit (ten for a
     typical connect's cycle count). *)
  let bucket_index v =
    if v <= 1 then 0
    else begin
      let v = ref v and bit = ref 0 in
      if !v lsr 32 <> 0 then begin v := !v lsr 32; bit := 32 end;
      if !v lsr 16 <> 0 then begin v := !v lsr 16; bit := !bit + 16 end;
      if !v lsr 8 <> 0 then begin v := !v lsr 8; bit := !bit + 8 end;
      if !v lsr 4 <> 0 then begin v := !v lsr 4; bit := !bit + 4 end;
      if !v lsr 2 <> 0 then begin v := !v lsr 2; bit := !bit + 2 end;
      if !v lsr 1 <> 0 then incr bit;
      min (bucket_count - 1) !bit
    end

  let bucket_lower_bound i = if i = 0 then 0 else 1 lsl i

  let observe h v =
    if h.switch.on then begin
      let v = if v < 0 then 0 else v in
      let i = bucket_index v in
      h.buckets.(i) <- h.buckets.(i) + 1;
      h.count <- h.count + 1;
      (* The running sum saturates at [max_int] instead of wrapping: a
         multi-billion-cycle run (an SMP sweep observing per-connect
         costs forever) must degrade to a pinned ceiling, never to a
         silently negative total.  [saturated] records that the ceiling
         was hit so snapshots can flag the sum as a lower bound. *)
      if v > max_int - h.sum then begin
        h.sum <- max_int;
        h.saturated <- true
      end
      else h.sum <- h.sum + v;
      if v < h.min_value then h.min_value <- v;
      if v > h.max_value then h.max_value <- v
    end

  let count h = h.count
  let sum h = h.sum
  let saturated h = h.saturated
  let mean h = if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count
  let min_value h = if h.count = 0 then 0 else h.min_value
  let max_value h = h.max_value

  let buckets h =
    let acc = ref [] in
    for i = bucket_count - 1 downto 0 do
      if h.buckets.(i) > 0 then acc := (bucket_lower_bound i, h.buckets.(i)) :: !acc
    done;
    !acc

  (* The quantile estimate reports the upper bound of the bucket the
     rank falls in — pessimistic by at most the bucket's factor of 2. *)
  let quantile h q =
    if h.count = 0 then 0
    else begin
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      let rank = int_of_float (ceil (q *. float_of_int h.count)) in
      let rank = if rank < 1 then 1 else rank in
      let rec walk i seen =
        if i >= bucket_count then h.max_value
        else begin
          let seen = seen + h.buckets.(i) in
          if seen >= rank then begin
            let lo = bucket_lower_bound i in
            let hi = if lo = 0 then 1 else (2 * lo) - 1 in
            min h.max_value hi
          end
          else walk (i + 1) seen
        end
      in
      walk 0 0
    end

  let reset h =
    Array.fill h.buckets 0 bucket_count 0;
    h.count <- 0;
    h.sum <- 0;
    h.min_value <- max_int;
    h.max_value <- 0;
    h.saturated <- false
end

(* ----- Registries ----- *)

module Registry = struct
  type t = {
    name : string;
    switch : switch;  (** the creating domain's *)
    counters : (string, Counter.t) Hashtbl.t;
    gauges : (string, Gauge.t) Hashtbl.t;
    histograms : (string, Histogram.t) Hashtbl.t;
  }

  let create ~name =
    {
      name;
      switch = Domain.DLS.get switch_key;
      counters = Hashtbl.create 64;
      gauges = Hashtbl.create 4;
      histograms = Hashtbl.create 16;
    }

  let name t = t.name

  (* One default registry per domain: a worker domain resolving
     "kernel" instruments gets its own private copies, so recording
     from parallel per-seed tasks never races.  Lazily created on
     first use in each domain. *)
  let global_key = Domain.DLS.new_key (fun () -> create ~name:"kernel")
  let global () = Domain.DLS.get global_key

  let memo table make key =
    match Hashtbl.find_opt table key with
    | Some v -> v
    | None ->
        let v = make key in
        Hashtbl.add table key v;
        v

  let counter t key = memo t.counters (Counter.make t.switch) key
  let gauge t key = memo t.gauges (Gauge.make t.switch) key
  let histogram t key = memo t.histograms (Histogram.make t.switch) key

  let sorted_bindings table value =
    Hashtbl.fold (fun k v acc -> (k, value v) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let counters t = sorted_bindings t.counters Counter.get

  let reset t =
    Hashtbl.iter (fun _ c -> Counter.reset c) t.counters;
    Hashtbl.iter (fun _ g -> Gauge.reset g) t.gauges;
    Hashtbl.iter (fun _ h -> Histogram.reset h) t.histograms
end

(* ----- Domain-local instrument handles ----- *)

(* A module-level [let obs_x = Registry.counter (Registry.global ()) "x"]
   would capture the *initialising* domain's instrument forever — a
   worker domain incrementing it would race domain 0.  [Local] handles
   defer resolution: each handle owns a DLS slot that memoises, per
   domain, whatever it resolves from that domain's default registry —
   one instrument, or a record of a module's instruments.  The hot path
   is one DLS load. *)

module Local = struct
  type 'a handle = unit -> 'a

  let make resolve : 'a handle =
    let key = Domain.DLS.new_key (fun () -> resolve (Registry.global ())) in
    fun () -> Domain.DLS.get key

  let counter name = make (fun r -> Registry.counter r name)
  let gauge name = make (fun r -> Registry.gauge r name)
  let histogram name = make (fun r -> Registry.histogram r name)

  (* A family of instruments whose names vary in one part (a gate, a
     cache, a configuration).  The per-domain memo is keyed by that
     part, so the full name is built and looked up once per domain and
     key; afterwards a lookup hashes the short key instead of
     concatenating and hashing the whole name.  The memo is never
     pruned: callers key it by members of a finite set. *)
  module Keys = Hashtbl.Make (String)

  let family registry resolve =
    let memo = Keys.create 16 in
    fun part ->
      match Keys.find_opt memo part with
      | Some v -> v
      | None ->
          let v = resolve registry part in
          Keys.add memo part v;
          v

  let keyed resolve =
    let family = make (fun r -> family r resolve) in
    fun part -> family () part
end

(* ----- Snapshots ----- *)

module Snapshot = struct
  type histogram_data = {
    count : int;
    sum : int;
    min_value : int;
    max_value : int;
    saturated : bool;
    buckets : (int * int) list;
  }

  type t = {
    registry : string;
    counters : (string * int) list;
    gauges : string list;
    histograms : (string * histogram_data) list;
  }

  let histogram_data h =
    {
      count = Histogram.count h;
      sum = Histogram.sum h;
      min_value = Histogram.min_value h;
      max_value = Histogram.max_value h;
      saturated = Histogram.saturated h;
      buckets = Histogram.buckets h;
    }

  let by_name (a, _) (b, _) = String.compare a b

  (* Gauges print beside the counters, so they are captured into the
     same sorted list; only gauges set since the last reset are taken. *)
  let capture ?registry () =
    let registry = match registry with Some r -> r | None -> Registry.global () in
    let gauges =
      Hashtbl.fold
        (fun name (g : Gauge.t) acc -> if g.Gauge.written then (name, g.Gauge.value) :: acc else acc)
        registry.Registry.gauges []
      |> List.sort by_name
    in
    {
      registry = Registry.name registry;
      counters = List.merge by_name (Registry.counters registry) gauges;
      gauges = List.map fst gauges;
      histograms = Registry.sorted_bindings registry.Registry.histograms histogram_data;
    }

  (* ----- Differencing ----- *)

  (* [after]'s entries, each less [before]'s entry under its key, or
     less [zero].  One walk down both lists, which are sorted by key as
     every snapshot's are, so a diff stays linear in the number of
     instruments: a registry that has run the whole test suite holds
     hundreds, and the mc oracles diff once per replay. *)
  let rec diff_alist ~zero ~sub before after =
    match (before, after) with
    | _, [] -> []
    | [], (ka, a) :: ta -> (ka, sub a zero) :: diff_alist ~zero ~sub [] ta
    | (kb, b) :: tb, (ka, a) :: ta ->
        let c = compare kb ka in
        if c < 0 then diff_alist ~zero ~sub tb after
        else if c = 0 then (ka, sub a b) :: diff_alist ~zero ~sub tb ta
        else (ka, sub a zero) :: diff_alist ~zero ~sub before ta

  (* A gauge is a reading, neither summed nor differenced: where [from]
     set one, its entry takes [from]'s value. *)
  let gauge_readings ~from counters =
    List.map
      (fun (name, v) ->
        if List.mem name from.gauges then (name, List.assoc name from.counters) else (name, v))
      counters

  let diff_buckets before after =
    List.filter
      (fun (_, n) -> n > 0)
      (diff_alist ~zero:0 ~sub:( - ) before after)

  let diff_histogram (b : histogram_data) (a : histogram_data) =
    if b.count = 0 then a
    else
      {
        count = a.count - b.count;
        sum = (if a.saturated then a.sum else a.sum - b.sum);
        (* min/max cannot be differenced; report the after-side values,
           which bound the phase's samples.  A saturated sum likewise
           cannot be differenced — the ceiling is reported as-is, still
           flagged. *)
        min_value = a.min_value;
        max_value = a.max_value;
        saturated = a.saturated;
        buckets = diff_buckets b.buckets a.buckets;
      }

  let diff ~before ~after =
    let empty_hist =
      { count = 0; sum = 0; min_value = 0; max_value = 0; saturated = false; buckets = [] }
    in
    {
      registry = after.registry;
      counters =
        gauge_readings ~from:after (diff_alist ~zero:0 ~sub:( - ) before.counters after.counters);
      gauges = after.gauges;
      histograms =
        diff_alist ~zero:empty_hist ~sub:(fun a b -> diff_histogram b a) before.histograms
          after.histograms;
    }

  let is_empty t =
    List.for_all (fun (_, v) -> v = 0) t.counters
    && List.for_all (fun (_, h) -> h.count = 0) t.histograms

  (* ----- Merging (the parallel-harness join path) ----- *)

  (* Union-add of two sorted assoc lists; keys present on one side only
     pass through unchanged. *)
  let rec merge_alist ~add a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (ka, va) :: ta, (kb, vb) :: tb ->
        let c = compare ka kb in
        if c = 0 then (ka, add va vb) :: merge_alist ~add ta tb
        else if c < 0 then (ka, va) :: merge_alist ~add ta b
        else (kb, vb) :: merge_alist ~add a tb

  (* Histogram sums saturate on merge exactly as they do on observe:
     if either side already hit the ceiling, or the addition would, the
     merged sum is pinned at [max_int] with [saturated] set.  In
     particular merging two saturated snapshots stays saturated — a
     naive [a.sum + b.sum] would wrap negative and drop the flag. *)
  let merge_histogram_data a b =
    if a.count = 0 then b
    else if b.count = 0 then a
    else begin
      let saturated = a.saturated || b.saturated || a.sum > max_int - b.sum in
      {
        count = a.count + b.count;
        sum = (if saturated then max_int else a.sum + b.sum);
        min_value = min a.min_value b.min_value;
        max_value = max a.max_value b.max_value;
        saturated;
        buckets = merge_alist ~add:( + ) a.buckets b.buckets;
      }
    end

  let merge a b =
    {
      registry = a.registry;
      counters = gauge_readings ~from:b (merge_alist ~add:( + ) a.counters b.counters);
      gauges = List.sort_uniq String.compare (a.gauges @ b.gauges);
      histograms = merge_alist ~add:merge_histogram_data a.histograms b.histograms;
    }

  (* Fold a snapshot into live instruments — how a parallel join folds
     each worker task's private recordings back into the caller's
     registry, in task order: counter totals add, and a gauge the task
     set takes the task's reading.  Bypasses the [enabled] gate: the
     work was already recorded once, under the worker's own gate. *)
  let absorb ?into t =
    let into = match into with Some r -> r | None -> Registry.global () in
    List.iter
      (fun (name, v) ->
        if List.mem name t.gauges then Gauge.write (Registry.gauge into name) v
        else if v <> 0 then begin
          let c = Registry.counter into name in
          c.Counter.value <- c.Counter.value + v
        end)
      t.counters;
    let absorb_hist (h : Histogram.t) (d : histogram_data) =
      if d.count > 0 then begin
        List.iter
          (fun (lo, n) ->
            let i = Histogram.bucket_index lo in
            h.Histogram.buckets.(i) <- h.Histogram.buckets.(i) + n)
          d.buckets;
        h.Histogram.count <- h.Histogram.count + d.count;
        if d.saturated || d.sum > max_int - h.Histogram.sum then begin
          h.Histogram.sum <- max_int;
          h.Histogram.saturated <- true
        end
        else h.Histogram.sum <- h.Histogram.sum + d.sum;
        if d.min_value < h.Histogram.min_value then h.Histogram.min_value <- d.min_value;
        if d.max_value > h.Histogram.max_value then h.Histogram.max_value <- d.max_value
      end
    in
    List.iter (fun (name, d) -> absorb_hist (Registry.histogram into name) d) t.histograms

  (* ----- Text rendering ----- *)

  let pad_left width s = if String.length s >= width then s else String.make (width - String.length s) ' ' ^ s

  let pad_right width s = if String.length s >= width then s else s ^ String.make (width - String.length s) ' '

  let render_rows buf ~header rows =
    if rows <> [] then begin
      let name_width =
        List.fold_left (fun w (n, _) -> max w (String.length n)) (String.length header) rows
      in
      let value_width = List.fold_left (fun w (_, v) -> max w (String.length v)) 0 rows in
      Buffer.add_string buf (header ^ "\n");
      List.iter
        (fun (n, v) ->
          Buffer.add_string buf
            ("  " ^ pad_right name_width n ^ "  " ^ pad_left value_width v ^ "\n"))
        rows
    end

  let describe_histogram h =
    if h.count = 0 then "(empty)"
    else
      Printf.sprintf "n=%d sum=%d%s mean=%.1f min=%d max=%d" h.count h.sum
        (if h.saturated then " (saturated)" else "")
        (float_of_int h.sum /. float_of_int h.count)
        h.min_value h.max_value

  let to_text t =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "registry: %s\n" t.registry);
    let live_counters = List.filter (fun (_, v) -> v <> 0) t.counters in
    render_rows buf ~header:"counters"
      (List.map (fun (n, v) -> (n, string_of_int v)) live_counters);
    let live_hists = List.filter (fun (_, h) -> h.count > 0) t.histograms in
    render_rows buf ~header:"histograms"
      (List.map (fun (n, h) -> (n, describe_histogram h)) live_hists);
    if is_empty t then Buffer.add_string buf "(no recorded activity)\n";
    Buffer.contents buf

  (* ----- JSON rendering (hand-rolled; the library has no deps) ----- *)

  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let json_object fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> "\"" ^ json_escape k ^ "\":" ^ v) fields) ^ "}"

  let json_histogram h =
    json_object
      [
        ("count", string_of_int h.count);
        ("sum", string_of_int h.sum);
        ("saturated", if h.saturated then "true" else "false");
        ("min", string_of_int h.min_value);
        ("max", string_of_int h.max_value);
        ( "buckets",
          "["
          ^ String.concat ","
              (List.map
                 (fun (lo, n) -> Printf.sprintf "{\"ge\":%d,\"count\":%d}" lo n)
                 h.buckets)
          ^ "]" );
      ]

  let to_json t =
    json_object
      [
        ("registry", "\"" ^ json_escape t.registry ^ "\"");
        ("counters", json_object (List.map (fun (n, v) -> (n, string_of_int v)) t.counters));
        ("histograms", json_object (List.map (fun (n, h) -> (n, json_histogram h)) t.histograms));
      ]
end
