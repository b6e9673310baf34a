(* Network input workload: bursty arrivals against a consumer, driving
   either buffering strategy.

   Arrivals come in geometric bursts (a terminal's line of characters,
   a network packet train); the consumer drains at a fixed service
   rate.  When offered load exceeds service capacity for long enough,
   the circular buffer laps itself and destroys messages; the infinite
   buffer simply grows. *)

open Multics_proc

type strategy = Circular of Circular_buffer.t | Infinite of Infinite_buffer.t

let strategy_name = function
  | Circular buffer -> Printf.sprintf "circular(%d)" (Circular_buffer.capacity buffer)
  | Infinite _ -> "infinite-vm"

let write_message strategy message =
  match strategy with
  | Circular buffer -> Circular_buffer.write buffer message
  | Infinite buffer -> Infinite_buffer.write buffer message

let read_message strategy =
  match strategy with
  | Circular buffer -> Circular_buffer.read buffer
  | Infinite buffer -> Infinite_buffer.read buffer

type result = {
  strategy : string;
  offered : int;
  delivered : int;  (** distinct messages the consumer actually received *)
  lost : int;  (** offered - delivered *)
  peak_occupancy : int;
  peak_pages : int;  (** infinite strategy only; 0 otherwise *)
  mechanism_statements : int;
}

type workload = {
  bursts : int;  (** number of arrival bursts *)
  burst_gap : int;  (** cycles between burst starts *)
  intra_burst_gap : int;  (** cycles between messages inside a burst *)
  burst_continue_num : int;  (** geometric burst-length parameter *)
  burst_continue_den : int;
  burst_cap : int;
  consume_cycles : int;  (** consumer service time per message *)
}

let default_workload =
  {
    bursts = 40;
    burst_gap = 12_000;
    intra_burst_gap = 40;
    burst_continue_num = 14;
    burst_continue_den = 16;
    burst_cap = 64;
    consume_cycles = 700;
  }

(* A transient arrival error defers the message; retries back off
   exponentially from this base and deliver unconditionally once the
   retry budget is spent — transients delay, they never lose. *)
let transient_backoff_cycles = 2_500

let transient_retry_cap = 3

(* Drive one strategy through the workload on its own simulator.
   Returns delivery statistics.

   [prng] (when given) overrides [seed] so the caller can hand this
   workload a stream split from a master generator — the fault engine
   and the traffic generator then compose under one seed instead of
   colliding.  [faults] injects [Net_transient] arrival errors and
   [Consumer_stall]s from a deterministic plan. *)
let run ?(seed = 1975) ?prng ?faults ?(workload = default_workload) strategy =
  let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:2 in
  let prng =
    match prng with Some prng -> prng | None -> Multics_util.Prng.create ~seed
  in
  let data_ready = Sim.new_channel sim ~name:"net.data" in
  let offered = ref 0 in
  let received = ref [] in
  let peak = ref 0 in
  let fire site =
    match faults with
    | None -> false
    | Some inj -> Multics_fault.Fault.Injector.fire inj site
  in
  let deliver message =
    write_message strategy message;
    (let occupancy =
       match strategy with
       | Circular buffer -> Circular_buffer.occupancy buffer
       | Infinite buffer -> Infinite_buffer.occupancy buffer
     in
     if occupancy > !peak then peak := occupancy);
    Sim.wakeup sim data_ready
  in
  (* Arrival side: interrupt-level writes into the buffer; a transient
     error re-schedules the write with exponential backoff. *)
  let rec arrive ~attempt message =
    if attempt < transient_retry_cap && fire Multics_fault.Fault.Net_transient then begin
      (match faults with
      | Some inj -> Multics_fault.Fault.Injector.count_retry inj Multics_fault.Fault.Net_transient
      | None -> ());
      Sim.at sim
        ~delay:(transient_backoff_cycles * (1 lsl attempt))
        (fun () -> arrive ~attempt:(attempt + 1) message)
    end
    else deliver message
  in
  let time = ref 0 in
  for _ = 1 to workload.bursts do
    let burst_len =
      Multics_util.Prng.burst_length prng ~continue_num:workload.burst_continue_num
        ~continue_den:workload.burst_continue_den ~cap:workload.burst_cap
    in
    for i = 0 to burst_len - 1 do
      let arrival_time = !time + (i * workload.intra_burst_gap) in
      Sim.at sim ~delay:arrival_time (fun () ->
          let message = !offered in
          incr offered;
          arrive ~attempt:0 message)
    done;
    time := !time + workload.burst_gap
  done;
  (* Consumer process: block for data, drain one message per service
     period; an injected stall parks it for several service periods
     mid-drain (input keeps arriving — the circular ring laps). *)
  ignore
    (Sim.spawn sim ~name:"net.consumer" (fun _ ->
         let rec serve () =
           Sim.block data_ready;
           let rec drain () =
             match read_message strategy with
             | None -> ()
             | Some message ->
                 if fire Multics_fault.Fault.Consumer_stall then
                   Sim.compute (8 * workload.consume_cycles);
                 Sim.compute workload.consume_cycles;
                 received := message :: !received;
                 drain ()
           in
           drain ();
           serve ()
         in
         serve ()));
  Sim.run sim;
  let delivered = List.length (List.sort_uniq Int.compare !received) in
  {
    strategy = strategy_name strategy;
    offered = !offered;
    delivered;
    lost = !offered - delivered;
    peak_occupancy = !peak;
    peak_pages =
      (match strategy with
      | Infinite buffer -> Infinite_buffer.peak_resident_pages buffer
      | Circular _ -> 0);
    mechanism_statements =
      (match strategy with
      | Circular _ -> Circular_buffer.mechanism_statements
      | Infinite _ -> Infinite_buffer.mechanism_statements);
  }

(* ----- Inter-site links ----- *)

(* A point-to-point attachment between two kernel sites.  The link
   itself is dumb wire: it carries one transmission at a fixed one-way
   latency and reports what happened to it.  All policy — retry,
   backoff, fencing — belongs to the caller (lib/site), which is what
   keeps the fail-secure argument out of the transport. *)
module Link = struct
  module Obs = Multics_obs.Obs
  module Fault = Multics_fault.Fault

  let obs_sent = Obs.Local.counter "net.link.sent"
  let obs_dropped = Obs.Local.counter "net.link.dropped"
  let obs_delayed = Obs.Local.counter "net.link.delayed"
  let obs_severed = Obs.Local.counter "net.link.severed"
  type outcome =
    | Delivered of { cycles : int }
    | Dropped of { cycles : int }
    | Severed of { cycles : int }

  (* A congested link stretches the one-way latency by this factor. *)
  let delay_factor = 4

  let latency = 1_000

  type t = {
    name : string;
    mutable faults : Fault.Injector.t option;
    mutable partitioned : bool;
    mutable sent : int;
    mutable dropped : int;
    mutable delayed : int;
    mutable severed : int;
  }

  let create ~name =
    {
      name;
      faults = None;
      partitioned = false;
      sent = 0;
      dropped = 0;
      delayed = 0;
      severed = 0;
    }

  let name t = t.name
  let set_faults t faults = t.faults <- faults
  let partition t = t.partitioned <- true
  let heal t = t.partitioned <- false
  let partitioned t = t.partitioned

  let fire t site =
    match t.faults with None -> false | Some inj -> Fault.Injector.fire inj site

  (* One transmission attempt.  The cycle charge is what the sender
     pays before it can know the outcome: a delivered connect costs a
     round trip (connect out, acknowledgement back); a lost one costs
     the outbound latency plus however long the sender waits for the
     acknowledgement that never comes (the caller's timeout, charged
     by the caller as backoff). *)
  let transmit t =
    t.sent <- t.sent + 1;
    Obs.Counter.incr (obs_sent ());
    if t.partitioned || fire t Fault.Site_partition then begin
      t.severed <- t.severed + 1;
      Obs.Counter.incr (obs_severed ());
      Severed { cycles = latency }
    end
    else if fire t Fault.Site_drop then begin
      t.dropped <- t.dropped + 1;
      Obs.Counter.incr (obs_dropped ());
      Dropped { cycles = latency }
    end
    else if fire t Fault.Site_delay then begin
      t.delayed <- t.delayed + 1;
      Obs.Counter.incr (obs_delayed ());
      Delivered { cycles = 2 * latency * delay_factor }
    end
    else Delivered { cycles = 2 * latency }

  let counters t =
    [
      ("sent", t.sent);
      ("dropped", t.dropped);
      ("delayed", t.delayed);
      ("severed", t.severed);
    ]
end
