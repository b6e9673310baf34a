(* Simulated machine clock, counted in processor cycles.

   One clock per simulated system; every component that consumes time
   advances it explicitly, which keeps runs deterministic. *)

type t = { mutable now : int }

let create () = { now = 0 }

let copy t = { now = t.now }
let now t = t.now

let advance t cycles =
  if cycles < 0 then invalid_arg "Clock.advance: negative duration";
  t.now <- t.now + cycles

let advance_to t time = if time > t.now then t.now <- time

let elapsed t ~since = t.now - since

let pp ppf t = Fmt.pf ppf "t=%d" t.now
