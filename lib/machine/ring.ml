(* Protection rings.

   Multics numbers its rings 0 (most privileged) through 7 (least
   privileged).  The security kernel of the paper lives in ring 0, with
   the proposed kernel partitions (e.g. the page-removal policy) in
   ring 1, user programs conventionally in ring 4, and borrowed or
   untrusted code pushed outward. *)

type t = int

let count = 8

let of_int n =
  if n < 0 || n >= count then invalid_arg (Printf.sprintf "Ring.of_int: %d not in [0,7]" n);
  n

let to_int r = r

let r0 = 0
let r1 = 1
let kernel = r0
let user = 4
let outermost = count - 1

let compare = Int.compare

let equal = Int.equal

(* Privilege decreases as ring number increases. *)
let more_privileged a b = a < b

let at_least_privileged a b = a <= b

let pp ppf r = Fmt.pf ppf "ring %d" r

let all = List.init count (fun i -> i)
