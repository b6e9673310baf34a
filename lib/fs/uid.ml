(* System-generated unique identifiers for file-system objects.

   The paper's partitioning sketch has the bottom kernel layer
   implement "a file system in which all segments were named by system
   generated unique identifiers", with the naming hierarchy layered on
   top; these are those identifiers. *)

type t = int

type generator = { mutable next : int }

let generator () = { next = 2 }

let root : t = 1

let copy_generator g = { next = g.next }

let fresh g =
  let uid = g.next in
  g.next <- uid + 1;
  uid

let to_int t = t

let equal = Int.equal
let compare = Int.compare

let pp ppf t = Fmt.pf ppf "uid:%d" t
