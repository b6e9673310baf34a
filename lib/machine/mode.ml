(* Access modes on a segment: read, execute, write.

   These are the per-segment permission bits carried in a segment
   descriptor word and in ACL entries.  Represented as a record of
   booleans rather than an int bitmask so pattern matching stays
   explicit. *)

type t = { read : bool; execute : bool; write : bool }

let none = { read = false; execute = false; write = false }
let r = { none with read = true }
let e = { none with execute = true }
let w = { none with write = true }
let rw = { r with write = true }
let re = { r with execute = true }
let rew = { rw with execute = true }

let make ?(read = false) ?(execute = false) ?(write = false) () = { read; execute; write }

let union a b =
  { read = a.read || b.read; execute = a.execute || b.execute; write = a.write || b.write }

let inter a b =
  { read = a.read && b.read; execute = a.execute && b.execute; write = a.write && b.write }

let subset a b =
  (not a.read || b.read) && (not a.execute || b.execute) && (not a.write || b.write)

let equal a b = a.read = b.read && a.execute = b.execute && a.write = b.write

let is_none t = equal t none

let of_string s =
  let read = ref false and execute = ref false and write = ref false in
  String.iter
    (function
      | 'r' -> read := true
      | 'e' -> execute := true
      | 'w' -> write := true
      | _ -> invalid_arg ("Mode.of_string: " ^ s))
    s;
  { read = !read; execute = !execute; write = !write }

(* Indexed by the read/execute/write bits: a mode renders into every
   SDW of every canonical model-checker state and every probe target,
   so the eight renderings are built once. *)
let names = [| "null"; "w"; "e"; "ew"; "r"; "rw"; "re"; "rew" |]

let to_string t =
  names.((if t.read then 4 else 0) lor (if t.execute then 2 else 0) lor if t.write then 1 else 0)

let pp ppf t = Fmt.string ppf (to_string t)
