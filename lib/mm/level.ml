(* The three levels of the Multics memory hierarchy.

   Pages live in exactly one of: primary memory (core), the bulk store
   (a fast drum/paging device), or disk.  The paper's page-control
   redesign (one process keeping core blocks free, another keeping
   bulk-store blocks free) is expressed entirely in terms of movements
   between these levels. *)

type t = Core | Bulk | Disk

let name = function Core -> "core" | Bulk -> "bulk" | Disk -> "disk"

let all = [ Core; Bulk; Disk ]

let depth = function Core -> 0 | Bulk -> 1 | Disk -> 2

let compare a b = Int.compare (depth a) (depth b)

let equal a b = compare a b = 0

let pp ppf t = Fmt.string ppf (name t)
