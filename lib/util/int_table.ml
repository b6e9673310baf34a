include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash n = n land max_int
end)
