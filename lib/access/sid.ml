(* Dense security identifiers (SIDs).

   The mediation hot path wants to index preallocated arrays, not hash
   structured keys: a subject identity (principal, clearance, ring,
   trusted) or a page id is interned ONCE to a small dense int, and
   every later decision is an array load indexed by that int.  This is
   the SELinux sid_map arrangement applied to the paper's kernel: the
   structured attributes stay the source of truth, the SID is only a
   compressed name for them, minted in arrival order and never reused.

   Two SID spaces need no interning at all, because the kernel already
   names them with small dense ints: file-system object uids (the Uid
   generator is the object-SID allocator) and segment numbers (the
   hardware's own per-process dense space).  [of_int] admits those
   spaces; [Map] interns everything else. *)

type t = int

let of_int i = if i < 0 then invalid_arg "Sid.of_int: negative sid" else i
let to_int t = t
let equal = Int.equal
let compare = Int.compare
let pp ppf t = Fmt.pf ppf "sid:%d" t

(* A registry from structured values to dense SIDs.  Interning is the
   cold path (a hashed lookup); everything downstream of the returned
   SID is int-indexed.  SIDs are minted 0, 1, 2, ... in first-arrival
   order and are stable for the registry's lifetime — there is no
   delete, because a SID that could be reused would let a stale table
   row describe a different principal. *)
module Map = struct
  type 'a t = {
    hash : 'a -> int;
    equal : 'a -> 'a -> bool;
    (* Buckets keyed by the caller's hash; collisions split by the
       caller's equality, so a lossy hash costs probes, never identity
       confusion. *)
    index : (int, ('a * int) list) Hashtbl.t;
    mutable values : 'a option array;  (** sid -> canonical value *)
    mutable count : int;
  }

  let create ?(initial = 64) ?(hash = Hashtbl.hash) ?(equal = ( = )) () =
    {
      hash;
      equal;
      index = Hashtbl.create (max 16 initial);
      values = Array.make (max 16 initial) None;
      count = 0;
    }

  let count t = t.count

  (* The buckets are immutable lists, so copying the index and the
     value array gives a registry that mints independently. *)
  let copy t =
    {
      hash = t.hash;
      equal = t.equal;
      index = Hashtbl.copy t.index;
      values = Array.copy t.values;
      count = t.count;
    }

  let ensure t needed =
    if needed > Array.length t.values then begin
      let grown = Array.make (max needed (2 * Array.length t.values)) None in
      Array.blit t.values 0 grown 0 t.count;
      t.values <- grown
    end

  let find t v =
    let bucket = Option.value (Hashtbl.find_opt t.index (t.hash v)) ~default:[] in
    Option.map snd (List.find_opt (fun (k, _) -> t.equal k v) bucket)

  let intern t v =
    let h = t.hash v in
    let bucket = Option.value (Hashtbl.find_opt t.index h) ~default:[] in
    match List.find_opt (fun (k, _) -> t.equal k v) bucket with
    | Some (_, sid) -> sid
    | None ->
        let sid = t.count in
        ensure t (sid + 1);
        t.values.(sid) <- Some v;
        t.count <- sid + 1;
        Hashtbl.replace t.index h ((v, sid) :: bucket);
        sid

  let value t sid =
    if sid < 0 || sid >= t.count then invalid_arg "Sid.Map.value: unknown sid"
    else
      match t.values.(sid) with
      | Some v -> v
      | None -> invalid_arg "Sid.Map.value: unknown sid"

  let iter f t =
    for sid = 0 to t.count - 1 do
      match t.values.(sid) with Some v -> f sid v | None -> ()
    done
end
