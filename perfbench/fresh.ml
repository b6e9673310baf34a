(* Every episode runs in a process of its own, forked from the
   benchmark: a kernel booted in a process leaves state behind that
   outlives it (each Hierarchy.create subscribes a closure to the
   domain-wide ACL-change list, and nothing unsubscribes it), so an
   episode run after others would pay for theirs.  The child marshals
   its result back through a pipe; the parent waits for it to end. *)

let run (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let outcome : ('a, string) result =
        match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
      in
      Marshal.to_channel oc outcome [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let outcome : ('a, string) result option =
        match Marshal.from_channel ic with v -> Some v | exception End_of_file -> None
      in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      match (outcome, status) with
      | Some (Ok v), Unix.WEXITED 0 -> v
      | Some (Error msg), _ -> failwith ("episode failed: " ^ msg)
      | _ -> failwith "episode process died without a result")

(* Episodes, each in a fresh process, until [seconds] have passed and at
   least three have run (a median needs three). *)
let repeat ~seconds f =
  let t0 = Meter.now_ns () in
  let rec loop acc =
    if List.length acc >= 3 && Meter.seconds_since t0 >= seconds then acc
    else loop (run f :: acc)
  in
  loop []
