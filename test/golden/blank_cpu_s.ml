(* Blank the parts of the experiment output that vary from run to run
   or with the pool size, so the rest can be diffed byte for byte.  A
   filter: stdin to stdout; each blanked digit becomes '-', so lines
   keep their shape.

   - E21's cpu-s column, the host CPU time of each depth: the last field
     of every line after a header ending in "cpu-s", up to the next
     blank line.
   - A pool size printed as "(jobs=N)", as E22's parity verdict ends. *)

let blank_last_field line =
  match String.rindex_opt line ' ' with
  | None -> line
  | Some i -> String.sub line 0 (i + 1) ^ String.make (String.length line - i - 1) '-'

(* The digits after the first "(jobs=" in the line. *)
let blank_jobs line =
  let tag = "(jobs=" in
  let n = String.length line and m = String.length tag in
  let rec find i =
    if i + m > n then None else if String.sub line i m = tag then Some (i + m) else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some start ->
      let b = Bytes.of_string line in
      let rec blank i =
        if i < n && line.[i] >= '0' && line.[i] <= '9' then begin
          Bytes.set b i '-';
          blank (i + 1)
        end
      in
      blank start;
      Bytes.to_string b

let () =
  let rec copy ~in_table =
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        let in_table = in_table && line <> "" in
        print_endline (if in_table then blank_last_field line else blank_jobs line);
        copy ~in_table:(in_table || String.ends_with ~suffix:"cpu-s" line)
  in
  copy ~in_table:false
