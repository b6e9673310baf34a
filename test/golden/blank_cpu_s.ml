(* Blank E21's cpu-s column, the host wall time of each depth and the
   one part of the experiment output that varies from run to run, so
   the rest can be diffed byte for byte.  A filter: stdin to stdout.
   The column is the last field of every line after a header ending in
   "cpu-s", up to the next blank line; each digit becomes '-', so the
   table keeps its shape. *)

let blank_last_field line =
  match String.rindex_opt line ' ' with
  | None -> line
  | Some i -> String.sub line 0 (i + 1) ^ String.make (String.length line - i - 1) '-'

let () =
  let rec copy ~in_table =
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        let in_table = in_table && line <> "" in
        print_endline (if in_table then blank_last_field line else line);
        copy ~in_table:(in_table || String.ends_with ~suffix:"cpu-s" line)
  in
  copy ~in_table:false
