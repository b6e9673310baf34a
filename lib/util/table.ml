(* Plain-text table rendering for experiment reports.

   The experiment harness prints the same rows that EXPERIMENTS.md
   records, so the renderer favours alignment and stable layout over
   decoration. *)

type align = Left | Right

type t = {
  title : string;
  columns : (string * align) list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: cell count does not match column count";
  t.rows <- cells :: t.rows

let utf8_length s =
  (* Column widths must count characters, not bytes, or multibyte
     glyphs (e.g. the multiplication sign) misalign every rule. *)
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let pad align width s =
  let len = utf8_length s in
  if len >= width then s
  else begin
    let fill = String.make (width - len) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let render t =
  let rows = List.rev t.rows in
  let headers = List.map fst t.columns in
  let widths =
    List.mapi
      (fun i header ->
        let cell_width row = utf8_length (List.nth row i) in
        List.fold_left (fun acc row -> max acc (cell_width row)) (utf8_length header) rows)
      headers
  in
  let buf = Buffer.create 256 in
  let rule () =
    List.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) '-')) widths;
    Buffer.add_string buf "+\n"
  in
  let emit_row cells =
    List.iteri
      (fun i cell ->
        let _, align = List.nth t.columns i in
        Buffer.add_string buf ("| " ^ pad align (List.nth widths i) cell ^ " "))
      cells;
    Buffer.add_string buf "|\n"
  in
  Buffer.add_string buf (t.title ^ "\n");
  rule ();
  emit_row headers;
  rule ();
  List.iter emit_row rows;
  rule ();
  Buffer.contents buf

let print t = print_string (render t)

let fmt_float ?(decimals = 1) x =
  if Float.is_nan x then "-" else Printf.sprintf "%.*f" decimals x

let fmt_pct x = if Float.is_nan x then "-" else Printf.sprintf "%.1f%%" (100.0 *. x)

let fmt_ratio x = if Float.is_nan x then "-" else Printf.sprintf "%.2fx" x
