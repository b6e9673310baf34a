(* Digits are produced from the least significant end on the negative
   magnitude, which represents every int (the positive one cannot hold
   [-min_int]). *)

let digits n =
  let rec count acc m = if m > -10 then acc else count (acc + 1) (m / 10) in
  count 1 (if n > 0 then -n else n)

let width n = if n < 0 then digits n + 1 else digits n

(* Write [n] right-aligned so that its last digit lands at [last]. *)
let blit bytes ~last n =
  let m = ref (if n > 0 then -n else n) and i = ref last in
  while !m <= -10 do
    Bytes.unsafe_set bytes !i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10;
    decr i
  done;
  Bytes.unsafe_set bytes !i (Char.unsafe_chr (48 - !m));
  if n < 0 then Bytes.unsafe_set bytes (!i - 1) '-'

let to_string n =
  let w = width n in
  let bytes = Bytes.create w in
  blit bytes ~last:(w - 1) n;
  Bytes.unsafe_to_string bytes

let add b n =
  if n >= 0 && n < 10 then Buffer.add_char b (Char.unsafe_chr (48 + n))
  else Buffer.add_string b (to_string n)

let pair a sep b =
  let wa = width a in
  let w = wa + 1 + width b in
  let bytes = Bytes.create w in
  blit bytes ~last:(wa - 1) a;
  Bytes.unsafe_set bytes wa sep;
  blit bytes ~last:(w - 1) b;
  Bytes.unsafe_to_string bytes
