type t =
  | Null | Bool of bool | Int of int | Float of float | String of string
  | List of t list | Obj of (string * t) list

let escape b s =
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

(* 15 significant digits, or up to 17 where [x] needs them to read back
   exactly; JSON has no infinities or NaN. *)
let float_text x =
  let rec digits p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || float_of_string s = x then s else digits (p + 1)
  in
  if Float.is_finite x then digits 15 else "null"

let rec write b indent = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float x -> Buffer.add_string b (float_text x)
  | String s -> Buffer.add_char b '"'; escape b s; Buffer.add_char b '"'
  | List vs -> block b indent '[' ']' (List.map (fun v -> (None, v)) vs)
  | Obj kvs -> block b indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) kvs)

(* A block holding only scalars prints on one line; any other puts each
   element on a line of its own, indented two spaces past the block. *)
and block b indent op cl items =
  let flat = List.for_all (function _, (List _ | Obj _) -> false | _ -> true) items in
  let newline i = Buffer.add_char b '\n'; Buffer.add_string b (String.make i ' ') in
  Buffer.add_char b op;
  List.iteri
    (fun n (key, v) ->
      if n > 0 then Buffer.add_string b (if flat then ", " else ",");
      if not flat then newline (indent + 2);
      Option.iter (fun k -> write b 0 (String k); Buffer.add_string b ": ") key;
      write b (indent + 2) v)
    items;
  if not flat then newline indent;
  Buffer.add_char b cl

let to_string v =
  let b = Buffer.create 1024 in
  write b 0 v;
  Buffer.contents b
