(* Row [sender + 1] holds a sender's values by local id; [absent] marks a
   local id nothing was stored for.  Rows grow by doubling. *)
type t = { mutable rows : int array array }

let absent = min_int

let create () = { rows = [||] }

let find_opt t ~sender ~local =
  let r = sender + 1 in
  if r < 0 || r >= Array.length t.rows || local < 0 then None
  else
    let row = t.rows.(r) in
    if local >= Array.length row then None
    else
      let v = row.(local) in
      if v = absent then None else Some v

let grown a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let replace t ~sender ~local v =
  if sender < -1 || local < 0 || v = absent then
    invalid_arg
      (Printf.sprintf "Flip.Ordered_ids.replace: (%d, %d) -> %d" sender local v);
  let r = sender + 1 in
  if r >= Array.length t.rows then
    t.rows <- grown t.rows (max (r + 1) (2 * Array.length t.rows)) [||];
  let row = t.rows.(r) in
  let row =
    if local < Array.length row then row
    else begin
      let row = grown row (max (local + 1) (max 8 (2 * Array.length row))) absent in
      t.rows.(r) <- row;
      row
    end
  in
  row.(local) <- v

(* The sender shifted past -1 above the local id's 32 bits, as
   [Address.pair_key] packs an address and an id. *)
let key ~sender ~local =
  let s = sender + 1 in
  if s < 0 || s lsr 29 <> 0 || local < 0 || local lsr 32 <> 0 then
    invalid_arg (Printf.sprintf "Flip.Ordered_ids.key: (%d, %d) does not fit" sender local);
  (s lsl 32) lor local
