type t = Point of int | Group of int

let point n = Point n
let group n = Group n

(* Fresh addresses draw from the engine's per-simulation id source: every
   simulation allocates the same address values in the same order, no
   matter what ran before it or concurrently with it on other domains. *)
let fresh_point eng = Point (Sim.Engine.fresh_id eng)
let fresh_group eng = Group (Sim.Engine.fresh_id eng)

let is_group = function Group _ -> true | Point _ -> false

let equal a b =
  match (a, b) with
  | Point x, Point y | Group x, Group y -> Int.equal x y
  | Point _, Group _ | Group _, Point _ -> false

let compare = Stdlib.compare
let hash = Hashtbl.hash

(* An injective int encoding: the number shifted left, the tag in bit 0. *)
let key = function Point n -> n lsl 1 | Group n -> (n lsl 1) lor 1

(* A pair key packs the id into the low [id_bits] and the address key
   above it, so both must be non-negative and fit their fields. *)
let id_bits = 32
let addr_bits = Sys.int_size - 1 - id_bits

let pair_key addr id =
  let k = key addr in
  if id < 0 || id lsr id_bits <> 0 || k < 0 || k lsr addr_bits <> 0 then
    invalid_arg (Printf.sprintf "Flip.Address.pair_key: (%d, %d) does not fit" k id);
  (k lsl id_bits) lor id

(* Hashtbl indexes by the low bits: multiply, then fold the high half down
   so a pair key's address part reaches them too. *)
let mix k =
  let h = k * 0x9E37_79B1 in
  (h lxor (h lsr 32)) land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash a = mix (key a)
end)

module Id_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = mix
end)

let pp fmt = function
  | Point n -> Format.fprintf fmt "pt:%d" n
  | Group n -> Format.fprintf fmt "grp:%d" n
