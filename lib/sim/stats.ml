(* Deterministic fixed-log-bucket histogram: values map to one of 16
   sub-buckets per power of two, so identical inputs always produce
   identical bucket counts (and hence identical percentile estimates)
   regardless of insertion order. *)
module Histogram = struct
  let sub = 16 (* sub-buckets per octave *)
  let min_exp = -30 (* values below 2^-30 collapse into bucket 0 *)
  let max_exp = 40 (* values >= 2^40 collapse into the last bucket *)
  let n_buckets = ((max_exp - min_exp) * sub) + 2

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make n_buckets 0; n = 0 }

  let index v =
    if not (Float.is_finite v) || v <= 0. then 0
    else
      let m, e = Float.frexp v in
      (* v = m * 2^e with m in [0.5, 1) *)
      if e <= min_exp then 0
      else if e > max_exp then n_buckets - 1
      else
        let s = int_of_float ((m -. 0.5) *. float_of_int (2 * sub)) in
        let s = if s < 0 then 0 else if s >= sub then sub - 1 else s in
        1 + ((e - 1 - min_exp) * sub) + s

  (* Midpoint of the bucket's value range: the representative returned by
     percentile queries (relative error bounded by the bucket width,
     ~3%). *)
  let value_of i =
    if i <= 0 then 0.
    else if i >= n_buckets - 1 then Float.ldexp 1. max_exp
    else
      let e = ((i - 1) / sub) + min_exp + 1 in
      let s = (i - 1) mod sub in
      let lo = Float.ldexp (0.5 +. (float_of_int s /. float_of_int (2 * sub))) e in
      let hi =
        Float.ldexp (0.5 +. (float_of_int (s + 1) /. float_of_int (2 * sub))) e
      in
      (lo +. hi) /. 2.

  let add t v =
    let i = index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1

  let count t = t.n

  let percentile t p =
    if not (Float.is_finite p) || p < 0. || p > 100. then
      invalid_arg (Printf.sprintf "Stats.Histogram.percentile: p = %g not in [0, 100]" p);
    if t.n = 0 then 0.
    else begin
      let rank =
        let r = int_of_float (Float.round (p /. 100. *. float_of_int t.n)) in
        if r < 1 then 1 else if r > t.n then t.n else r
      in
      let i = ref 0 and seen = ref 0 in
      while !seen < rank && !i < n_buckets do
        seen := !seen + t.counts.(!i);
        incr i
      done;
      value_of (!i - 1)
    end
end

type serie = {
  mutable n : int;
  mutable total : float;
  mutable lo : float;
  mutable hi : float;
  hist : Histogram.t;
}

type t = {
  ints : (string, int ref) Hashtbl.t;
  floats : (string, serie) Hashtbl.t;
}

let create () = { ints = Hashtbl.create 32; floats = Hashtbl.create 32 }

let int_ref t name =
  match Hashtbl.find_opt t.ints name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.ints name r;
    r

let serie t name =
  match Hashtbl.find_opt t.floats name with
  | Some s -> s
  | None ->
    let s =
      { n = 0; total = 0.; lo = infinity; hi = neg_infinity;
        hist = Histogram.create () }
    in
    Hashtbl.add t.floats name s;
    s

let incr t name = Stdlib.incr (int_ref t name)
let add t name v =
  let r = int_ref t name in
  r := !r + v

let counter t name = match Hashtbl.find_opt t.ints name with Some r -> !r | None -> 0

let record t name v =
  let s = serie t name in
  s.n <- s.n + 1;
  s.total <- s.total +. v;
  if v < s.lo then s.lo <- v;
  if v > s.hi then s.hi <- v;
  Histogram.add s.hist v

let count t name = match Hashtbl.find_opt t.floats name with Some s -> s.n | None -> 0
let sum t name = match Hashtbl.find_opt t.floats name with Some s -> s.total | None -> 0.

let mean t name =
  match Hashtbl.find_opt t.floats name with
  | Some s when s.n > 0 -> s.total /. float_of_int s.n
  | Some _ | None -> 0.

let min_value t name =
  match Hashtbl.find_opt t.floats name with Some s -> s.lo | None -> infinity

let max_value t name =
  match Hashtbl.find_opt t.floats name with Some s -> s.hi | None -> neg_infinity

let percentile t name p =
  if not (Float.is_finite p) || p < 0. || p > 100. then
    invalid_arg (Printf.sprintf "Stats.percentile: p = %g not in [0, 100]" p);
  match Hashtbl.find_opt t.floats name with
  | None -> 0.
  | Some s when s.n = 0 -> 0.
  | Some s ->
    (* The bucket midpoint can fall slightly outside the observed range;
       clamp so p0/p100 agree with the exact extremes. *)
    Float.max s.lo (Float.min s.hi (Histogram.percentile s.hist p))

let p50 t name = percentile t name 50.
let p90 t name = percentile t name 90.
let p95 t name = percentile t name 95.
let p99 t name = percentile t name 99.
let p999 t name = percentile t name 99.9

let histogram t name =
  match Hashtbl.find_opt t.floats name with Some s -> Some s.hist | None -> None

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.ints []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let series t =
  Hashtbl.fold
    (fun k s acc ->
      let m = if s.n = 0 then 0. else s.total /. float_of_int s.n in
      (k, (s.n, m, s.lo, s.hi)) :: acc)
    t.floats []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp fmt t =
  List.iter (fun (k, v) -> Format.fprintf fmt "%s = %d@." k v) (counters t);
  List.iter
    (fun (k, (n, m, lo, hi)) ->
      Format.fprintf fmt "%s: n=%d mean=%.3f min=%.3f max=%.3f@." k n m lo hi)
    (series t)
