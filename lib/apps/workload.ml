type Sim.Payload.t +=
  | Int_v of int
  | Int2 of int * int
  | Row of int * int array
  | Frow of int * float array
  | Cells of int array
  | Fcells of float array
  | Tagged of int * Sim.Payload.t
  | Slices of (int * float array) list

let dist_matrix ~seed ~n ~lo ~hi =
  let rng = Sim.Rng.create ~seed in
  let m = Array.make_matrix n n 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = lo + Sim.Rng.int rng (hi - lo) in
      m.(i).(j) <- d;
      m.(j).(i) <- d
    done
  done;
  m

let binary_grid ~seed ~h ~w ~density_pct =
  let rng = Sim.Rng.create ~seed in
  Array.init h (fun _ -> Array.init w (fun _ -> Sim.Rng.int rng 100 < density_pct))

let diag_dominant ~seed ~n =
  let rng = Sim.Rng.create ~seed in
  let a =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then 0. else Sim.Rng.float rng 1.0))
  in
  (* Make each diagonal dominate its row so Jacobi converges at a useful
     rate (spectral radius around 0.9). *)
  Array.iteri
    (fun i row ->
      let sum = Array.fold_left ( +. ) 0. row in
      row.(i) <- (1.006 *. sum) +. 1.0 +. Sim.Rng.float rng 1.0)
    a;
  let b = Array.init n (fun _ -> Sim.Rng.float rng 10.0) in
  (a, b)

let block_range ~n ~parts ~rank =
  let base = n / parts and rem = n mod parts in
  let lo = (rank * base) + min rank rem in
  let hi = lo + base + (if rank < rem then 1 else 0) in
  (lo, hi)
