(** Deterministic input generators and common helpers for the six Orca
    applications. *)

val dist_matrix : seed:int -> n:int -> lo:int -> hi:int -> int array array
(** Symmetric distance matrix with entries in [lo, hi), zero diagonal. *)

val binary_grid : seed:int -> h:int -> w:int -> density_pct:int -> bool array array
(** Random binary image: [density_pct]% of pixels set. *)

val diag_dominant : seed:int -> n:int -> float array array * float array
(** Diagonally dominant system (A, b) so Jacobi iteration converges. *)

val block_range : n:int -> parts:int -> rank:int -> int * int
(** [block_range ~n ~parts ~rank] is the half-open row range [lo, hi) of
    block [rank] when [n] items split into [parts] contiguous blocks. *)

type Sim.Payload.t +=
  | Int_v of int
  | Int2 of int * int
  | Row of int * int array  (** row index, contents *)
  | Frow of int * float array
  | Cells of int array
  | Fcells of float array
  | Tagged of int * Sim.Payload.t  (** iteration tag around a payload *)
  | Slices of (int * float array) list  (** (rank, slice) pairs *)
