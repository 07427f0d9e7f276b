(** Keyed workload sources: which key the next operation touches.

    Real key popularity is heavy-tailed; the standard model is Zipf(θ),
    where key [i]'s weight is [(i+1)^-θ].  θ ≈ 0.99 matches classic web
    traces, θ > 1 concentrates most traffic on a handful of keys — the
    regime where a sharded service develops hot spots and placement starts
    to matter. *)

type skew = Uniform | Zipf of float  (** theta > 0 *)

val skew_label : skew -> string
(** ["uniform"] or ["zipf:<theta>"]. *)

val skew_of_string : string -> skew option
(** Accepts ["uniform"], ["zipf:THETA"], or a bare theta (0 = uniform). *)

val theta : skew -> float
(** 0 for [Uniform]. *)

val cdf : skew -> keys:int -> float array option
(** The cumulative Zipf(θ) distribution over [0, keys) to pass to
    {!draw}, its last entry pinned to 1.0; [None] for the uniform
    source. *)

val draw : ?cdf:float array -> keys:int -> Sim.Rng.t -> int
(** One key draw: uniform when [cdf] is absent (one RNG int), Zipf
    otherwise (one RNG float, binary search over the CDF). *)
