(** Global recorder for spans, cost attribution and metrics.

    Recording is strictly zero-cost in simulated time: probes observe the
    simulation, they never schedule events or charge CPU cycles.  With no
    recorder installed every probe is a no-op, so runs are bit-identical to
    an uninstrumented simulator. *)

type span = {
  sp_track : string;  (** fiber ["name#id"] or CPU ["cpu:mach"] track *)
  sp_layer : Layer.t;
  sp_name : string;
  sp_begin : int;  (** simulated time, ns *)
  mutable sp_end : int;  (** simulated time, ns; [-1] while still open *)
  sp_depth : int;  (** nesting depth within its track at begin time *)
}

type t

val create : ?spans:bool -> unit -> t
(** A recorder always keeps the cost ledger, the counters and the
    {!observe} series.  With [~spans:true] it also keeps every span, its
    track and its [span.<layer>.<name>] duration series — what the trace
    and CSV exporters need, at a host cost per op.  Without it (the
    default) the span probes are no-ops and {!spans} stays empty. *)

val install : t -> unit
(** Make [t] the sink for all probes on the calling domain until
    {!uninstall}.  The installation is domain-local, so concurrent
    experiment jobs record independently. *)

val uninstall : unit -> unit
val active : unit -> t option

val keeps_spans : unit -> bool
(** The installed recorder keeps spans: a probe that must build a span's
    name asks this first. *)

(** {1 Probes} — called from instrumented simulator code. All are no-ops when
    no recorder is installed. *)

val charge : layer:Layer.t -> cause:Cause.t -> int -> unit
(** [charge ~layer ~cause ns] attributes [ns] nanoseconds of simulated cost.
    Non-positive charges are ignored. *)

val count : string -> int -> unit
(** Bump a named counter. *)

val observe : string -> float -> unit
(** Record a sample into a named series (with histogram). *)

val span_begin : track:string -> layer:Layer.t -> name:string -> now:int -> unit
val span_end : track:string -> now:int -> unit
(** Explicit span API for non-fiber tracks (e.g. per-CPU job spans).
    [span_end] closes the innermost open span of [track].  No-ops unless
    the installed recorder keeps spans. *)

(** {1 Fiber-aware helpers} — track is derived from the current fiber. *)

val enter : Sim.Engine.t -> Layer.t -> string -> unit
val leave : Sim.Engine.t -> unit

val with_span : Sim.Engine.t -> Layer.t -> string -> (unit -> 'a) -> 'a
(** [with_span eng layer name f] wraps [f] in a span on the current fiber's
    track. When no recorder that keeps spans is installed this is exactly
    [f ()]. *)

(** {1 Accessors} *)

val ledger_ns : t -> layer:Layer.t -> cause:Cause.t -> int
val cause_ns : t -> Cause.t -> int
(** Sum of a cause across all layers. *)

val layer_ns : t -> Layer.t -> int
(** CPU nanoseconds charged to a layer (excludes non-CPU causes). *)

val cpu_ns : t -> int
(** Total CPU nanoseconds in the ledger (excludes [Header_wire] and [Idle]).
    Equals the sum of [Cpu.busy_time] deltas over the recorded window. *)

val spans : t -> span list
(** All spans in begin order. *)

val n_spans : t -> int

val open_spans : t -> int
(** Number of spans still open (should be 0 after a balanced run). *)

val tracks : t -> string list
(** Track names in first-use order (deterministic). *)

val stats : t -> Sim.Stats.t
val last_time : t -> int
(** Latest simulated time seen by any span probe. *)
