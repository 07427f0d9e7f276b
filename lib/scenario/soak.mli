(** Long-horizon soak runs: diurnal load, fault churn, conformance
    checkers always on, windowed timeline reporting.

    A soak drives one stack on one cluster for [sk_windows] consecutive
    measurement windows under a {!Load.Arrival.Ramp} diurnal arrival
    shape (peak [sk_rate]), with an optional {!Faults.Spec} schedule —
    loss, duplication, partitions, a mid-run [seqcrash] — installed for
    the whole horizon and the {!Faults.Invariants} protocol-conformance
    checkers wrapping every backend unconditionally.  Each window
    snapshots offered/achieved rates, the latency tail (p50/p99/p99.9),
    the server's busy fraction, and the retransmission / fault-kill
    deltas, so the report reads as a timeline: load breathing with the
    diurnal cycle, the tail inflating when the fault schedule bites,
    recovery after a sequencer crash — with zero invariant violations
    as the pass criterion.  The cell is a {!Core.Cell} and the load is
    {!Load.Clients}' own client loop: the window rows are its per-window
    metrics, plus the soak's own retransmission and kill snapshots. *)

type config = {
  sk_impl : Core.Cluster.impl;
  sk_nodes : int;
  sk_policy : Panda.Seq_policy.t;
  sk_op : Load.Clients.op;
  sk_mix : Load.Mix.t;
  sk_rate : float;  (** peak offered load, ops/s aggregate *)
  sk_period : Sim.Time.span;  (** diurnal cycle length *)
  sk_floor : float;  (** trough rate as a fraction of peak, in (0, 1] *)
  sk_clients_per_node : int;
  sk_warmup : Sim.Time.span;
  sk_window : Sim.Time.span;  (** length of one report window *)
  sk_windows : int;  (** number of consecutive windows *)
  sk_faults : Faults.Spec.t option;
  sk_net : Core.Params.net_profile option;
  sk_seed : int;
}

val default : config
(** User stack, 4 nodes, null RPCs: peak 400 ops/s over a 2 s diurnal
    period (floor 0.25), 8 windows of 250 ms, no faults, seed 1. *)

type window = {
  w_index : int;
  w_start_ms : float;  (** window start, ms from run start *)
  w_offered : float;  (** requests scheduled in the window / length *)
  w_achieved : float;
  w_p50_ms : float;
  w_p99_ms : float;
  w_p999_ms : float;
  w_server_util : float;
  w_retrans : int;  (** protocol retransmissions during this window *)
  w_kills : int;  (** frames killed by the fault schedule *)
}

type report = {
  r_label : string;
  r_op : string;
  r_windows : window list;
  r_issued : int;  (** total requests scheduled across all windows *)
  r_completed : int;
  r_p99_ms : float;  (** whole-horizon tail *)
  r_p999_ms : float;
  r_retrans : int;
  r_kills : int;
  r_seq_crashed : bool;  (** the fault schedule carried a [seqcrash] *)
  r_violations : int;  (** conformance violations — 0 on a healthy soak *)
}

val run : config -> report
(** Builds a fresh cluster and runs the whole horizon (warmup plus
    [sk_windows] windows, then drain).  Deterministic: a pure function
    of [config]. *)

val pp_window : Format.formatter -> window -> unit
val pp_report : Format.formatter -> report -> unit
(** The per-window timeline plus a summary line. *)
