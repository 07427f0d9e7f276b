(** One measured operating point of one stack under sustained load. *)

type t = {
  label : string;  (** stack label, e.g. "kernel" / "user" / "optimized" *)
  op : string;  (** "rpc" or "group" *)
  offered : float;
      (** offered load, ops/s — the configured arrival rate for open-loop
          runs, equal to [achieved] for closed-loop runs *)
  achieved : float;
      (** completions inside the measurement window / window length, ops/s *)
  issued : int;  (** requests whose scheduled arrival fell in the window *)
  completed : int;  (** requests that completed inside the window *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_ms : float;
  max_ms : float;
      (** latency is completion minus {e scheduled} arrival, so open-loop
          backlog past saturation shows up in the tail *)
  client_util : float;  (** max client-machine CPU busy fraction over the window *)
  server_util : float;  (** RPC-server (or sequencer-rank) machine busy fraction *)
  server_thread_util : float;
      (** the thread-context share of [server_util], interrupt time
          excluded — exactly 0 for a one-sided data path, where the target
          CPU runs only in interrupt context *)
  seq_util : float;
      (** sequencer machine busy fraction — the dedicated machine when one
          exists, otherwise the sequencer rank's machine; for RPC runs this
          equals [server_util] *)
  ledger_cpu_ms : float;
      (** total CPU ns charged to the Obs ledger over the window, in ms
          (sums every machine; equals the busy-time deltas) *)
  violations : int;  (** conformance violations in checked mode, else 0 *)
  per_shard : int array;
      (** group traffic only: completions inside the window per ordering
          shard, indexed by shard — [[||]] for RPC/custom runs.  Sums to
          [completed]; the spread shows how evenly the key hash balances
          ordering load across sharded sequencers. *)
  per_window : t array;
      (** the same measurement split into its consecutive windows, in
          order (see {!Clients.config}'s [windows]); each window's own
          [per_window] is [[||]] *)
}

val saturated : ?frac:float -> t -> bool
(** Achieved short of [frac] (default 0.95) of offered. *)

val pp_header : Format.formatter -> unit -> unit
val pp : Format.formatter -> t -> unit
(** One aligned table row per point (pair with [pp_header]). *)
