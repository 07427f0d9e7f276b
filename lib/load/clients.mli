(** Client populations: seeded, deterministic traffic over any backend.

    [run] spawns [clients_per_node] client threads on every client rank,
    each with its own SplitMix64 stream split from [seed], issuing
    blocking RPCs to the server rank or totally-ordered group sends.
    The run is warmup, then [windows] consecutive measurement windows
    (latency histogram, achieved throughput, per-machine CPU utilization,
    an {!Obs.Recorder} ledger scoped to the windows), then drain; clients
    stop issuing at the last window's end, and the engine runs until
    every in-flight request completes.  The returned metrics cover all
    the windows together, and [Metrics.per_window] splits them window by
    window.  Everything is a pure function of (config, cluster), so
    results are bit-identical across reruns and {!Exec.Pool} fan-out. *)

type op = Rpc | Group

type config = {
  op : op;
  mix : Mix.t;  (** request payload sizes *)
  reply_size : int;  (** RPC reply payload size (replies are echoes) *)
  arrival : Arrival.t;
  rate : float;
      (** aggregate offered load over all clients, ops/s; ignored for
          closed-loop arrivals *)
  clients_per_node : int;
  warmup : Sim.Time.span;
  window : Sim.Time.span;  (** measurement window length *)
  windows : int;  (** consecutive measurement windows, at least 1 *)
  seed : int;
}

val default : config
(** Null RPC, uniform arrivals at 200 ops/s, 4 clients/node, 250 ms
    warmup, one 1 s window, seed 1. *)

val run :
  config ->
  eng:Sim.Engine.t ->
  backends:Orca.Backend.t array ->
  machines:Machine.Mach.t array ->
  ?seq_machine:Machine.Mach.t ->
  ?server:int ->
  ?client_ranks:int list ->
  ?recorder:Obs.Recorder.t ->
  ?shards:int ->
  ?trace:Trace.t ->
  unit ->
  Metrics.t
(** [machines.(i)] must host [backends.(i)].  [server] (default 0) is
    the RPC echo server and, for group traffic, the rank whose machine
    is reported as the sequencer's unless [seq_machine] names a
    dedicated one.  [client_ranks] defaults to every rank except
    [server].  [recorder] (default: a private ledger-only one) is
    installed over the measurement window, so callers can read the
    layer × cause ledger cells afterwards.  Runs the engine to completion;
    [Metrics.violations] is always 0 here (checked-mode callers fill it
    in after finalizing their checker).

    Group sends carry a deterministic counter-based ordering key, so a
    sharded backend spreads them across its sequencers; [shards]
    (default 1) sizes [Metrics.per_shard], the per-shard completion
    counts — pass the group's shard count.

    When [config.arrival] is {!Arrival.Replay} the named trace file is
    loaded (and time-scaled) once, and its entries — schedule and
    request size both — are dealt round-robin across the client
    population; latency is measured from each entry's scheduled time.
    [trace] passes an in-memory trace instead, forcing replay without
    touching the filesystem (the arrival process is then ignored).
    [Metrics.offered] for replay/ramp runs is the rate actually
    scheduled inside the window.
    @raise Invalid_argument when [config.windows] < 1. *)

val run_custom :
  config ->
  eng:Sim.Engine.t ->
  machines:Machine.Mach.t array ->
  label:string ->
  op_name:string ->
  ?seq_machine:Machine.Mach.t ->
  ?lane_of:(int -> int) ->
  ?trace:Trace.t ->
  ?server:int ->
  ?client_ranks:int list ->
  ?recorder:Obs.Recorder.t ->
  op:(int -> Sim.Rng.t -> unit) ->
  unit ->
  Metrics.t
(** Same measurement machinery as {!run} — identical arrival processes,
    RNG splitting, window snapshots, trace replay — but the operation
    body is caller supplied: [op rank rng] must issue one blocking
    logical operation from the calling client thread (e.g. a one-sided
    DHT get/put).  [config.op], [config.mix] and [config.reply_size]
    are ignored; [label]/[op_name] fill the metric's identity fields.
    Replayed traces drive the schedule only — the per-entry sizes are
    not surfaced to [op], which issues whatever it models.

    [lane_of] (rank -> engine lane, e.g. [Core.Cluster.machine_lane])
    must be passed when the engine is laned — multi-segment clusters —
    so each client fiber is spawned under its machine's lane; omitted,
    spawns land in the caller's lane, which is only correct unlaned. *)
