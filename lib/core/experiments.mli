(** Reproduction drivers for every table and in-text measurement of the
    paper's evaluation (§4 and §5). *)

(** Every driver below optionally takes [?pool].  Each table cell,
    latency point, breakdown arm and ablation arm is an independent
    simulation; with a pool they run concurrently on its domains and are
    reassembled in canonical order, so the results — and thus every
    printed table — are identical to the sequential ([?pool] absent)
    path.

    Every cell, the microbenchmarks' two- and four-machine pools
    included, is built by {!Cell.create}.  [?net] selects the network
    era (default {!Params.net10m}); the machine and protocol costs are
    {!Params.calibrated}, and the optimized stack's are
    {!Params.optimized} of them. *)

(** {1 Table 1: latencies} *)

type lat_row = {
  lr_size : int;  (** message payload bytes *)
  lr_unicast : float option;
      (** ms, user-space system-layer unicast; [None] when a message was
          lost (this layer does not retransmit) *)
  lr_multicast : float option;  (** ms, user-space system-layer multicast, as unicast *)
  lr_rpc_user : float;
  lr_rpc_kernel : float;
  lr_grp_user : float;
  lr_grp_kernel : float;
  lr_rpc_opt : float;  (** optimized user-space stack *)
  lr_grp_opt : float;  (** optimized user-space stack *)
}

val table1 :
  ?pool:Exec.Pool.t ->
  ?faults:Faults.Spec.t ->
  ?net:Params.net_profile ->
  ?sizes:int list ->
  unit ->
  lat_row list
(** Sizes 0..4 KB (override with [?sizes]), as the paper's Table 1.
    Every driver taking [?faults] installs that schedule on each cell's
    freshly built network (per-cell injector streams, so [?pool] fan-out
    stays deterministic). *)

val unicast_latency :
  ?faults:Faults.Spec.t -> ?net:Params.net_profile -> size:int -> unit -> float option
(** Per-message latency, ms, of a ping-pong between two system-layer
    daemons.  Neither FLIP nor the system layer retransmits, so under
    loss a lost ping or pong ends the run: [None]. *)

val multicast_latency :
  ?faults:Faults.Spec.t -> ?net:Params.net_profile -> size:int -> unit -> float option
(** As {!unicast_latency}, multicasting to a two-member group. *)

val rpc_latency :
  ?faults:Faults.Spec.t ->
  ?net:Params.net_profile ->
  impl:Cluster.impl ->
  size:int ->
  unit ->
  float
(** Per-round latency, ms, of a null-server RPC between two machines.
    @raise Invalid_argument for [User_dedicated]: the two-machine pool
    has no dedicated sequencer machine. *)

val group_latency :
  ?faults:Faults.Spec.t ->
  ?net:Params.net_profile ->
  impl:Cluster.impl ->
  size:int ->
  unit ->
  float
(** Per-round latency, ms, of one member's sends to a two-member group
    whose sequencer is on the other machine.
    @raise Invalid_argument for [User_dedicated], as {!rpc_latency}. *)

(** {1 Table 2: throughputs} *)

type tput_row = {
  tr_proto : string;
  tr_user : float option;
      (** KB/s; [None] when a group sender gave up on a broadcast, its
          retries exhausted under faults *)
  tr_kernel : float option;  (** KB/s, as [tr_user] *)
  tr_opt : float option;  (** KB/s, optimized user-space stack, as [tr_user] *)
}

val table2 :
  ?pool:Exec.Pool.t ->
  ?faults:Faults.Spec.t ->
  ?net:Params.net_profile ->
  unit ->
  tput_row list

(** {1 Table 3: the six applications} *)

val table3 :
  ?pool:Exec.Pool.t ->
  ?faults:Faults.Spec.t ->
  ?checked:bool ->
  ?net:Params.net_profile ->
  ?procs:int list ->
  ?app_names:string list ->
  unit ->
  Runner.outcome list
(** Runs every application at each processor count under kernel-space,
    user-space and optimized user-space protocols, plus the
    dedicated-sequencer variant for LEQ (the paper's extra row).
    [?faults]/[?checked] run every cell under that fault schedule and/or
    with the conformance checkers on. *)

(** {1 Fault sweep: degradation vs. loss rate} *)

type fault_row = {
  fw_impl : Cluster.impl;
  fw_rate : float;  (** i.i.d. frame-loss probability *)
  fw_rpc_ms : float;  (** null RPC latency under that loss *)
  fw_grp_ms : float;  (** null group latency under that loss *)
  fw_app : string;
  fw_app_s : float;  (** application runtime under that loss, checked mode *)
  fw_valid : bool;  (** checksum still matches the sequential reference *)
  fw_retrans : int;  (** protocol retransmissions during the app run *)
  fw_kills : int;  (** frames the fault schedule killed during the app run *)
  fw_violations : int;  (** invariant violations (must be 0) *)
}

val fault_sweep :
  ?pool:Exec.Pool.t ->
  ?net:Params.net_profile ->
  ?rates:float list ->
  ?app_name:string ->
  ?procs:int ->
  ?seed:int ->
  unit ->
  fault_row list
(** Latency/correctness degradation of all three stacks as frame loss
    rises (default rates 0, 0.1%, 1%, 5%; default app [tsp] at 8
    processors).  The application cell runs in checked mode, so each row
    doubles as a conformance certificate at that loss rate. *)

val pp_fault_row : Format.formatter -> fault_row -> unit

(** {1 Load sweeps: capacity analysis under sustained traffic} *)

val load_rates : float list
(** Default offered-load ramp (ops/s aggregate), crossing every stack's
    saturation knee. *)

val load_impls : Cluster.impl list
(** The three stacks compared throughout: kernel, user, optimized. *)

val load_cell :
  ?faults:Faults.Spec.t ->
  ?checked:bool ->
  ?net:Params.net_profile ->
  ?client_ranks:int list ->
  ?policy:Panda.Seq_policy.t ->
  nodes:int ->
  impl:Cluster.impl ->
  Load.Clients.config ->
  unit ->
  Load.Metrics.t
(** One independent operating point: a fresh [nodes]-machine cluster
    running [config]'s client population against the rank-0 echo server,
    with optional fault schedule (including its [seqcrash]) and
    conformance checkers.  The unit of fan-out for every sweep below,
    and the direct way to run a single cell — e.g. a trace replay. *)

val load_sweep :
  ?pool:Exec.Pool.t ->
  ?faults:Faults.Spec.t ->
  ?checked:bool ->
  ?net:Params.net_profile ->
  ?nodes:int ->
  ?config:Load.Clients.config ->
  ?rates:float list ->
  ?impls:Cluster.impl list ->
  unit ->
  (Cluster.impl * Load.Sweep.curve) list
(** Throughput–latency curve per stack: for each offered rate, a fresh
    [nodes]-machine cluster (default 4) where every non-server rank runs
    [config]'s client population (default {!Load.Clients.default}: null
    RPCs, uniform arrivals) against the rank-0 echo server.  [config]'s
    [rate] is overridden by each ramp point.  With [?checked] each cell
    runs under the conformance checkers and reports violations. *)

type tail_cell = {
  tc_impl : Cluster.impl;
  tc_loss : float;  (** i.i.d. frame loss probability for this cell *)
  tc_rate : float;  (** offered load, ops/s aggregate *)
  tc_metrics : Load.Metrics.t;
  tc_amp99 : float;  (** p99 / loss-free p99 at the same (impl, rate) *)
  tc_amp999 : float;  (** p99.9 amplification, same baseline *)
}

val tail_losses : float list
(** Default loss grid: 0 (baseline), 0.1%, 1%, 3%. *)

val tail_grid :
  ?pool:Exec.Pool.t ->
  ?net:Params.net_profile ->
  ?nodes:int ->
  ?config:Load.Clients.config ->
  ?losses:float list ->
  ?rates:float list ->
  ?impls:Cluster.impl list ->
  unit ->
  tail_cell list
(** Loss x load tail grid: one independent {!load_cell} per
    (stack, loss, rate) coordinate, in that canonical nesting order, each
    under an i.i.d. frame-loss schedule.  A zero-loss column is added if
    [losses] omits it, and every cell's p99/p99.9 is reported as an
    amplification factor over the loss-free cell at the same
    (stack, rate) — the signature of the 200 ms retransmission timeout
    owning the tail.  Deterministic and pool-safe: results are identical
    with and without [?pool]. *)

val pp_tail_cell : Format.formatter -> tail_cell -> unit

val sequencer_senders : int list

val sequencer_saturation :
  ?pool:Exec.Pool.t ->
  ?faults:Faults.Spec.t ->
  ?checked:bool ->
  ?net:Params.net_profile ->
  ?nodes:int ->
  ?senders:int list ->
  ?clients_per_node:int ->
  ?config:Load.Clients.config ->
  ?impls:Cluster.impl list ->
  ?policy:Panda.Seq_policy.t ->
  unit ->
  (Cluster.impl * (int * Load.Metrics.t) list) list
(** Sequencer-bottleneck experiment: closed-loop zero-think group senders
    on ranks [1..s] for each [s] in [senders] (default 1, 2, 4, 7 on an
    8-node cluster, 2 clients each); rank 0 hosts the sequencer and never
    sends.  Achieved ordered messages/s plateaus at the sequencer's
    capacity — the user-space sequencer saturates first, the kernel's
    last.  [policy] (default [Single]) runs every cell under that
    sequencer capacity policy (the kernel stack accepts [Single] and
    [Batching] only). *)

val pp_saturation_row : Format.formatter -> int * Load.Metrics.t -> unit

val sequencer_policies : Panda.Seq_policy.t list
(** The default policy sweep: [Single] plus one representative of each
    capacity mechanism ({!Panda.Seq_policy.sweep}). *)

val sequencer_policy_sweep :
  ?pool:Exec.Pool.t ->
  ?faults:Faults.Spec.t ->
  ?checked:bool ->
  ?net:Params.net_profile ->
  ?nodes:int ->
  ?senders:int list ->
  ?clients_per_node:int ->
  ?config:Load.Clients.config ->
  ?impl:Cluster.impl ->
  ?policies:Panda.Seq_policy.t list ->
  unit ->
  (Panda.Seq_policy.t * (int * Load.Metrics.t) list) list
(** The same closed-loop sender grid as {!sequencer_saturation}, but
    varying the sequencer capacity policy over one stack (default
    [User]).  Every policy runs the identical workload, so the capacity
    curves are before/after comparable point by point: [Single] is the
    paper's ~725 msg/s wall, the others are the protocol-family answers
    to it (batching, rotation, sharding, failover standby).  With
    [?faults] carrying a [seq_crash] instant, each cell also exercises
    mid-run sequencer failover. *)

val pp_policy_row :
  Format.formatter -> Panda.Seq_policy.t * (int * Load.Metrics.t) -> unit
(** One row of the policy × senders capacity table (sharded rows append
    the per-shard completion split). *)

(** {1 One-sided crossover (the fourth stack across network eras)} *)

(** Partition of a measurement window's CPU ledger into the cost
    components the RPC-vs-one-sided argument turns on.  The four CPU
    buckets enumerate every (layer, CPU cause) cell exactly once, so
    [ol_residual_ms] — the recorder's CPU total minus their sum — is a
    zero-residual attribution check. *)
type os_ledger = {
  ol_initiator_ms : float;
      (** one-sided initiator CPU: posting and completion handling *)
  ol_target_ms : float;
      (** one-sided target CPU: NIC interrupt entry + op execution, all
          in interrupt context (never a server thread) *)
  ol_nic_ms : float;  (** NIC layer CPU (both RPC and one-sided) *)
  ol_stack_ms : float;
      (** thread-side protocol + application CPU (FLIP, Amoeba, Panda,
          Orca, App) — 0 on a pure one-sided data path *)
  ol_wire_hdr_ms : float;  (** wire occupancy charged to headers (not CPU) *)
  ol_cpu_ms : float;  (** the recorder's CPU total *)
  ol_residual_ms : float;
}

type xcell = {
  xc_net : string;  (** network-era profile name *)
  xc_stack : Cluster.stack;
  xc_read_pct : int;  (** get share of the DHT mix *)
  xc_latency : Load.Metrics.t;  (** open-loop probe at 100 ops/s *)
  xc_capacity : Load.Metrics.t;  (** closed-loop, zero think time *)
  xc_ledger : os_ledger;  (** the capacity window's ledger partition *)
  xc_wire_util : float;  (** busiest segment over the capacity window *)
  xc_dht_violations : int;
      (** the service's client-observed violations + its at-rest audit,
          summed over both cells (0 for a correct backend, faults or
          not) *)
}

val crossover_nets : Params.net_profile list
(** Default era sweep: net10m, net100m, net1g. *)

val onesided_crossover :
  ?pool:Exec.Pool.t ->
  ?faults:Faults.Spec.t ->
  ?checked:bool ->
  ?nets:Params.net_profile list ->
  ?stacks:Cluster.stack list ->
  ?read_pcts:int list ->
  ?nodes:int ->
  ?config:Load.Clients.config ->
  unit ->
  xcell list
(** The tentpole experiment: the Zipf get/put DHT over every stack
    (default {!Cluster.all_stacks}) on every network era, one latency
    probe and one capacity cell each (defaults: 4 nodes, 2 clients per
    client node, 90% reads).  The DHT is a one-shard, unreplicated
    {!Shard.Service} on rank 0: 1024 keys of 64-word values, Zipf(0.99)
    keys, 5 us + 10 ns/word of server store CPU per op.  Cells are
    returned in (net, read_pct, stack) input order and fan out over
    [?pool] with bit-identical results. *)

type crossover_row = {
  xs_net : string;
  xs_read_pct : int;
  xs_best_rpc : string;  (** highest-capacity RPC stack at this point *)
  xs_rpc_capacity : float;
  xs_os_capacity : float;
  xs_os_wins : bool;
  xs_mechanism : string;
      (** the ledger differential naming which cost component flips (or
          holds) the winner *)
}

val crossover_summary : xcell list -> crossover_row list
(** One row per (era, mix): the best RPC stack vs one-sided, and the
    mechanism.  On the slow wire both stacks queue for the segment and
    the one-sided path pays extra round trips per logical op; on the
    fast wire the RPC server thread's protocol+app CPU becomes the
    bottleneck the one-sided path simply does not have. *)

val pp_xcell : Format.formatter -> xcell -> unit
val pp_crossover_row : Format.formatter -> crossover_row -> unit

(** {1 In-text breakdowns (§4.2, §4.3)} *)

val rpc_breakdown :
  ?pool:Exec.Pool.t -> ?net:Params.net_profile -> unit -> (string * float) list
(** Overhead components of the user-kernel null-RPC gap, in µs, found by
    re-measuring under costs with single mechanisms disabled.  Labels
    match the paper's accounting. *)

val group_breakdown :
  ?pool:Exec.Pool.t -> ?net:Params.net_profile -> unit -> (string * float) list

(** {1 Measured breakdowns (observability ledger)} *)

val measured_breakdown :
  ?pool:Exec.Pool.t ->
  ?net:Params.net_profile ->
  unit ->
  (string * float) list * (string * float) list
(** [(rpc_rows, group_rows)]: the §4.2/§4.3 accounting re-derived from the
    cost-attribution ledger of recorded null-latency runs (only the
    measured rounds are recorded).  RPC rows are user-kernel deltas in µs
    per round; group rows decompose the user path (as {!group_breakdown}
    does), except the total-gap and header rows, which are deltas.  The
    extra RPC rows beyond {!rpc_breakdown} itemise the rest of the gap. *)

val recorded_rpc :
  ?net:Params.net_profile ->
  ?impl:Cluster.impl ->
  ?size:int ->
  unit ->
  Obs.Recorder.t * Sim.Time.span
(** Runs one Table 1 RPC benchmark (default: user-space, null) with a
    span-keeping recorder installed for the whole run (the recorder behind
    [--trace] and [--obs]); returns the recorder and the
    summed CPU busy time of both machines.  With the NIC header-reception
    correction counter, the ledger's CPU total equals the busy time
    exactly.  Intended for trace export and the obs test suite. *)

(** {1 Optimized-stack differential (the tentpole experiment)} *)

type opt_cell = {
  oc_layer : Obs.Layer.t;
  oc_cause : Obs.Cause.t;
  oc_us : float;  (** µs/round this ledger cell shrank (negative = grew) *)
}

type opt_breakdown = {
  ob_base_us : float;  (** baseline user-space null latency, µs/round *)
  ob_opt_us : float;  (** optimized user-space null latency, µs/round *)
  ob_kernel_us : float;  (** kernel-space reference, µs/round *)
  ob_cells : opt_cell list;  (** every nonzero (layer, cause) ledger delta *)
  ob_mechanisms : (string * float) list;  (** µs/round recovered per optimization *)
  ob_residual_us : float;  (** deltas owned by no mechanism — 0 by construction *)
}

val mechanism_of_cause : Obs.Cause.t -> string option
(** Which of the four optimizations owns savings under this cause; [None]
    for causes no mechanism may touch ([Fault_wire], [Idle]). *)

val optimized_breakdown :
  ?pool:Exec.Pool.t -> ?net:Params.net_profile -> unit -> opt_breakdown * opt_breakdown
(** [(rpc, group)]: ledger-cell-exact accounting of where the optimized
    stack's savings come from, from recorded baseline-user and
    optimized-user null runs.  Because the four mechanisms are disjoint in
    the cause dimension on single-fragment null operations, the bucket sums
    add up to the whole ledger delta and [ob_residual_us] is zero. *)

val pp_opt_breakdown : Format.formatter -> opt_breakdown -> unit

(** {1 Ablations} *)

val ablation_dedicated_sequencer :
  ?pool:Exec.Pool.t ->
  ?net:Params.net_profile ->
  ?procs:int list ->
  unit ->
  Runner.outcome list
(** LEQ under user-space protocols with and without a dedicated
    sequencer. *)

val ablation_nonblocking :
  ?pool:Exec.Pool.t -> ?net:Params.net_profile -> unit -> (string * float) list
(** Group latency perceived by the sender: blocking vs the §6 nonblocking
    broadcast, microbenchmark. *)

val ablation_migration :
  ?pool:Exec.Pool.t -> ?net:Params.net_profile -> unit -> (string * float) list
(** Adaptive object placement (the paper's §2 runtime heuristic) vs static
    placement, for a heavily skewed access pattern. *)

val ablation_user_level_network :
  ?pool:Exec.Pool.t -> ?net:Params.net_profile -> unit -> (string * float) list
(** The paper's §6 projection: give the user-space stack direct network
    access (no per-packet system calls, no untuned FLIP interface) and
    compare its null latencies against today's stacks. *)

val ablation_continuations :
  ?pool:Exec.Pool.t -> ?net:Params.net_profile -> ?procs:int -> unit -> (string * float) list
(** RL with guarded operations: kernel (blocked server thread) vs user
    (continuations), runtimes in seconds. *)

(** {1 Cluster scale (64-512 nodes): sharded service, Zipf routing,
    ledger-driven migration} *)

type ccell = {
  cc_nodes : int;
  cc_stack : Cluster.stack;
  cc_skew : Load.Keys.skew;
  cc_metrics : Load.Metrics.t;
  cc_wire_max : float;  (** busiest segment utilization over the window *)
  cc_wire_mean : float;
  cc_cross_frac : float;
      (** inter-segment share: switch-forwarded frames over all frames
          carried during the window *)
  cc_switch_fps : float;  (** switch forwarding rate, frames/s *)
  cc_server_max : float;  (** busiest server machine over the window *)
  cc_server_mean : float;
  cc_gets : int;
  cc_puts : int;
  cc_dedup_hits : int;  (** at-most-once firing across handoffs *)
  cc_relays : int;
  cc_migrations : int;  (** completed shard handoffs *)
  cc_moves : int;  (** rebalancer decisions taken *)
  cc_service_viol : int;
      (** service conformance violations (client-observed plus the
          at-rest audit), counted once whether or not the cell is
          checked — zero on a healthy run *)
}

val cluster_default_config : Load.Clients.config
(** One client per node, 100 ms warmup, 400 ms window — sized so a
    256-node cell stays tractable on one core. *)

val cluster_cell :
  ?faults:Faults.Spec.t ->
  ?checked:bool ->
  ?net:Params.net_profile ->
  ?lanes:bool ->
  ?shards:int ->
  ?replicas:int ->
  ?service_params:Shard.Service.params ->
  ?rebalance:Shard.Rebalancer.config ->
  nodes:int ->
  stack:Cluster.stack ->
  skew:Load.Keys.skew ->
  Load.Clients.config ->
  unit ->
  ccell
(** One measured operating point on a fresh [nodes]-machine pool: a
    server on the first rank of every segment (shards default 32,
    replicas 1), the last non-server rank reserved for the rebalancing
    controller (whether or not [rebalance] is given, so A/B populations
    match), every other rank a client.  One-sided runs force replicas
    to 1 and never migrate.  With [checked], the conformance checkers
    wrap the stack and the service's at-rest audit joins the checker's
    finalize pass.  No stack here survives a sequencer crash (the RPC
    stacks run the single sequencer, the one-sided stack has none), so
    a [seqcrash] in [faults] raises [Invalid_argument] before anything
    runs. *)

val cluster_nodes : int list
val cluster_skews : Load.Keys.skew list
val cluster_stacks : Cluster.stack list
val cluster_rates : float list

val cluster_sweep :
  ?pool:Exec.Pool.t ->
  ?faults:Faults.Spec.t ->
  ?checked:bool ->
  ?net:Params.net_profile ->
  ?lanes:bool ->
  ?shards:int ->
  ?replicas:int ->
  ?service_params:Shard.Service.params ->
  ?rebalance:Shard.Rebalancer.config ->
  ?nodes:int list ->
  ?stacks:Cluster.stack list ->
  ?skews:Load.Keys.skew list ->
  ?rates:float list ->
  ?config:Load.Clients.config ->
  unit ->
  ((int * Cluster.stack * Load.Keys.skew) * ccell list * Load.Sweep.knee) list
(** The tentpole sweep: every (nodes, stack, skew) combination ramped
    over open-loop offered [rates] to its saturation knee.  Combinations
    are returned in (nodes, stack, skew) input order, their rate points
    ascending; cells fan out over [?pool] bit-identically. *)

val cluster_ab_config : Load.Clients.config
(** Closed-loop, 100 ms warmup, 1.5 s window — long enough that the
    post-migration placement dominates the measurement. *)

val cluster_ab_rebalance : Shard.Rebalancer.config
(** {!Shard.Rebalancer.default_config} at a 50 ms tick, so moves land
    early in the window. *)

val cluster_migration_ab :
  ?pool:Exec.Pool.t ->
  ?faults:Faults.Spec.t ->
  ?checked:bool ->
  ?net:Params.net_profile ->
  ?lanes:bool ->
  ?shards:int ->
  ?replicas:int ->
  ?service_params:Shard.Service.params ->
  ?rebalance:Shard.Rebalancer.config ->
  ?nodes:int ->
  ?stack:Cluster.stack ->
  ?skew:Load.Keys.skew ->
  ?config:Load.Clients.config ->
  unit ->
  ccell * ccell
(** [(static, rebalanced)]: the identical skewed closed-loop workload
    (default Zipf(1.2) on 64 nodes over the optimized stack) with and
    without the ledger-driven rebalancer, so any achieved-throughput
    difference is attributable to object migration alone. *)

val pp_ccell : Format.formatter -> ccell -> unit
val pp_knee : Format.formatter -> Load.Sweep.knee -> unit
