(** Builds the paper's testbed: a pool of SPARC-like machines on Ethernet
    segments of eight, joined by a switch, each running FLIP.  The wire,
    switch and NIC constants come from a {!Params.net_profile} (default:
    the paper's own 10 Mbit/s era). *)

type t = private {
  eng : Sim.Engine.t;
  machines : Machine.Mach.t array;
  topo : Net.Topology.t;
  flips : Flip.Flip_iface.t array;
  extra : Flip.Flip_iface.t option;
      (** an additional machine (on the last segment) for the
          dedicated-sequencer experiments *)
  net : Params.net_profile;
  mutable rnic_cache : Onesided.Rnic.t array option;
}

val create :
  ?extra_machine:bool -> ?net:Params.net_profile -> ?lanes:bool -> n:int -> unit -> t
(** [lanes] (default {!default_lanes}) shards the engine into conservative
    event lanes when the topology spans several segments (> 8 machines);
    single-segment clusters always keep the sequential engine path. *)

val set_default_lanes : bool -> unit
(** Process-wide default for [create]'s [?lanes] — how the [--lanes] CLI
    flag reaches every experiment driver.  Set before building clusters. *)

val default_lanes : unit -> bool

val net : t -> Params.net_profile

val machine_lane : t -> int -> int
(** Engine lane of rank [i]'s machine (0 when unlaned).  Worker fibers for
    rank [i] must be spawned under [Sim.Engine.with_lane] on this lane so
    their event chains stay lane-local. *)

val n_segments : t -> int
(** Ethernet segments in the pool (ranks sit on segments of eight, in
    order: segment [s] owns ranks [8s, 8s+8)). *)

val server_ranks : ?per_segment_servers:int -> t -> int list
(** Canonical server placement for cluster-scale sharded services: the
    first [per_segment_servers] (default 1) ranks of every segment, in
    rank order — servers spread across segments so inter-segment links
    and the switch, not one wire, carry the service traffic. *)

val rnics : t -> Onesided.Rnic.t array
(** One one-sided Rnic per rank, created on first use (lazily, so the
    engine's address sequence is untouched for clusters that never go
    one-sided) with all pairwise routes pre-seeded — the connection-setup
    route exchange — so no LOCATE broadcast ever lands on the measured
    data path.  Memoized: repeated calls return the same array. *)

type impl = Kernel | User | User_dedicated | User_optimized

val impl_label : impl -> string
val all_impls : impl list

type stack = Rpc_stack of impl | One_sided
(** The four communication backends: the three thread-scheduling RPC
    stacks (plus the dedicated-sequencer variant) and the one-sided
    backend. *)

val stack_label : stack -> string

val all_stacks : stack list
(** The stacks compared by the crossover experiments: kernel, user,
    optimized, onesided (the dedicated-sequencer variant needs an extra
    machine and adds nothing to RPC-vs-one-sided comparisons). *)

val stack_of_string : string -> stack option

val sequencer_support :
  ?seq_crash:bool -> impl -> Panda.Seq_policy.t -> (unit, string) result
(** Whether [impl]'s group protocol runs sequencer [policy] and, with
    [seq_crash] (default [false]), recovers from a crash of its sequencer.
    The kernel stack runs [Single] and [Batching] only and recovers under
    neither; the user stacks run every policy and recover under every
    policy but [Single].  [Error] carries a one-line reason, which the CLIs
    print when they reject a flag combination. *)

val backends :
  ?checker:Faults.Invariants.t ->
  ?policy:Panda.Seq_policy.t ->
  ?seq_crash:Sim.Time.t ->
  t ->
  impl ->
  Orca.Backend.t array
(** The raw communication backends (one per rank) for the given protocol
    implementation — what {!domain} builds the Orca runtime on, exposed
    so load generators can drive the stacks directly.  [User_dedicated]
    requires the cluster to have been created with [extra_machine:true].
    With [checker] the backends are wrapped in the protocol-conformance
    checkers (checked mode); call [Faults.Invariants.finalize] after the
    run drains.  [policy] (default [Single]) selects the sequencer
    capacity policy.  [seq_crash] schedules a crash of rank 0's sequencer
    at that instant (a fault spec's [seqcrash]).
    @raise Invalid_argument when {!sequencer_support} rejects the
    combination, before anything is built. *)

val domain :
  ?checker:Faults.Invariants.t ->
  ?policy:Panda.Seq_policy.t ->
  t ->
  impl ->
  Orca.Rts.domain
(** Builds the Orca domain over the cluster: [backends] plus the
    runtime-system overhead. *)

val sequencer_machine : t -> impl -> Machine.Mach.t
(** The machine hosting the group sequencer: the dedicated extra machine
    for [User_dedicated], rank 0's machine otherwise (both stacks default
    the sequencer to rank 0). *)
