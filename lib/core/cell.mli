(** One simulation cell's lifecycle.

    Every experiment — {!Experiments.load_cell}, [dht_cell] and
    [cluster_cell], {!Runner.run}, the soak, and the Table 1/2
    microbenchmarks, breakdowns and micro ablations — builds and tears
    down its cell here, so two cells differ only in what they are given:

    + {!create} builds the cluster (network era, cost record, lanes, and
      the extra machine a dedicated sequencer needs), installs the fault
      schedule and, in checked mode, creates the conformance checker with
      the sequencer policy's shard count;
    + {!backends} or {!rnics} builds the stack, checked when the cell
      is; the fault spec's [seqcrash] is scheduled on an RPC stack and
      refused by the one-sided one, never dropped;
    + the experiment runs its load until the engine drains (a
      microbenchmark builds its protocol objects directly, from
      {!Cluster.stack_costs}); one that snapshots counters at its window
      edges schedules them before the stack, as the event order of
      pinned results requires;
    + {!finish} finalizes the checker and returns its violations and the
      frames the fault schedule killed. *)

type t

val create :
  ?faults:Faults.Spec.t ->
  ?checked:bool ->
  ?net:Params.net_profile ->
  ?costs:Params.costs ->
  ?lanes:bool ->
  ?policy:Panda.Seq_policy.t ->
  n:int ->
  Cluster.stack ->
  t
(** A cell of [n] ranks that will run [stack]: {!Cluster.create} (with the
    extra machine for [User_dedicated]), then the fault schedule, then —
    with [checked] (default [false]) — a checker over
    [Panda.Seq_policy.shards policy] ordering shards.  [policy] (default
    [Single]) is the sequencer policy {!backends} builds. *)

val cluster : t -> Cluster.t
val checker : t -> Faults.Invariants.t option

val backends : t -> Orca.Backend.t array
(** The RPC stack: {!Cluster.backends} with the cell's checker, policy
    and the fault spec's [seqcrash].
    @raise Invalid_argument for a one-sided cell, or when
    {!Cluster.sequencer_support} rejects the policy and [seqcrash]. *)

val rnics : t -> Onesided.Rnic.t array
(** The one-sided stack: {!Cluster.rnics}, observed by the cell's
    checker.  Call once.
    @raise Invalid_argument when the fault spec carries a [seqcrash]:
    the one-sided stack has no sequencer to crash. *)

val kills : t -> int
(** Frames the fault schedule has killed so far; 0 without one. *)

type verdict = {
  violations : string list;  (** the first violations, oldest first *)
  n_violations : int;  (** all of them *)
  kills : int;  (** frames the fault schedule killed *)
}

val finish : t -> verdict
(** Once the engine has drained: finalizes the checker (no violations
    when unchecked).  Call once. *)
