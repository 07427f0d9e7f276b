(** Panda's user-space totally-ordered group communication.

    Same sequencer idea as Amoeba's kernel protocol, but the sequencer is
    an ordinary {e user thread} on one machine: every message costs it a
    system call to fetch the packet and another to multicast the ordered
    copy, plus a thread switch to get scheduled at all — the paper's
    ~110 µs when it preempts an Orca worker, ~60 µs on a {e dedicated}
    machine whose context stays loaded.  Delivery to the application is an
    upcall from the system-layer receive daemon (no intermediate thread).

    Headers are smaller than the kernel protocol's (40 vs 52 bytes), and
    the sequencer orders at the fragment level, so Panda's duplicated
    fragmentation is paid only at the sending member.

    [send] blocks until the sender's own message comes back in the total
    order; {!send_nonblocking} is the paper's proposed extension (§6) for
    write-operations whose semantics allow it.

    The sequencer is also the system's hardest scaling wall (~725 msg/s
    with its CPU pinned), so the group accepts a {!Seq_policy.t} choosing
    the protocol family around it: sequence-number batching with
    piggybacked acks, sharded sequencers
    (gap-free total order {e per shard}, keyed by the sender's [?key]),
    and crash failover in which a standby sequencer rebuilds ordering
    state from the members' bounded history buffers.  The default
    [Single] policy is byte-for-byte the paper's protocol.

    The protocol itself — the member's delivery window, the sequencer's
    history and the wire messages — is {!Flip.Total_order}, shared with
    [Amoeba.Group].  What this module adds is the placement: the
    sequencer thread and its queue, delivery by upcall, bounded catch-up
    rounds, status exchanges that end once the history is below its
    watermark, and the policies' sharding, batching and failover. *)

type config = {
  header_bytes : int;  (** data-message header (40 in the paper) *)
  accept_bytes : int;
  order_fixed : Sim.Time.span;  (** sequencer's per-message bookkeeping *)
  deliver_cost : Sim.Time.span;  (** member-side protocol work per delivery *)
  copy_byte : Sim.Time.span;
  bb_threshold : int;  (** sizes strictly above this use the BB method *)
  retrans_timeout : Sim.Time.span;
  max_retries : int;
  history_high : int;
}

val default_config : config

type t
type member

type sequencer_placement =
  | On_member of int  (** the sequencer thread shares member [i]'s machine *)
  | Dedicated of System_layer.t
      (** a machine sacrificed to run only the sequencer *)

(** The policies' own messages; the data protocol's are
    {!Flip.Total_order}'s.  Crash failover adds
    {!Gdead}/{!Ghist_req}/{!Ghist_rsp}, and {!Gshard} is the shard
    discriminator wrapped around every payload of a sharded group
    (single-core groups stay unwrapped). *)
type Sim.Payload.t +=
  | Gdead of { gd_from : int }
  | Ghist_req of { hq_epoch : int }
  | Ghist_rsp of { hr_member : int; hr_delivered : int; hr_entries : Flip.Total_order.entry list }
  | Gshard of { sh_core : int; sh_inner : Sim.Payload.t }

val create_static :
  ?config:config ->
  ?policy:Seq_policy.t ->
  name:string ->
  sequencer:sequencer_placement ->
  System_layer.t array ->
  t * member array
(** One member per Panda instance.  Membership is static in the Panda
    stack (the paper's experiments never change it mid-run; the kernel
    stack additionally implements Amoeba's dynamic join/leave).

    [policy] defaults to [Seq_policy.Single], which is exactly the
    original protocol.  Under [Sharded n], shard [k]'s sequencer is
    placed on member [(i + k) mod members] (spreading ordering CPU), and
    each shard orders independently: delivery order is total {e within}
    a shard only.  Under any crash-recoverable policy, the successor
    (the member after the sequencer's) hosts a pre-wired standby. *)

val config : t -> config
val policy : t -> Seq_policy.t

val shard_count : t -> int
(** Number of independent ordering domains (1 unless sharded). *)

val member_index : member -> int
val member_count : t -> int

val set_handler : member -> (sender:int -> size:int -> Sim.Payload.t -> unit) -> unit
(** Installs the delivery upcall; runs in the member's system-layer daemon
    thread, in per-shard total order. *)

val send : ?key:int -> member -> size:int -> Sim.Payload.t -> unit
(** Blocking broadcast.  [key] (default 0) picks the ordering shard via
    {!Seq_policy.shard_of_key}; it is ignored unless the group is
    sharded.  @raise Flip.Total_order.Group_failure after [max_retries]. *)

val send_nonblocking : ?key:int -> member -> size:int -> Sim.Payload.t -> unit
(** Fire-and-forget broadcast (still reliable and per-shard totally
    ordered); the paper's §6 extension.  The calling thread does not wait
    for the sequencer round trip. *)

val crash_sequencer : t -> unit
(** Kills the (primary) sequencer thread mid-run: it stops processing
    and its pending queue is lost.  Members detect the silence through
    their retransmission timers and trigger recovery: the standby
    rebuilds the history from the members' buffers.  Sharded
    groups crash shard 0's sequencer.
    @raise Invalid_argument under the [Single] policy (no recovery). *)

val sequencer_epoch : t -> int
(** 0 while the primary orders; 1 once a standby has taken over. *)

val delivered_seq : member -> int
(** Total messages delivered at this member across all shards, minus 1
    (the highest delivered sequence number when there is one shard). *)

val delivered_in_shard : member -> shard:int -> int
(** Highest sequence number delivered at this member in one shard. *)

val messages_ordered : t -> int
val retransmissions : t -> int
val history_length : t -> int
