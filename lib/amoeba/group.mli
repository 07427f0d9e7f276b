(** Amoeba's kernel-space totally-ordered group communication (Kaashoek's
    sequencer protocol).

    One machine hosts the {e sequencer}, which runs entirely inside the
    kernel and is invoked straight from the (software) interrupt handler —
    no thread switches, no address-space crossings.  To broadcast, a member
    either:

    - {b PB method} (small messages): sends the message point-to-point to
      the sequencer, which tags it with the next sequence number and
      multicasts it; or
    - {b BB method} (large messages): multicasts the message itself; the
      sequencer multicasts a small {e accept} carrying the sequence number.

    Receivers deliver strictly in sequence order; a gap triggers a
    retransmission request answered from the sequencer's history buffer.
    The history is trimmed via status exchanges when it grows past a
    watermark.  [send] blocks the calling thread until its own message has
    come back ordered, as Amoeba's [grp_send] does.

    Membership is dynamic: {!join} and {!leave} are {!Flip.Request} calls
    ordered through the sequencer as announcements, so every member sees the
    same view transitions at the same point in the message sequence, and
    members that stop answering status exchanges are evicted so a dead
    member cannot block history trimming.  (Sequencer failure/recovery —
    Amoeba's reset protocol — is out of scope: the paper's experiments
    never lose the sequencer.)

    The protocol itself — the member's delivery window, the sequencer's
    history and the wire messages — is {!Flip.Total_order}, shared with
    [Panda.Group].  What this module adds is the placement: the
    sequencer runs in interrupt context, members deliver into a receive
    queue, status rounds run until every member has caught up and evict
    unresponsive members, and membership is dynamic. *)

type config = {
  header_bytes : int;  (** data-message header (52 in the paper) *)
  accept_bytes : int;  (** accept/control message size *)
  copy_byte : Sim.Time.span;
  deliver_fixed : Sim.Time.span;
  seq_process : Sim.Time.span;
      (** sequencer's per-message handling, in interrupt context *)
  seq_batch_max : int;
      (** max PB orderings coalesced into one interrupt + one
          [Ordered_batch] multicast; 1 disables batching (the paper's
          protocol, and the default) *)
  seq_order_item : Sim.Time.span;
      (** marginal sequencer cost per extra batched ordering *)
  call_depth : int;
  bb_threshold : int;  (** sizes strictly above this use the BB method *)
  retrans_timeout : Sim.Time.span;
  max_retries : int;
  history_high : int;  (** history length that triggers a status exchange *)
}

val default_config : config

type t
(** A group descriptor. *)

type member

type membership_event = Joined of int | Left of int

(** The membership messages; the data protocol's are
    {!Flip.Total_order}'s.  Membership announcements are ordered entries
    whose [e_sender] is the system (-1) and whose payload is
    [Member_joined] or [Member_left]. *)
type Sim.Payload.t +=
  | Join_req of { j_addr : Flip.Address.t }
  | Join_ack of { j_index : int; j_seq : int }
  | Leave_req of { l_index : int }
  | Member_joined of int * Flip.Address.t
  | Member_left of int

val create_static :
  ?config:config ->
  name:string ->
  sequencer:int ->
  Flip.Flip_iface.t array ->
  t * member array
(** [create_static ~name ~sequencer flips] sets up a group with one member
    per FLIP instance; the in-kernel sequencer lives on the machine of
    [flips.(sequencer)]. *)

val config : t -> config
val member_index : member -> int
val member_count : t -> int

val send : member -> size:int -> Sim.Payload.t -> unit
(** Blocking broadcast: returns once the calling member has received its
    own message in the total order.
    @raise Flip.Total_order.Group_failure on exhausted retransmissions. *)

val receive : member -> int * int * Sim.Payload.t
(** [receive m] blocks until the next message in the total order and
    returns [(sender_index, size, payload)].  Every member receives every
    message, including its own. *)

(** {1 Dynamic membership} *)

val join : t -> Flip.Flip_iface.t -> member
(** Blocking: returns once the join announcement has come back through the
    total order, so the new member's deliveries start at a well-defined
    point in the sequence.  One member per machine.
    @raise Flip.Total_order.Group_failure if the sequencer never answers. *)

val leave : member -> unit
(** Blocking: returns once the leave announcement has been delivered; the
    member stops participating.
    @raise Flip.Total_order.Group_failure if the sequencer never answers. *)

val active : member -> bool

val view : member -> int list
(** Member indexes currently in this member's view, updated at
    announcement-delivery points (identical order at every member). *)

val set_membership_handler : member -> (membership_event -> unit) -> unit
(** Called at each membership change, in total order with the messages. *)

val pending_deliveries : member -> int
(** Messages ordered but not yet consumed by {!receive}. *)

val delivered_seq : member -> int
(** Highest contiguous sequence number delivered at this member. *)

val messages_ordered : t -> int
(** Messages the sequencer has ordered so far. *)

val retransmissions : t -> int
val history_length : t -> int
