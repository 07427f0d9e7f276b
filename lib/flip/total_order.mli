(** Kaashoek's sequencer protocol for totally-ordered group communication,
    minus where it runs.

    Amoeba runs the protocol inside the kernel, its sequencer straight
    from the interrupt handler ([Amoeba.Group]); Panda runs the same
    protocol as a user thread ([Panda.Group]).  Everything that does not
    depend on that placement lives here, once:

    - the wire vocabulary of the data protocol and its one failure;
    - {!Window}: a member's delivery window — in-order delivery from a
      stash of early arrivals, gap repair, BB data that is held or
      awaited, and the sender's retry timer and completion;
    - {!History}: the sequencer's numbering, history, trimming, resend
      burst, re-announcement and idle-check timer.

    Each placement supplies what differs as arguments: how messages
    travel, what delivery does, how a blocked sender wakes and when a
    status exchange ends. *)

(** An ordered message as stored in the sequencer's history, sent in
    ordered announcements and kept in members' failover buffers. *)
type entry = {
  e_seq : int;
  e_sender : int;
  e_local : int;
  e_size : int;
  e_user : Sim.Payload.t;
}

(** The data protocol's messages.  A member sends a small message to the
    sequencer ([Pb], point-to-point) or a large one to the whole group
    ([Bb]); the sequencer answers with the numbered message ([Ordered]),
    a numbered range ([Ordered_batch], carrying the history-trim
    watermark [lo]) or, for BB data, a small [Accept].  Members repair
    gaps with [Retrans_req]; the sequencer polls them with [Status_req]
    to trim its history and to expose a silent tail. *)
type Sim.Payload.t +=
  | Pb of { sender : int; local : int; size : int; user : Sim.Payload.t }
  | Bb of { sender : int; local : int; size : int; user : Sim.Payload.t }
  | Ordered of entry
  | Ordered_batch of { entries : entry list; lo : int }
  | Accept of { seq : int; sender : int; local : int }
  | Retrans_req of { member : int; from : int }
  | Status_req of { next : int }
  | Status_rsp of { member : int; delivered : int }

exception Group_failure of string
(** A broadcast was not ordered after the sender's retries, or a group
    operation could not complete. *)

(** What a placement's header sizes make of the messages. *)
type wire = {
  layer : Obs.Layer.t;  (** the group layer that owns the data header *)
  header_bytes : int;  (** data-message header *)
  accept_bytes : int;  (** accept and control messages *)
  bb_threshold : int;  (** sizes strictly above this use the BB method *)
}

val data_size : wire -> int -> int
(** A data message's size on the wire: header plus user data. *)

val uses_bb : wire -> int -> bool

val batch_bytes : wire -> entry list -> int
(** Size of a framed run of entries: one header plus 8 bytes and the
    data per entry. *)

(** Messages ordered and retransmissions, per ordering domain. *)
type stats = { mutable ordered : int; mutable retrans : int }

val stats : unit -> stats

type transmit = hdr:(Obs.Layer.t * int) option -> size:int -> Sim.Payload.t -> unit
(** How a placement puts one message on the wire; [hdr] declares the
    header carried inside [size] (cost accounting only). *)

(** A member's delivery window and its own pending broadcasts. *)
module Window : sig
  type t

  type send
  (** One of the member's own broadcasts, until it comes back ordered. *)

  val create :
    Sim.Engine.t -> stats:stats -> timeout:Sim.Time.span -> max_retries:int -> me:int -> t
  (** [me] is the member index, or -1 until a join completes.  Delivery
      starts at sequence number 0.  Until it joins, and once it leaves,
      the member ignores ordered, accept, BB and status input. *)

  val me : t -> int
  val active : t -> bool

  val expected : t -> int
  (** The next sequence number to deliver. *)

  val joined : t -> index:int -> first:int -> unit
  (** A join completed: the member is [index] and delivers from [first]. *)

  val leave : t -> unit
  (** The member is out of the group: its gap repair stops. *)

  val start_send : t -> send
  (** Numbers the member's next broadcast (local ids 1, 2, ...). *)

  val local : send -> int

  val tries : send -> int
  (** Retransmissions so far. *)

  val hold : t -> send -> size:int -> user:Sim.Payload.t -> unit
  (** Keeps the member's own BB data for the accept that will order it. *)

  val arm_retry : t -> send -> retransmit:(unit -> unit) -> unit
  (** Every [timeout] until the broadcast is delivered, calls [retransmit];
      after [max_retries] gives up, marks the send failed and wakes its
      sender directly. *)

  val await : send -> unit
  (** Suspends the calling thread until the send completes or gives up. *)

  val check : send -> unit
  (** @raise Group_failure if the send gave up. *)

  val complete : t -> entry -> wake:(Machine.Thread.t option -> (unit -> unit) -> unit) -> unit
  (** Called by the placement's delivery: if [entry] is the member's own
      broadcast, its send completes and a sender blocked in {!await} is
      woken through [wake] (given the blocked thread). *)

  val outstanding : t -> int
  (** Own broadcasts not yet completed or given up. *)

  (** What the window needs from its placement. *)
  module type PLACEMENT = sig
    type member

    val window : member -> t

    val to_sequencer : member -> from_timer:bool -> Sim.Payload.t -> unit
    (** Sends an accept-sized control message to the sequencer;
        [from_timer] when a timer, not the receive path, sends it. *)

    val on_gap_timer : member -> unit
    (** Runs each time the gap timer fires, before the repair request. *)

    val deliver : member -> entry -> unit
    (** Delivers the next entry in the total order; the placement calls
        {!complete} at the point its own delivery wants. *)
  end

  module Make (P : PLACEMENT) : sig
    val input : P.member -> Sim.Payload.t -> bool
    (** Handles [Ordered], [Ordered_batch], [Accept], [Bb] and
        [Status_req]; [false] for any other payload. *)

    val request : P.member -> from_timer:bool -> unit
    (** Asks the sequencer to resend from {!expected} on. *)
  end
end

(** The sequencer's history of numbered entries. *)
module History : sig
  type t

  (** When a status exchange ends. *)
  type settle =
    | Every_member_caught_up  (** every member has confirmed the whole sequence *)
    | History_below_watermark  (** the trimmed history is below [high] *)

  val create :
    Sim.Engine.t -> wire:wire -> stats:stats -> high:int -> idle_period:Sim.Time.span ->
    settle:settle -> members:int -> mcast:transmit -> t
  (** [members] indexes 0 .. members-1 start at "delivered nothing";
      [mcast] multicasts to the group from the sequencer; [high] is the
      history length that starts a status exchange. *)

  val length : t -> int

  val number : t -> sender:int -> local:int -> size:int -> user:Sim.Payload.t -> entry
  (** Assigns the next sequence number and records the entry. *)

  val mark_queued : t -> sender:int -> local:int -> unit
  (** The request is queued for numbering: a retransmission of it is a
      duplicate from now on. *)

  val duplicate : t -> sender:int -> local:int -> bool
  (** Whether the request was seen before; one already numbered is
      re-announced. *)

  val announce : t -> entry -> unit
  (** Multicasts the entry ([Ordered]), or its [Accept] for BB data. *)

  val announce_batch : t -> entry list -> unit
  val re_announce : t -> int -> unit

  val burst_end : t -> from:int -> int
  (** The last sequence number one repair request resends: at most 32
      entries from [from], and none past the newest. *)

  val resend : t -> from:int -> upto:int -> transmit -> unit
  (** Sends each entry still in the history through the given unicast. *)

  val status_req : t -> unit
  (** Multicasts a status request carrying the next sequence number. *)

  val begin_exchange : t -> bool
  (** Starts a status exchange; [false] if one is already running. *)

  val overflowing : t -> bool
  (** The history is past [high]: starts an exchange unless one runs. *)

  val exchanging : t -> bool
  val all_caught_up : t -> bool

  val set_delivered : t -> int -> int -> unit
  (** A member index joined, having delivered up to the given number. *)

  val forget : t -> int -> unit
  (** A member index left. *)

  val report : t -> member:int -> delivered:int -> unit
  (** A member reported delivery up to [delivered]. *)

  val settle : t -> unit
  (** Trims what every member delivered and ends the exchange by the
      placement's rule. *)

  val arm_idle : t -> catch_up:(unit -> bool) -> unit
  (** Restarts the idle check: [idle_period] after the last ordering, if
      some member has not confirmed the whole sequence, runs [catch_up]
      and checks again while it returns [true].  A lost last broadcast
      leaves no later traffic to expose the gap, so the sequencer must
      ask. *)

  val cancel_idle : t -> unit

  val adopt : t -> entry -> unit
  (** Failover: records an entry rebuilt from a member's buffer. *)

  val rebuilt : t -> unit
  (** Failover: numbering restarts above the highest sequence number any
      member delivered. *)
end
