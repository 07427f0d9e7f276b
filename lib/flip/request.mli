(** The request core every request/reply protocol shares: an endpoint's
    outstanding calls, each retransmitted on a timer until it completes
    or gives up, and a server's at-most-once table of replies.

    Amoeba's in-kernel RPC ([Amoeba.Rpc]), Panda's user-space RPC
    ([Panda.Rpc]), the one-sided NIC ([Onesided.Rnic]), a group member's
    own broadcasts ({!Total_order.Window}) and Amoeba's group join and
    leave are its placements.  They differ in how acknowledgements travel
    and where the code runs, not in how a lost message is retransmitted or
    a duplicate request recognised, so what differs comes in as callbacks:
    how a retransmission is sent and charged, how a blocked caller is
    woken, and what a give-up does.

    {b A give-up is final.}  Once a call has given up it is closed: a
    reply that arrives later, even one that lands before the woken caller
    runs, finds no open call and is the placement's late duplicate. *)

(** {1 Outstanding calls} *)

type 'r calls
(** An endpoint's outstanding calls, each completed by an ['r]. *)

type 'r call

val create : Sim.Engine.t -> timeout:Sim.Time.span -> max_retries:int -> 'r calls

val start : 'r calls -> 'r call
(** Opens the endpoint's next call.  Calls are numbered 1, 2, 3, ... *)

val id : 'r call -> int

val tries : 'r call -> int
(** Retransmissions so far. *)

val arm : ?give_up:(unit -> unit) -> 'r call -> retransmit:(unit -> unit) -> unit
(** Every [timeout] while the call is open, counts a try and calls
    [retransmit].  When [max_retries] tries have all timed out the call
    gives up: [give_up] runs, the call closes and a caller blocked in
    {!await} is resumed directly.  Arming a closed call does nothing. *)

val find : 'r calls -> int -> 'r call option
(** The open call with this id; [None] once it completed or gave up. *)

val complete : 'r call -> 'r -> wake:(Machine.Thread.t -> (unit -> unit) -> unit) -> unit
(** Closes an open call with its reply and cancels its timer; a caller
    blocked in {!await} is woken through [wake], given its thread.  Does
    nothing to a closed call. *)

val await : 'r call -> 'r option
(** Blocks the calling thread until the call completes or gives up.
    [None] when it gave up. *)

val opened : 'r calls -> int
(** Calls opened so far. *)

val outstanding : 'r calls -> int
(** Calls neither completed nor given up. *)

val retransmissions : 'r calls -> int

(** {1 At-most-once replies} *)

(** What a server remembers of a request, keyed by (client, id). *)
type 'r state =
  | Processing  (** being served: a duplicate is dropped *)
  | Replied of 'r  (** the reply, replayed to a duplicate *)
  | Acked
      (** the client acknowledged the reply.  The tombstone stays, so a
          duplicate of the request still in flight is dropped, not served
          again. *)

type 'r replies
(** A server's table.  It holds the 4,096 newest requests and forgets the
    oldest first. *)

val replies : unit -> 'r replies
val lookup : 'r replies -> client:Address.t -> id:int -> 'r state option

val add : 'r replies -> client:Address.t -> id:int -> 'r state -> unit
(** A request seen for the first time. *)

val reply : 'r replies -> client:Address.t -> id:int -> 'r -> unit
(** Records the reply to a request. *)

val ack : 'r replies -> client:Address.t -> id:int -> unit
(** The client acknowledged the reply: a request still held becomes
    [Acked]. *)
