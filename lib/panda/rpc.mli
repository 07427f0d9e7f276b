(** Panda's user-space RPC: a 2-way stop-and-wait protocol.

    The reply implicitly acknowledges the request; the client's
    acknowledgement of the reply is piggybacked on its next request to the
    same server, and only sent as an explicit message after a timeout.
    This is the major protocol difference with Amoeba's 3-way RPC.

    Requests are delivered by {e implicit receipt}: the interface layer
    makes an upcall from the system-layer daemon, and the reply may be sent
    asynchronously by {e any} thread via the [reply] closure — the
    flexibility that lets the Orca RTS use continuations for guarded
    operations instead of blocking a server thread.  Retransmission and the
    server's at-most-once replies are {!Flip.Request}'s, as in Amoeba's. *)

type config = {
  header_bytes : int;  (** per-message protocol header (64 in the paper) *)
  call_depth : int;  (** extra call nesting of the RPC layer *)
  proc_cost : Sim.Time.span;  (** protocol processing per message *)
  ack_delay : Sim.Time.span;  (** explicit-ack timeout *)
  retrans_timeout : Sim.Time.span;
  max_retries : int;
}

val default_config : config

type t

(** Wire messages, exposed for tests and failure injection. *)
type Sim.Payload.t +=
  | Preq of {
      client : Flip.Address.t;
      trans_id : int;
      acks : int list;  (** reply acknowledgements piggybacked on this request *)
      size : int;
      user : Sim.Payload.t;
    }
  | Prep of { trans_id : int; size : int; user : Sim.Payload.t }
  | Pack of { client : Flip.Address.t; trans_ids : int list }

exception Rpc_failure of string

val create : ?config:config -> System_layer.t -> t
(** Attaches the RPC module to a Panda instance.  The RPC service address
    is the instance's system address. *)

val address : t -> Flip.Address.t
val system : t -> System_layer.t

val set_request_handler :
  t ->
  (client:Flip.Address.t ->
  size:int ->
  Sim.Payload.t ->
  reply:(size:int -> Sim.Payload.t -> unit) ->
  unit) ->
  unit
(** Installs the server upcall.  It runs in the daemon thread and must not
    block; [reply] may be invoked later, from any thread
    ([pan_rpc_reply]'s asynchrony). *)

val trans : t -> dst:Flip.Address.t -> size:int -> Sim.Payload.t -> int * Sim.Payload.t
(** Blocking client transaction to the RPC module at [dst] (a remote
    Panda system address).  @raise Rpc_failure after [max_retries]. *)

val transactions : t -> int
val retransmissions : t -> int
val explicit_acks : t -> int
(** Explicit ack messages actually sent (not piggybacked). *)
