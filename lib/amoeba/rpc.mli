(** Amoeba's kernel-space RPC: a 3-way stop-and-wait transaction protocol.

    The client sends a request and blocks inside the kernel; the server's
    kernel reassembles it, queues it at the port and wakes a server thread
    blocked in {!get_request}.  The server computes and calls {!put_reply}
    — Amoeba requires the reply to be sent {e by the same thread} that
    issued the [get_request] (the restriction that costs the Orca runtime
    an extra context switch for guarded operations).  The client's kernel
    delivers the reply {e directly} into the blocked client thread from the
    receive interrupt — no scheduler invocation — and always sends an
    explicit acknowledgement (the "3-way" part; Panda instead piggybacks
    acks).

    Reliability is {!Flip.Request}'s, placed in the kernel: clients
    retransmit from a timer interrupt until the reply or [max_retries];
    servers suppress duplicates while processing and replay cached replies
    until the explicit ack arrives. *)

type config = {
  header_bytes : int;  (** protocol header per message (56 in the paper) *)
  copy_byte : Sim.Time.span;  (** user/kernel copy cost per byte *)
  deliver_fixed : Sim.Time.span;  (** fixed kernel delivery work per message *)
  call_depth : int;  (** protocol call nesting (Amoeba's is shallow) *)
  retrans_timeout : Sim.Time.span;
  max_retries : int;
}

val default_config : config

type t
(** Per-machine kernel RPC instance. *)

(** On-the-wire protocol messages, exposed so tests and failure-injection
    benches can match on traffic. *)
type Sim.Payload.t +=
  | Request of { client : Flip.Address.t; trans_id : int; size : int; user : Sim.Payload.t }
  | Reply of { trans_id : int; size : int; user : Sim.Payload.t }
  | Ack of { client : Flip.Address.t; trans_id : int }

exception Rpc_failure of string
(** Raised in the client thread when a transaction exhausts its retries. *)

val create : ?config:config -> Flip.Flip_iface.t -> t

val config : t -> config
val flip : t -> Flip.Flip_iface.t

val client_address : t -> Flip.Address.t
(** The FLIP address this instance's outgoing transactions carry as their
    source (what servers see as [request_client]). *)

(** {1 Server side} *)

type port

val export : t -> name:string -> port
(** Creates a server port; its FLIP address is registered on this machine. *)

val address : port -> Flip.Address.t

type request

val request_size : request -> int
val request_payload : request -> Sim.Payload.t
val request_client : request -> Flip.Address.t

val get_request : port -> request
(** Blocks the calling (server) thread until a request arrives.  Charges
    one system call plus the kernel-to-user copy of the request. *)

val put_reply : port -> request -> size:int -> Sim.Payload.t -> unit
(** Sends the reply.  Charges one system call plus copy and send costs.
    @raise Invalid_argument when called from a thread other than the one
    that received [request] via [get_request] — Amoeba's restriction. *)

(** {1 Client side} *)

val trans :
  t -> dst:Flip.Address.t -> size:int -> Sim.Payload.t -> int * Sim.Payload.t
(** [trans t ~dst ~size payload] performs a blocking transaction and
    returns [(reply_size, reply_payload)].  Charges the system call, copy
    and send costs to the calling thread; the reply wakes it directly from
    the interrupt.  @raise Rpc_failure after [max_retries]. *)

val transactions : t -> int
val retransmissions : t -> int
