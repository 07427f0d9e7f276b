(** The one-sided (RDMA-style) fourth communication backend.

    The paper's three stacks all share one shape: a client thread asks, a
    server {e thread} is scheduled to answer, and the per-message protocol
    CPU on both sides bounds capacity once the wire stops being the
    bottleneck.  The fast-network era answered with one-sided operations
    (remote read/write/cas against a registered {!Region}): the request
    completes entirely in the target's NIC/interrupt layer — no server
    thread is woken, no syscall is made, no protocol daemon runs.

    Mechanically, each machine gets an [Rnic.t] bound to its FLIP instance.
    The initiator posts an operation from its thread (user-level NIC
    access: [post_cost] then [completion_cost] of thread CPU, charged to
    [(Onesided, Proto_proc)], with {e no} user/kernel crossing).  The
    request travels as ordinary FLIP fragments.  On the target the NIC
    receive interrupt hands the reassembled request to the Rnic, which
    executes it in a nested interrupt ([interrupt_entry] charged to
    [(Onesided, Uk_crossing)], the op itself to [(Onesided, Offload)]) and
    replies from interrupt context.  The reply wakes the blocked initiator
    directly ({!Machine.Thread.mark_direct_wake}), like Amoeba's in-kernel
    reply delivery.

    Loss is handled by {!Flip.Request} placed on the NIC: a hardware timer
    resends the same message id without charging host CPU, and the target
    keeps its bounded at-most-once table so a retransmitted [cas] replays
    its recorded result instead of executing twice (reads and writes are
    idempotent and simply re-execute). *)

type config = {
  os_header : int;  (** one-sided protocol header bytes per message *)
  post_cost : Sim.Time.span;  (** initiator thread CPU to post a request *)
  completion_cost : Sim.Time.span;
      (** initiator thread CPU to reap the completion *)
  op_fixed : Sim.Time.span;  (** target interrupt-context cost per op *)
  op_word : Sim.Time.span;  (** target interrupt-context cost per data word *)
  retrans_timeout : Sim.Time.span;
  max_retries : int;
}

val default_config : config

type op =
  | Read of { words : int }
  | Write of { values : int array }
  | Cas of { expected : int; desired : int }

type result =
  | Values of int array  (** read: the words fetched *)
  | Written  (** write acknowledged *)
  | Cas_was of int
      (** cas: the word's prior value; the swap happened iff it equals
          [expected] *)

(** Observer events, consumed by [Faults.Invariants] to check at-most-once
    execution under injected faults. *)
type event =
  | Posted of { op_id : int; op : op }
  | Completed of { op_id : int; result : result; retries : int }
  | Failed of { op_id : int }
  | Target_exec of {
      src : Flip.Address.t;
      op_id : int;
      op : op;
      fresh : bool;  (** [false] when a cas replayed its cached result *)
    }

type t

val create : ?config:config -> Flip.Flip_iface.t -> t
(** Binds an Rnic to the machine owning [flip]: allocates its FLIP point
    address and installs its fragment handler. *)

val addr : t -> Flip.Address.t
val machine : t -> Machine.Mach.t
val config : t -> config

val register_region : t -> Region.t -> unit
(** @raise Invalid_argument if the key is already registered. *)

val region : t -> key:int -> Region.t

val perform :
  t -> dst:Flip.Address.t -> rkey:int -> off:int -> op -> result
(** Issues one one-sided operation from the calling thread against region
    [rkey] of the Rnic at [dst], blocking until the completion.
    @raise Failure when [max_retries] retransmissions all time out. *)

val read : t -> dst:Flip.Address.t -> rkey:int -> off:int -> words:int -> int array
val write : t -> dst:Flip.Address.t -> rkey:int -> off:int -> int array -> unit

val cas :
  t -> dst:Flip.Address.t -> rkey:int -> off:int -> expected:int -> desired:int -> int
(** Returns the word's prior value; the swap happened iff it equals
    [expected]. *)

val set_observer : t -> (event -> unit) -> unit
(** Chains onto any observer already installed. *)

val posted : t -> int
(** Operations posted by this initiator. *)

val target_ops : t -> int
(** Operations executed here as the target (cas replays excluded). *)

val retransmissions : t -> int
val cas_replays : t -> int
