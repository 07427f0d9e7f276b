(** FLIP addresses.

    FLIP addresses identify processes (endpoints), not machines: a message
    is sent to an address and FLIP locates the machine currently hosting it
    (location transparency).  Group addresses name multicast groups that any
    number of endpoints may register. *)

type t =
  | Point of int  (** one endpoint *)
  | Group of int  (** a multicast group *)

val point : int -> t
val group : int -> t

val fresh_point : Sim.Engine.t -> t
(** A point address unique within the engine's simulation.  Allocation is
    per-engine (via {!Sim.Engine.fresh_id}), so concurrent simulations
    never share address state and each simulation sees a deterministic
    address sequence. *)

val fresh_group : Sim.Engine.t -> t

val is_group : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Tables}

    The per-packet tables of FLIP and the RPC protocols are monomorphic:
    their keys hash and compare without the polymorphic C primitives, and
    a table keyed by {!pair_key} holds no boxed tuple keys. *)

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by an address. *)

val pair_key : t -> int -> int
(** [pair_key addr id] is an injective int encoding of [(addr, id)], for
    per-message state keyed by sender and message or transaction id.
    @raise Invalid_argument when [id] is negative or needs more than 32
    bits, or the address's number is negative or needs more than 29. *)

module Id_tbl : Hashtbl.S with type key = int
(** Tables keyed by a {!pair_key} or by a plain id. *)

val pp : Format.formatter -> t -> unit
