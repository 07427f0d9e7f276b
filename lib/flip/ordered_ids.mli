(** The sequencer's memory of what it ordered: (sender, local id) →
    sequence number, shared by Amoeba's in-kernel sequencer and Panda's
    user-level one.

    A group member numbers its broadcasts [1, 2, 3, ...] (its local ids),
    so each sender's ids are dense and the map keeps one int array per
    sender, indexed by local id: a word per ordered broadcast (two at
    most, as the arrays grow by doubling), with no boxed key.  Sender
    [-1] is the sequencer's own (system) sender.  The map is unbounded by
    design: exactly-once ordering must recognise a retransmitted request
    however old it is. *)

type t

val create : unit -> t

val find_opt : t -> sender:int -> local:int -> int option
(** The value last stored for [(sender, local)], if any. *)

val replace : t -> sender:int -> local:int -> int -> unit
(** [replace t ~sender ~local v] maps [(sender, local)] to [v].  [v] may
    be any int but [min_int], so a mark such as [-1] for "queued, not yet
    numbered" is a stored value like any sequence number.
    @raise Invalid_argument when [sender < -1], [local < 0] or
    [v = min_int]. *)

val key : sender:int -> local:int -> int
(** An injective int encoding of [(sender, local)], for the
    {!Address.Id_tbl} tables members keep per broadcast.
    @raise Invalid_argument when [sender < -1] or does not fit 29 bits,
    or [local] is negative or needs more than 32 bits. *)
