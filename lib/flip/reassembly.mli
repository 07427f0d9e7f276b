(** Fragment reassembly, usable both by kernel protocols and by Panda's
    user-space receive daemon.

    Tolerates out-of-order arrival and duplicate fragments (retransmission
    makes duplicates normal).  Partially assembled messages can be purged by
    age to bound memory, mirroring the real stacks' reassembly timers.

    {b The completed window.}  To recognise late copies, an instance
    remembers every (source, message id) it completed, until more than
    65 536 messages have completed since it last forgot: the completion
    after that empties the window before it is recorded.  A copy arriving
    after its message was forgotten is re-assembled as a fresh message.
    The window is a per-source set of completed ids, in bit chunks of 63
    consecutive ids (one int each): a dense run of ids costs a table
    entry per 63 completions, and an isolated id (the worst case) one
    entry, no more than a table of completed messages. *)

type t

val create : unit -> t

val add : t -> Fragment.t -> (Address.t * int * Sim.Payload.t) option
(** [add t frag] is [Some (src, total_bytes, payload)] when the message's
    last missing fragment arrives — and again for each later {e first}
    fragment of an already-completed message still in the window, so that
    protocol layers see retransmissions of messages they have processed
    (e.g. to replay a lost reply).  Consumers must deduplicate by their
    own protocol identifiers.  Duplicate non-first fragments return
    [None].
    @raise Invalid_argument when the message id is negative or needs more
    than 32 bits, or the source does not fit {!Address.pair_key}. *)

val pending : t -> int
(** Messages currently partially assembled. *)

val purge : t -> unit
(** Drops all partial messages (reassembly timeout).  The completed window
    is kept. *)

val duplicates : t -> int
(** Duplicate fragments seen so far. *)
