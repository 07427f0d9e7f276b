(** Binary min-heap of timestamped events, unboxed.

    Events live in parallel int/value arrays ("slots"); the heap orders slot
    indices by (time, push sequence), so events with equal timestamps pop in
    insertion order (FIFO), which keeps the simulation deterministic.

    The hot path allocates nothing: [push] returns an immediate-int handle
    and [next_time]/[pop_next] return unboxed values.  Cancellation is
    lazy — a cancelled event is skipped when it reaches the top — but the
    heap compacts itself in place whenever cancelled entries outnumber live
    ones, so a timer-heavy workload cannot grow the heap unboundedly. *)

type 'a t

type handle = int
(** Identifies a scheduled event so it can be cancelled.  An immediate int
    (no allocation); generation-tagged, so using a handle after its event
    fired or was collected is harmless.  Exposed as a plain int so the
    engine can pack lane/kind bits above it (54-bit payload). *)

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty heap.  [dummy] fills vacated value cells
    (it is never returned); pass any value of the element type. *)

val push : 'a t -> time:Time.t -> 'a -> handle
(** [push h ~time v] schedules [v] at [time] and returns its handle. *)

val push_seq : 'a t -> time:Time.t -> seq:int -> 'a -> handle
(** [push_seq h ~time ~seq v] schedules [v] with a caller-supplied tie-break
    sequence number instead of the heap's internal counter.  Used by the
    engine, which owns the per-lane (time, seq) total order so events can
    move between the timing wheel and the heap without reordering.  The
    internal counter is bumped past [seq], so mixing with plain [push]
    stays FIFO. *)

val pop : 'a t -> (Time.t * 'a) option
(** [pop h] removes and returns the earliest live event, skipping cancelled
    ones, or [None] if the heap holds no live event. *)

val next_time : 'a t -> Time.t
(** [next_time h] is the timestamp of the earliest live event, or [max_int]
    when there is none, without allocating.  It discards the cancelled
    entries at the top, so a {!pop_next} right after needs no search. *)

val pop_next : 'a t -> 'a
(** Removes and returns the event [next_time] just found.  Only valid
    directly after a [next_time] that returned a time below [max_int],
    with no push, pop or cancel in between. *)

val cancel : 'a t -> handle -> unit
(** [cancel h hd] marks the event as dead.  Idempotent; a no-op if the
    event already fired or was already collected. *)

val cancelled : 'a t -> handle -> bool
(** True while the heap still holds [hd]'s entry in cancelled state (after
    the entry is collected — or if it fired normally — this is [false]). *)

val size : 'a t -> int
(** Number of entries still stored, including cancelled ones. *)

val live_size : 'a t -> int
(** Number of entries not yet cancelled.  O(1): the counter is maintained
    eagerly on push, pop and cancel. *)
