(** Hierarchical timing wheel for far-future timers.

    Three levels of 256 buckets (level-0 granule 2^21 ns ≈ 2.1 ms, so
    level 0 alone spans ~537 ms).  Insert and cancel are O(1); cancel
    unlinks and reclaims the slot immediately, so the dominant timer class
    — 200 ms retransmission timers that are nearly always cancelled —
    never reaches a comparison-based structure at all.

    The wheel is a staging area, not a scheduler: each entry keeps the
    caller-assigned [(time, seq)] stamp, and the engine drains due buckets
    into its near-term heap with {!advance} before the clock reaches them,
    so the merged pop order is exactly that of a pure heap. *)

type 'a t

type handle = int
(** Immediate-int, generation-tagged; stale handles are harmless.
    Packed as [gen lsl 26 lor slot], 54 bits — same envelope as
    {!Heap.handle}. *)

val create : ?capacity:int -> dummy:'a -> unit -> 'a t

val fits : now:Time.t -> time:Time.t -> bool
(** [fits ~now ~time] — [time]'s level-0 bucket lies strictly in the
    future, so the entry may go on the wheel; otherwise it belongs in the
    near-term heap. *)

val insert : 'a t -> now:Time.t -> time:Time.t -> seq:int -> 'a -> handle
(** O(1).  Requires [fits ~now ~time]. *)

type cancel_result =
  | Absent  (** stale handle: already fired, released or cancelled *)
  | Cancelled  (** was live on the wheel; slot unlinked and freed *)
  | Moved of int
      (** had migrated to the engine's heap; carries the heap handle the
          caller must cancel there.  The forwarding slot is freed. *)

val cancel : 'a t -> handle -> cancel_result
(** O(1).  Idempotent, safe on stale handles. *)

val release : 'a t -> handle -> unit
(** Reclaim a migrated entry's forwarding slot once the event has popped
    from the heap.  No-op on anything but an [st_moved] slot with a
    matching generation. *)

val live : 'a t -> int
(** Number of pending entries.  O(1). *)

val next_boundary : 'a t -> Time.t
(** Start time of the earliest non-empty bucket — the latest moment by
    which that bucket must be {!advance}d to preserve order — or [max_int]
    when the wheel is empty.  May be conservatively early after cancels
    (an early flush is harmless).  Finding it visits only the occupied
    buckets, which a per-level bitmap tracks. *)

val advance :
  'a t ->
  upto:Time.t ->
  emit:(time:Time.t -> seq:int -> handle:handle -> 'a -> int) ->
  unit
(** [advance t ~upto ~emit] drains every bucket starting at or before
    [upto]: near entries are passed to [emit] with their original stamps
    plus their wheel handle, and [emit] must return the heap handle it
    pushed the entry under — the slot becomes a forwarding stub so the
    wheel handle keeps cancelling the (now heap-resident) event, and is
    reclaimed by {!cancel} or {!release}.  Far entries cascade to finer
    buckets in place, keeping their handles valid.  [upto] must not exceed
    {!next_boundary} (the engine flushes a bucket before executing any
    event at or past its start). *)

val granule0 : int
(** Width of a level-0 bucket in ns (exposed for tests). *)
