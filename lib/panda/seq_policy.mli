(** Sequencer capacity policies for the totally-ordered group protocols.

    PR 5's load program showed the user-space sequencer is the system's
    hardest scaling wall: one machine orders every broadcast and pins at
    100% CPU around 725 msg/s.  Each policy attacks that wall along a
    different axis:

    - {!Single}: the paper's baseline — one fixed sequencer thread.
    - {!Batching}[ n]: the sequencer drains up to [n] queued ordering
      requests per wakeup, assigns them a consecutive sequence-number
      range and multicasts one combined ordered message (which also
      piggybacks the history-trim watermark), amortizing the per-message
      system calls that dominate its CPU.
    - {!Sharded}[ n]: [n] independent sequencers, one per object group,
      keyed by a consistent hash of the caller's [key]; global total order
      is traded for gap-free total order {e per shard} — all the Orca RTS
      needs for per-object operation ordering.
    - {!Failover}: the baseline sequencer made crash-tolerant — members
      keep bounded history buffers, and a designated successor rebuilds
      the ordering state from them when the sequencer dies mid-run.

    Every policy except {!Single} is crash-recoverable; {!Failover} names
    the configuration that is the baseline {e plus} recovery alone. *)

type t =
  | Single
  | Batching of int  (** max ordering requests coalesced per wakeup *)
  | Sharded of int  (** independent sequencer shards *)
  | Failover

val default_batch : int
val default_shards : int

val to_string : t -> string
(** Round-trips with {!of_string}: ["single"], ["batch:16"],
    ["shard:4"], ["failover"]. *)

val label : t -> string
(** Parameter-free name for table rows and JSON keys. *)

val of_string : string -> (t, string) result
(** Parses ["single"], ["batch[:N]"], ["shard[:N]"], ["failover"]. *)

val parse_list : string -> (t list, string) result
(** Comma-separated {!of_string}; the item ["all"] expands to {!sweep}. *)

val shards : t -> int
(** Shard count: [n] for [Sharded n], 1 otherwise. *)

val shard_of_key : shards:int -> int -> int
(** The consistent key-to-shard hash shared by the group protocol, the
    load generator's per-shard accounting and the conformance checker. *)

val sweep : t list
(** One representative of each policy at its default parameter — the
    capacity-curve sweep. *)
