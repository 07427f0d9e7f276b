(** The single source of calibrated cost parameters.

    Every constant that stands in for measured 1995 hardware/software cost
    lives here, so the calibration against the paper's Tables 1 and 2 is
    one place to read and adjust.  The microsecond figures quoted in the
    paper's §4 analysis appear directly: 6 µs register-window traps,
    ~70 µs context switches (2 = 140 µs on the RPC reply path), 110 µs
    preempting switch, 60 µs warm switch, 20 µs duplicated fragmentation,
    56/64-byte RPC and 52/40-byte group headers. *)

val nic : Net.Nic.config
val segment : Net.Segment.config
val switch_latency : Sim.Time.span

(** The era-independent costs: the machine, FLIP, and the protocol
    software of both stacks — everything above the NIC.  Every cell
    builds its machines and stacks from one such record
    ({!Cluster.create}'s [?costs]); the wire, switch and NIC come from a
    {!net_profile}. *)
type costs = {
  machine : Machine.Mach.config;
  flip : Flip.Flip_iface.config;
  amoeba_rpc : Amoeba.Rpc.config;  (** kernel-space RPC *)
  amoeba_group : Amoeba.Group.config;  (** kernel-space group *)
  panda_system : Panda.System_layer.config;  (** user-space system layer *)
  panda_rpc : Panda.Rpc.config;  (** user-space RPC *)
  panda_group : Panda.Group.config;  (** user-space group *)
}

val calibrated : costs
(** The costs calibrated against the paper's Tables 1 and 2. *)

val optimized : costs -> costs
(** The one definition of the optimized user-space stack: [c] with the
    three system-layer mechanisms enabled (single fragmentation,
    scatter-gather zero-copy, receive fast path) and the merged compact
    Panda+RPC and Panda+group headers.  The machine, FLIP and the
    kernel-space stack are untouched. *)

val rts_overhead : Sim.Time.span

val pool_size_max : int
(** Largest processor count used by the paper's experiments (32). *)

val onesided : Onesided.Rnic.config
(** The one-sided backend's endpoint costs (user-level post/completion,
    target interrupt-context execution).  Era-independent: only the
    {!net_profile} changes with the wire. *)

(** A network era: the wire, switch, and NIC constants that change between
    1995 and the fast-network present, while machine and protocol-software
    constants stay fixed at their calibrated 1995 values. *)
type net_profile = {
  np_name : string;  (** the [--profile] spelling, e.g. ["net1g"] *)
  np_label : string;  (** human-readable description *)
  np_segment : Net.Segment.config;
  np_nic : Net.Nic.config;
  np_switch : Sim.Time.span;
}

val net10m : net_profile
(** The paper's own 10 Mbit/s Ethernet — identical to {!segment}, {!nic}
    and {!switch_latency}, so the default path is bit-for-bit the
    calibrated baseline. *)

val net100m : net_profile
val net1g : net_profile

val net10g : net_profile
(** 10 Gbit-class; integer nanoseconds floor the byte time at 1 ns
    (8 Gbit/s). *)

val net_profiles : net_profile list
(** All profiles, in era order. *)

val net_profile_of_string : string -> net_profile option
(** Inverse of [np_name]: [net_profile_of_string p.np_name = Some p]. *)

val net_profile_to_string : net_profile -> string
(** Profile-file text: a [# amoeba-repro net profile v1] header then one
    [key value] pair per line (integers in ns/bytes), e.g.
    [byte_time_ns 800].  Round-trips through {!net_profile_parse}
    bit-exactly. *)

val net_profile_parse : string -> (net_profile, string) result
(** Inverse of {!net_profile_to_string}; rejects missing/duplicate keys,
    malformed or negative integers, and a zero byte time. *)

val net_profile_load : string -> (net_profile, string) result
val net_profile_save : string -> net_profile -> unit
(** File forms of parse/print, for [--profile FILE] and the calibration
    harness's [--out]. *)
