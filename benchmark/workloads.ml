(* The benchmark's workloads, as one data table.  Each workload runs a
   latency cell (open loop, Poisson arrivals at a fixed rate, latency timed
   from the scheduled arrival) and a capacity cell (closed loop, zero
   think time) on every stack it lists.  Windows are sized so every
   latency cell's p99.9 rests on at least 10 000 samples. *)

type target =
  | Echo of { nodes : int }
      (** rank 0 is the RPC echo server (or, for group traffic, hosts the
          [Single] sequencer); every other rank runs clients *)
  | Sharded of {
      nodes : int;
      shards : int;
      skew : Load.Keys.skew;
      read_pct : int;  (** gets in the op mix over the RPC stacks *)
      onesided_read_pct : int;  (** gets in the op mix over the one-sided stack *)
    }
      (** the laned multi-segment pool running [Shard.Service], placed as
          [Core.Experiments.cluster_cell] places it *)

type t = {
  name : string;
  why : string;
  target : target;
  stacks : Core.Cluster.stack list;
  loss : float;  (** i.i.d. frame loss on every segment, seeded by the cell's seed *)
  latency : Load.Clients.config;
  capacity : Load.Clients.config;
  capacity_ranks : int list option;
      (** client ranks of the capacity cell; [None] is every non-server rank *)
}

let rpc_stacks = Core.Cluster.[ Rpc_stack Kernel; Rpc_stack User; Rpc_stack User_optimized ]
let sec = Sim.Time.sec

let open_loop ~rate ~window base =
  { base with Load.Clients.arrival = Load.Arrival.Poisson; rate; window }

let closed ~window base =
  { base with Load.Clients.arrival = Load.Arrival.Closed 0; window }

let null_rpc = { Load.Clients.default with Load.Clients.clients_per_node = 4 }

let bulk_mix =
  match Load.Mix.parse "0x4,1024x3,4096x2,8192x1" with
  | Ok m -> m
  | Error e -> invalid_arg e

let all =
  [
    {
      name = "rpc-null";
      why =
        "null RPCs to rank 0 from 28 clients on 8 nodes: per-message CPU \
         dominates; bypasses fragmentation, switch, lanes and loss";
      target = Echo { nodes = 8 };
      stacks = rpc_stacks;
      loss = 0.;
      latency = open_loop ~rate:600. ~window:(sec 40) null_rpc;
      capacity = closed ~window:(sec 5) null_rpc;
      capacity_ranks = None;
    };
    {
      name = "rpc-bulk";
      why =
        "0-8 KB RPC mix: fragmentation, copies and the 10 Mbit wire \
         dominate; capacity is wire-bound, so a per-message CPU saving must \
         not move it";
      target = Echo { nodes = 8 };
      stacks = rpc_stacks;
      loss = 0.;
      latency =
        open_loop ~rate:200. ~window:(sec 120) { null_rpc with Load.Clients.mix = bulk_mix };
      capacity = closed ~window:(sec 10) { null_rpc with Load.Clients.mix = bulk_mix };
      capacity_ranks = None;
    };
    {
      name = "group-ordered";
      why =
        "ordered broadcast through the Single sequencer on rank 0: multicast \
         and the sequencer wall; bypasses the RPC path";
      target = Echo { nodes = 8 };
      stacks = rpc_stacks;
      loss = 0.;
      latency =
        open_loop ~rate:300. ~window:(sec 60)
          { null_rpc with Load.Clients.op = Load.Clients.Group };
      capacity =
        closed ~window:(sec 5)
          { null_rpc with Load.Clients.op = Load.Clients.Group; clients_per_node = 2 };
      capacity_ranks = Some [ 1; 2; 3; 4 ];
    };
    {
      name = "rpc-lossy";
      why =
        "rpc-null with 1% frame loss: the fixed 200 ms retransmit timer owns \
         the tail; exercises retransmission, the timing wheel and the \
         injector";
      target = Echo { nodes = 8 };
      stacks = rpc_stacks;
      loss = 0.01;
      latency = open_loop ~rate:600. ~window:(sec 40) null_rpc;
      capacity = closed ~window:(sec 5) null_rpc;
      capacity_ranks = None;
    };
    {
      name = "cluster-zipf";
      why =
        "64 nodes on 8 laned segments, 32-shard Zipf(0.99) get/put service: \
         the only workload with lanes, the switch, routing and one-sided \
         ops";
      (* The one-sided put publishes its block after the cas that claims
         the version, so two puts to one hot key can land out of version
         order and the at-rest audit flags the key; the one-sided cells
         therefore run gets only.  The latency rate sits well below the
         kernel stack's knee (~4200 op/s): near it the hot shard's p99.9
         swings fourfold from seed to seed. *)
      target =
        Sharded
          {
            nodes = 64;
            shards = 32;
            skew = Load.Keys.Zipf 0.99;
            read_pct = 90;
            onesided_read_pct = 100;
          };
      stacks = Core.Cluster.[ Rpc_stack Kernel; Rpc_stack User; Rpc_stack User_optimized; One_sided ];
      loss = 0.;
      latency = open_loop ~rate:1000. ~window:(sec 12) Core.Experiments.cluster_default_config;
      capacity = closed ~window:(sec 3) Core.Experiments.cluster_default_config;
      capacity_ranks = None;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let names = List.map (fun w -> w.name) all

let with_seed seed w =
  {
    w with
    latency = { w.latency with Load.Clients.seed };
    capacity = { w.capacity with Load.Clients.seed };
  }
