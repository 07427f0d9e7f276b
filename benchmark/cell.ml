(* Runs one cell — one (workload, stack, latency|capacity) simulation on a
   fresh cluster — using only public library calls, and reads the public
   counters once it has drained.  Ops are counted by wrapping each
   backend's [rpc]/[broadcast] (or the sharded service's client op), which
   observes the run without touching simulated time. *)

open Core

type kind = Latency | Capacity

let kind_label = function Latency -> "latency" | Capacity -> "capacity"

type result = {
  metrics : Load.Metrics.t;
  attempted : int;
  returned : int;
  events : int;
  lane_windows : int;
  cross_merged : int;
  occupancy_hw : int;
  sim_s : float;  (** simulated seconds until the run drained *)
  frames : int;  (** frames carried, summed over segments *)
  wire_busy_s : float;  (** wire busy time, summed over segments *)
  segments : int;
  switch_fwd : int;
  packets : int;  (** FLIP packets sent, all machines *)
  retrans : int;  (** protocol (or NIC) retransmissions *)
  killed : int;  (** frames the fault injector killed *)
  posts : int;  (** one-sided operations posted *)
  layer_ns : int array;  (** window ledger CPU ns by [Obs.Layer.index] *)
  cause_ns : int array;  (** window ledger ns by [Obs.Cause.index] *)
  spans : int;  (** spans the window's recorder kept *)
  violations : int;
  shard_ops : int array;
  puts : int;
  gets : int;
}

(* A cell whose cluster, faults, stack and service are built but whose
   load has not run: [setup_s] is the host time the constructors took. *)
type prepared = { setup_s : float; go : unit -> result }

let counting_backend attempted returned (b : Orca.Backend.t) =
  {
    b with
    Orca.Backend.rpc =
      (fun ~dst ~size p ->
        incr attempted;
        let r = b.Orca.Backend.rpc ~dst ~size p in
        incr returned;
        r);
    broadcast =
      (fun ~nonblocking ?key ~size p ->
        incr attempted;
        b.Orca.Backend.broadcast ~nonblocking ?key ~size p;
        incr returned);
  }

let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a

(* The controller rank [Experiments.cluster_cell] reserves: the last rank
   that hosts no server.  Kept out of the client population so this
   runner drives the identical one. *)
let sharded_clients servers nodes =
  let rec last r = if Array.mem r servers then last (r - 1) else r in
  let controller = last (nodes - 1) in
  List.filter (fun r -> r <> controller && not (Array.mem r servers)) (List.init nodes Fun.id)

let prepare ?(checked = false) (w : Workloads.t) stack kind =
  let cfg = match kind with Latency -> w.latency | Capacity -> w.capacity in
  let setup_s = ref 0. in
  let setup name f =
    let t0 = Unix.gettimeofday () in
    let r = Spans.span name f in
    setup_s := !setup_s +. (Unix.gettimeofday () -. t0);
    r
  in
  let nodes, lanes =
    match w.target with
    | Workloads.Echo { nodes } -> (nodes, None)
    | Workloads.Sharded { nodes; _ } -> (nodes, Some true)
  in
  let cluster = setup "core.create" (fun () -> Cluster.create ?lanes ~n:nodes ()) in
  let eng = cluster.Cluster.eng and machines = cluster.Cluster.machines in
  let faults =
    if w.loss > 0. then
      Some
        (setup "faults.install" (fun () ->
             Faults.Inject.install eng cluster.Cluster.topo
               (Faults.Spec.loss ~seed:cfg.Load.Clients.seed w.loss)))
    else None
  in
  let checker = if checked then Some (Faults.Invariants.create ()) else None in
  let recorder = Obs.Recorder.create () in
  let attempted = ref 0 and returned = ref 0 in
  (* Each arm builds its stack now and returns the load run, deferred. *)
  let load, retrans, posts, service =
    match (w.target, stack) with
    | Workloads.Echo _, Cluster.Rpc_stack impl ->
      let raw = setup "core.backends" (fun () -> Cluster.backends ?checker cluster impl) in
      let backends = Array.map (counting_backend attempted returned) raw in
      ( (fun () ->
          Load.Clients.run cfg ~eng ~backends ~machines
            ~seq_machine:(Cluster.sequencer_machine cluster impl)
            ?client_ranks:(match kind with Capacity -> w.capacity_ranks | Latency -> None)
            ~shards:1 ~recorder ()),
        (fun () -> sum (fun b -> b.Orca.Backend.retransmissions ()) raw),
        (fun () -> 0),
        None )
    | Workloads.Echo _, Cluster.One_sided ->
      invalid_arg "Cell.prepare: the echo workloads have no one-sided stack"
    | Workloads.Sharded { shards; skew; read_pct; onesided_read_pct; _ }, _ ->
      let servers = Array.of_list (Cluster.server_ranks cluster) in
      let router = Shard.Router.create ~shards ~replicas:1 ~servers in
      let lane_of = Cluster.machine_lane cluster in
      let params =
        {
          Shard.Service.default_params with
          sv_shards = shards;
          sv_replicas = 1;
          sv_skew = skew;
          sv_read_pct = (match stack with Cluster.One_sided -> onesided_read_pct | _ -> read_pct);
        }
      in
      let service, retrans, posts =
        match stack with
        | Cluster.Rpc_stack impl ->
          let backends = setup "core.backends" (fun () -> Cluster.backends ?checker cluster impl) in
          let service =
            setup "shard.create" (fun () ->
                Shard.Service.create_rpc ~params ~backends ~router ~lane_of ())
          in
          (service, (fun () -> sum (fun b -> b.Orca.Backend.retransmissions ()) backends), fun () -> 0)
        | Cluster.One_sided ->
          let rnics = setup "core.rnics" (fun () -> Cluster.rnics cluster) in
          Option.iter (fun c -> Faults.Invariants.attach_rnics c rnics) checker;
          let service =
            setup "shard.create" (fun () -> Shard.Service.create_onesided ~params ~rnics ~router ())
          in
          ( service,
            (fun () -> sum Onesided.Rnic.retransmissions rnics),
            fun () -> sum Onesided.Rnic.posted rnics )
      in
      Option.iter (Shard.Service.register_checker service) checker;
      ( (fun () ->
          Load.Clients.run_custom cfg ~eng ~machines ~label:(Cluster.stack_label stack)
            ~op_name:"shard" ~lane_of ~server:servers.(0)
            ~client_ranks:(sharded_clients servers nodes) ~recorder
            ~op:(fun rank rng ->
              incr attempted;
              Shard.Service.client_op service ~rank rng;
              incr returned)
            ()),
        retrans,
        posts,
        Some service )
  in
  let go () =
    let metrics = Spans.span "load.run" load in
    let violations =
      (match checker with
       | Some c ->
         Faults.Invariants.finalize c;
         Faults.Invariants.n_violations c
       | None -> 0)
      +
      match service with
      | Some s -> Shard.Service.violations s + List.length (Shard.Service.check_at_rest s)
      | None -> 0
    in
    let topo = cluster.Cluster.topo in
    let segs = topo.Net.Topology.segments in
    {
      metrics = { metrics with Load.Metrics.violations };
      attempted = !attempted;
      returned = !returned;
      events = Sim.Engine.events_executed eng;
      lane_windows = Sim.Engine.windows eng;
      cross_merged = Sim.Engine.cross_merged eng;
      occupancy_hw = Sim.Engine.occupancy_hw eng;
      sim_s = Sim.Time.to_sec (Sim.Engine.now eng);
      frames = sum Net.Segment.frames_carried segs;
      wire_busy_s = Sim.Time.to_sec (sum Net.Segment.busy_time segs);
      segments = Array.length segs;
      switch_fwd =
        (match topo.Net.Topology.switch with
         | Some sw -> Net.Switch.frames_forwarded sw
         | None -> 0);
      packets = sum Flip.Flip_iface.packets_out cluster.Cluster.flips;
      retrans = retrans ();
      killed = (match faults with Some f -> Faults.Inject.killed f | None -> 0);
      posts = posts ();
      layer_ns =
        Array.of_list (List.map (Obs.Recorder.layer_ns recorder) Obs.Layer.all);
      cause_ns =
        Array.of_list (List.map (Obs.Recorder.cause_ns recorder) Obs.Cause.all);
      spans = Obs.Recorder.n_spans recorder;
      violations;
      shard_ops = (match service with Some s -> Shard.Service.shard_ops s | None -> [||]);
      puts = (match service with Some s -> Shard.Service.puts_acked s | None -> 0);
      gets = (match service with Some s -> Shard.Service.gets s | None -> 0);
    }
  in
  { setup_s = !setup_s; go }

let run ?checked w stack kind = (prepare ?checked w stack kind).go ()
