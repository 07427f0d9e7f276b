type t = {
  eng : Sim.Engine.t;
  machines : Machine.Mach.t array;
  topo : Net.Topology.t;
  flips : Flip.Flip_iface.t array;
  extra : Flip.Flip_iface.t option;
  net : Params.net_profile;
  costs : Params.costs;
  mutable rnic_cache : Onesided.Rnic.t array option;
}

type impl = Kernel | User | User_dedicated | User_optimized

let impl_label = function
  | Kernel -> "kernel"
  | User -> "user"
  | User_dedicated -> "user-dedicated"
  | User_optimized -> "optimized"

let all_impls = [ Kernel; User; User_dedicated; User_optimized ]

type stack = Rpc_stack of impl | One_sided

let stack_label = function
  | Rpc_stack impl -> impl_label impl
  | One_sided -> "onesided"

let all_stacks =
  [ Rpc_stack Kernel; Rpc_stack User; Rpc_stack User_optimized; One_sided ]

let stack_of_string = function
  | "kernel" -> Some (Rpc_stack Kernel)
  | "user" -> Some (Rpc_stack User)
  | "user-dedicated" -> Some (Rpc_stack User_dedicated)
  | "optimized" -> Some (Rpc_stack User_optimized)
  | "onesided" -> Some One_sided
  | _ -> None

(* When set, every cluster shards its engine into conservative event lanes
   (multi-segment topologies only; see [Sim.Lanes]).  A process-wide
   default so the `--lanes` CLI flag reaches every experiment driver
   without threading a parameter through each one; set it before any
   cluster is built. *)
let lanes_default = ref false

let set_default_lanes b = lanes_default := b
let default_lanes () = !lanes_default

let create ?(extra_machine = false) ?(net = Params.net10m) ?(costs = Params.calibrated)
    ?lanes ~n () =
  let lanes = match lanes with Some b -> b | None -> !lanes_default in
  let eng = Sim.Engine.create () in
  let total = n + if extra_machine then 1 else 0 in
  let machines =
    Array.init total (fun i ->
        Machine.Mach.create eng ~id:i ~name:(Printf.sprintf "m%d" i) costs.Params.machine)
  in
  let topo =
    Net.Topology.build eng ~machines ~per_segment:8
      ~segment_config:net.Params.np_segment ~nic_config:net.Params.np_nic
      ~switch_latency:net.Params.np_switch ~lanes ()
  in
  let all_flips =
    Array.mapi
      (fun i mach ->
        Flip.Flip_iface.create mach ~config:costs.Params.flip (Net.Topology.nic topo i))
      machines
  in
  {
    eng;
    machines = Array.sub machines 0 n;
    topo;
    flips = Array.sub all_flips 0 n;
    extra = (if extra_machine then Some all_flips.(n) else None);
    net;
    costs;
    rnic_cache = None;
  }

let net t = t.net
let machine_lane t i = Net.Topology.machine_lane t.topo i

(* Ranks are placed on segments of eight in order, so segment s owns ranks
   [8s, 8s+8). *)
let per_segment = 8
let n_segments t = (Array.length t.machines + per_segment - 1) / per_segment

let server_ranks ?(per_segment_servers = 1) t =
  let n = Array.length t.machines in
  if per_segment_servers < 1 then
    invalid_arg "Cluster.server_ranks: need at least one server per segment";
  List.concat
    (List.init (n_segments t) (fun s ->
         List.filter_map
           (fun j ->
             let r = (s * per_segment) + j in
             if r < n then Some r else None)
           (List.init per_segment_servers Fun.id)))

(* Rnics are created lazily: [Address.fresh_point] draws from the engine's
   shared id sequence, so creating them eagerly would shift the addresses
   every existing (pinned) experiment sees. *)
let rnics t =
  match t.rnic_cache with
  | Some r -> r
  | None ->
    let r =
      Array.map (fun flip -> Onesided.Rnic.create ~config:Params.onesided flip) t.flips
    in
    (* Route exchange happens at connection setup in real one-sided
       fabrics (QP exchange); seeding the FLIP route caches models that
       and keeps LOCATE broadcasts off the measured data path. *)
    Array.iteri
      (fun i ri ->
        Array.iteri
          (fun j fj ->
            if i <> j then Flip.Flip_iface.add_route fj (Onesided.Rnic.addr ri) i)
          t.flips)
      r;
    t.rnic_cache <- Some r;
    r

let sequencer_support ?(seq_crash = false) impl policy =
  match (impl, policy) with
  | Kernel, (Panda.Seq_policy.Single | Panda.Seq_policy.Batching _) ->
    if seq_crash then
      Error
        "the kernel stack cannot recover from a sequencer crash (Amoeba's \
         reset protocol is not modeled)"
    else Ok ()
  | Kernel, p ->
    (* The kernel sequencer runs in interrupt context; of the capacity
       policies only ordering-batch coalescing translates (rotation and
       sharding would be kernel-reset-protocol surgery, §6). *)
    Error
      (Printf.sprintf
         "the kernel stack cannot run sequencer policy %s (single and batch only)"
         (Panda.Seq_policy.to_string p))
  | _, Panda.Seq_policy.Single when seq_crash ->
    Error "seqcrash needs a recoverable sequencer policy: single has no failover"
  | _ -> Ok ()

let stack_costs t = function
  | User_optimized -> Params.optimized t.costs
  | Kernel | User | User_dedicated -> t.costs

let backends ?checker ?(policy = Panda.Seq_policy.Single) ?seq_crash t impl =
  (match sequencer_support ~seq_crash:(seq_crash <> None) impl policy with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Cluster.backends: " ^ msg));
  let c = stack_costs t impl in
  let backends =
    match impl with
    | Kernel ->
      let group_config =
        match policy with
        | Panda.Seq_policy.Batching b ->
          { c.Params.amoeba_group with Amoeba.Group.seq_batch_max = b }
        | _ -> c.Params.amoeba_group
      in
      Orca.Backend.kernel_stack ~rpc_config:c.Params.amoeba_rpc ~group_config t.flips ()
    | User | User_dedicated | User_optimized ->
      let dedicated_sequencer =
        match (impl, t.extra) with
        | User_dedicated, Some flip -> Some flip
        | User_dedicated, None ->
          invalid_arg "Cluster.domain: no extra machine for the dedicated sequencer"
        | _ -> None
      in
      Orca.Backend.user_stack ~label:(impl_label impl) ~sys_config:c.Params.panda_system
        ~rpc_config:c.Params.panda_rpc ~group_config:c.Params.panda_group ~policy
        t.flips ?dedicated_sequencer ()
  in
  let backends =
    match checker with
    | Some c -> Faults.Invariants.wrap_backends c backends
    | None -> backends
  in
  Option.iter
    (fun at ->
      ignore (Sim.Engine.at t.eng at (fun () -> backends.(0).Orca.Backend.crash_sequencer ())))
    seq_crash;
  backends

let domain ?checker ?policy t impl =
  Orca.Rts.create_domain ~rts_overhead:Params.rts_overhead
    (backends ?checker ?policy t impl)

let sequencer_machine t impl =
  match impl with
  | User_dedicated ->
    (match t.extra with
     | Some flip -> Flip.Flip_iface.machine flip
     | None -> invalid_arg "Cluster.sequencer_machine: no extra machine")
  | Kernel | User | User_optimized -> t.machines.(0)
