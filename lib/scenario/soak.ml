type config = {
  sk_impl : Core.Cluster.impl;
  sk_nodes : int;
  sk_policy : Panda.Seq_policy.t;
  sk_op : Load.Clients.op;
  sk_mix : Load.Mix.t;
  sk_rate : float;
  sk_period : Sim.Time.span;
  sk_floor : float;
  sk_clients_per_node : int;
  sk_warmup : Sim.Time.span;
  sk_window : Sim.Time.span;
  sk_windows : int;
  sk_faults : Faults.Spec.t option;
  sk_net : Core.Params.net_profile option;
  sk_seed : int;
}

let default =
  {
    sk_impl = Core.Cluster.User;
    sk_nodes = 4;
    sk_policy = Panda.Seq_policy.Single;
    sk_op = Load.Clients.Rpc;
    sk_mix = Load.Mix.single 0;
    sk_rate = 400.;
    sk_period = Sim.Time.sec 2;
    sk_floor = 0.25;
    sk_clients_per_node = 2;
    sk_warmup = Sim.Time.ms 100;
    sk_window = Sim.Time.ms 250;
    sk_windows = 8;
    sk_faults = None;
    sk_net = None;
    sk_seed = 1;
  }

type window = {
  w_index : int;
  w_start_ms : float;
  w_offered : float;
  w_achieved : float;
  w_p50_ms : float;
  w_p99_ms : float;
  w_p999_ms : float;
  w_server_util : float;
  w_retrans : int;
  w_kills : int;
}

type report = {
  r_label : string;
  r_op : string;
  r_windows : window list;
  r_issued : int;
  r_completed : int;
  r_p99_ms : float;
  r_p999_ms : float;
  r_retrans : int;
  r_kills : int;
  r_seq_crashed : bool;
  r_violations : int;
}

let run cfg =
  if cfg.sk_windows < 1 then invalid_arg "Soak.run: need at least one window";
  if cfg.sk_nodes < 2 then invalid_arg "Soak.run: need at least two nodes";
  if not (Float.is_finite cfg.sk_rate) || cfg.sk_rate <= 0. then
    invalid_arg "Soak.run: peak rate not positive";
  let cluster =
    Core.Cluster.create
      ~extra_machine:(cfg.sk_impl = Core.Cluster.User_dedicated)
      ?net:cfg.sk_net ~n:cfg.sk_nodes ()
  in
  let eng = cluster.Core.Cluster.eng in
  let machines = cluster.Core.Cluster.machines in
  let fault_stats =
    Option.map
      (Faults.Inject.install eng cluster.Core.Cluster.topo)
      cfg.sk_faults
  in
  (* Checkers are not optional on a soak: the whole point of the long
     horizon is that the invariants hold through every fault window. *)
  let shards = Panda.Seq_policy.shards cfg.sk_policy in
  let checker = Faults.Invariants.create ~shards () in
  let backends =
    Core.Cluster.backends ~checker ~policy:cfg.sk_policy
      ?seq_crash:(Option.bind cfg.sk_faults (fun f -> f.Faults.Spec.seq_crash))
      cluster cfg.sk_impl
  in
  (* Echo server and group sink, as in [Load.Clients.run]. *)
  Array.iter
    (fun b ->
      b.Orca.Backend.set_rpc_handler (fun ~client:_ ~size:_ _ ~reply ->
          reply ~size:0 Sim.Payload.Empty);
      b.Orca.Backend.set_deliver (fun ~sender:_ ~size:_ _ -> ()))
    backends;
  let server = 0 in
  let client_ranks =
    List.filter (fun r -> r <> server) (List.init cfg.sk_nodes Fun.id)
  in
  let n_clients = cfg.sk_clients_per_node * List.length client_ranks in
  let per_client_rate = cfg.sk_rate /. float_of_int n_clients in
  let t0 = Sim.Engine.now eng in
  let w_start = t0 + cfg.sk_warmup in
  let horizon = w_start + (cfg.sk_windows * cfg.sk_window) in
  let window_s = Sim.Time.to_sec cfg.sk_window in
  (* Per-window accounting plus a whole-horizon histogram. *)
  let nw = cfg.sk_windows in
  let win_stats = Array.init nw (fun _ -> Sim.Stats.create ()) in
  let issued_w = Array.make nw 0 and completed_w = Array.make nw 0 in
  let all = Sim.Stats.create () in
  let win_of at = if at < w_start then -1 else (at - w_start) / cfg.sk_window in
  let note ~sched ~fin =
    let wi = win_of sched in
    if wi >= 0 && wi < nw then begin
      issued_w.(wi) <- issued_w.(wi) + 1;
      let lat = Sim.Time.to_ms (fin - sched) in
      Sim.Stats.record win_stats.(wi) "lat_ms" lat;
      Sim.Stats.record all "lat_ms" lat
    end;
    let wf = win_of fin in
    if wf >= 0 && wf < nw then completed_w.(wf) <- completed_w.(wf) + 1
  in
  (* Boundary snapshots: retransmissions, fault kills and the server's
     busy time at the [nw + 1] window edges. *)
  let retrans_snap = Array.make (nw + 1) 0 in
  let kills_snap = Array.make (nw + 1) 0 in
  let busy_snap = Array.make (nw + 1) 0 in
  let total_retrans () =
    Array.fold_left (fun acc b -> acc + b.Orca.Backend.retransmissions ()) 0 backends
  in
  let kills () =
    match fault_stats with Some s -> Faults.Inject.killed s | None -> 0
  in
  for i = 0 to nw do
    ignore
      (Sim.Engine.at eng
         (w_start + (i * cfg.sk_window))
         (fun () ->
           retrans_snap.(i) <- total_retrans ();
           kills_snap.(i) <- kills ();
           busy_snap.(i) <- Machine.Cpu.busy_time (Machine.Mach.cpu machines.(server))))
  done;
  (* The client population: identical RNG-split order and staggering to
     [Load.Clients.run_core], with the ramp's diurnal gap draws. *)
  let arrival =
    Load.Arrival.Ramp { rp_period = cfg.sk_period; rp_floor = cfg.sk_floor }
  in
  let next_key = ref 0 in
  let do_op rank rng =
    let size = Load.Mix.pick cfg.sk_mix rng in
    let b = backends.(rank) in
    match cfg.sk_op with
    | Load.Clients.Rpc ->
      ignore (b.Orca.Backend.rpc ~dst:server ~size Sim.Payload.Empty)
    | Load.Clients.Group ->
      let key = !next_key in
      incr next_key;
      b.Orca.Backend.broadcast ~nonblocking:false ~key ~size Sim.Payload.Empty
  in
  let root = Sim.Rng.create ~seed:cfg.sk_seed in
  let mean_gap_ns = 1e9 /. per_client_rate in
  let clients =
    List.concat_map
      (fun rank -> List.init cfg.sk_clients_per_node (fun k -> (rank, k)))
      client_ranks
  in
  List.iteri
    (fun ci (rank, k) ->
      let rng = Sim.Rng.split root in
      ignore
        (Machine.Thread.spawn machines.(rank)
           (Printf.sprintf "soak.%d.%d" rank k)
           (fun () ->
             let offset =
               int_of_float
                 (mean_gap_ns *. float_of_int ci /. float_of_int n_clients)
             in
             let t_next = ref (t0 + offset) in
             let rec loop () =
               let now = Sim.Engine.now eng in
               if !t_next < horizon && now < horizon then begin
                 if now < !t_next then Machine.Thread.sleep (!t_next - now);
                 let sched = !t_next in
                 t_next :=
                   sched
                   + Load.Arrival.gap arrival ~rate:per_client_rate ~now:sched rng;
                 do_op rank rng;
                 note ~sched ~fin:(Sim.Engine.now eng);
                 loop ()
               end
             in
             loop ())))
    clients;
  Sim.Engine.run eng;
  Faults.Invariants.finalize checker;
  let windows =
    List.init nw (fun i ->
        let lat p = Sim.Stats.percentile win_stats.(i) "lat_ms" p in
        {
          w_index = i;
          w_start_ms = Sim.Time.to_ms (w_start + (i * cfg.sk_window) - t0);
          w_offered = float_of_int issued_w.(i) /. window_s;
          w_achieved = float_of_int completed_w.(i) /. window_s;
          w_p50_ms = lat 50.;
          w_p99_ms = lat 99.;
          w_p999_ms = lat 99.9;
          w_server_util =
            Float.max 0.
              (Sim.Time.to_sec (busy_snap.(i + 1) - busy_snap.(i)) /. window_s);
          w_retrans = retrans_snap.(i + 1) - retrans_snap.(i);
          w_kills = kills_snap.(i + 1) - kills_snap.(i);
        })
  in
  {
    r_label = backends.(0).Orca.Backend.label;
    r_op = (match cfg.sk_op with Load.Clients.Rpc -> "rpc" | Group -> "group");
    r_windows = windows;
    r_issued = Array.fold_left ( + ) 0 issued_w;
    r_completed = Array.fold_left ( + ) 0 completed_w;
    r_p99_ms = Sim.Stats.p99 all "lat_ms";
    r_p999_ms = Sim.Stats.p999 all "lat_ms";
    r_retrans = retrans_snap.(nw) - retrans_snap.(0);
    r_kills = kills_snap.(nw) - kills_snap.(0);
    r_seq_crashed =
      (match cfg.sk_faults with
       | Some { Faults.Spec.seq_crash = Some _; _ } -> true
       | _ -> false);
    r_violations = Faults.Invariants.n_violations checker;
  }

let pp_window fmt w =
  Format.fprintf fmt
    "w%-2d %8.0f ms  %7.1f off  %7.1f ach  p50 %7.3f  p99 %7.3f  p99.9 %8.3f  srv %5.1f%%  rt %-4d kill %d"
    w.w_index w.w_start_ms w.w_offered w.w_achieved w.w_p50_ms w.w_p99_ms
    w.w_p999_ms
    (100. *. w.w_server_util)
    w.w_retrans w.w_kills

let pp_report fmt r =
  Format.fprintf fmt "soak %s/%s: %d windows@." r.r_label r.r_op
    (List.length r.r_windows);
  List.iter (fun w -> Format.fprintf fmt "  %a@." pp_window w) r.r_windows;
  Format.fprintf fmt
    "  total: %d issued, %d completed, p99 %.3f ms, p99.9 %.3f ms, %d retrans, %d kills%s, %d violations"
    r.r_issued r.r_completed r.r_p99_ms r.r_p999_ms r.r_retrans r.r_kills
    (if r.r_seq_crashed then ", seqcrash" else "")
    r.r_violations
