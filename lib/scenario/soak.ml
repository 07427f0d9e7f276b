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
  (* Checkers are not optional on a soak: the whole point of the long
     horizon is that the invariants hold through every fault window. *)
  let cell =
    Core.Cell.create ?faults:cfg.sk_faults ~checked:true ?net:cfg.sk_net
      ~policy:cfg.sk_policy ~n:cfg.sk_nodes (Core.Cluster.Rpc_stack cfg.sk_impl)
  in
  let cluster = Core.Cell.cluster cell in
  let eng = cluster.Core.Cluster.eng in
  let backends = Core.Cell.backends cell in
  (* Retransmissions and fault kills at the [nw + 1] window edges,
     scheduled ahead of [Load.Clients]' own edge snapshots: in each edge
     instant they run where the soak's single snapshot used to, which
     keeps pinned reports bit-identical. *)
  let nw = cfg.sk_windows in
  let w_start = Sim.Engine.now eng + cfg.sk_warmup in
  let retrans = Array.make (nw + 1) 0 and kills = Array.make (nw + 1) 0 in
  for i = 0 to nw do
    ignore
      (Sim.Engine.at eng
         (w_start + (i * cfg.sk_window))
         (fun () ->
           retrans.(i) <-
             Array.fold_left
               (fun acc b -> acc + b.Orca.Backend.retransmissions ())
               0 backends;
           kills.(i) <- Core.Cell.kills cell))
  done;
  let m =
    Load.Clients.run
      {
        Load.Clients.default with
        Load.Clients.op = cfg.sk_op;
        mix = cfg.sk_mix;
        arrival =
          Load.Arrival.Ramp { rp_period = cfg.sk_period; rp_floor = cfg.sk_floor };
        rate = cfg.sk_rate;
        clients_per_node = cfg.sk_clients_per_node;
        warmup = cfg.sk_warmup;
        window = cfg.sk_window;
        windows = nw;
        seed = cfg.sk_seed;
      }
      ~eng ~backends ~machines:cluster.Core.Cluster.machines ()
  in
  let verdict = Core.Cell.finish cell in
  let window i (w : Load.Metrics.t) =
    {
      w_index = i;
      w_start_ms = Sim.Time.to_ms (cfg.sk_warmup + (i * cfg.sk_window));
      w_offered = w.offered;
      w_achieved = w.achieved;
      w_p50_ms = w.p50_ms;
      w_p99_ms = w.p99_ms;
      w_p999_ms = w.p999_ms;
      w_server_util = w.server_util;
      w_retrans = retrans.(i + 1) - retrans.(i);
      w_kills = kills.(i + 1) - kills.(i);
    }
  in
  {
    r_label = m.label;
    r_op = m.op;
    r_windows = List.mapi window (Array.to_list m.per_window);
    r_issued = m.issued;
    r_completed = m.completed;
    r_p99_ms = m.p99_ms;
    r_p999_ms = m.p999_ms;
    r_retrans = retrans.(nw) - retrans.(0);
    r_kills = kills.(nw) - kills.(0);
    r_seq_crashed =
      (match cfg.sk_faults with
       | Some { Faults.Spec.seq_crash = Some _; _ } -> true
       | _ -> false);
    r_violations = verdict.Core.Cell.n_violations;
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
