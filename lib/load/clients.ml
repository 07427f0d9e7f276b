type op = Rpc | Group

type config = {
  op : op;
  mix : Mix.t;
  reply_size : int;
  arrival : Arrival.t;
  rate : float;
  clients_per_node : int;
  warmup : Sim.Time.span;
  window : Sim.Time.span;
  windows : int;
  seed : int;
}

let default =
  {
    op = Rpc;
    mix = Mix.single 0;
    reply_size = 0;
    arrival = Arrival.Uniform;
    rate = 200.;
    clients_per_node = 4;
    warmup = Sim.Time.ms 250;
    window = Sim.Time.sec 1;
    windows = 1;
    seed = 1;
  }

let op_label = function Rpc -> "rpc" | Group -> "group"

(* One measurement window's accumulators. *)
type window = {
  lat : Sim.Stats.t;
  mutable issued : int;
  mutable completed : int;
  by_shard : int array;
}

(* The measurement engine shared by [run] (Orca backends) and
   [run_custom] (any op body, e.g. one-sided DHT ops).  [op rank rng size]
   issues one operation and returns its ordering shard, counted per window
   when [shards] > 0.  The order of every RNG split and every scheduled
   event is load-bearing: existing pinned results depend on it
   bit-for-bit. *)
let run_core cfg ~eng ~machines ~label ~op_name ?seq_machine ?lane_of ?trace
    ~server ~client_ranks ?recorder ~shards ~op () =
  if cfg.windows < 1 then invalid_arg "Clients: need at least one window";
  (* Replay runs off a trace: the explicit override if given, else the file
     named by a [Replay] arrival (loaded once, time-scaled).  [trace]
     stays [None] on every other path, which therefore executes exactly
     the pre-replay code. *)
  let trace =
    match trace with
    | Some _ as t -> t
    | None ->
      (match cfg.arrival with
       | Arrival.Replay { rp_path; rp_scale } ->
         (match Trace.load rp_path with
          | Ok tr -> Some (if rp_scale = 1. then tr else Trace.scale rp_scale tr)
          | Error e -> failwith ("Clients: " ^ e))
       | _ -> None)
  in
  let n_clients = cfg.clients_per_node * List.length client_ranks in
  let per_client_rate = cfg.rate /. float_of_int n_clients in
  let t0 = Sim.Engine.now eng in
  let w_start = t0 + cfg.warmup in
  let nw = cfg.windows in
  let w_end = w_start + (nw * cfg.window) in
  let wins =
    Array.init nw (fun _ ->
        {
          lat = Sim.Stats.create ();
          issued = 0;
          completed = 0;
          by_shard = Array.make shards 0;
        })
  in
  (* The whole measurement's histogram: the window's own when there is
     only one. *)
  let all = if nw = 1 then wins.(0).lat else Sim.Stats.create () in
  let note ~sched ~fin shard =
    if sched >= w_start && sched < w_end then begin
      let w = wins.((sched - w_start) / cfg.window) in
      w.issued <- w.issued + 1;
      let lat = Sim.Time.to_ms (fin - sched) in
      Sim.Stats.record w.lat "lat_ms" lat;
      if nw > 1 then Sim.Stats.record all "lat_ms" lat
    end;
    if fin >= w_start && fin < w_end then begin
      let w = wins.((fin - w_start) / cfg.window) in
      w.completed <- w.completed + 1;
      if shards > 0 then w.by_shard.(shard) <- w.by_shard.(shard) + 1
    end
  in
  (* Window edges: snapshot every CPU's busy time and the recorder's
     ledger, and scope the recorder to exactly the measured windows. *)
  let busy = Array.init (nw + 1) (fun _ -> Array.make (Array.length machines) 0) in
  let seq_busy = Array.make (nw + 1) 0 in
  let srv_intr = Array.make (nw + 1) 0 in
  let ledger = Array.make (nw + 1) 0 in
  let busy_time m = Machine.Cpu.busy_time (Machine.Mach.cpu m) in
  let recorder =
    match recorder with Some r -> r | None -> Obs.Recorder.create ()
  in
  for i = 0 to nw do
    ignore
      (Sim.Engine.at eng
         (w_start + (i * cfg.window))
         (fun () ->
           Array.iteri (fun j m -> busy.(i).(j) <- busy_time m) machines;
           (match seq_machine with Some m -> seq_busy.(i) <- busy_time m | None -> ());
           srv_intr.(i) <-
             Machine.Cpu.busy_interrupt_time (Machine.Mach.cpu machines.(server));
           if i = 0 then Obs.Recorder.install recorder;
           ledger.(i) <- Obs.Recorder.cpu_ns recorder;
           if i = nw then Obs.Recorder.uninstall ()))
  done;
  (* One RNG per client, split in client order from the root seed. *)
  let root = Sim.Rng.create ~seed:cfg.seed in
  let mean_gap_ns = if cfg.rate > 0. then 1e9 /. per_client_rate else 0. in
  let clients =
    List.concat_map
      (fun rank -> List.init cfg.clients_per_node (fun k -> (rank, k)))
      client_ranks
  in
  (* On a laned (multi-segment) engine every client fiber must be spawned
     under its machine's lane so its whole event chain stays lane-local;
     [lane_of] is the cluster's rank -> lane map.  A no-op — bit-identical
     event order — for the unlaned single-segment clusters every pinned
     result runs on. *)
  let spawn_laned rank f =
    match lane_of with
    | None -> ignore (f ())
    | Some lane -> Sim.Engine.with_lane eng (lane rank) (fun () -> ignore (f ()))
  in
  List.iteri
    (fun ci (rank, k) ->
      let rng = Sim.Rng.split root in
      let do_op size = op rank rng size in
      spawn_laned rank (fun () ->
        (Machine.Thread.spawn machines.(rank)
           (Printf.sprintf "load.%d.%d" rank k)
           (fun () ->
             match trace with
             | Some tr ->
               (* Trace replay: entries are dealt round-robin across the
                  client population; each request's schedule is its trace
                  time, so a client behind schedule issues back-to-back
                  and the latency it reports includes the backlog —
                  exactly the open-loop no-coordinated-omission rule. *)
               let len = Array.length tr in
               let rec loop j =
                 if j < len then begin
                   let e = tr.(j) in
                   let sched = t0 + e.Trace.at in
                   if sched < w_end then begin
                     let now = Sim.Engine.now eng in
                     if now < sched then Machine.Thread.sleep (sched - now);
                     let shard = do_op (Some e.Trace.size) in
                     note ~sched ~fin:(Sim.Engine.now eng) shard;
                     loop (j + n_clients)
                   end
                 end
               in
               loop ci
             | None ->
               (match cfg.arrival with
                | Arrival.Closed think ->
                  let rec loop () =
                    let sched = Sim.Engine.now eng in
                    if sched < w_end then begin
                      let shard = do_op None in
                      note ~sched ~fin:(Sim.Engine.now eng) shard;
                      if think > 0 then Machine.Thread.sleep think;
                      loop ()
                    end
                  in
                  loop ()
                | _ ->
                  (* Stagger client start times evenly across one mean gap so
                     deterministic arrivals don't land in lockstep bursts. *)
                  let offset =
                    int_of_float (mean_gap_ns *. float_of_int ci /. float_of_int n_clients)
                  in
                  let t_next = ref (t0 + offset) in
                  let rec loop () =
                    let now = Sim.Engine.now eng in
                    if !t_next < w_end && now < w_end then begin
                      if now < !t_next then Machine.Thread.sleep (!t_next - now);
                      let sched = !t_next in
                      t_next :=
                        sched
                        + Arrival.gap cfg.arrival ~rate:per_client_rate
                            ~now:sched rng;
                      let shard = do_op None in
                      note ~sched ~fin:(Sim.Engine.now eng) shard;
                      loop ()
                    end
                  in
                  loop ())))))
    clients;
  Sim.Engine.run eng;
  (* The metrics over window edges [a, b]: one window, or all of them.
     The run can drain before the last edge fires only if no client ever
     issues; guard so utilizations stay well-defined. *)
  let measure ~a ~b lat ~issued ~completed ~per_shard ~ledger_ns ~per_window =
    let span_s = Sim.Time.to_sec ((b - a) * cfg.window) in
    let frac ns = Float.max 0. (Sim.Time.to_sec ns /. span_s) in
    let util i = frac (busy.(b).(i) - busy.(a).(i)) in
    let server_util = util server in
    let achieved = float_of_int completed /. span_s in
    (* Replay and ramp arrivals have no single configured rate: the
       offered load is what was actually scheduled inside the window. *)
    let offered =
      if trace <> None then float_of_int issued /. span_s
      else
        match cfg.arrival with
        | Arrival.Closed _ -> achieved
        | Arrival.Ramp _ -> float_of_int issued /. span_s
        | _ -> cfg.rate
    in
    let pct p = Sim.Stats.percentile lat "lat_ms" p in
    {
      Metrics.label;
      op = op_name;
      offered;
      achieved;
      issued;
      completed;
      p50_ms = pct 50.;
      p95_ms = pct 95.;
      p99_ms = pct 99.;
      p999_ms = pct 99.9;
      mean_ms = Sim.Stats.mean lat "lat_ms";
      max_ms = (if Sim.Stats.count lat "lat_ms" = 0 then 0. else Sim.Stats.max_value lat "lat_ms");
      client_util = List.fold_left (fun acc r -> Float.max acc (util r)) 0. client_ranks;
      server_util;
      server_thread_util =
        frac (busy.(b).(server) - busy.(a).(server) - (srv_intr.(b) - srv_intr.(a)));
      seq_util =
        (match seq_machine with
         | Some _ -> frac (seq_busy.(b) - seq_busy.(a))
         | None -> server_util);
      ledger_cpu_ms = float_of_int ledger_ns /. 1e6;
      violations = 0;
      per_shard;
      per_window;
    }
  in
  let per_window =
    Array.mapi
      (fun i w ->
        measure ~a:i ~b:(i + 1) w.lat ~issued:w.issued ~completed:w.completed
          ~per_shard:w.by_shard ~ledger_ns:(ledger.(i + 1) - ledger.(i))
          ~per_window:[||])
      wins
  in
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 wins in
  measure ~a:0 ~b:nw all
    ~issued:(sum (fun w -> w.issued))
    ~completed:(sum (fun w -> w.completed))
    ~per_shard:(Array.init shards (fun s -> sum (fun w -> w.by_shard.(s))))
    ~ledger_ns:(Obs.Recorder.cpu_ns recorder) ~per_window

let resolve_ranks ~n ~server = function
  | Some l -> l
  | None -> List.filter (fun r -> r <> server) (List.init n Fun.id)

let run cfg ~eng ~backends ~machines ?seq_machine ?(server = 0) ?client_ranks
    ?recorder ?(shards = 1) ?trace () =
  let n = Array.length backends in
  if n < 2 then invalid_arg "Clients.run: need at least two ranks";
  if shards < 1 then invalid_arg "Clients.run: shards must be >= 1";
  let client_ranks = resolve_ranks ~n ~server client_ranks in
  if client_ranks = [] then invalid_arg "Clients.run: no client ranks";
  (* Echo server and group sink; installing on every rank is harmless and
     keeps the group's total order observable everywhere. *)
  Array.iter
    (fun b ->
      b.Orca.Backend.set_rpc_handler (fun ~client:_ ~size:_ _ ~reply ->
          reply ~size:cfg.reply_size Sim.Payload.Empty);
      b.Orca.Backend.set_deliver (fun ~sender:_ ~size:_ _ -> ()))
    backends;
  (* Group sends carry a counter-based ordering key — not an RNG draw, so
     the event stream (and every pinned single-shard result) is untouched
     — and each completion is attributed to the key's shard. *)
  let next_key = ref 0 in
  let op rank rng size =
    (* Replayed requests carry their trace size; everything else draws from
       the mix with exactly the pre-replay stream. *)
    let size = match size with Some s -> s | None -> Mix.pick cfg.mix rng in
    let b = backends.(rank) in
    match cfg.op with
    | Rpc ->
      ignore (b.Orca.Backend.rpc ~dst:server ~size Sim.Payload.Empty);
      0
    | Group ->
      let key = !next_key in
      incr next_key;
      b.Orca.Backend.broadcast ~nonblocking:false ~key ~size Sim.Payload.Empty;
      Panda.Seq_policy.shard_of_key ~shards key
  in
  run_core cfg ~eng ~machines
    ~label:backends.(0).Orca.Backend.label
    ~op_name:(op_label cfg.op) ?seq_machine ?trace ~server ~client_ranks
    ?recorder
    ~shards:(match cfg.op with Group -> shards | Rpc -> 0)
    ~op ()

let run_custom cfg ~eng ~machines ~label ~op_name ?seq_machine ?lane_of ?trace
    ?(server = 0) ?client_ranks ?recorder ~op () =
  let n = Array.length machines in
  if n < 2 then invalid_arg "Clients.run_custom: need at least two machines";
  let client_ranks = resolve_ranks ~n ~server client_ranks in
  if client_ranks = [] then invalid_arg "Clients.run_custom: no client ranks";
  run_core cfg ~eng ~machines ~label ~op_name ?seq_machine ?lane_of ?trace
    ~server ~client_ranks ?recorder ~shards:0
    ~op:(fun rank rng _size ->
      op rank rng;
      0)
    ()
