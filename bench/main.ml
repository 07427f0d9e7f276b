(* The benchmark harness: regenerates every table and in-text measurement
   of the paper's evaluation, plus this reproduction's own ablations.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table1       -- one artifact
     dune exec bench/main.exe -- table3 quick -- Table 3 at P in {1,8} only
     dune exec bench/main.exe -- table3 -j 4  -- fan cells out over 4 domains
     dune exec bench/main.exe -- table1 json  -- also write BENCH_results.json

   `-j N` runs the independent simulations of each artifact on a pool of
   N domains (default: the host's recommended domain count; `-j 1` is the
   sequential path).  Every simulation is deterministic and confined to
   one domain, so the printed tables are bit-identical for every N.
   `--lanes` additionally shards each multi-segment cluster's engine into
   conservative per-segment event lanes — also bit-identical.  The
   `engine` artifact benchmarks the scheduler itself (pure event churn,
   the timer-cancel pattern with the timing wheel on vs off, and the
   laned window/merge machinery).

   A Bechamel group (one Test.make per table, plus event-heap
   microbenchmarks) measures the host-side cost of regenerating each
   artifact; run it with `bechamel`. *)

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Paper values for side-by-side printing. *)
let paper_table1 =
  [
    (0, (0.53, 0.62, 1.56, 1.27, 1.67, 1.44));
    (1024, (1.50, 1.58, 2.53, 2.23, 3.59, 3.38));
    (2048, (2.50, 2.55, 3.60, 3.40, 3.67, 3.44));
    (3072, (3.72, 3.74, 4.77, 4.48, 4.84, 4.56));
    (4096, (4.18, 4.23, 5.27, 5.06, 5.35, 5.25));
  ]

let paper_table3 =
  (* app -> impl -> [P1; P8; P16; P32] *)
  [
    ("tsp", [ ("kernel", [ 790.; 87.; 44.; 23. ]); ("user", [ 783.; 92.; 46.; 24. ]) ]);
    ("asp", [ ("kernel", [ 213.; 30.; 17.; 11. ]); ("user", [ 216.; 31.; 18.; 11. ]) ]);
    ("ab", [ ("kernel", [ 565.; 106.; 78.; 60. ]); ("user", [ 567.; 106.; 78.; 59. ]) ]);
    ("rl", [ ("kernel", [ 759.; 132.; 115.; 114. ]); ("user", [ 767.; 133.; 119.; 108. ]) ]);
    ("sor", [ ("kernel", [ 118.; 20.; 14.; 13. ]); ("user", [ 118.; 19.; 13.; 11. ]) ]);
    ( "leq",
      [
        ("kernel", [ 521.; 102.; 91.; 127. ]);
        ("user", [ 527.; 113.; 112.; 164. ]);
        ("user-dedicated", [ 527.; 116.; 94.; 128. ]);
      ] );
  ]

let print_table1 ?pool ?faults ~net () =
  hr
    "Table 1: communication latencies [ms] (paper values in parentheses; \
     optimized columns are this reproduction's own)";
  Printf.printf
    "%6s  %-14s %-14s %-14s %-14s %-14s %-14s %-9s %-9s\n"
    "size" "unicast/user" "mcast/user" "RPC/user" "RPC/kernel" "group/user"
    "group/kernel" "RPC/opt" "group/opt";
  let profile = Core.Experiments.(with_net net default_profile) in
  let rows = Core.Experiments.table1 ?pool ?faults ~profile () in
  List.iter2
    (fun r (_, (pu, pm, pru, prk, pgu, pgk)) ->
      Printf.printf
        "%6d  %5.2f (%4.2f)   %5.2f (%4.2f)   %5.2f (%4.2f)   %5.2f (%4.2f)   %5.2f (%4.2f)   %5.2f (%4.2f)   %5.2f     %5.2f\n"
        r.Core.Experiments.lr_size r.Core.Experiments.lr_unicast pu
        r.Core.Experiments.lr_multicast pm r.Core.Experiments.lr_rpc_user pru
        r.Core.Experiments.lr_rpc_kernel prk r.Core.Experiments.lr_grp_user pgu
        r.Core.Experiments.lr_grp_kernel pgk r.Core.Experiments.lr_rpc_opt
        r.Core.Experiments.lr_grp_opt)
    rows paper_table1

let print_table2 ?pool ?faults ~net () =
  hr
    "Table 2: communication throughputs [KB/s] (paper values in parentheses; \
     optimized column is this reproduction's own)";
  let profile = Core.Experiments.(with_net net default_profile) in
  let paper = [ ("RPC", (825., 897.)); ("group", (941., 941.)) ] in
  List.iter2
    (fun r (_, (pu, pk)) ->
      Printf.printf
        "%-6s  user %5.0f (%4.0f)   kernel %5.0f (%4.0f)   optimized %5.0f\n"
        r.Core.Experiments.tr_proto r.Core.Experiments.tr_user pu
        r.Core.Experiments.tr_kernel pk r.Core.Experiments.tr_opt)
    (Core.Experiments.table2 ?pool ?faults ~profile ())
    paper

let paper_time app impl procs =
  match List.assoc_opt app paper_table3 with
  | None -> None
  | Some impls -> (
      match List.assoc_opt impl impls with
      | None -> None
      | Some times -> (
          match List.assoc_opt procs [ (1, 0); (8, 1); (16, 2); (32, 3) ] with
          | Some idx -> List.nth_opt times idx
          | None -> None))

let print_table3 ?pool ?faults ?checked ~net ?(procs = [ 1; 8; 16; 32 ]) () =
  hr "Table 3: Orca application runtimes [s] (paper values in parentheses)";
  Printf.printf "%-4s %-15s" "app" "implementation";
  List.iter (fun p -> Printf.printf "  %12s" (Printf.sprintf "P=%d" p)) procs;
  Printf.printf "  %8s\n" "speedup";
  let outcomes = Core.Experiments.table3 ?pool ?faults ?checked ~net ~procs () in
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun o ->
      Hashtbl.replace by_key
        (o.Core.Runner.o_app, Core.Cluster.impl_label o.Core.Runner.o_impl, o.Core.Runner.o_procs)
        o)
    outcomes;
  let any_invalid = ref false in
  List.iter
    (fun (app, impls) ->
      (* The optimized user-space stack has no paper column — it is this
         reproduction's own extension — but its rows print alongside. *)
      let impls = impls @ [ ("optimized", []) ] in
      List.iter
        (fun (impl, _) ->
          let times =
            List.filter_map (fun p -> Hashtbl.find_opt by_key (app, impl, p)) procs
          in
          if times <> [] then begin
            Printf.printf "%-4s %-15s" app impl;
            List.iter
              (fun o ->
                if not o.Core.Runner.o_valid then any_invalid := true;
                match paper_time app impl o.Core.Runner.o_procs with
                | Some pt ->
                  Printf.printf "  %6.1f (%4.0f)" o.Core.Runner.o_seconds pt
                | None -> Printf.printf "  %6.1f       " o.Core.Runner.o_seconds)
              times;
            (match (times, List.rev times) with
             | first :: _, last :: _ when List.length times > 1 ->
               Printf.printf "  %8.1f"
                 (first.Core.Runner.o_seconds /. last.Core.Runner.o_seconds)
             | _ -> ());
            Printf.printf "\n"
          end)
        impls)
    paper_table3;
  if !any_invalid then
    Printf.printf "WARNING: some runs produced checksums differing from the sequential reference!\n"
  else
    Printf.printf "(all runs validated against host-side sequential results)\n"

let print_breakdown ?pool () =
  let rpc_analytic = Core.Experiments.rpc_breakdown ?pool () in
  let grp_analytic = Core.Experiments.group_breakdown ?pool () in
  hr "RPC null-latency gap breakdown [us] (paper, Sec. 4.2)";
  let paper =
    [
      ("total user-kernel gap", 300.);
      ("context switches", 140.);
      ("register-window traps", 50.);
      ("double fragmentation", 40.);
      ("header size difference", 16.);
      ("untuned user-level FLIP interface", 54.);
    ]
  in
  List.iter2
    (fun (label, v) (_, pv) -> Printf.printf "  %-36s %6.0f (paper ~%3.0f)\n" label v pv)
    rpc_analytic paper;
  hr "Group breakdown [us]: total gap + user-path mechanism costs (paper, Sec. 4.3)";
  let paper =
    [
      ("total user-kernel gap", 230.);
      ("context switches", 110.);
      ("register-window traps", 50.);
      ("double fragmentation", 20.);
      ("header size difference", -24.);
      ("untuned user-level FLIP interface", 30.);
    ]
  in
  List.iter2
    (fun (label, v) (_, pv) ->
      Printf.printf "  %-48s %6.0f (paper's differential ~%4.0f)\n" label v pv)
    grp_analytic paper;
  hr "Measured accounting from the cost ledger [us/round] (Sec. 4.2/4.3 re-derived)";
  let rpc_measured, grp_measured = Core.Experiments.measured_breakdown ?pool () in
  let print_side analytic rows =
    List.iter
      (fun (label, v) ->
        match List.assoc_opt label analytic with
        | Some a -> Printf.printf "  %-48s %6.1f (analytic %6.1f)\n" label v a
        | None -> Printf.printf "  %-48s %6.1f\n" label v)
      rows
  in
  Printf.printf "RPC (user-kernel ledger deltas):\n";
  print_side rpc_analytic rpc_measured;
  Printf.printf "group (user path; total and header rows are deltas):\n";
  print_side grp_analytic grp_measured

(* The optimized user-space stack's differential: which (layer, cause)
   ledger cells each of the four optimizations removed, with the residual
   (savings owned by no mechanism) required to be zero. *)
let print_optimized ?pool () =
  hr "Optimized user-space stack: null-latency differential vs. baseline";
  let rpc_o, grp_o = Core.Experiments.optimized_breakdown ?pool () in
  Format.printf "@[<v>optimized rpc:@,%a@]@." Core.Experiments.pp_opt_breakdown
    rpc_o;
  Format.printf "@[<v>optimized group:@,%a@]@."
    Core.Experiments.pp_opt_breakdown grp_o

let print_fault_sweep ?pool ?(quick = false) ?seed ~net () =
  hr "Fault sweep: degradation and conformance vs. frame-loss rate";
  let rates = if quick then [ 0.; 0.01 ] else [ 0.; 0.001; 0.01; 0.05 ] in
  let rows = Core.Experiments.fault_sweep ?pool ~net ~rates ?seed () in
  List.iter (fun r -> Format.printf "  %a@." Core.Experiments.pp_fault_row r) rows;
  if
    List.exists
      (fun r -> r.Core.Experiments.fw_violations > 0 || not r.Core.Experiments.fw_valid)
      rows
  then Printf.printf "WARNING: invariant violations or invalid results under faults!\n"
  else Printf.printf "(all rates: zero invariant violations, results match fault-free)\n"

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Load sweeps: throughput-latency curves per stack plus the
   sequencer-saturation scaling; the measured points also feed a "load"
   section of the json report.  Quick mode is the CI smoke: one stack,
   short ramp, no sequencer experiment. *)

let load_json : string option ref = ref None

let print_load ?pool ?faults ?(quick = false) ~net () =
  hr "Load: throughput-latency curves (null RPC, open loop)";
  let impls =
    if quick then [ Core.Cluster.User_optimized ] else Core.Experiments.load_impls
  in
  let window = Sim.Time.us_f (if quick then 0.3e6 else 1e6) in
  let warmup = Sim.Time.ms (if quick then 100 else 250) in
  let config = { Load.Clients.default with Load.Clients.window; warmup } in
  let rates =
    if quick then [ 400.; 1200.; 2000. ] else Core.Experiments.load_rates
  in
  let checked = faults <> None in
  let np = net.Core.Params.np_name in
  let curves =
    Core.Experiments.load_sweep ?pool ?faults ~checked ~net ~config ~rates
      ~impls ()
  in
  List.iter
    (fun (_, curve) -> Format.printf "%a@.@." Load.Sweep.pp_curve curve)
    curves;
  let saturation =
    begin
      (* Quick mode keeps a 2-point sweep on the one quick stack so the CI
         smoke still exercises — and the json still records — the
         sequencer-scaling pipeline. *)
      hr
        (if quick then
           "Load: sequencer saturation (quick: 2-point sweep, 8 nodes)"
         else "Load: sequencer saturation (closed-loop group senders, 8 nodes)");
      let rows =
        if quick then
          Core.Experiments.sequencer_saturation ?pool ?faults ~checked ~net
            ~config ~senders:[ 1; 2 ] ~impls ()
        else
          Core.Experiments.sequencer_saturation ?pool ?faults ~checked ~net
            ~config ()
      in
      List.iter
        (fun (_, points) ->
          List.iter
            (fun row -> Format.printf "  %a@." Core.Experiments.pp_saturation_row row)
            points;
          Format.printf "@.")
        rows;
      rows
    end
  in
  let policy_rows =
    begin
      hr
        (if quick then
           "Load: sequencer policy capacity (quick: 2-point sweep, user stack)"
         else
           "Load: sequencer policy capacity (user stack, policy x senders)");
      let rows =
        if quick then
          Core.Experiments.sequencer_policy_sweep ?pool ?faults ~checked ~net
            ~config ~senders:[ 1; 2 ] ()
        else
          Core.Experiments.sequencer_policy_sweep ?pool ?faults ~checked ~net
            ~config ()
      in
      List.iter
        (fun (policy, points) ->
          List.iter
            (fun row ->
              Format.printf "  %a@." Core.Experiments.pp_policy_row (policy, row))
            points;
          Format.printf "@.")
        rows;
      rows
    end
  in
  let b = Buffer.create 1024 in
  let point m =
    Printf.sprintf
      "{\"offered\": %.1f, \"achieved\": %.1f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, \"server_util\": %.4f, \"seq_util\": %.4f, \"violations\": %d}"
      m.Load.Metrics.offered m.Load.Metrics.achieved m.Load.Metrics.p50_ms
      m.Load.Metrics.p95_ms m.Load.Metrics.p99_ms m.Load.Metrics.server_util
      m.Load.Metrics.seq_util m.Load.Metrics.violations
  in
  Buffer.add_string b "{\n    \"rpc_sweep\": [\n";
  List.iteri
    (fun i (_, curve) ->
      Buffer.add_string b
        (Printf.sprintf
           "      {\"profile\": \"%s\", \"stack\": \"%s\", \"knee\": %s, \"peak\": %.1f, \"points\": [%s]}%s\n"
           (json_escape np)
           (json_escape curve.Load.Sweep.c_label)
           (match Load.Sweep.knee curve with
            | Load.Sweep.Knee k -> Printf.sprintf "%.1f" k
            | Load.Sweep.Unsaturated -> "\"unsaturated\""
            | Load.Sweep.Saturated -> "null")
           (Load.Sweep.peak curve)
           (String.concat ", " (List.map point curve.Load.Sweep.c_points))
           (if i = List.length curves - 1 then "" else ",")))
    curves;
  let sat_point (s, m) =
    let shards =
      if Array.length m.Load.Metrics.per_shard > 1 then
        Printf.sprintf ", \"per_shard\": [%s]"
          (String.concat ", "
             (Array.to_list (Array.map string_of_int m.Load.Metrics.per_shard)))
      else ""
    in
    Printf.sprintf
      "{\"senders\": %d, \"achieved\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"seq_util\": %.4f, \"violations\": %d%s}"
      s m.Load.Metrics.achieved m.Load.Metrics.p50_ms m.Load.Metrics.p99_ms
      m.Load.Metrics.seq_util m.Load.Metrics.violations shards
  in
  Buffer.add_string b "    ],\n    \"sequencer_saturation\": [\n";
  List.iteri
    (fun i (impl, points) ->
      Buffer.add_string b
        (Printf.sprintf
           "      {\"profile\": \"%s\", \"stack\": \"%s\", \"points\": [%s]}%s\n"
           (json_escape np)
           (json_escape (Core.Cluster.impl_label impl))
           (String.concat ", " (List.map sat_point points))
           (if i = List.length saturation - 1 then "" else ",")))
    saturation;
  Buffer.add_string b "    ],\n    \"sequencer_policies\": [\n";
  List.iteri
    (fun i (policy, points) ->
      Buffer.add_string b
        (Printf.sprintf
           "      {\"profile\": \"%s\", \"stack\": \"user\", \"policy\": \"%s\", \"points\": [%s]}%s\n"
           (json_escape np)
           (json_escape (Panda.Seq_policy.to_string policy))
           (String.concat ", " (List.map sat_point points))
           (if i = List.length policy_rows - 1 then "" else ",")))
    policy_rows;
  Buffer.add_string b "    ]\n  }";
  load_json := Some (Buffer.contents b)

(* Engine microbenchmarks: the scheduler hot paths in isolation.
   Three shapes: pure event churn (heap path only), the timer-cancel
   pattern that motivates the timing wheel — 200 ms retransmission-style
   timers armed and cancelled long before they fire — run with the wheel
   on and off on the identical schedule, and a laned run that stresses
   the conservative window/merge machinery itself.  Event counts are
   deterministic; only the wall-clock rates vary run to run. *)
let engine_json : string option ref = ref None

let print_engine ?(quick = false) () =
  hr "Engine: scheduler microbenchmarks";
  let scale = if quick then 1 else 5 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let events = f () in
    (events, Unix.gettimeofday () -. t0)
  in
  (* Eight self-rescheduling chains with staggered near-term delays:
     every event is a heap push + pop, no timers, no lanes. *)
  let pure () =
    let n = 200_000 * scale in
    let e = Sim.Engine.create () in
    let left = ref n in
    let rec tick d () =
      if !left > 0 then begin
        decr left;
        ignore (Sim.Engine.after e d (tick d))
      end
    in
    for i = 0 to 7 do
      let d = Sim.Time.us (3 + i) in
      ignore (Sim.Engine.after e d (tick d))
    done;
    Sim.Engine.run e;
    Sim.Engine.events_executed e
  in
  (* Each tick re-arms one of 512 outstanding 200 ms timers — the
     protocol stack's dominant pattern (retransmission timers that are
     nearly always cancelled).  With the wheel the arm and the cancel are
     both O(1) and the timer never reaches the heap. *)
  let timers ~wheel () =
    let n = 100_000 * scale in
    let k = 512 in
    let e = Sim.Engine.create ~wheel () in
    let ring = Array.make k None in
    let left = ref n in
    let i = ref 0 in
    let rec tick () =
      let slot = !i mod k in
      (match ring.(slot) with
       | Some h -> Sim.Engine.cancel e h
       | None -> ());
      ring.(slot) <- Some (Sim.Engine.after e (Sim.Time.ms 200) ignore);
      incr i;
      if !left > 0 then begin
        decr left;
        ignore (Sim.Engine.after e (Sim.Time.us 50) tick)
      end
    in
    ignore (Sim.Engine.after e (Sim.Time.us 50) tick);
    Sim.Engine.run e;
    Sim.Engine.events_executed e
  in
  (* A chain hopping lane to lane at exactly the lookahead horizon, plus
     local filler work: every hop crosses a window boundary, so this
     measures the window scheduling and deterministic merge overhead. *)
  let sharded () =
    let n = 50_000 * scale in
    let e = Sim.Engine.create () in
    let look = Sim.Time.us 100 in
    Sim.Engine.configure_lanes e ~n:4 ~lookahead:look;
    let left = ref n in
    let rec hop lane () =
      if !left > 0 then begin
        decr left;
        ignore (Sim.Engine.after e (Sim.Time.us 10) ignore);
        let next = (lane + 1) mod 4 in
        Sim.Engine.at_lane e ~lane:next (Sim.Engine.now e + look) (hop next)
      end
    in
    ignore (Sim.Engine.after e look (hop 0));
    Sim.Engine.run e;
    (Sim.Engine.events_executed e, Sim.Engine.windows e,
     Sim.Engine.cross_merged e)
  in
  let rate e w = if w > 0. then float_of_int e /. w else 0. in
  let line label events wall =
    Printf.printf "  %-24s %9d events  %8.3f s  %8.2f Mev/s\n" label events
      wall
      (rate events wall /. 1e6)
  in
  let ep, wp = time pure in
  line "pure-scheduler" ep wp;
  let ew, ww = time (timers ~wheel:true) in
  line "timer-cancel (wheel)" ew ww;
  let eh, wh = time (timers ~wheel:false) in
  line "timer-cancel (heap)" eh wh;
  let speedup = if ww > 0. then wh /. ww else 0. in
  Printf.printf "  wheel speedup on the timer-heavy shape: %.2fx\n" speedup;
  let (es, wins, merged), ws = time sharded in
  line "sharded-merge (4 lanes)" es ws;
  Printf.printf "  windows %d, cross-lane merges %d\n" wins merged;
  let obj label events wall extra =
    Printf.sprintf
      "{\"shape\": \"%s\", \"events\": %d, \"wall_seconds\": %.6f, \
       \"events_per_sec\": %.0f%s}"
      label events wall (rate events wall) extra
  in
  engine_json :=
    Some
      (Printf.sprintf
         "{\n    \"shapes\": [\n      %s,\n      %s,\n      %s,\n      %s\n\
         \    ],\n    \"wheel_speedup\": %.3f\n  }"
         (obj "pure-scheduler" ep wp "")
         (obj "timer-cancel-wheel" ew ww "")
         (obj "timer-cancel-heap" eh wh "")
         (obj "sharded-merge" es ws
            (Printf.sprintf ", \"windows\": %d, \"merged\": %d" wins merged))
         speedup)

(* The one-sided crossover artifact: DHT capacity over profile x stack,
   with the ledger partition; also a json section with the profile and
   stack named in every record. *)
let onesided_json : string option ref = ref None

let print_onesided ?pool ?faults ?(quick = false) () =
  hr "One-sided crossover: DHT over all four stacks across network eras";
  let nets =
    if quick then [ Core.Params.net10m; Core.Params.net1g ]
    else Core.Params.net_profiles
  in
  let window = Sim.Time.us_f (if quick then 0.3e6 else 1e6) in
  let warmup = Sim.Time.ms (if quick then 100 else 250) in
  let config =
    {
      Load.Clients.default with
      Load.Clients.clients_per_node = 2;
      window;
      warmup;
    }
  in
  let checked = faults <> None in
  let cells =
    Core.Experiments.onesided_crossover ?pool ?faults ~checked ~nets ~config ()
  in
  List.iter (fun c -> Format.printf "  %a@." Core.Experiments.pp_xcell c) cells;
  Format.printf "@.";
  let summary = Core.Experiments.crossover_summary cells in
  List.iter
    (fun r -> Format.printf "  %a@." Core.Experiments.pp_crossover_row r)
    summary;
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n    \"cells\": [\n";
  List.iteri
    (fun i c ->
      let l = c.Core.Experiments.xc_ledger in
      Buffer.add_string b
        (Printf.sprintf
           "      {\"profile\": \"%s\", \"stack\": \"%s\", \"read_pct\": %d, \
            \"capacity\": %.1f, \"p50_ms\": %.3f, \"server_util\": %.4f, \
            \"server_thread_util\": %.4f, \"wire_util\": %.4f, \
            \"initiator_cpu_ms\": %.3f, \"target_cpu_ms\": %.3f, \
            \"nic_cpu_ms\": %.3f, \"stack_cpu_ms\": %.3f, \"residual_ms\": \
            %.3f, \"violations\": %d}%s\n"
           (json_escape c.Core.Experiments.xc_net)
           (json_escape (Core.Cluster.stack_label c.Core.Experiments.xc_stack))
           c.Core.Experiments.xc_read_pct
           c.Core.Experiments.xc_capacity.Load.Metrics.achieved
           c.Core.Experiments.xc_latency.Load.Metrics.p50_ms
           c.Core.Experiments.xc_capacity.Load.Metrics.server_util
           c.Core.Experiments.xc_capacity.Load.Metrics.server_thread_util
           c.Core.Experiments.xc_wire_util l.Core.Experiments.ol_initiator_ms
           l.Core.Experiments.ol_target_ms l.Core.Experiments.ol_nic_ms
           l.Core.Experiments.ol_stack_ms l.Core.Experiments.ol_residual_ms
           (c.Core.Experiments.xc_dht_violations
           + c.Core.Experiments.xc_latency.Load.Metrics.violations
           + c.Core.Experiments.xc_capacity.Load.Metrics.violations)
           (if i = List.length cells - 1 then "" else ",")))
    cells;
  Buffer.add_string b "    ],\n    \"crossover\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "      {\"profile\": \"%s\", \"read_pct\": %d, \"best_rpc\": \
            \"%s\", \"rpc_capacity\": %.1f, \"onesided_capacity\": %.1f, \
            \"onesided_wins\": %b}%s\n"
           (json_escape r.Core.Experiments.xs_net)
           r.Core.Experiments.xs_read_pct
           (json_escape r.Core.Experiments.xs_best_rpc)
           r.Core.Experiments.xs_rpc_capacity
           r.Core.Experiments.xs_os_capacity r.Core.Experiments.xs_os_wins
           (if i = List.length summary - 1 then "" else ",")))
    summary;
  Buffer.add_string b "    ]\n  }";
  onesided_json := Some (Buffer.contents b);
  if
    List.exists
      (fun c ->
        c.Core.Experiments.xc_dht_violations
        + c.Core.Experiments.xc_latency.Load.Metrics.violations
        + c.Core.Experiments.xc_capacity.Load.Metrics.violations
        > 0)
      cells
  then Printf.printf "WARNING: DHT coherence or invariant violations!\n"
  else Printf.printf "(all cells: zero coherence and invariant violations)\n"

(* The cluster-scale artifact: the sharded Zipf-routed service on
   multi-segment pools swept to its saturation knee, plus the
   ledger-driven migration A/B.  Quick mode is the CI smoke: the 64-node
   grid and the A/B only; full mode adds the 256-node ramp. *)
let cluster_json : string option ref = ref None

let print_cluster ?pool ?faults ?(quick = false) ~net () =
  hr "Cluster scale: sharded Zipf service on multi-segment pools";
  let checked = faults <> None in
  let stacks =
    [
      Core.Cluster.Rpc_stack Core.Cluster.Kernel;
      Core.Cluster.Rpc_stack Core.Cluster.User_optimized;
      Core.Cluster.One_sided;
    ]
  in
  let combos =
    (64, [ 4000. ])
    :: (if quick then [] else [ (256, [ 1000.; 2000.; 4000. ]) ])
  in
  let sweeps =
    List.map
      (fun (nodes, rates) ->
        Core.Experiments.cluster_sweep ?pool ?faults ~checked ~net ~lanes:true
          ~nodes:[ nodes ] ~stacks ~rates ())
      combos
    |> List.concat
  in
  List.iter
    (fun ((n, stack, skew), cells, knee) ->
      Format.printf "  -- %d nodes  %s  %s@." n
        (Core.Cluster.stack_label stack)
        (Load.Keys.skew_label skew);
      List.iter (fun c -> Format.printf "  %a@." Core.Experiments.pp_ccell c) cells;
      Format.printf "     knee: %a@." Core.Experiments.pp_knee knee)
    sweeps;
  hr "Cluster scale: ledger-driven migration vs static placement";
  let static, rebal =
    Core.Experiments.cluster_migration_ab ?pool ?faults ~checked ~net
      ~lanes:true ()
  in
  Format.printf "  static     %a@." Core.Experiments.pp_ccell static;
  Format.printf "  rebalanced %a@." Core.Experiments.pp_ccell rebal;
  let ach c = c.Core.Experiments.cc_metrics.Load.Metrics.achieved in
  let delta = 100. *. (ach rebal -. ach static) /. ach static in
  Format.printf "  migration delta: %+.1f%% (%d migrations)@." delta
    rebal.Core.Experiments.cc_migrations;
  let viol c =
    c.Core.Experiments.cc_service_viol
    + c.Core.Experiments.cc_metrics.Load.Metrics.violations
  in
  let cell_json c =
    Printf.sprintf
      "{\"nodes\": %d, \"stack\": \"%s\", \"skew\": \"%s\", \"offered\": %.1f, \
       \"achieved\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"server_max\": \
       %.4f, \"wire_max\": %.4f, \"cross_frac\": %.4f, \"switch_fps\": %.0f, \
       \"gets\": %d, \"puts\": %d, \"migrations\": %d, \"violations\": %d}"
      c.Core.Experiments.cc_nodes
      (json_escape (Core.Cluster.stack_label c.Core.Experiments.cc_stack))
      (json_escape (Load.Keys.skew_label c.Core.Experiments.cc_skew))
      c.Core.Experiments.cc_metrics.Load.Metrics.offered (ach c)
      c.Core.Experiments.cc_metrics.Load.Metrics.p50_ms
      c.Core.Experiments.cc_metrics.Load.Metrics.p99_ms
      c.Core.Experiments.cc_server_max c.Core.Experiments.cc_wire_max
      c.Core.Experiments.cc_cross_frac c.Core.Experiments.cc_switch_fps
      c.Core.Experiments.cc_gets c.Core.Experiments.cc_puts
      c.Core.Experiments.cc_migrations (viol c)
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n    \"sweeps\": [\n";
  List.iteri
    (fun i ((n, stack, skew), cells, knee) ->
      Buffer.add_string b
        (Printf.sprintf
           "      {\"nodes\": %d, \"stack\": \"%s\", \"skew\": \"%s\", \
            \"knee\": %s, \"points\": [%s]}%s\n"
           n
           (json_escape (Core.Cluster.stack_label stack))
           (json_escape (Load.Keys.skew_label skew))
           (match knee with
            | Load.Sweep.Knee k -> Printf.sprintf "%.1f" k
            | Load.Sweep.Unsaturated -> "\"unsaturated\""
            | Load.Sweep.Saturated -> "null")
           (String.concat ", " (List.map cell_json cells))
           (if i = List.length sweeps - 1 then "" else ",")))
    sweeps;
  Buffer.add_string b
    (Printf.sprintf
       "    ],\n\
       \    \"migration_ab\": {\"static\": %s, \"rebalanced\": %s, \
        \"delta_pct\": %.1f, \"migration_wins\": %b}\n\
       \  }"
       (cell_json static) (cell_json rebal) delta
       (ach rebal > ach static));
  cluster_json := Some (Buffer.contents b);
  let total =
    List.fold_left
      (fun acc (_, cells, _) ->
        List.fold_left (fun acc c -> acc + viol c) acc cells)
      (viol static + viol rebal)
      sweeps
  in
  if total > 0 then Printf.printf "WARNING: %d service conformance violations!\n" total
  else Printf.printf "(all cells: zero service conformance violations)\n"

(* The scenario artifact: loss x load tail amplification, a short
   checked soak with a mid-run sequencer crash, and the calibration
   round-trip (fitted net constants must equal the pinned era
   bit-exactly).  Quick mode shrinks the grid to the CI smoke. *)
let scenario_json : string option ref = ref None

let print_scenario ?pool ?(quick = false) ~net () =
  hr "Scenario: tail amplification under frame loss";
  let impls =
    if quick then [ Core.Cluster.User ] else Core.Experiments.load_impls
  in
  let losses = if quick then [ 0.01 ] else Core.Experiments.tail_losses in
  let rates = if quick then [ 200. ] else [ 200.; 800. ] in
  let window = Sim.Time.us_f (if quick then 0.5e6 else 1e6) in
  let cells =
    Core.Experiments.tail_grid ?pool ~net
      ~config:{ Load.Clients.default with Load.Clients.window }
      ~losses ~rates ~impls ()
  in
  List.iter (fun c -> Format.printf "  %a@." Core.Experiments.pp_tail_cell c) cells;
  hr "Scenario: checked soak (diurnal ramp, 1% loss, sequencer crash)";
  let soak =
    Scenario.Soak.run
      {
        Scenario.Soak.default with
        Scenario.Soak.sk_rate = 300.;
        sk_windows = (if quick then 4 else 8);
        sk_policy = Panda.Seq_policy.Failover;
        sk_op = Load.Clients.Group;
        sk_net = Some net;
        sk_faults =
          Some (Result.get_ok (Faults.Spec.parse "seed=5,loss=0.01,seqcrash=0.4"));
      }
  in
  Format.printf "  %a@." Scenario.Soak.pp_report soak;
  hr "Scenario: cost-profile calibration round-trip";
  let calib_exact, calib_ref, calib_fit =
    match Scenario.Calibrate.fit (Scenario.Calibrate.measure ~net ()) with
    | Error e ->
      Printf.printf "  fit FAILED: %s\n" e;
      (false, 0., 0.)
    | Ok fitted ->
      let exact =
        fitted.Core.Params.np_segment = net.Core.Params.np_segment
        && fitted.Core.Params.np_nic = net.Core.Params.np_nic
        && fitted.Core.Params.np_switch = net.Core.Params.np_switch
      in
      let ref_ms, fit_ms = Scenario.Calibrate.verify ~reference:net fitted in
      Printf.printf "  %s: constants %s, user null RPC %.3f ms vs %.3f ms\n"
        net.Core.Params.np_name
        (if exact then "recovered bit-exactly" else "MISMATCH")
        ref_ms fit_ms;
      (exact, ref_ms, fit_ms)
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n    \"tail_grid\": [\n";
  List.iteri
    (fun i c ->
      Buffer.add_string b
        (Printf.sprintf
           "      {\"impl\": \"%s\", \"loss\": %.4f, \"rate\": %.0f, \
            \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f, \"amp99\": \
            %.2f, \"amp999\": %.2f, \"violations\": %d}%s\n"
           (json_escape (Core.Cluster.impl_label c.Core.Experiments.tc_impl))
           c.Core.Experiments.tc_loss c.Core.Experiments.tc_rate
           c.Core.Experiments.tc_metrics.Load.Metrics.p50_ms
           c.Core.Experiments.tc_metrics.Load.Metrics.p99_ms
           c.Core.Experiments.tc_metrics.Load.Metrics.p999_ms
           c.Core.Experiments.tc_amp99 c.Core.Experiments.tc_amp999
           c.Core.Experiments.tc_metrics.Load.Metrics.violations
           (if i = List.length cells - 1 then "" else ",")))
    cells;
  Buffer.add_string b "    ],\n    \"soak\": {\"windows\": [\n";
  let ws = soak.Scenario.Soak.r_windows in
  List.iteri
    (fun i w ->
      Buffer.add_string b
        (Printf.sprintf
           "      {\"offered\": %.1f, \"achieved\": %.1f, \"p99_ms\": %.3f, \
            \"retrans\": %d, \"kills\": %d}%s\n"
           w.Scenario.Soak.w_offered w.Scenario.Soak.w_achieved
           w.Scenario.Soak.w_p99_ms w.Scenario.Soak.w_retrans
           w.Scenario.Soak.w_kills
           (if i = List.length ws - 1 then "" else ",")))
    ws;
  Buffer.add_string b
    (Printf.sprintf
       "    ], \"issued\": %d, \"completed\": %d, \"p999_ms\": %.3f, \
        \"seq_crashed\": %b, \"violations\": %d},\n"
       soak.Scenario.Soak.r_issued soak.Scenario.Soak.r_completed
       soak.Scenario.Soak.r_p999_ms soak.Scenario.Soak.r_seq_crashed
       soak.Scenario.Soak.r_violations);
  Buffer.add_string b
    (Printf.sprintf
       "    \"calibration\": {\"era\": \"%s\", \"exact\": %b, \
        \"reference_ms\": %.6f, \"fitted_ms\": %.6f}\n  }"
       (json_escape net.Core.Params.np_name)
       calib_exact calib_ref calib_fit);
  scenario_json := Some (Buffer.contents b);
  if soak.Scenario.Soak.r_violations > 0 then
    Printf.printf "WARNING: %d soak conformance violations!\n"
      soak.Scenario.Soak.r_violations
  else Printf.printf "(soak: zero conformance violations)\n"

let print_ablations ?pool () =
  hr "Ablation: dedicated sequencer for LEQ [s]";
  List.iter
    (fun o -> Format.printf "  %a@." Core.Runner.pp_outcome o)
    (Core.Experiments.ablation_dedicated_sequencer ?pool ~procs:[ 8; 16; 32 ] ());
  hr "Ablation: nonblocking broadcast (paper Sec. 6 extension)";
  List.iter
    (fun (label, ms) -> Printf.printf "  %-28s %6.3f ms\n" label ms)
    (Core.Experiments.ablation_nonblocking ?pool ());
  hr "Ablation: adaptive object placement (Sec. 2 runtime heuristic)";
  List.iter
    (fun (label, v) -> Printf.printf "  %-40s %8.1f\n" label v)
    (Core.Experiments.ablation_migration ?pool ());
  hr "Ablation: user-level network access (the paper's Sec. 6 projection)";
  List.iter
    (fun (label, v) -> Printf.printf "  %-42s %6.3f ms\n" label v)
    (Core.Experiments.ablation_user_level_network ?pool ());
  hr "Ablation: continuations vs blocked server threads (RL, P=16)";
  List.iter
    (fun (label, s) -> Printf.printf "  %-40s %6.1f s\n" label s)
    (Core.Experiments.ablation_continuations ?pool ~procs:16 ())

(* ------------------------------------------------------------------ *)
(* Wall-clock accounting, for the json report: per-artifact host
   seconds, simulated events executed (across all pool domains), and the
   high-water mark of pending events (heap + wheel, max over every
   engine's lanes) — a leak in any protocol layer shows up here long
   before it shows up in wall time. *)

type timing = {
  tm_name : string;
  tm_wall : float;
  tm_events : int;
  tm_live_hw : int;
}

let timings : timing list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let e0 = Sim.Engine.events_total () in
  Sim.Engine.reset_live_hw ();
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  let events = Sim.Engine.events_total () - e0 in
  timings :=
    {
      tm_name = name;
      tm_wall = wall;
      tm_events = events;
      tm_live_hw = Sim.Engine.live_hw ();
    }
    :: !timings

let write_json ~jobs ~net file =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"host\": {\"os_type\": \"%s\", \"ocaml_version\": \"%s\", \"word_size\": %d, \"recommended_domains\": %d},\n"
       (json_escape Sys.os_type) (json_escape Sys.ocaml_version) Sys.word_size
       (Exec.Pool.recommended ()));
  Buffer.add_string b (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string b
    (Printf.sprintf "  \"profile\": \"%s\",\n"
       (json_escape net.Core.Params.np_name));
  (match !load_json with
   | Some section -> Buffer.add_string b (Printf.sprintf "  \"load\": %s,\n" section)
   | None -> ());
  (match !onesided_json with
   | Some section ->
     Buffer.add_string b (Printf.sprintf "  \"onesided\": %s,\n" section)
   | None -> ());
  (match !cluster_json with
   | Some section ->
     Buffer.add_string b (Printf.sprintf "  \"cluster\": %s,\n" section)
   | None -> ());
  (match !engine_json with
   | Some section ->
     Buffer.add_string b (Printf.sprintf "  \"engine\": %s,\n" section)
   | None -> ());
  (match !scenario_json with
   | Some section ->
     Buffer.add_string b (Printf.sprintf "  \"scenario\": %s,\n" section)
   | None -> ());
  Buffer.add_string b "  \"artifacts\": [\n";
  let rows = List.rev !timings in
  List.iteri
    (fun i t ->
      let eps = if t.tm_wall > 0. then float_of_int t.tm_events /. t.tm_wall else 0. in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"wall_seconds\": %.6f, \"sim_events\": %d, \"events_per_sec\": %.0f, \"live_hw\": %d}%s\n"
           (json_escape t.tm_name) t.tm_wall t.tm_events eps t.tm_live_hw
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out file in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote %s (%d artifacts, -j %d)\n" file (List.length rows) jobs

(* ------------------------------------------------------------------ *)
(* Bechamel: host-side cost of regenerating each artifact, and
   microbenchmarks of the event-heap hot path. *)

let bechamel_tests () =
  let open Bechamel in
  let t1 =
    Test.make ~name:"table1"
      (Staged.stage (fun () -> ignore (Core.Experiments.table1 ())))
  in
  let t2 =
    Test.make ~name:"table2"
      (Staged.stage (fun () -> ignore (Core.Experiments.table2 ())))
  in
  let t3 =
    Test.make ~name:"table3-tsp-P4"
      (Staged.stage (fun () ->
           ignore
             (Core.Runner.run ~impl:Core.Cluster.User ~procs:4
                (Core.Runner.app_named "tsp"))))
  in
  let tb =
    Test.make ~name:"breakdown-rpc"
      (Staged.stage (fun () -> ignore (Core.Experiments.rpc_breakdown ())))
  in
  (* Event-heap hot paths: 1k push/pop (the engine's steady state), 1k
     push/cancel/drain (timer churn, exercises lazy deletion and
     compaction). *)
  let n = 1024 in
  let theap =
    let h = Sim.Heap.create ~dummy:0 ~capacity:(2 * n) () in
    Test.make ~name:"heap-push-pop-1k"
      (Staged.stage (fun () ->
           for i = 0 to n - 1 do
             ignore (Sim.Heap.push h ~time:(i * 7 mod 97) i)
           done;
           while not (Sim.Heap.is_empty h) do
             ignore (Sim.Heap.pop_min_exn h)
           done))
  in
  let tcancel =
    let h = Sim.Heap.create ~dummy:0 ~capacity:(2 * n) () in
    let handles = Array.make n None in
    Test.make ~name:"heap-push-cancel-1k"
      (Staged.stage (fun () ->
           for i = 0 to n - 1 do
             handles.(i) <- Some (Sim.Heap.push h ~time:(i * 7 mod 97) i)
           done;
           Array.iteri
             (fun i h' -> match h' with
                | Some hd -> if i land 1 = 0 then Sim.Heap.cancel h hd
                | None -> ())
             handles;
           while not (Sim.Heap.is_empty h) do
             ignore (Sim.Heap.pop_min_exn h)
           done))
  in
  let tengine =
    Test.make ~name:"engine-timer-wheel-1k"
      (Staged.stage (fun () ->
           let e = Sim.Engine.create () in
           for i = 1 to n do
             ignore (Sim.Engine.at e i ignore)
           done;
           Sim.Engine.run e))
  in
  Test.make_grouped ~name:"repro" [ t1; t2; t3; tb; theap; tcancel; tengine ]

(* Steady-state allocation per heap event: with the unboxed slot arrays
   there is no per-push handle or option box, so this prints ~0. *)
let report_heap_words () =
  let n = 100_000 in
  let h = Sim.Heap.create ~dummy:0 ~capacity:(2 * n) () in
  let measure () =
    let w0 = Gc.allocated_bytes () in
    for i = 0 to n - 1 do
      ignore (Sim.Heap.push h ~time:(i * 31 mod 1009) i)
    done;
    while not (Sim.Heap.is_empty h) do
      ignore (Sim.Heap.pop_min_exn h)
    done;
    (Gc.allocated_bytes () -. w0) /. 8.
  in
  ignore (measure ());
  (* warm: arrays at capacity *)
  let words = measure () in
  Printf.printf "  heap words/event (steady-state push+pop): %.3f\n"
    (words /. float_of_int n)

let run_bechamel () =
  hr "Bechamel: host cost of regenerating each artifact";
  let open Bechamel in
  let open Toolkit in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 3.0) () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> Printf.printf "  %-24s %10.3f ms/run\n" name (est /. 1e6)
      | Some [] | None -> Printf.printf "  %-24s (no estimate)\n" name)
    results;
  report_heap_words ()

(* Observability options, recognised anywhere on the command line and
   stripped before artifact selection:
     --obs-log      turn on the simulator's timestamped event log
     --trace FILE   write a Chrome trace_event JSON of a user-space null
                    RPC run (load in chrome://tracing or Perfetto)
     --obs          dump the same run's ledger and statistics as CSV *)
let rec strip_obs = function
  | [] -> ([], [])
  | [ "--trace" ] ->
    prerr_endline "--trace needs a FILE argument";
    exit 2
  | "--trace" :: file :: rest ->
    let obs, sel = strip_obs rest in
    (`Trace file :: obs, sel)
  | "--obs" :: rest ->
    let obs, sel = strip_obs rest in
    (`Obs :: obs, sel)
  | "--obs-log" :: rest ->
    let obs, sel = strip_obs rest in
    (`Log :: obs, sel)
  | a :: rest ->
    let obs, sel = strip_obs rest in
    (obs, a :: sel)

(* `--faults SPEC` anywhere on the command line installs that fault
   schedule on every table's cells (see Faults.Spec for the grammar).
   Every artifact runs the kernel stack under the single sequencer, which
   survives no sequencer crash, so a [seqcrash] is refused here. *)
let rec strip_faults = function
  | [] -> (None, [])
  | [ "--faults" ] ->
    prerr_endline "--faults needs a SPEC argument";
    exit 2
  | "--faults" :: spec :: rest -> (
      let faults, sel = strip_faults rest in
      let parsed =
        Result.bind (Faults.Spec.parse spec) (fun f ->
            Result.map
              (fun () -> f)
              (Core.Cluster.sequencer_support
                 ~seq_crash:(f.Faults.Spec.seq_crash <> None)
                 Core.Cluster.Kernel Panda.Seq_policy.Single))
      in
      match parsed with
      | Ok f -> ((match faults with Some _ -> faults | None -> Some f), sel)
      | Error msg ->
        Printf.eprintf "--faults: %s\n" msg;
        exit 2)
  | a :: rest ->
    let faults, sel = strip_faults rest in
    (faults, a :: sel)

(* `--profile ERA` anywhere on the command line picks the network era the
   clusters are built on (default: the paper's 10 Mbit/s Ethernet).  The
   crossover artifact sweeps eras regardless. *)
let rec strip_profile = function
  | [] -> (None, [])
  | [ "--profile" ] ->
    prerr_endline "--profile needs an ERA argument";
    exit 2
  | "--profile" :: name :: rest -> (
      let net, sel = strip_profile rest in
      match Core.Params.net_profile_of_string name with
      | Some p -> ((match net with Some _ -> net | None -> Some p), sel)
      | None ->
        Printf.eprintf "--profile: unknown network era %S (expected %s)\n" name
          (String.concat " | "
             (List.map (fun p -> p.Core.Params.np_name) Core.Params.net_profiles));
        exit 2)
  | a :: rest ->
    let net, sel = strip_profile rest in
    (net, a :: sel)

(* `--lanes` anywhere on the command line shards every multi-segment
   cluster into conservative per-segment engine lanes (see DESIGN.md);
   laned results are bit-identical at every -j, and match the unlaned
   engine except for the tie-break order of same-instant cross-segment
   arrivals (the cluster artifact pins its goldens with lanes on). *)
let rec strip_lanes = function
  | [] -> (false, [])
  | "--lanes" :: rest ->
    let _, sel = strip_lanes rest in
    (true, sel)
  | a :: rest ->
    let l, sel = strip_lanes rest in
    (l, a :: sel)

(* `-j N` anywhere on the command line sets the pool size. *)
let rec strip_jobs = function
  | [] -> (None, [])
  | [ "-j" ] ->
    prerr_endline "-j needs a domain count";
    exit 2
  | "-j" :: n :: rest -> (
      let jobs, sel = strip_jobs rest in
      match int_of_string_opt n with
      | Some j when j >= 1 -> ((match jobs with Some _ -> jobs | None -> Some j), sel)
      | _ ->
        Printf.eprintf "-j: bad domain count %S\n" n;
        exit 2)
  | a :: rest ->
    let jobs, sel = strip_jobs rest in
    (jobs, a :: sel)

let run_obs = function
  | `Log -> ()
  | `Trace file -> (
    let r, _busy = Core.Experiments.recorded_rpc () in
    try
      Obs.Export.to_file file (Obs.Export.chrome_trace r);
      Printf.printf
        "wrote Chrome trace of a user-space null RPC run to %s (%d spans)\n" file
        (Obs.Recorder.n_spans r)
    with Sys_error msg ->
      Printf.eprintf "cannot write trace: %s\n" msg;
      exit 1)
  | `Obs ->
    let r, _busy = Core.Experiments.recorded_rpc () in
    print_string (Obs.Export.csv r)

let () =
  let obs_opts, args = strip_obs (List.tl (Array.to_list Sys.argv)) in
  let jobs_opt, args = strip_jobs args in
  let faults, args = strip_faults args in
  let lanes, args = strip_lanes args in
  if lanes then Core.Cluster.set_default_lanes true;
  let net_opt, args = strip_profile args in
  let net = match net_opt with Some p -> p | None -> Core.Params.net10m in
  if List.mem `Log obs_opts then Obs.Log.set_enabled true;
  let jobs = match jobs_opt with Some j -> j | None -> Exec.Pool.recommended () in
  let json = List.mem "json" args in
  let selected = List.filter (fun a -> a <> "quick" && a <> "json") args in
  let everything = selected = [] && obs_opts = [] in
  let quick = List.mem "quick" args in
  let procs = if quick then [ 1; 8 ] else [ 1; 8; 16; 32 ] in
  let wants name = everything || List.mem name selected in
  let with_pool f =
    if jobs <= 1 then f ?pool:None ()
    else Exec.Pool.with_pool ~jobs (fun p -> f ?pool:(Some p) ())
  in
  if wants "table1" then
    timed "table1" (fun () ->
        with_pool (fun ?pool () -> print_table1 ?pool ?faults ~net ()));
  if wants "table2" then
    timed "table2" (fun () ->
        with_pool (fun ?pool () -> print_table2 ?pool ?faults ~net ()));
  if wants "breakdown" then timed "breakdown" (fun () -> with_pool print_breakdown);
  if wants "optimized" then timed "optimized" (fun () -> with_pool print_optimized);
  if wants "table3" then
    timed
      (if quick then "table3-quick" else "table3")
      (fun () ->
        with_pool (fun ?pool () ->
            (* An explicit fault schedule also turns the checkers on. *)
            print_table3 ?pool ?faults ?checked:(Option.map (fun _ -> true) faults)
              ~net ~procs ()));
  if wants "faults" then
    timed
      (if quick then "faults-quick" else "faults")
      (fun () ->
        with_pool (fun ?pool () ->
            print_fault_sweep ?pool ~quick
              ?seed:(Option.map (fun f -> f.Faults.Spec.seed) faults) ~net ()));
  if wants "load" then
    timed
      (if quick then "load-quick" else "load")
      (fun () ->
        with_pool (fun ?pool () -> print_load ?pool ?faults ~quick ~net ()));
  if wants "onesided" then
    timed
      (if quick then "onesided-quick" else "onesided")
      (fun () ->
        with_pool (fun ?pool () -> print_onesided ?pool ?faults ~quick ()));
  if wants "cluster" then
    timed
      (if quick then "cluster-quick" else "cluster")
      (fun () ->
        with_pool (fun ?pool () -> print_cluster ?pool ?faults ~quick ~net ()));
  if wants "scenario" then
    timed
      (if quick then "scenario-quick" else "scenario")
      (fun () ->
        with_pool (fun ?pool () -> print_scenario ?pool ~quick ~net ()));
  if wants "ablation" then timed "ablation" (fun () -> with_pool print_ablations);
  if wants "engine" then
    timed
      (if quick then "engine-quick" else "engine")
      (fun () -> print_engine ~quick ());
  if List.mem "bechamel" selected || everything then run_bechamel ();
  List.iter run_obs obs_opts;
  if json then write_json ~jobs ~net "BENCH_results.json"
