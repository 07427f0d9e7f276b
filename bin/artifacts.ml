(* The artifacts of the paper's evaluation (Tables 1-3, the Sec. 4.2/4.3
   overhead accounting) and of this reproduction's own extensions, as the
   one table the [bench] subcommand runs from.  Each entry prints its
   artifact, returns its section of BENCH_results.json if it has one, and
   counts the violations or invalid results it found. *)

type ctx = {
  jobs : int;
  quick : bool;
  faults : Faults.Spec.t option;
  net : Core.Params.net_profile;
}

type t = {
  name : string;
  has_quick : bool;  (* [--quick] shrinks it, and its timing is NAME-quick *)
  fault_free : bool;  (* runs without faults by design, so [--faults] is refused *)
  run : ctx -> Obs.Json.t option * int;
}

(* [with_pool jobs f] runs [f ?pool] under a domain pool of [jobs]
   workers; [jobs <= 1] passes no pool at all (the sequential path). *)
let with_pool jobs f =
  if jobs <= 1 then f ?pool:None ()
  else Exec.Pool.with_pool ~jobs (fun p -> f ?pool:(Some p) ())

let xcell_violations c =
  c.Core.Experiments.xc_dht_violations
  + c.Core.Experiments.xc_latency.Load.Metrics.violations
  + c.Core.Experiments.xc_capacity.Load.Metrics.violations

let ccell_violations c =
  c.Core.Experiments.cc_service_viol
  + c.Core.Experiments.cc_metrics.Load.Metrics.violations

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

let table1 c =
  hr
    "Table 1: communication latencies [ms] (paper values in parentheses; \
     optimized columns are this reproduction's own)";
  Printf.printf
    "%6s  %-14s %-14s %-14s %-14s %-14s %-14s %-9s %-9s\n"
    "size" "unicast/user" "mcast/user" "RPC/user" "RPC/kernel" "group/user"
    "group/kernel" "RPC/opt" "group/opt";
  let rows =
    with_pool c.jobs (fun ?pool () ->
        Core.Experiments.table1 ?pool ?faults:c.faults ~net:c.net ())
  in
  List.iter2
    (fun r (_, (pu, pm, pru, prk, pgu, pgk)) ->
      Printf.printf
        "%6d  %5.2f (%4.2f)   %5.2f (%4.2f)   %5.2f (%4.2f)   %5.2f (%4.2f)   %5.2f (%4.2f)   %5.2f (%4.2f)   %5.2f     %5.2f\n"
        r.Core.Experiments.lr_size r.Core.Experiments.lr_unicast pu
        r.Core.Experiments.lr_multicast pm r.Core.Experiments.lr_rpc_user pru
        r.Core.Experiments.lr_rpc_kernel prk r.Core.Experiments.lr_grp_user pgu
        r.Core.Experiments.lr_grp_kernel pgk r.Core.Experiments.lr_rpc_opt
        r.Core.Experiments.lr_grp_opt)
    rows paper_table1;
  (None, 0)

let table2 c =
  hr
    "Table 2: communication throughputs [KB/s] (paper values in parentheses; \
     optimized column is this reproduction's own)";
  let paper = [ ("RPC", (825., 897.)); ("group", (941., 941.)) ] in
  List.iter2
    (fun r (_, (pu, pk)) ->
      Printf.printf
        "%-6s  user %5.0f (%4.0f)   kernel %5.0f (%4.0f)   optimized %5.0f\n"
        r.Core.Experiments.tr_proto r.Core.Experiments.tr_user pu
        r.Core.Experiments.tr_kernel pk r.Core.Experiments.tr_opt)
    (with_pool c.jobs (fun ?pool () ->
         Core.Experiments.table2 ?pool ?faults:c.faults ~net:c.net ()))
    paper;
  (None, 0)

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

let table3 c =
  let procs = if c.quick then [ 1; 8 ] else [ 1; 8; 16; 32 ] in
  hr "Table 3: Orca application runtimes [s] (paper values in parentheses)";
  Printf.printf "%-4s %-15s" "app" "implementation";
  List.iter (fun p -> Printf.printf "  %12s" (Printf.sprintf "P=%d" p)) procs;
  Printf.printf "  %8s\n" "speedup";
  let outcomes =
    with_pool c.jobs (fun ?pool () ->
        (* An explicit fault schedule also turns the checkers on. *)
        Core.Experiments.table3 ?pool ?faults:c.faults
          ?checked:(Option.map (fun _ -> true) c.faults)
          ~net:c.net ~procs ())
  in
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun o ->
      Hashtbl.replace by_key
        (o.Core.Runner.o_app, Core.Cluster.impl_label o.Core.Runner.o_impl, o.Core.Runner.o_procs)
        o)
    outcomes;
  let invalid = ref 0 in
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
                if not o.Core.Runner.o_valid then incr invalid;
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
  if !invalid > 0 then
    Printf.printf "WARNING: some runs produced checksums differing from the sequential reference!\n"
  else
    Printf.printf "(all runs validated against host-side sequential results)\n";
  (None, !invalid)

let breakdown c =
  let net = c.net in
  with_pool c.jobs (fun ?pool () ->
      let rpc_analytic = Core.Experiments.rpc_breakdown ?pool ~net () in
      let grp_analytic = Core.Experiments.group_breakdown ?pool ~net () in
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
      let rpc_measured, grp_measured = Core.Experiments.measured_breakdown ?pool ~net () in
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
      print_side grp_analytic grp_measured);
  (None, 0)

(* The optimized user-space stack's differential: which (layer, cause)
   ledger cells each of the four optimizations removed, with the residual
   (savings owned by no mechanism) required to be zero. *)
let optimized c =
  hr "Optimized user-space stack: null-latency differential vs. baseline";
  let rpc_o, grp_o =
    with_pool c.jobs (fun ?pool () ->
        Core.Experiments.optimized_breakdown ?pool ~net:c.net ())
  in
  Format.printf "@[<v>optimized rpc:@,%a@]@." Core.Experiments.pp_opt_breakdown
    rpc_o;
  Format.printf "@[<v>optimized group:@,%a@]@."
    Core.Experiments.pp_opt_breakdown grp_o;
  (None, 0)

let fault_sweep c =
  hr "Fault sweep: degradation and conformance vs. frame-loss rate";
  let rates = if c.quick then [ 0.; 0.01 ] else [ 0.; 0.001; 0.01; 0.05 ] in
  let seed = Option.map (fun f -> f.Faults.Spec.seed) c.faults in
  let rows =
    with_pool c.jobs (fun ?pool () ->
        Core.Experiments.fault_sweep ?pool ~net:c.net ~rates ?seed ())
  in
  List.iter (fun r -> Format.printf "  %a@." Core.Experiments.pp_fault_row r) rows;
  let bad =
    List.length
      (List.filter
         (fun r -> r.Core.Experiments.fw_violations > 0 || not r.Core.Experiments.fw_valid)
         rows)
  in
  if bad > 0 then Printf.printf "WARNING: invariant violations or invalid results under faults!\n"
  else Printf.printf "(all rates: zero invariant violations, results match fault-free)\n";
  (None, bad)

let knee_json : Load.Sweep.knee -> Obs.Json.t = function
  | Knee k -> Float k
  | Unsaturated -> String "unsaturated"
  | Saturated -> Null

(* Load sweeps: throughput-latency curves per stack plus the
   sequencer-saturation scaling; the measured points also feed the "load"
   section of the json report.  Quick mode is the CI smoke: one stack,
   short ramp, 2-point sequencer sweeps. *)
let load c =
  hr "Load: throughput-latency curves (null RPC, open loop)";
  let quick = c.quick and faults = c.faults and net = c.net in
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
  let senders = if quick then Some [ 1; 2 ] else None in
  with_pool c.jobs @@ fun ?pool () ->
  let curves =
    Core.Experiments.load_sweep ?pool ?faults ~checked ~net ~config ~rates
      ~impls ()
  in
  List.iter
    (fun (_, curve) -> Format.printf "%a@.@." Load.Sweep.pp_curve curve)
    curves;
  hr
    (if quick then "Load: sequencer saturation (quick: 2-point sweep, 8 nodes)"
     else "Load: sequencer saturation (closed-loop group senders, 8 nodes)");
  let saturation =
    Core.Experiments.sequencer_saturation ?pool ?faults ~checked ~net ~config
      ?senders ~impls ()
  in
  List.iter
    (fun (_, points) ->
      List.iter
        (fun row -> Format.printf "  %a@." Core.Experiments.pp_saturation_row row)
        points;
      Format.printf "@.")
    saturation;
  hr
    (if quick then "Load: sequencer policy capacity (quick: 2-point sweep, user stack)"
     else "Load: sequencer policy capacity (user stack, policy x senders)");
  let policies =
    Core.Experiments.sequencer_policy_sweep ?pool ?faults ~checked ~net ~config
      ?senders ()
  in
  List.iter
    (fun (policy, points) ->
      List.iter
        (fun row -> Format.printf "  %a@." Core.Experiments.pp_policy_row (policy, row))
        points;
      Format.printf "@.")
    policies;
  let open Obs.Json in
  let profile = ("profile", String net.Core.Params.np_name) in
  let point (m : Load.Metrics.t) =
    Obj
      [
        ("offered", Float m.offered); ("achieved", Float m.achieved);
        ("p50_ms", Float m.p50_ms); ("p95_ms", Float m.p95_ms);
        ("p99_ms", Float m.p99_ms); ("server_util", Float m.server_util);
        ("seq_util", Float m.seq_util); ("violations", Int m.violations);
      ]
  in
  let sat_point (s, (m : Load.Metrics.t)) =
    Obj
      ([
         ("senders", Int s); ("achieved", Float m.achieved);
         ("p50_ms", Float m.p50_ms); ("p99_ms", Float m.p99_ms);
         ("seq_util", Float m.seq_util); ("violations", Int m.violations);
       ]
      @
      if Array.length m.per_shard > 1 then
        [ ("per_shard", List (Array.to_list (Array.map (fun n -> Int n) m.per_shard))) ]
      else [])
  in
  ( Some
      (Obj
         [
           ( "rpc_sweep",
             List
               (List.map
                  (fun (_, (curve : Load.Sweep.curve)) ->
                    Obj
                      [
                        profile; ("stack", String curve.c_label);
                        ("knee", knee_json (Load.Sweep.knee curve));
                        ("peak", Float (Load.Sweep.peak curve));
                        ("points", List (List.map point curve.c_points));
                      ])
                  curves) );
           ( "sequencer_saturation",
             List
               (List.map
                  (fun (impl, points) ->
                    Obj
                      [
                        profile; ("stack", String (Core.Cluster.impl_label impl));
                        ("points", List (List.map sat_point points));
                      ])
                  saturation) );
           ( "sequencer_policies",
             List
               (List.map
                  (fun (policy, points) ->
                    Obj
                      [
                        profile; ("stack", String "user");
                        ("policy", String (Panda.Seq_policy.to_string policy));
                        ("points", List (List.map sat_point points));
                      ])
                  policies) );
         ]),
    0 )

(* The one-sided crossover artifact: DHT capacity over profile x stack,
   with the ledger partition; its json section names the profile and stack
   in every record. *)
let onesided c =
  hr "One-sided crossover: DHT over all four stacks across network eras";
  let nets =
    if c.quick then [ Core.Params.net10m; Core.Params.net1g ]
    else Core.Params.net_profiles
  in
  let window = Sim.Time.us_f (if c.quick then 0.3e6 else 1e6) in
  let warmup = Sim.Time.ms (if c.quick then 100 else 250) in
  let config =
    {
      Load.Clients.default with
      Load.Clients.clients_per_node = 2;
      window;
      warmup;
    }
  in
  let checked = c.faults <> None in
  let cells =
    with_pool c.jobs (fun ?pool () ->
        Core.Experiments.onesided_crossover ?pool ?faults:c.faults ~checked ~nets
          ~config ())
  in
  List.iter (fun c -> Format.printf "  %a@." Core.Experiments.pp_xcell c) cells;
  Format.printf "@.";
  let summary = Core.Experiments.crossover_summary cells in
  List.iter
    (fun r -> Format.printf "  %a@." Core.Experiments.pp_crossover_row r)
    summary;
  let violations = List.fold_left (fun n c -> n + xcell_violations c) 0 cells in
  if violations > 0 then Printf.printf "WARNING: DHT coherence or invariant violations!\n"
  else Printf.printf "(all cells: zero coherence and invariant violations)\n";
  let open Obs.Json in
  let cell (c : Core.Experiments.xcell) =
    let l = c.xc_ledger in
    Obj
      [
        ("profile", String c.xc_net);
        ("stack", String (Core.Cluster.stack_label c.xc_stack));
        ("read_pct", Int c.xc_read_pct);
        ("capacity", Float c.xc_capacity.Load.Metrics.achieved);
        ("p50_ms", Float c.xc_latency.Load.Metrics.p50_ms);
        ("server_util", Float c.xc_capacity.Load.Metrics.server_util);
        ("server_thread_util", Float c.xc_capacity.Load.Metrics.server_thread_util);
        ("wire_util", Float c.xc_wire_util);
        ("initiator_cpu_ms", Float l.ol_initiator_ms);
        ("target_cpu_ms", Float l.ol_target_ms);
        ("nic_cpu_ms", Float l.ol_nic_ms);
        ("stack_cpu_ms", Float l.ol_stack_ms);
        ("residual_ms", Float l.ol_residual_ms);
        ("violations", Int (xcell_violations c));
      ]
  in
  let crossover (r : Core.Experiments.crossover_row) =
    Obj
      [
        ("profile", String r.xs_net); ("read_pct", Int r.xs_read_pct);
        ("best_rpc", String r.xs_best_rpc); ("rpc_capacity", Float r.xs_rpc_capacity);
        ("onesided_capacity", Float r.xs_os_capacity);
        ("onesided_wins", Bool r.xs_os_wins);
      ]
  in
  ( Some
      (Obj
         [
           ("cells", List (List.map cell cells));
           ("crossover", List (List.map crossover summary));
         ]),
    violations )

(* The cluster-scale artifact: the sharded Zipf-routed service on
   multi-segment pools swept to its saturation knee, plus the
   ledger-driven migration A/B.  Quick mode is the CI smoke: the 64-node
   grid and the A/B only; full mode adds the 256-node ramp. *)
let cluster c =
  hr "Cluster scale: sharded Zipf service on multi-segment pools";
  let faults = c.faults and net = c.net in
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
    :: (if c.quick then [] else [ (256, [ 1000.; 2000.; 4000. ]) ])
  in
  with_pool c.jobs @@ fun ?pool () ->
  let sweeps =
    List.concat_map
      (fun (nodes, rates) ->
        Core.Experiments.cluster_sweep ?pool ?faults ~checked ~net ~lanes:true
          ~nodes:[ nodes ] ~stacks ~rates ())
      combos
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
  let total =
    List.fold_left
      (fun acc (_, cells, _) ->
        List.fold_left (fun acc c -> acc + ccell_violations c) acc cells)
      (ccell_violations static + ccell_violations rebal)
      sweeps
  in
  if total > 0 then Printf.printf "WARNING: %d service conformance violations!\n" total
  else Printf.printf "(all cells: zero service conformance violations)\n";
  let open Obs.Json in
  let cell (c : Core.Experiments.ccell) =
    let m = c.cc_metrics in
    Obj
      [
        ("nodes", Int c.cc_nodes);
        ("stack", String (Core.Cluster.stack_label c.cc_stack));
        ("skew", String (Load.Keys.skew_label c.cc_skew));
        ("offered", Float m.Load.Metrics.offered); ("achieved", Float (ach c));
        ("p50_ms", Float m.Load.Metrics.p50_ms); ("p99_ms", Float m.Load.Metrics.p99_ms);
        ("server_max", Float c.cc_server_max); ("wire_max", Float c.cc_wire_max);
        ("cross_frac", Float c.cc_cross_frac); ("switch_fps", Float c.cc_switch_fps);
        ("gets", Int c.cc_gets); ("puts", Int c.cc_puts);
        ("migrations", Int c.cc_migrations); ("violations", Int (ccell_violations c));
      ]
  in
  let sweep ((n, stack, skew), cells, knee) =
    Obj
      [
        ("nodes", Int n); ("stack", String (Core.Cluster.stack_label stack));
        ("skew", String (Load.Keys.skew_label skew)); ("knee", knee_json knee);
        ("points", List (List.map cell cells));
      ]
  in
  ( Some
      (Obj
         [
           ("sweeps", List (List.map sweep sweeps));
           ( "migration_ab",
             Obj
               [
                 ("static", cell static); ("rebalanced", cell rebal);
                 ("delta_pct", Float delta);
                 ("migration_wins", Bool (ach rebal > ach static));
               ] );
         ]),
    total )

(* The scenario artifact: loss x load tail amplification, a short
   checked soak with a mid-run sequencer crash, and the calibration
   round-trip (fitted net constants must equal the pinned era
   bit-exactly).  Quick mode shrinks the grid to the CI smoke. *)
let scenario c =
  hr "Scenario: tail amplification under frame loss";
  let quick = c.quick and net = c.net in
  let impls =
    if quick then [ Core.Cluster.User ] else Core.Experiments.load_impls
  in
  let losses = if quick then [ 0.01 ] else Core.Experiments.tail_losses in
  let rates = if quick then [ 200. ] else [ 200.; 800. ] in
  let window = Sim.Time.us_f (if quick then 0.5e6 else 1e6) in
  let cells =
    with_pool c.jobs (fun ?pool () ->
        Core.Experiments.tail_grid ?pool ~net
          ~config:{ Load.Clients.default with Load.Clients.window }
          ~losses ~rates ~impls ())
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
  let violations = soak.Scenario.Soak.r_violations in
  if violations > 0 then
    Printf.printf "WARNING: %d soak conformance violations!\n" violations
  else Printf.printf "(soak: zero conformance violations)\n";
  let open Obs.Json in
  let tail (c : Core.Experiments.tail_cell) =
    let m = c.tc_metrics in
    Obj
      [
        ("impl", String (Core.Cluster.impl_label c.tc_impl));
        ("loss", Float c.tc_loss); ("rate", Float c.tc_rate);
        ("p50_ms", Float m.Load.Metrics.p50_ms); ("p99_ms", Float m.Load.Metrics.p99_ms);
        ("p999_ms", Float m.Load.Metrics.p999_ms);
        ("amp99", Float c.tc_amp99); ("amp999", Float c.tc_amp999);
        ("violations", Int m.Load.Metrics.violations);
      ]
  in
  let window (w : Scenario.Soak.window) =
    Obj
      [
        ("offered", Float w.w_offered); ("achieved", Float w.w_achieved);
        ("p99_ms", Float w.w_p99_ms); ("retrans", Int w.w_retrans);
        ("kills", Int w.w_kills);
      ]
  in
  ( Some
      (Obj
         [
           ("tail_grid", List (List.map tail cells));
           ( "soak",
             Obj
               [
                 ("windows", List (List.map window soak.r_windows));
                 ("issued", Int soak.r_issued); ("completed", Int soak.r_completed);
                 ("p999_ms", Float soak.r_p999_ms);
                 ("seq_crashed", Bool soak.r_seq_crashed);
                 ("violations", Int violations);
               ] );
           ( "calibration",
             Obj
               [
                 ("era", String net.Core.Params.np_name); ("exact", Bool calib_exact);
                 ("reference_ms", Float calib_ref); ("fitted_ms", Float calib_fit);
               ] );
         ]),
    violations )

let ablation c =
  let net = c.net in
  with_pool c.jobs (fun ?pool () ->
      hr "Ablation: dedicated sequencer for LEQ [s]";
      List.iter
        (fun o -> Format.printf "  %a@." Core.Runner.pp_outcome o)
        (Core.Experiments.ablation_dedicated_sequencer ?pool ~net ~procs:[ 8; 16; 32 ] ());
      hr "Ablation: nonblocking broadcast (paper Sec. 6 extension)";
      List.iter
        (fun (label, ms) -> Printf.printf "  %-28s %6.3f ms\n" label ms)
        (Core.Experiments.ablation_nonblocking ?pool ~net ());
      hr "Ablation: adaptive object placement (Sec. 2 runtime heuristic)";
      List.iter
        (fun (label, v) -> Printf.printf "  %-40s %8.1f\n" label v)
        (Core.Experiments.ablation_migration ?pool ~net ());
      hr "Ablation: user-level network access (the paper's Sec. 6 projection)";
      List.iter
        (fun (label, v) -> Printf.printf "  %-42s %6.3f ms\n" label v)
        (Core.Experiments.ablation_user_level_network ?pool ~net ());
      hr "Ablation: continuations vs blocked server threads (RL, P=16)";
      List.iter
        (fun (label, s) -> Printf.printf "  %-40s %6.1f s\n" label s)
        (Core.Experiments.ablation_continuations ?pool ~net ~procs:16 ()));
  (None, 0)

(* Engine microbenchmarks: the scheduler hot paths in isolation, on one
   domain.  Three shapes: pure event churn (heap path only), the
   timer-cancel pattern that motivates the timing wheel — 200 ms
   retransmission-style timers armed and cancelled long before they fire
   — run with the wheel on and off on the identical schedule, and a laned
   run that stresses the conservative window/merge machinery itself.
   Event counts are deterministic; only the wall-clock rates vary run to
   run. *)
let engine c =
  hr "Engine: scheduler microbenchmarks";
  let scale = if c.quick then 1 else 5 in
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
  let open Obs.Json in
  let shape ?(extra = []) label events wall =
    Obj
      ([
         ("shape", String label); ("events", Int events);
         ("wall_seconds", Float wall); ("events_per_sec", Float (rate events wall));
       ]
      @ extra)
  in
  ( Some
      (Obj
         [
           ( "shapes",
             List
               [
                 shape "pure-scheduler" ep wp;
                 shape "timer-cancel-wheel" ew ww;
                 shape "timer-cancel-heap" eh wh;
                 shape "sharded-merge" es ws
                   ~extra:[ ("windows", Int wins); ("merged", Int merged) ];
               ] );
           ("wheel_speedup", Float speedup);
         ]),
    0 )

let all =
  [
    { name = "table1"; has_quick = false; fault_free = false; run = table1 };
    { name = "table2"; has_quick = false; fault_free = false; run = table2 };
    { name = "breakdown"; has_quick = false; fault_free = true; run = breakdown };
    { name = "optimized"; has_quick = false; fault_free = true; run = optimized };
    { name = "table3"; has_quick = true; fault_free = false; run = table3 };
    { name = "faults"; has_quick = true; fault_free = false; run = fault_sweep };
    { name = "load"; has_quick = true; fault_free = false; run = load };
    { name = "onesided"; has_quick = true; fault_free = false; run = onesided };
    { name = "cluster"; has_quick = true; fault_free = false; run = cluster };
    { name = "scenario"; has_quick = true; fault_free = true; run = scenario };
    { name = "ablation"; has_quick = false; fault_free = true; run = ablation };
    { name = "engine"; has_quick = true; fault_free = true; run = engine };
  ]

(* The artifacts [selected] names (all of them when empty), in table
   order. *)
let chosen selected = List.filter (fun a -> selected = [] || List.mem a.name selected) all

(* Runs [selected] (every artifact when empty) in table order, each timed
   for the json report: host seconds, simulated events executed (across
   all pool domains), and the high-water mark of pending events (heap +
   wheel, max over every engine's lanes), where a leak in any protocol
   layer shows up long before it shows up in wall time.  With [json] the
   report is written to BENCH_results.json.  Returns the number of
   violations and invalid results found. *)
let run ~json c selected =
  let open Obs.Json in
  let results =
    List.map
      (fun a ->
        let t0 = Unix.gettimeofday () in
        let e0 = Sim.Engine.events_total () in
        Sim.Engine.reset_live_hw ();
        let section, bad = a.run c in
        let wall = Unix.gettimeofday () -. t0 in
        let events = Sim.Engine.events_total () - e0 in
        let name = if c.quick && a.has_quick then a.name ^ "-quick" else a.name in
        let timing =
          Obj
            [
              ("name", String name); ("wall_seconds", Float wall);
              ("sim_events", Int events);
              ("events_per_sec", Float (if wall > 0. then float_of_int events /. wall else 0.));
              ("live_hw", Int (Sim.Engine.live_hw ()));
            ]
        in
        (Option.map (fun s -> (a.name, s)) section, timing, bad))
      (chosen selected)
  in
  if json then begin
    let file = "BENCH_results.json" in
    let report =
      Obj
        ([
           ( "host",
             Obj
               [
                 ("os_type", String Sys.os_type);
                 ("ocaml_version", String Sys.ocaml_version);
                 ("word_size", Int Sys.word_size);
                 ("recommended_domains", Int (Exec.Pool.recommended ()));
               ] );
           ("jobs", Int c.jobs);
           ("profile", String c.net.Core.Params.np_name);
         ]
        @ List.filter_map (fun (s, _, _) -> s) results
        @ [ ("artifacts", List (List.map (fun (_, t, _) -> t) results)) ])
    in
    Out_channel.with_open_text file (fun oc ->
        output_string oc (to_string report);
        output_char oc '\n');
    Printf.printf "\nwrote %s (%d artifacts, -j %d)\n" file (List.length results) c.jobs
  end;
  List.fold_left (fun n (_, _, bad) -> n + bad) 0 results
