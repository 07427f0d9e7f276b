(* The observability subsystem: spans balance, the cost ledger accounts for
   exactly the CPU time the simulator spent, percentiles behave, exports
   are deterministic, and the measured breakdown agrees with the analytic
   differential where the two accountings coincide. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let recorded = lazy (Core.Experiments.recorded_rpc ())

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ---------- spans ---------- *)

let test_span_balance () =
  let r, _busy = Lazy.force recorded in
  check_bool "recorded some spans" true (Obs.Recorder.n_spans r > 0);
  check_int "no span left open" 0 (Obs.Recorder.open_spans r);
  List.iter
    (fun sp ->
      check_bool "span closed" true (sp.Obs.Recorder.sp_end >= 0);
      check_bool "span has nonnegative duration" true
        (sp.Obs.Recorder.sp_end >= sp.Obs.Recorder.sp_begin);
      check_bool "depth nonnegative" true (sp.Obs.Recorder.sp_depth >= 0))
    (Obs.Recorder.spans r)

let test_span_tracks () =
  let r, _busy = Lazy.force recorded in
  let tracks = Obs.Recorder.tracks r in
  let has prefix =
    List.exists
      (fun t ->
        String.length t >= String.length prefix
        && String.sub t 0 (String.length prefix) = prefix)
      tracks
  in
  check_bool "has CPU tracks" true (has "cpu:");
  check_bool "has the client fiber's track" true (has "m0/client#");
  (* Nesting exists: the user-space stack wraps trans > send > ... *)
  check_bool "some spans are nested" true
    (List.exists (fun sp -> sp.Obs.Recorder.sp_depth > 0) (Obs.Recorder.spans r))

(* ---------- ledger ---------- *)

(* Every nanosecond of CPU busy time must be attributed to exactly one
   (layer, cause) ledger cell.  The single exception is the header share of
   NIC reception, charged as [Header_wire] (a non-CPU cause, so the header
   measurement matches the analytic differential) and tracked by a
   correction counter. *)
let test_ledger_accounts_for_cpu_time () =
  let r, busy = Lazy.force recorded in
  let correction = Sim.Stats.counter (Obs.Recorder.stats r) "obs.nic.header_rx_ns" in
  check_bool "simulation did work" true (busy > 0);
  check_int "ledger CPU total equals CPU busy time"
    busy
    (Obs.Recorder.cpu_ns r + correction)

let test_ledger_composition () =
  let r, _busy = Lazy.force recorded in
  (* A user-space RPC run exercises every mechanism the paper names. *)
  check_bool "context switches charged" true
    (Obs.Recorder.cause_ns r Obs.Cause.Ctx_switch > 0);
  check_bool "register-window traps charged" true
    (Obs.Recorder.cause_ns r Obs.Cause.Regwin_trap > 0);
  check_bool "kernel crossings charged" true
    (Obs.Recorder.cause_ns r Obs.Cause.Uk_crossing > 0);
  check_bool "copies charged" true (Obs.Recorder.cause_ns r Obs.Cause.Copy > 0);
  check_bool "panda layers active" true
    (Obs.Recorder.layer_ns r Obs.Layer.Panda_sys > 0
     && Obs.Recorder.layer_ns r Obs.Layer.Panda_rpc > 0);
  check_bool "kernel stack layers silent on a user run" true
    (Obs.Recorder.layer_ns r Obs.Layer.Amoeba_rpc = 0
     && Obs.Recorder.layer_ns r Obs.Layer.Amoeba_grp = 0)

(* ---------- percentiles ---------- *)

let test_percentiles () =
  let s = Sim.Stats.create () in
  (* A deterministic shuffle of 1..1000. *)
  for i = 0 to 999 do
    Sim.Stats.record s "lat" (float_of_int (((i * 467) mod 1000) + 1))
  done;
  let p q = Sim.Stats.percentile s "lat" q in
  check_bool "p50 <= p90" true (p 50. <= p 90.);
  check_bool "p90 <= p99" true (p 90. <= p 99.);
  (* Log buckets are 1/16 octave wide: ~4.4% relative error. *)
  check_bool "p50 near 500" true (abs_float (p 50. -. 500.) < 30.);
  check_bool "p99 near 990" true (abs_float (p 99. -. 990.) < 60.);
  check_bool "clamped to observed range" true (p 0. >= 1. && p 100. <= 1000.);
  check_bool "empty series is 0" true (Sim.Stats.percentile s "nope" 50. = 0.)

(* ---------- ledger-only recorders ---------- *)

(* One null-RPC load run on two machines with [recorder] over its window. *)
let null_rpc_run recorder =
  let cluster = Core.Cluster.create ~n:2 () in
  Load.Clients.run
    { Load.Clients.default with Load.Clients.window = Sim.Time.ms 200 }
    ~eng:cluster.Core.Cluster.eng
    ~backends:(Core.Cluster.backends cluster Core.Cluster.User)
    ~machines:cluster.Core.Cluster.machines ~recorder ()

let check_same_ledger label a b =
  List.iter
    (fun layer ->
      List.iter
        (fun cause ->
          check_int
            (Printf.sprintf "%s: ledger %s/%s" label (Obs.Layer.to_string layer)
               (Obs.Cause.to_string cause))
            (Obs.Recorder.ledger_ns a ~layer ~cause)
            (Obs.Recorder.ledger_ns b ~layer ~cause))
        Obs.Cause.all)
    Obs.Layer.all

(* Spans are the only thing a ledger-only recorder drops: the ledger, the
   counters and the simulated run itself match a span-keeping recording
   of the same run. *)
let test_ledger_only_recorder () =
  let lean = Obs.Recorder.create () and full = Obs.Recorder.create ~spans:true () in
  let m_lean = null_rpc_run lean and m_full = null_rpc_run full in
  check_int "ledger-only recorder keeps no spans" 0 (Obs.Recorder.n_spans lean);
  check_bool "span recorder keeps spans" true (Obs.Recorder.n_spans full > 0);
  check_same_ledger "ledger-only vs span recorder" full lean;
  let header_rx r = Sim.Stats.counter (Obs.Recorder.stats r) "obs.nic.header_rx_ns" in
  check_bool "header correction counted" true (header_rx full > 0);
  check_int "obs.nic.header_rx_ns" (header_rx full) (header_rx lean);
  check_bool "requests completed" true (m_lean.Load.Metrics.completed > 0);
  check_int "completed" m_full.Load.Metrics.completed m_lean.Load.Metrics.completed;
  Alcotest.(check (float 0.)) "p50" m_full.Load.Metrics.p50_ms m_lean.Load.Metrics.p50_ms;
  Alcotest.(check (float 0.)) "mean" m_full.Load.Metrics.mean_ms m_lean.Load.Metrics.mean_ms;
  Alcotest.(check (float 0.)) "max" m_full.Load.Metrics.max_ms m_lean.Load.Metrics.max_ms

(* Whether spans are kept, and so whether an interrupt's ["irq:"] span name
   is built, is decided per domain: a span-keeping job and a ledger-only
   job running at once on two domains each see only their own recorder. *)
let test_spans_per_domain () =
  let solo = Obs.Recorder.create () in
  let m_solo = null_rpc_run solo in
  let runs =
    Exec.Pool.with_pool ~jobs:2 (fun pool ->
        Exec.Pool.map_array pool
          (fun spans ->
            let r = Obs.Recorder.create ~spans () in
            (r, null_rpc_run r))
          [| true; false |])
  in
  let full, _ = runs.(0) and lean, m_lean = runs.(1) in
  check_bool "the spans job's trace names irq:nic.rx" true
    (contains (Obs.Export.chrome_trace full) {|"irq:nic.rx"|});
  check_int "the ledger-only job keeps no spans" 0 (Obs.Recorder.n_spans lean);
  check_same_ledger "ledger-only job vs solo run" solo lean;
  check_int "completed" m_solo.Load.Metrics.completed m_lean.Load.Metrics.completed

(* ---------- export determinism ---------- *)

let test_export_determinism () =
  let r1, _ = Core.Experiments.recorded_rpc () in
  let r2, _ = Core.Experiments.recorded_rpc () in
  check_string "chrome traces identical across reruns"
    (Obs.Export.chrome_trace r1) (Obs.Export.chrome_trace r2);
  check_string "CSVs identical across reruns" (Obs.Export.csv r1) (Obs.Export.csv r2)

let test_chrome_trace_shape () =
  let r, _ = Lazy.force recorded in
  let trace = Obs.Export.chrome_trace r in
  let contains = contains trace in
  check_bool "is a trace_event container" true
    (String.length trace > 2 && String.sub trace 0 15 = {|{"traceEvents":|});
  check_bool "names threads" true (contains {|"thread_name"|});
  check_bool "has complete events" true (contains {|"ph":"X"|});
  check_bool "tags layers as categories" true (contains {|"cat":"panda_rpc"|})

(* ---------- measured vs analytic breakdown ---------- *)

let test_measured_breakdown_matches_analytic () =
  let rpc_m, grp_m = Core.Experiments.measured_breakdown () in
  let analytic = Core.Experiments.rpc_breakdown () in
  let m label = List.assoc label rpc_m in
  let a label = List.assoc label analytic in
  let close ?(tol = 5.) label =
    check_bool
      (Printf.sprintf "%s: measured %.1f ~ analytic %.1f" label (m label) (a label))
      true
      (abs_float (m label -. a label) <= tol)
  in
  (* The total gap and the components whose cost is charged exactly where
     the differential removes it must agree tightly. *)
  close ~tol:1. "total user-kernel gap";
  close "context switches";
  close "double fragmentation";
  close "header size difference";
  close ~tol:10. "untuned user-level FLIP interface";
  (* Traps: the ledger charges every trap, while the differential only sees
     the latency-critical ones (removing traps also removes knock-on
     effects), so only sign and magnitude are comparable. *)
  check_bool "traps measured positive" true (m "register-window traps" > 0.);
  check_bool "traps within 2x-ish of analytic scale" true
    (m "register-window traps" < 10. *. a "register-window traps");
  (* Group rows: the user-path decomposition is positive for every
     mechanism, and the header row keeps the paper's negative sign (user
     headers are smaller). *)
  check_bool "group gap positive" true (List.assoc "total user-kernel gap" grp_m > 0.);
  check_bool "group header difference negative" true
    (List.assoc "header size difference" grp_m < 0.);
  List.iter
    (fun label ->
      check_bool (label ^ " positive") true (List.assoc label grp_m > 0.))
    [
      "context switches (user path)";
      "register-window traps (user path)";
      "double fragmentation (user path)";
      "untuned user-level FLIP interface (user path)";
    ]

(* Recording must not perturb the simulation: latencies measured with a
   recorder installed equal the unrecorded ones. *)
let test_recording_is_zero_cost () =
  let unrecorded = Core.Experiments.rpc_latency ~impl:Core.Cluster.User ~size:0 () in
  let r, _ = Lazy.force recorded in
  ignore r;
  let again = Core.Experiments.rpc_latency ~impl:Core.Cluster.User ~size:0 () in
  Alcotest.(check (float 0.)) "latency unchanged by recording" unrecorded again

(* ---------- json ---------- *)

let test_json_escaping () =
  check_string "escapes"
    {|"q\" b\\ n\n t\t c\u0001"|}
    (Obs.Json.to_string (Obs.Json.String "q\" b\\ n\n t\t c\001"))

let test_json_members () =
  check_string "flat object"
    {|{"k": 1, "x": 0.5, "s": "v", "b": true, "n": null}|}
    Obs.Json.(
      to_string
        (Obj
           [
             ("k", Int 1); ("x", Float 0.5); ("s", String "v"); ("b", Bool true);
             ("n", Null);
           ]))

let prop_json_floats_read_back =
  QCheck.Test.make ~name:"finite floats read back exactly" ~count:2000
    QCheck.(
      oneof
        [
          float;
          float_range (-1e6) 1e6;
          map (fun n -> float_of_int n /. 1000.) int;
        ])
    (fun x ->
      QCheck.assume (Float.is_finite x);
      float_of_string (Obs.Json.to_string (Obs.Json.Float x)) = x)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "balance" `Quick test_span_balance;
          Alcotest.test_case "tracks and nesting" `Quick test_span_tracks;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "accounts for CPU time" `Quick
            test_ledger_accounts_for_cpu_time;
          Alcotest.test_case "composition" `Quick test_ledger_composition;
          Alcotest.test_case "ledger-only recorder" `Quick test_ledger_only_recorder;
          Alcotest.test_case "spans per domain" `Quick test_spans_per_domain;
        ] );
      ( "stats",
        [ Alcotest.test_case "percentiles" `Quick test_percentiles ] );
      ( "export",
        [
          Alcotest.test_case "deterministic" `Quick test_export_determinism;
          Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "members" `Quick test_json_members;
          QCheck_alcotest.to_alcotest prop_json_floats_read_back;
        ] );
      ( "breakdown",
        [
          Alcotest.test_case "measured vs analytic" `Quick
            test_measured_breakdown_matches_analytic;
          Alcotest.test_case "recording is zero-cost" `Quick
            test_recording_is_zero_cost;
        ] );
    ]
