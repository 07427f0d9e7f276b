(* Golden regression suite: pins the calibrated Table 1 latencies and
   Table 2 throughputs bit-exactly, so optimization work and future PRs
   cannot silently perturb the baselines the paper comparison rests on.
   The simulation is deterministic (and `-j N` fan-out is reassembled in
   canonical order), so exact float equality is the right check: any
   difference at all means the cost model changed and the pins must be
   re-justified, not fuzzed past.

   Also asserts, per stack, the ledger-conservation invariant (the cost
   ledger accounts for every nanosecond of CPU busy time) and the
   optimized stack's required ordering: strictly faster than baseline
   user space, never faster than kernel space in Table 1. *)

let check_bool = Alcotest.(check bool)
let exact = Alcotest.(check (float 0.))
let exact_some tag v = Alcotest.(check (option (float 0.))) tag (Some v)

(* size, unicast, multicast, rpc_user, rpc_kernel, grp_user, grp_kernel,
   rpc_opt, grp_opt — all ms. *)
let golden_table1 =
  [
    (0, 0.53156000000000003, 0.62156, 1.5550000000000002, 1.2729200000000001,
     1.57792, 1.3825400000000001, 1.3935200000000001, 1.4834400000000001);
    (1024, 1.5146000000000002, 1.6046, 2.5380400000000001, 2.2047599999999998,
     3.5439999999999996, 3.19502, 2.2741599999999997, 3.2959200000000002);
    (2048, 2.3864399999999999, 2.4764399999999998, 3.4066800000000002,
     3.1114000000000002, 4.0434399999999995, 3.2938200000000002,
     3.2043599999999999, 3.84632);
    (3072, 3.34504, 3.5250399999999997, 4.3140799999999997, 4.0180400000000001,
     5.2214799999999997, 4.2798600000000002, 4.1303600000000005,
     4.8943199999999996);
    (4096, 4.1713199999999997, 4.2613199999999996, 5.19156, 4.9498800000000003,
     5.8283199999999997, 5.1322999999999999, 4.9542000000000002,
     5.5961599999999994);
  ]

(* proto, user, kernel, optimized — KB/s. *)
let golden_table2 =
  [
    ("RPC", 918.27499471073611, 927.08842613908757, 943.84414279017847);
    ("group", 1058.5956100407031, 1018.6810346148359, 1064.4959654183583);
  ]

let row_key r =
  ( r.Core.Experiments.lr_size,
    r.Core.Experiments.lr_unicast,
    r.Core.Experiments.lr_multicast,
    r.Core.Experiments.lr_rpc_user,
    r.Core.Experiments.lr_rpc_kernel,
    r.Core.Experiments.lr_grp_user,
    r.Core.Experiments.lr_grp_kernel,
    r.Core.Experiments.lr_rpc_opt,
    r.Core.Experiments.lr_grp_opt )

let table1 = lazy (Core.Experiments.table1 ())
let table2 = lazy (Core.Experiments.table2 ())

let check_table1 ?(era = "") ?(golden = golden_table1) rows =
  List.iter2
    (fun (size, u, m, ru, rk, gu, gk, ro, go) r ->
      let tag col = Printf.sprintf "T1%s %d %s" era size col in
      Alcotest.(check int) (tag "size") size r.Core.Experiments.lr_size;
      exact_some (tag "unicast") u r.Core.Experiments.lr_unicast;
      exact_some (tag "multicast") m r.Core.Experiments.lr_multicast;
      exact (tag "rpc user") ru r.Core.Experiments.lr_rpc_user;
      exact (tag "rpc kernel") rk r.Core.Experiments.lr_rpc_kernel;
      exact (tag "grp user") gu r.Core.Experiments.lr_grp_user;
      exact (tag "grp kernel") gk r.Core.Experiments.lr_grp_kernel;
      exact (tag "rpc optimized") ro r.Core.Experiments.lr_rpc_opt;
      exact (tag "grp optimized") go r.Core.Experiments.lr_grp_opt)
    golden rows

let check_table2 ?(era = "") ?(golden = golden_table2) rows =
  List.iter2
    (fun (proto, u, k, o) r ->
      let tag col = Printf.sprintf "T2%s %s %s" era proto col in
      Alcotest.(check string) (tag "proto") proto r.Core.Experiments.tr_proto;
      exact_some (tag "user") u r.Core.Experiments.tr_user;
      exact_some (tag "kernel") k r.Core.Experiments.tr_kernel;
      exact_some (tag "optimized") o r.Core.Experiments.tr_opt)
    golden rows

let test_table1_golden () = check_table1 (Lazy.force table1)
let test_table2_golden () = check_table2 (Lazy.force table2)

(* Bit-identical under parallel fan-out: the same pins must hold when the
   cells run on a domain pool. *)
let test_golden_parallel () =
  let t1, t2 =
    Exec.Pool.with_pool ~jobs:2 (fun p ->
        (Core.Experiments.table1 ~pool:p (), Core.Experiments.table2 ~pool:p ()))
  in
  check_table1 t1;
  check_table2 t2;
  check_bool "-j 2 table1 identical to sequential" true
    (List.map row_key t1 = List.map row_key (Lazy.force table1))

(* The optimized stack's contract, as data rather than prose: strictly
   faster than the baseline user stack, never faster than the kernel stack
   (Table 1), and higher 8 KB throughput than the baseline (Table 2). *)
let test_optimized_ordering () =
  List.iter
    (fun r ->
      let tag s = Printf.sprintf "size %d: %s" r.Core.Experiments.lr_size s in
      check_bool (tag "rpc opt < rpc user") true
        (r.Core.Experiments.lr_rpc_opt < r.Core.Experiments.lr_rpc_user);
      check_bool (tag "rpc opt >= rpc kernel") true
        (r.Core.Experiments.lr_rpc_opt >= r.Core.Experiments.lr_rpc_kernel);
      check_bool (tag "grp opt < grp user") true
        (r.Core.Experiments.lr_grp_opt < r.Core.Experiments.lr_grp_user);
      check_bool (tag "grp opt >= grp kernel") true
        (r.Core.Experiments.lr_grp_opt >= r.Core.Experiments.lr_grp_kernel))
    (Lazy.force table1);
  List.iter
    (fun r ->
      check_bool
        (r.Core.Experiments.tr_proto ^ ": optimized throughput above baseline")
        true
        (r.Core.Experiments.tr_opt > r.Core.Experiments.tr_user))
    (Lazy.force table2)

(* The optimized differential must attribute every saved microsecond to
   one of the four named mechanisms: zero residual.  On the null RPC no
   removed work overlaps the wire, so the mechanisms' sum equals the
   latency delta exactly; on the group path a few microseconds of the
   removed CPU work were off the critical path, so the ledger recovery
   bounds the latency delta from above. *)
let test_optimized_attribution () =
  let rpc_o, grp_o = Core.Experiments.optimized_breakdown () in
  let close a b = Float.abs (a -. b) < 1e-9 in
  let sum o =
    List.fold_left (fun acc (_, us) -> acc +. us) 0.
      o.Core.Experiments.ob_mechanisms
  in
  check_bool "rpc residual zero" true
    (close rpc_o.Core.Experiments.ob_residual_us 0.);
  check_bool "group residual zero" true
    (close grp_o.Core.Experiments.ob_residual_us 0.);
  check_bool "rpc mechanisms sum to the latency delta" true
    (close (sum rpc_o)
       (rpc_o.Core.Experiments.ob_base_us -. rpc_o.Core.Experiments.ob_opt_us));
  check_bool "group mechanisms cover the latency delta" true
    (sum grp_o
     >= grp_o.Core.Experiments.ob_base_us -. grp_o.Core.Experiments.ob_opt_us
        -. 1e-9);
  List.iter
    (fun o ->
      List.iter
        (fun (name, us) ->
          check_bool (name ^ ": a mechanism never costs time") true (us >= 0.))
        o.Core.Experiments.ob_mechanisms)
    [ rpc_o; grp_o ]

(* Ledger conservation, per stack: the cost ledger attributes every
   nanosecond of CPU busy time to exactly one (layer, cause) cell.  The
   single exception is the header share of NIC reception, charged as
   non-CPU [Header_wire] and tracked by a correction counter. *)
let test_ledger_conservation () =
  List.iter
    (fun (label, impl) ->
      let r, busy = Core.Experiments.recorded_rpc ~impl () in
      let correction = Sim.Stats.counter (Obs.Recorder.stats r) "obs.nic.header_rx_ns" in
      check_bool (label ^ ": simulation did work") true (busy > 0);
      Alcotest.(check int)
        (label ^ ": ledger CPU total equals CPU busy time")
        busy
        (Obs.Recorder.cpu_ns r + correction))
    Core.Cluster.[ ("user", User); ("kernel", Kernel); ("optimized", User_optimized) ]

(* ---------- the other microbenchmarks ---------- *)

(* Every other microbenchmark number the bench report prints, pinned as
   bit-exactly as Tables 1-2: the tables on another network era, the
   Sec. 4.2/4.3 breakdowns, the optimized differential's latencies, the
   micro ablations, and the null latencies under two loss schedules (at
   seed 3 no frame of the measured rounds is lost; at seed 9 every stack
   pays retransmissions). *)

let golden_table1_net100m =
  [
    (0, 0.41220000000000001, 0.4572, 1.22028, 0.97420000000000007, 1.2342,
     1.0448200000000001, 1.0648, 1.1457200000000001);
    (1024, 0.62724000000000002, 0.67224000000000006, 1.4353199999999999,
     1.1380399999999999, 1.6642800000000002, 1.3212999999999999, 1.17744,
     1.4221999999999999);
    (2048, 0.9507199999999999, 1.0407199999999999, 1.75048, 1.32656,
     2.5911599999999999, 1.4853000000000001, 1.4914400000000001,
     2.1465199999999998);
    (3072, 1.22532, 1.36032, 2.02508, 1.4877199999999999, 2.7791600000000001,
     1.68842, 1.66144, 2.2547199999999998);
    (4096, 1.30724, 1.44224, 2.1070000000000002, 1.5696400000000001,
     2.81088, 1.7703399999999998, 1.6921600000000001, 2.2854399999999999);
  ]

let golden_table2_net100m =
  [
    ("RPC", 2606.4603517762298, 3685.6978411835753, 3269.2114557353998);
    ("group", 1690.9276456118669, 3588.3340675862241, 2014.5139552633932);
  ]

let golden_rpc_breakdown =
  [
    ("total user-kernel gap", 282.0800000000001);
    ("context switches", 140.00000000000011);
    ("register-window traps", 24.000000000000227);
    ("double fragmentation", 40.000000000000028);
    ("header size difference", 15.360000000000241);
    ("untuned user-level FLIP interface", 160.00000000000011);
  ]

let golden_group_breakdown =
  [
    ("total user-kernel gap", 195.37999999999988);
    ("context switches (user path)", 210.);
    ("register-window traps (user path)", 18.);
    ("double fragmentation (user path)", 40.);
    ("header size difference", -22.4399999999996);
    ("untuned user-level FLIP interface (user path)", 160.);
  ]

(* base, optimized, kernel — µs/round. *)
let golden_optimized_rpc = (1555., 1393.52, 1272.9200000000001)
let golden_optimized_group = (1577.9200000000001, 1483.4400000000001, 1382.5400000000002)

let golden_nonblocking =
  [ ("blocking send (ms)", 1.7007999999999999); ("nonblocking send (ms)", 0.18193999999999999) ]

let golden_migration =
  [
    ("static placement (remote owner), ms", 653.61440000000005);
    ("adaptive placement, ms", 51.662799999999997);
    ("migrations", 1.);
  ]

let golden_user_level_network =
  [
    ("RPC user (today), ms", 1.5550000000000002);
    ("RPC user with user-level network, ms", 1.2150000000000001);
    ("RPC kernel (reference), ms", 1.2729200000000001);
    ("group user (today), ms", 1.57792);
    ("group user with user-level network, ms", 1.2729200000000001);
    ("group kernel (reference), ms", 1.3825400000000001);
  ]

(* (seed, loss), then per stack the null RPC and group latencies, ms. *)
let golden_lossy =
  [
    ( (3, 0.05),
      [
        ("kernel", 1.2729200000000001, 1.3825400000000001);
        ("user", 1.5550000000000002, 1.57792);
        ("optimized", 1.3935200000000001, 1.4834400000000001);
      ] );
    ( (9, 0.1),
      [
        ("kernel", 81.215920000000011, 61.388539999999999);
        ("user", 81.592200000000005, 61.529620000000001);
        ("optimized", 81.430719999999994, 61.446900000000007);
      ] );
  ]

let micro_stacks = Core.Cluster.[ ("kernel", Kernel); ("user", User); ("optimized", User_optimized) ]
let table1_net100m () = Core.Experiments.table1 ~net:Core.Params.net100m ()
let table2_net100m () = Core.Experiments.table2 ~net:Core.Params.net100m ()

let lossy_null ~seed ~loss impl =
  let faults = Faults.Spec.loss ~seed loss in
  ( Core.Experiments.rpc_latency ~faults ~impl ~size:0 (),
    Core.Experiments.group_latency ~faults ~impl ~size:0 () )

let check_rows name golden rows =
  Alcotest.(check (list string))
    (name ^ ": labels") (List.map fst golden) (List.map fst rows);
  List.iter2 (fun (label, g) (_, v) -> exact (name ^ ": " ^ label) g v) golden rows

let test_tables_net100m () =
  check_table1 ~era:" net100m" ~golden:golden_table1_net100m (table1_net100m ());
  check_table2 ~era:" net100m" ~golden:golden_table2_net100m (table2_net100m ())

let test_breakdowns_pinned () =
  check_rows "rpc breakdown" golden_rpc_breakdown (Core.Experiments.rpc_breakdown ());
  check_rows "group breakdown" golden_group_breakdown
    (Core.Experiments.group_breakdown ());
  let rpc_o, grp_o = Core.Experiments.optimized_breakdown () in
  List.iter
    (fun (name, (base, opt, kernel), o) ->
      exact (name ^ " base") base o.Core.Experiments.ob_base_us;
      exact (name ^ " optimized") opt o.Core.Experiments.ob_opt_us;
      exact (name ^ " kernel") kernel o.Core.Experiments.ob_kernel_us)
    [
      ("optimized rpc", golden_optimized_rpc, rpc_o);
      ("optimized group", golden_optimized_group, grp_o);
    ]

let test_ablations_pinned () =
  check_rows "nonblocking" golden_nonblocking (Core.Experiments.ablation_nonblocking ());
  check_rows "migration" golden_migration (Core.Experiments.ablation_migration ());
  check_rows "user-level network" golden_user_level_network
    (Core.Experiments.ablation_user_level_network ())

let test_lossy_pinned () =
  List.iter
    (fun ((seed, loss), stacks) ->
      List.iter2
        (fun (label, rpc, grp) (label', impl) ->
          Alcotest.(check string) "stack order" label label';
          let tag s = Printf.sprintf "seed=%d loss=%g %s %s" seed loss label s in
          let rpc', grp' = lossy_null ~seed ~loss impl in
          exact (tag "rpc") rpc rpc';
          exact (tag "group") grp grp')
        stacks micro_stacks)
    golden_lossy

let () =
  Alcotest.run "golden"
    [
      ( "tables",
        [
          Alcotest.test_case "table1 pinned" `Slow test_table1_golden;
          Alcotest.test_case "table2 pinned" `Slow test_table2_golden;
          Alcotest.test_case "pins hold at -j 2" `Slow test_golden_parallel;
          Alcotest.test_case "optimized ordering" `Slow test_optimized_ordering;
          Alcotest.test_case "optimized attribution" `Slow
            test_optimized_attribution;
        ] );
      ( "micro",
        [
          Alcotest.test_case "tables 1-2 at net100m pinned" `Quick test_tables_net100m;
          Alcotest.test_case "breakdowns pinned" `Quick test_breakdowns_pinned;
          Alcotest.test_case "micro ablations pinned" `Quick test_ablations_pinned;
          Alcotest.test_case "null latencies under loss pinned" `Quick test_lossy_pinned;
        ] );
      ( "ledger",
        [ Alcotest.test_case "conservation per stack" `Quick test_ledger_conservation ] );
    ]
