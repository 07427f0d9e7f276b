(* Experiment-level tests: the microbenchmark harnesses must reproduce the
   paper's qualitative orderings on every run. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Fault-free, every run yields its measurement. *)
let measured = function Some v -> v | None -> Alcotest.fail "no measurement"

let test_table1_row_orderings () =
  (* One row is enough for the orderings; the full sweep runs in bench. *)
  let size = 0 in
  let uni = measured (Core.Experiments.unicast_latency ~size ()) in
  let mc = measured (Core.Experiments.multicast_latency ~size ()) in
  let rpc_u = Core.Experiments.rpc_latency ~impl:Core.Cluster.User ~size () in
  let rpc_k = Core.Experiments.rpc_latency ~impl:Core.Cluster.Kernel ~size () in
  let grp_u = Core.Experiments.group_latency ~impl:Core.Cluster.User ~size () in
  let grp_k = Core.Experiments.group_latency ~impl:Core.Cluster.Kernel ~size () in
  check_bool "multicast >= unicast" true (mc >= uni);
  check_bool "user RPC slower than kernel RPC" true (rpc_u > rpc_k);
  check_bool "user group slower than kernel group" true (grp_u > grp_k);
  check_bool "rpc slower than raw unicast" true (rpc_u > uni && rpc_k > uni);
  (* The gaps are fractions of a millisecond, as in the paper. *)
  check_bool "rpc gap sane" true (rpc_u -. rpc_k < 1.0);
  check_bool "group gap sane" true (grp_u -. grp_k < 1.0)

let spec s = Result.get_ok (Faults.Spec.parse s)

(* The raw ping-pong does not retransmit: a run that loses a message
   reports no latency.  A duplicated frame is echoed but counted once, so
   the ping-pong neither forks nor stops. *)
let test_raw_pingpong_under_faults () =
  check_bool "a lost message: no latency" true
    (Core.Experiments.unicast_latency ~faults:(spec "seed=3,loss=0.5") ~size:0 () = None);
  List.iter
    (fun (name, mcast) ->
      let latency ?faults () =
        measured
          (if mcast then Core.Experiments.multicast_latency ?faults ~size:1024 ()
           else Core.Experiments.unicast_latency ?faults ~size:1024 ())
      in
      let clean = latency () and dup = latency ~faults:(spec "seed=3,dup=0.2") () in
      check_bool (name ^ ": duplicated frames measured once") true
        (dup >= clean && dup < 2. *. clean))
    [ ("unicast", false); ("multicast", true) ]

(* A group sender that runs out of retries fails its Table 2 cell instead
   of ending the whole run.  At 5% loss the user and kernel stacks' gap
   repair floods the wire until a sender gives up (ROADMAP item 1f); the
   optimized stack and every RPC cell are still measured. *)
let test_table2_under_loss () =
  let rows = Core.Experiments.table2 ~faults:(spec "seed=3,loss=0.05") () in
  let row proto = List.find (fun r -> r.Core.Experiments.tr_proto = proto) rows in
  let rpc = row "RPC" and grp = row "group" in
  check_bool "RPC measured" true
    (List.for_all Option.is_some Core.Experiments.[ rpc.tr_user; rpc.tr_kernel; rpc.tr_opt ]);
  check_bool "user and kernel group senders gave up" true
    (grp.Core.Experiments.tr_user = None && grp.Core.Experiments.tr_kernel = None);
  check_bool "optimized group measured" true (grp.Core.Experiments.tr_opt <> None)

let test_latency_monotone_in_size () =
  let lat size = Core.Experiments.rpc_latency ~impl:Core.Cluster.User ~size () in
  let l0 = lat 0 and l2 = lat 2048 and l4 = lat 4096 in
  check_bool "grows with size" true (l0 < l2 && l2 < l4);
  (* Slope must be at least the wire time (0.8 us/B both ways). *)
  check_bool "slope at least wire rate" true (l4 -. l0 > 4096. *. 0.0008)

let test_throughput_orderings () =
  let rows = Core.Experiments.table2 () in
  let user r = measured r.Core.Experiments.tr_user
  and kernel r = measured r.Core.Experiments.tr_kernel in
  let rpc = List.find (fun r -> r.Core.Experiments.tr_proto = "RPC") rows in
  let grp = List.find (fun r -> r.Core.Experiments.tr_proto = "group") rows in
  check_bool "kernel RPC throughput higher" true (kernel rpc > user rpc);
  (* Group throughput saturates the wire: both implementations close. *)
  let ratio = user grp /. kernel grp in
  check_bool "group throughputs comparable" true (ratio > 0.85 && ratio < 1.15);
  check_bool "all below wire rate" true
    (List.for_all (fun r -> user r < 1250. && kernel r < 1250.) rows)

let test_rpc_breakdown_accounts_for_gap () =
  let rows = Core.Experiments.rpc_breakdown () in
  let total = List.assoc "total user-kernel gap" rows in
  let ctx = List.assoc "context switches" rows in
  let frag = List.assoc "double fragmentation" rows in
  check_bool "positive gap" true (total > 0.);
  check_bool "context switches ~140us (2 switches)" true (ctx > 100. && ctx < 180.);
  check_bool "fragmentation ~40us (2 messages)" true (frag > 20. && frag < 60.)

let test_cluster_shapes () =
  let c = Core.Cluster.create ~n:32 () in
  check_int "machines" 32 (Array.length c.Core.Cluster.machines);
  check_int "four segments of eight" 4 (Array.length c.Core.Cluster.topo.Net.Topology.segments);
  check_bool "switch present" true (c.Core.Cluster.topo.Net.Topology.switch <> None);
  let small = Core.Cluster.create ~n:8 () in
  check_bool "no switch for one segment" true
    (small.Core.Cluster.topo.Net.Topology.switch = None)

let test_runner_validates_checksum () =
  let o =
    Core.Runner.run ~impl:Core.Cluster.User ~procs:2
      {
        Core.Runner.app_name = "mini";
        app_make = (fun dom -> Apps.Tsp.make dom Apps.Tsp.test_params);
        app_reference = lazy (Apps.Tsp.sequential Apps.Tsp.test_params);
      }
  in
  check_bool "valid" true o.Core.Runner.o_valid;
  check_bool "took time" true (o.Core.Runner.o_seconds > 0.)

let test_dedicated_sequencer_worker_count () =
  (* User_dedicated sacrifices a worker: P=4 means 3 workers + sequencer. *)
  let app =
    {
      Core.Runner.app_name = "mini";
      app_make = (fun dom -> Apps.Leq.make dom Apps.Leq.test_params);
      app_reference = lazy (Apps.Leq.sequential Apps.Leq.test_params);
    }
  in
  let o = Core.Runner.run ~impl:Core.Cluster.User_dedicated ~procs:4 app in
  check_bool "valid result with P-1 workers" true o.Core.Runner.o_valid

(* Whole [Runner.outcome] records, pinned field by field (floats to 17
   digits), for one small checked app per stack under 1% frame loss: the
   time, checksum, event count, every protocol and utilization counter,
   retransmissions, fault kills and the violation list.  Utilizations are
   over the run until the engine drains, so neither exceeds 1. *)
let outcome_line (o : Core.Runner.outcome) =
  let s = o.Core.Runner.o_stats in
  Printf.sprintf
    "%s %s P=%d %.17g s checksum=%d valid=%b events=%d | bc=%d rpc=%d \
     parked=%d mig=%d bytes=%d net=%.17g cpu=%.17g sw=%d | retrans=%d \
     kills=%d violations=[%s]"
    o.o_app
    (Core.Cluster.impl_label o.o_impl)
    o.o_procs o.o_seconds o.o_checksum o.o_valid o.o_events s.s_broadcasts
    s.s_remote s.s_parked s.s_migrations s.s_net_bytes s.s_net_util
    s.s_cpu_util_max s.s_ctx_switches o.o_retrans o.o_fault_kills
    (String.concat "; " o.o_violations)

let test_runner_outcomes_pinned () =
  let faults = Result.get_ok (Faults.Spec.parse "seed=7,loss=0.01") in
  let app app_name make sequential =
    { Core.Runner.app_name; app_make = make; app_reference = lazy (sequential ()) }
  in
  List.iter
    (fun (impl, app, expected) ->
      let o = Core.Runner.run ~faults ~checked:true ~impl ~procs:4 app in
      let label = Core.Cluster.impl_label impl in
      Alcotest.(check string) label expected (outcome_line o);
      let s = o.Core.Runner.o_stats in
      Alcotest.(check bool) (label ^ " utilizations <= 1") true
        (s.s_net_util <= 1. && s.s_cpu_util_max <= 1.))
    [
      ( Core.Cluster.Kernel,
        app "tsp"
          (fun d -> Apps.Tsp.make d Apps.Tsp.test_params)
          (fun () -> Apps.Tsp.sequential Apps.Tsp.test_params),
        "tsp kernel P=4 0.09934896 s checksum=152 valid=true events=2272 | bc=8 \
         rpc=53 parked=0 mig=0 bytes=20344 net=0.025624967940088273 \
         cpu=0.11471425612026873 sw=728 | retrans=0 kills=1 violations=[]" );
      ( Core.Cluster.User,
        app "sor"
          (fun d -> Apps.Sor.make d Apps.Sor.test_params)
          (fun () -> Apps.Sor.sequential Apps.Sor.test_params),
        "sor user P=4 2.9150717199999998 s checksum=36990 valid=true \
         events=27615 | bc=36 rpc=432 parked=200 mig=0 bytes=183000 \
         net=0.047996761734850499 cpu=0.078032084523992878 sw=4351 | \
         retrans=33 kills=15 violations=[]" );
      ( Core.Cluster.User_dedicated,
        app "leq"
          (fun d -> Apps.Leq.make d Apps.Leq.test_params)
          (fun () -> Apps.Leq.sequential Apps.Leq.test_params),
        "leq user-dedicated P=4 1.20090988 s checksum=5189 valid=true \
         events=21070 | bc=303 rpc=0 parked=202 mig=0 bytes=116096 \
         net=0.056300303803104197 cpu=0.092613991756972561 sw=703 | \
         retrans=23 kills=6 violations=[]" );
      ( Core.Cluster.User_optimized,
        app "asp"
          (fun d -> Apps.Asp.make d Apps.Asp.test_params)
          (fun () -> Apps.Asp.sequential Apps.Asp.test_params),
        "asp optimized P=4 0.094591999999999996 s checksum=110151 valid=true \
         events=3938 | bc=48 rpc=0 parked=144 mig=0 bytes=25744 \
         net=0.026273759740377444 cpu=0.073617101933227569 sw=609 | retrans=0 \
         kills=0 violations=[]" );
    ]

(* A fault spec's seqcrash reaches every stack a cell builds.  The
   sharded service's RPC stacks run the single sequencer, which cannot
   recover, and the one-sided stack has no sequencer: either cell is
   refused before anything runs instead of the crash being dropped. *)
let test_cell_keeps_seqcrash () =
  let faults = Result.get_ok (Faults.Spec.parse "seqcrash=0.2") in
  List.iter
    (fun stack ->
      match
        Core.Experiments.cluster_cell ~faults ~nodes:16 ~stack
          ~skew:Load.Keys.Uniform Core.Experiments.cluster_default_config ()
      with
      | exception Invalid_argument _ -> ()
      | _ ->
        Alcotest.failf "the %s cell ran with its seqcrash dropped"
          (Core.Cluster.stack_label stack))
    [ Core.Cluster.Rpc_stack Core.Cluster.User; Core.Cluster.One_sided ]

let test_nonblocking_ablation () =
  let rows = Core.Experiments.ablation_nonblocking () in
  let blocking = List.assoc "blocking send (ms)" rows in
  let nonblocking = List.assoc "nonblocking send (ms)" rows in
  check_bool "nonblocking send much cheaper for the sender" true
    (nonblocking < blocking /. 2.)

(* The one predicate behind both the library's and the CLIs' rejection of
   a stack x sequencer policy x seqcrash combination: it must match the
   documented support grid, and [Cluster.backends] must agree with it —
   rejecting exactly what it rejects, before anything runs, and surviving
   the scheduled crash in every combination it accepts. *)
let test_sequencer_support_grid () =
  List.iter
    (fun impl ->
      List.iter
        (fun policy ->
          List.iter
            (fun seq_crash ->
              let label =
                Printf.sprintf "%s %s%s" (Core.Cluster.impl_label impl)
                  (Panda.Seq_policy.to_string policy)
                  (if seq_crash then " seqcrash" else "")
              in
              let expected =
                match (impl, policy) with
                | Core.Cluster.Kernel, (Panda.Seq_policy.Single | Panda.Seq_policy.Batching _) ->
                  not seq_crash
                | Core.Cluster.Kernel, _ -> false
                | _, Panda.Seq_policy.Single -> not seq_crash
                | _ -> true
              in
              check_bool label expected
                (Result.is_ok (Core.Cluster.sequencer_support ~seq_crash impl policy));
              let cluster =
                Core.Cluster.create ~extra_machine:(impl = Core.Cluster.User_dedicated) ~n:4 ()
              in
              let seq_crash = if seq_crash then Some (Sim.Time.ms 1) else None in
              match Core.Cluster.backends ~policy ?seq_crash cluster impl with
              | exception Invalid_argument _ -> check_bool (label ^ " built") expected false
              | _ ->
                check_bool (label ^ " built") expected true;
                Sim.Engine.run cluster.Core.Cluster.eng)
            [ false; true ])
        Panda.Seq_policy.sweep)
    Core.Cluster.all_impls

(* Finished simulations must leave nothing reachable behind: after one
   warm-up cell, eight more 8-node load cells may grow the compacted live
   heap by less than 4 KB each. *)
let test_finished_cells_are_collected () =
  let cell () =
    ignore
      (Core.Experiments.load_cell ~nodes:8 ~impl:Core.Cluster.User
         { Load.Clients.default with Load.Clients.window = Sim.Time.ms 200 }
         ())
  in
  let live_bytes () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  cell ();
  let before = live_bytes () in
  for _ = 1 to 8 do
    cell ()
  done;
  let per_cell = (live_bytes () - before) / 8 in
  check_bool (Printf.sprintf "retained %d B per cell < 4096" per_cell) true (per_cell < 4096)

let () =
  Alcotest.run "core"
    [
      ( "experiments",
        [
          Alcotest.test_case "table1 orderings" `Quick test_table1_row_orderings;
          Alcotest.test_case "latency monotone" `Quick test_latency_monotone_in_size;
          Alcotest.test_case "throughput orderings" `Quick test_throughput_orderings;
          Alcotest.test_case "raw ping-pong under faults" `Quick test_raw_pingpong_under_faults;
          Alcotest.test_case "table2 under loss" `Quick test_table2_under_loss;
          Alcotest.test_case "rpc breakdown" `Quick test_rpc_breakdown_accounts_for_gap;
          Alcotest.test_case "nonblocking ablation" `Quick test_nonblocking_ablation;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "shapes" `Quick test_cluster_shapes;
          Alcotest.test_case "runner validates" `Quick test_runner_validates_checksum;
          Alcotest.test_case "dedicated workers" `Quick test_dedicated_sequencer_worker_count;
          Alcotest.test_case "runner outcomes pinned" `Quick test_runner_outcomes_pinned;
          Alcotest.test_case "cells keep seqcrash" `Quick test_cell_keeps_seqcrash;
          Alcotest.test_case "sequencer support grid" `Quick test_sequencer_support_grid;
        ] );
      ( "memory",
        [ Alcotest.test_case "finished cells are collected" `Quick test_finished_cells_are_collected ] );
    ]
