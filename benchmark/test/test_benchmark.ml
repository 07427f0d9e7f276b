(* Tests for the benchmark itself: measuring from outside leaves every
   cell bit-identical to the library's own drivers, the reported metrics
   cover BENCHMARK.json exactly, and [compare] flags a regression past a metric's bound. *)

open Benchmark

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every window of the workload table shrunk 50x; warmups stay. *)
let shrunk =
  let shrink (c : Load.Clients.config) = { c with Load.Clients.window = c.Load.Clients.window / 50 } in
  List.map
    (fun (w : Workloads.t) -> { w with latency = shrink w.latency; capacity = shrink w.capacity })
    (List.map (Workloads.with_seed 7) Workloads.all)

let reference (w : Workloads.t) stack kind =
  let cfg = match kind with Cell.Latency -> w.latency | Cell.Capacity -> w.capacity in
  match (w.target, stack) with
  | Workloads.Echo { nodes }, Core.Cluster.Rpc_stack impl ->
    let faults =
      if w.loss > 0. then Some (Faults.Spec.loss ~seed:cfg.Load.Clients.seed w.loss) else None
    in
    let client_ranks = match kind with Cell.Capacity -> w.capacity_ranks | Cell.Latency -> None in
    Core.Experiments.load_cell ?faults ?client_ranks ~nodes ~impl cfg ()
  | Workloads.Sharded { nodes; shards; skew; read_pct; onesided_read_pct }, _ ->
    let sv_read_pct = if stack = Core.Cluster.One_sided then onesided_read_pct else read_pct in
    let service_params = { Shard.Service.default_params with sv_read_pct } in
    (Core.Experiments.cluster_cell ~lanes:true ~shards ~service_params ~nodes ~stack ~skew cfg ())
      .Core.Experiments.cc_metrics
  | Workloads.Echo _, Core.Cluster.One_sided -> assert false

let test_cells_match_library () =
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (stack, kind) ->
          let r = Cell.run w stack kind in
          let name =
            Printf.sprintf "%s %s %s" w.name (Core.Cluster.stack_label stack) (Cell.kind_label kind)
          in
          check_bool (name ^ ": Load.Metrics identical") true
            (r.Cell.metrics = reference w stack kind);
          check_int (name ^ ": every op returned") r.Cell.attempted r.Cell.returned)
        (Measure.cells_of w))
    shrunk

let spec =
  lazy
    (match Json.read_file "../../BENCHMARK.json" with
     | Ok j -> j
     | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

(* (name, [field]) of every entry of BENCHMARK.json's list [key]. *)
let spec_pairs key field =
  let str k m = Option.get (Option.bind (Json.member k m) Json.to_str) in
  List.map
    (fun m -> (str "name" m, str field m))
    (Json.to_list (Option.get (Json.member key (Lazy.force spec))))

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let test_spec_matches_report () =
  let w = List.find (fun (w : Workloads.t) -> w.name = "rpc-null") shrunk in
  let rep = Measure.rep ~probe:true w in
  Spans.start ();
  let traced = Measure.rep w in
  let run =
    {
      Report.timed = [ rep ];
      sub_seeds = 1;
      top_heap_mb = 1.;
      checked = Measure.rep ~checked:true w;
      traced = Some (traced, Spans.stop ());
    }
  in
  let names l = List.map fst l in
  let e2e = spec_pairs "end_to_end" "unit" and layer = spec_pairs "per_layer" "unit" in
  Alcotest.(check (list string))
    "end_to_end lists every end-to-end metric, in order" (names (Report.end_to_end run)) (names e2e);
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name (Report.per_layer run) with
      | Some v -> Alcotest.(check string) (name ^ " unit") unit v.Report.unit
      | None -> Alcotest.failf "per_layer names %s, which is not computed" name)
    layer;
  List.iter
    (fun (name, unit) ->
      Alcotest.(check string) (name ^ " unit") unit (List.assoc name (Report.end_to_end run)).Report.unit)
    e2e;
  let host =
    List.filter
      (fun (n, _) -> String.starts_with ~prefix:"host." n && n <> "host.trace_overhead_pct"
                     && not (String.starts_with ~prefix:"host.us_per_op" n))
      (Report.per_layer run)
  in
  let self = List.fold_left (fun acc (_, v) -> acc +. v.Report.v) 0. host in
  check_bool "host self times sum to the traced wall time" true
    (Float.abs (self -. traced.Measure.wall_s) <= 0.01 *. traced.Measure.wall_s);
  Alcotest.(check (list (pair string string)))
    "workloads are the table's, with its reasons" (spec_pairs "workloads" "why")
    (List.map (fun (w : Workloads.t) -> (w.name, w.why)) Workloads.all);
  let all = names e2e @ names layer @ Workloads.names in
  check_bool "names are well formed" true (List.for_all valid_name all);
  check_int "names are unique" (List.length all) (List.length (List.sort_uniq compare all));
  check_bool "at most 128 per-layer metrics" true (List.length layer <= 128)

(* A [wall_s] slowdown just past its bound in BENCHMARK.json is the only
   regression; one within half the bound is not. *)
let test_compare () =
  let metrics = Compare.spec_metrics (Lazy.force spec) in
  let bound = (List.find (fun m -> m.Compare.name = "wall_s") metrics).Compare.bound in
  let records scale =
    List.map
      (fun x -> ("rpc-null", [ ("wall_s", x *. scale); ("capacity_ops.user", 1913.5) ]))
      [ 4.0; 4.1; 4.2; 4.05; 4.15 ]
  in
  let verdicts scale =
    List.map (fun r -> r.Compare.verdict) (Compare.rows metrics (records 1.) (records scale))
  in
  let unchanged = [ Compare.Unchanged; Compare.Unchanged ] in
  check_bool "identical inputs are unchanged" true (verdicts 1. = unchanged);
  check_bool "a slowdown within the bound is unchanged" true (verdicts (1. +. (bound /. 2.)) = unchanged);
  check_bool "a slowdown past the bound is the only regression" true
    (verdicts (1.05 +. bound) = [ Compare.Worse; Compare.Unchanged ])

let () =
  Alcotest.run "benchmark"
    [
      ( "benchmark",
        [
          Alcotest.test_case "cells match the library's drivers" `Quick test_cells_match_library;
          Alcotest.test_case "BENCHMARK.json matches the report" `Quick test_spec_matches_report;
          Alcotest.test_case "compare flags a regression" `Quick test_compare;
        ] );
    ]
