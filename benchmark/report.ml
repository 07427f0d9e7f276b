(* Every metric the benchmark can report, computed from one run's
   repetitions.  BENCHMARK.json picks which ones a run prints; the names
   here are the superset it draws from.

   Simulated metrics are the median over the run's [sub_seeds] distinct
   input seeds (a tail percentile of one seed moves between histogram
   buckets from seed to seed).  Host metrics are the median over every
   timed repetition.  Units of simulated quantities say so ([sim_ms],
   [op/sim_s]): they are exact functions of the seed and may repeat
   digit for digit from run to run. *)

open Measure

type value = { v : float; unit : string }

type run = {
  timed : rep list;  (** in run order; rep [i] ran sub-seed [i mod sub_seeds] *)
  sub_seeds : int;
  top_heap_mb : float;  (** [Gc.top_heap_words] after the timed repetitions *)
  checked : rep;
  traced : (rep * Spans.t list) option;
}

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* statistics.quantiles(data, n=4) with Python's default 'exclusive'
   method, so spreads read the same as the ones a Python harness takes. *)
let quartiles l =
  let a = Array.of_list (List.sort compare l) in
  let len = Array.length a in
  if len = 0 then (0., 0., 0.)
  else if len = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = len + 1 in
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let all_stacks = Core.Cluster.all_stacks
let rpc_stacks = Workloads.rpc_stacks
let one_sided = Core.Cluster.One_sided

(* Medians over the distinct sub-seeds, and over every timed repetition. *)
let sim r f = median (List.map f (List.filteri (fun i _ -> i < r.sub_seeds) r.timed))
let host r f = median (List.map f r.timed)

(* The first repetition, the one whose live heap was probed. *)
let probed r = List.hd r.timed

(* [f] of one cell's result, 0 when the workload does not run that stack. *)
let cell kind rep stack f =
  match Measure.find rep stack kind with Some c -> f c.result | None -> 0.

let latency = cell Cell.Latency
let capacity = cell Cell.Capacity
let metric f (r : Cell.result) = f r.Cell.metrics
let total rep f = List.fold_left (fun acc c -> acc +. f c.result) 0. rep.cells
let attempted (r : Cell.result) = fi r.Cell.attempted

(* [f] per operation attempted, over both cells of the stack. *)
let per_op rep stack f =
  let both g = latency rep stack g +. capacity rep stack g in
  ratio (both f) (both attempted)

(* [f] per operation completed inside the capacity cell's window. *)
let per_completed rep stack f =
  ratio (capacity rep stack f) (capacity rep stack (metric (fun m -> fi m.Load.Metrics.completed)))

let per_stack stacks name unit f =
  List.map (fun s -> (name ^ "." ^ Core.Cluster.stack_label s, { v = f s; unit })) stacks

let end_to_end r =
  [
    ("wall_s", { v = host r (fun p -> p.wall_s); unit = "s" });
    ("setup_s", { v = host r (fun p -> p.setup_s); unit = "s" });
    ( "peak_live_mb",
      { v = List.fold_left (fun acc c -> Float.max acc c.live_mb) 0. (probed r).cells; unit = "MB" }
    );
  ]
  @ per_stack rpc_stacks "p50_ms" "sim_ms" (fun s ->
        sim r (fun p -> latency p s (metric (fun m -> m.Load.Metrics.p50_ms))))
  @ per_stack rpc_stacks "p999_ms" "sim_ms" (fun s ->
        sim r (fun p -> latency p s (metric (fun m -> m.Load.Metrics.p999_ms))))
  @ per_stack rpc_stacks "capacity_ops" "op/sim_s" (fun s ->
        sim r (fun p -> capacity p s (metric (fun m -> m.Load.Metrics.achieved))))

(* Self time of the traced repetition's spans, by span name and, for
   per-stack names, by the stack of the cell they ran in. *)
let host_spans r =
  match r.traced with
  | None -> []
  | Some (rep, spans) ->
    let cells = Array.of_list rep.cells in
    let sum pred =
      List.fold_left (fun acc (s, t) -> if pred s then acc +. t else acc) 0. (Spans.self_times spans)
    in
    let named names s = List.mem s.Spans.name names in
    let run_s stack =
      sum (fun s -> s.Spans.name = "load.run" && cells.(s.Spans.cell).stack = stack)
    in
    let untraced = host r (fun p -> p.wall_s) in
    [
      ("host.create_s", { v = sum (named [ "core.create"; "faults.install" ]); unit = "s" });
      ("host.stack_s", { v = sum (named [ "core.backends"; "core.rnics"; "shard.create" ]); unit = "s" });
      ("host.other_s", { v = sum (named [ "workload"; "cell" ]); unit = "s" });
      ("host.trace_overhead_pct", { v = 100. *. ratio (rep.wall_s -. untraced) untraced; unit = "%" });
    ]
    @ per_stack all_stacks "host.run_s" "s" run_s
    @ per_stack all_stacks "host.us_per_op" "us" (fun s ->
          1e6 *. ratio (run_s s) (latency rep s attempted +. capacity rep s attempted))

(* The capacity window's Obs ledger in simulated µs per completed op, by
   layer and by cause. *)
let ledger r =
  List.concat_map
    (fun stack ->
      let cells names ns =
        List.mapi
          (fun i name ->
            ( Printf.sprintf "ledger.%s.%s" (Core.Cluster.stack_label stack) name,
              { v = sim r (fun p -> per_completed p stack (fun c -> fi (ns c).(i) /. 1e3)); unit = "sim_us" } ))
          names
      in
      cells (List.map Obs.Layer.to_string Obs.Layer.all) (fun c -> c.Cell.layer_ns)
      @ cells (List.map Obs.Cause.to_string Obs.Cause.all) (fun c -> c.Cell.cause_ns))
    all_stacks

let per_layer r =
  let count name f = (name, { v = sim r f; unit = "count" }) in
  let events p = total p (fun c -> fi c.Cell.events) in
  let switched f = sim r (fun p -> total p f) in
  let shard_ops p =
    List.fold_left
      (fun acc c ->
        let a = c.result.Cell.shard_ops in
        if acc = [||] then Array.map fi a else Array.mapi (fun i x -> x +. fi a.(i)) acc)
      [||] p.cells
  in
  [
    count "sim.events" events;
    ("sim.events_per_s", { v = host r (fun p -> ratio (events p) p.wall_s); unit = "1/s" });
    count "sim.live_hw" (fun p ->
        List.fold_left (fun acc c -> Float.max acc (fi c.result.Cell.occupancy_hw)) 0. p.cells);
    count "sim.lane_windows" (fun p -> total p (fun c -> fi c.Cell.lane_windows));
    count "sim.cross_merged" (fun p -> total p (fun c -> fi c.Cell.cross_merged));
    ( "gc.minor_words_per_event",
      { v = host r (fun p -> ratio p.minor_words (events p)); unit = "words" } );
    ( "gc.promoted_words_per_event",
      { v = host r (fun p -> ratio p.promoted_words (events p)); unit = "words" } );
    ("gc.major_collections", { v = host r (fun p -> fi p.major_collections); unit = "count" });
    ("gc.top_heap_mb", { v = r.top_heap_mb; unit = "MB" });
    ("gc.retained_mb_per_cell", { v = (probed r).retained_mb; unit = "MB" });
    count "obs.spans_per_op" (fun p ->
        ratio
          (total p (fun c -> fi c.Cell.spans))
          (total p (metric (fun m -> fi m.Load.Metrics.completed))));
    ( "net.switch_fps",
      {
        v = ratio (switched (fun c -> fi c.Cell.switch_fwd)) (switched (fun c -> c.Cell.sim_s));
        unit = "1/sim_s";
      } );
    ( "net.cross_frac",
      {
        v = ratio (switched (fun c -> fi c.Cell.switch_fwd)) (switched (fun c -> fi c.Cell.frames));
        unit = "fraction";
      } );
    count "faults.killed" (fun p -> total p (fun c -> fi c.Cell.killed));
    ("faults.violations", { v = total r.checked (fun c -> fi c.Cell.violations); unit = "count" });
    count "onesided.posts_per_op" (fun p -> per_op p one_sided (fun c -> fi c.Cell.posts));
    ( "onesided.p50_ms",
      { v = sim r (fun p -> latency p one_sided (metric (fun m -> m.Load.Metrics.p50_ms))); unit = "sim_ms" } );
    ( "onesided.p999_ms",
      { v = sim r (fun p -> latency p one_sided (metric (fun m -> m.Load.Metrics.p999_ms))); unit = "sim_ms" } );
    ( "onesided.capacity_ops",
      {
        v = sim r (fun p -> capacity p one_sided (metric (fun m -> m.Load.Metrics.achieved)));
        unit = "op/sim_s";
      } );
    ( "shard.hot_shard_ratio",
      {
        v =
          sim r (fun p ->
              let ops = shard_ops p in
              ratio (Array.fold_left Float.max 0. ops)
                (ratio (Array.fold_left ( +. ) 0. ops) (fi (Array.length ops))));
        unit = "ratio";
      } );
    ( "shard.put_frac",
      {
        v =
          sim r (fun p ->
              let puts = total p (fun c -> fi c.Cell.puts) in
              ratio puts (puts +. total p (fun c -> fi c.Cell.gets)));
        unit = "fraction";
      } );
  ]
  @ per_stack all_stacks "sim.events_per_op" "count" (fun s ->
        sim r (fun p -> per_op p s (fun c -> fi c.Cell.events)))
  @ per_stack all_stacks "machine.cpu_us_per_op" "sim_us" (fun s ->
        sim r (fun p -> per_completed p s (metric (fun m -> 1e3 *. m.Load.Metrics.ledger_cpu_ms))))
  @ per_stack all_stacks "machine.server_util" "fraction" (fun s ->
        sim r (fun p -> capacity p s (metric (fun m -> m.Load.Metrics.server_util))))
  @ per_stack all_stacks "net.wire_util" "fraction" (fun s ->
        sim r (fun p ->
            capacity p s (fun c -> ratio c.Cell.wire_busy_s (fi c.Cell.segments *. c.Cell.sim_s))))
  @ per_stack all_stacks "net.frames_per_op" "count" (fun s ->
        sim r (fun p -> ratio (capacity p s (fun c -> fi c.Cell.frames)) (capacity p s attempted)))
  @ per_stack all_stacks "flip.packets_per_op" "count" (fun s ->
        sim r (fun p -> ratio (capacity p s (fun c -> fi c.Cell.packets)) (capacity p s attempted)))
  @ per_stack rpc_stacks "faults.retrans_per_kop" "count" (fun s ->
        sim r (fun p -> 1e3 *. per_op p s (fun c -> fi c.Cell.retrans)))
  @ per_stack all_stacks "load.samples" "count" (fun s ->
        sim r (fun p -> latency p s (metric (fun m -> fi m.Load.Metrics.issued))))
  @ per_stack all_stacks "load.p99_ms" "sim_ms" (fun s ->
        sim r (fun p -> latency p s (metric (fun m -> m.Load.Metrics.p99_ms))))
  @ host_spans r @ ledger r
