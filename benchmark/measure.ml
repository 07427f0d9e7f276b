(* Repetitions of a workload: every stack's latency and capacity cell, in
   table order, timed on the host. *)

type cell_run = {
  stack : Core.Cluster.stack;
  kind : Cell.kind;
  result : Cell.result;
  setup_s : float;  (** host seconds in the cell's constructors *)
  cell_s : float;  (** host seconds for the whole cell, set-up included *)
  live_mb : float;
      (** live heap the cell added by the end of its run (probed
          repetitions only, else 0) *)
}

type rep = {
  cells : cell_run list;
  wall_s : float;
  setup_s : float;
  retained_mb : float;
      (** live heap left behind per cell once its results are all that
          is referenced (probed repetitions only, else 0) *)
  minor_words : float;  (** allocated inside the cells *)
  promoted_words : float;
  major_collections : int;
}

let now = Unix.gettimeofday

let cells_of (w : Workloads.t) =
  List.concat_map (fun stack -> [ (stack, Cell.Latency); (stack, Cell.Capacity) ]) w.stacks

(* Live words after a full major collection, in MB. *)
let live_mb () = float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

let gc_counters () =
  let minor, promoted, _ = Gc.counters () in
  (minor, promoted, (Gc.quick_stat ()).Gc.major_collections)

(* Each cell starts from a compacted heap, so its time does not depend on
   the garbage the cell before it left.  With [probe], the live heap is
   read before each cell and at the end of its run.  Neither the
   compaction nor the probes are part of [wall_s] or the GC counts. *)
let rep ?checked ?(probe = false) (w : Workloads.t) =
  let probed f = if probe then f () else 0. in
  let live_start = ref 0. in
  let minor = ref 0. and promoted = ref 0. and major = ref 0 in
  let cells =
    Spans.span "workload" (fun () ->
        List.mapi
          (fun i (stack, kind) ->
            Spans.span "gc.compact" Gc.compact;
            let live0 = probed live_mb in
            if i = 0 then live_start := live0;
            Spans.span ~cell:i "cell" (fun () ->
                let m0, p0, j0 = gc_counters () in
                let c0 = now () in
                let p = Cell.prepare ?checked w stack kind in
                let result = p.Cell.go () in
                let cell_s = now () -. c0 in
                let m1, p1, j1 = gc_counters () in
                minor := !minor +. (m1 -. m0);
                promoted := !promoted +. (p1 -. p0);
                major := !major + (j1 - j0);
                let live_mb = probed (fun () -> live_mb () -. live0) in
                ignore (Sys.opaque_identity p);
                { stack; kind; result; setup_s = p.Cell.setup_s; cell_s; live_mb }))
          (cells_of w))
  in
  let retained_mb =
    probed (fun () ->
        Gc.compact ();
        (live_mb () -. !live_start) /. float_of_int (List.length cells))
  in
  {
    cells;
    wall_s = List.fold_left (fun acc c -> acc +. c.cell_s) 0. cells;
    setup_s = List.fold_left (fun acc (c : cell_run) -> acc +. c.setup_s) 0. cells;
    retained_mb;
    minor_words = !minor;
    promoted_words = !promoted;
    major_collections = !major;
  }

let find rep stack kind =
  List.find_opt (fun c -> c.stack = stack && c.kind = kind) rep.cells
