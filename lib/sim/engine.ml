(* The discrete-event engine: per-lane hybrid scheduler + conservative
   windows.

   Each lane owns a near-term heap and a far-term timing wheel.  The engine
   assigns every scheduled event a per-lane sequence number at [at]-time, so
   (time, seq) is a total order independent of which structure holds the
   event; wheel buckets are drained into the heap strictly before the clock
   reaches them, so the hybrid pops the exact sequence a pure heap would.

   With one lane (the default) [run] is the plain sequential loop.  When a
   multi-segment topology configures lanes, [run] advances them in
   conservative windows: horizon = (earliest event anywhere) + lookahead,
   every lane executes its events strictly below the horizon in lane order,
   then buffered cross-lane sends — which the lookahead guarantees land at
   or past the horizon — are merged in (time, src lane, send seq) order.
   Both the window schedule and the merge are deterministic functions of
   the event contents, so a laned run is reproducible event-for-event at
   any `-j N`, and a 1-lane configuration collapses to the sequential
   path. *)

type xmsg = {
  x_time : Time.t;
  x_src : int;
  x_seq : int;  (* per-source-lane send counter *)
  x_dst : int;
  x_fn : unit -> unit;
}

type lane = {
  l_id : int;
  l_heap : (unit -> unit) Heap.t;
  l_wheel : (unit -> unit) Wheel.t;
  mutable l_clock : Time.t;
  mutable l_seq : int;  (* next (time, seq) tie-break for this lane *)
  mutable l_xseq : int;  (* next cross-lane send stamp *)
  mutable l_out : xmsg list;  (* buffered cross-lane sends, newest first *)
  mutable l_exec : int;
}

type t = {
  mutable lanes : lane array;
  mutable cur : lane;  (* lane whose events are executing / being set up *)
  mutable lookahead : Time.span;  (* 0 until lanes are configured *)
  mutable clock : Time.t;  (* mirrors cur.l_clock; what [now] reads *)
  mutable stopped : bool;
  mutable flushed : int;  (* events already added to [total_executed] *)
  mutable next_id : int;
  wheel_on : bool;
  wheel_near : Time.span;  (* below this delay events go straight to heap *)
  mutable max_live : int;  (* high-water mark of pending events *)
  mutable windows : int;
  mutable merged : int;
}

exception Stopped
exception Fiber_failure of string * exn

type handle = int

(* Handle layout: [lane:7 | kind:1 | payload:54].  kind 0 = heap, 1 = wheel;
   the payload is the structure's own gen/slot packing.  A 1-lane engine's
   heap handles are therefore numerically identical to the payload. *)
let lane_shift = 55
let kind_bit = 1 lsl 54
let payload_mask = kind_bit - 1
let max_lanes = 128

(* Process-wide tally of executed events across all engines and domains,
   flushed in batches at the end of [run] so the hot path never touches
   shared state.  Powers the events/sec figures in the benchmark JSON. *)
let total_executed = Atomic.make 0

let events_total () = Atomic.get total_executed

(* Process-wide high-water mark of pending events (heap + wheel, max over
   lanes and engines), flushed like [total_executed].  The bench harness
   records it per artifact to catch event leaks. *)
let global_live_hw = Atomic.make 0

let live_hw () = Atomic.get global_live_hw
let reset_live_hw () = Atomic.set global_live_hw 0

let make_lane id =
  {
    l_id = id;
    l_heap = Heap.create ~dummy:ignore ();
    l_wheel = Wheel.create ~dummy:ignore ();
    l_clock = Time.zero;
    l_seq = 0;
    l_xseq = 0;
    l_out = [];
    l_exec = 0;
  }

let default_wheel_near = 2 * Wheel.granule0

let create ?(wheel = true) ?(wheel_near = default_wheel_near) () =
  let lane0 = make_lane 0 in
  {
    lanes = [| lane0 |];
    cur = lane0;
    lookahead = 0;
    clock = Time.zero;
    stopped = false;
    flushed = 0;
    next_id = 0;
    wheel_on = wheel;
    wheel_near = max wheel_near (2 * Wheel.granule0);
    max_live = 0;
    windows = 0;
    merged = 0;
  }

let now t = t.clock
let latest t = Array.fold_left (fun c l -> max c l.l_clock) t.clock t.lanes

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let executed t =
  let n = ref 0 in
  for i = 0 to Array.length t.lanes - 1 do
    n := !n + t.lanes.(i).l_exec
  done;
  !n

(* Schedule [f] at [time] in [lane], drawing the lane's next sequence
   number.  Far-future events go to the wheel (O(1) insert/cancel, never
   heapified); the wheel preserves (time, seq) so order is unaffected. *)
let push_lane t lane time f =
  let seq = lane.l_seq in
  lane.l_seq <- seq + 1;
  let payload =
    if
      t.wheel_on
      && time - lane.l_clock >= t.wheel_near
      && Wheel.fits ~now:lane.l_clock ~time
    then (Wheel.insert lane.l_wheel ~now:lane.l_clock ~time ~seq f :> int) lor kind_bit
    else (Heap.push_seq lane.l_heap ~time ~seq f :> int)
  in
  let occ = Heap.live_size lane.l_heap + Wheel.live lane.l_wheel in
  if occ > t.max_live then t.max_live <- occ;
  (lane.l_id lsl lane_shift) lor payload

let at t time f =
  (* [max_int] is the schedulers' "nothing pending" time. *)
  assert (time >= t.cur.l_clock && time < max_int);
  push_lane t t.cur time f

let after t d f = at t (t.cur.l_clock + d) f
let schedule_now t f = at t t.cur.l_clock f

let cancel t h =
  if h >= 0 then begin
    let lane = t.lanes.((h lsr lane_shift) land (max_lanes - 1)) in
    let payload = h land payload_mask in
    if h land kind_bit <> 0 then
      (* The event may have migrated to the heap when its bucket was
         flushed; the wheel slot forwards us to the heap handle. *)
      match Wheel.cancel lane.l_wheel payload with
      | Wheel.Moved heap_handle -> Heap.cancel lane.l_heap heap_handle
      | Wheel.Cancelled | Wheel.Absent -> ()
    else Heap.cancel lane.l_heap payload
  end

(* Earliest pending event time in [lane], or [max_int] when none, draining
   due wheel buckets into the heap first so the heap top is authoritative.
   It leaves the heap's root live, so [exec_next] pops without a search. *)
let rec lane_next_time lane =
  let ht = Heap.next_time lane.l_heap in
  let b = Wheel.next_boundary lane.l_wheel in
  if b < max_int && b <= ht then begin
    Wheel.advance lane.l_wheel ~upto:b ~emit:(fun ~time ~seq ~handle f ->
        (* The wrapper reclaims the forwarding slot when the migrated
           event fires, so stale wheel handles can never resurrect it. *)
        (Heap.push_seq lane.l_heap ~time ~seq (fun () ->
             Wheel.release lane.l_wheel handle;
             f ())
          :> int));
    lane_next_time lane
  end
  else ht

(* Run the event [lane_next_time] just found at [time]. *)
let exec_next t lane time =
  let f = Heap.pop_next lane.l_heap in
  lane.l_clock <- time;
  t.clock <- time;
  lane.l_exec <- lane.l_exec + 1;
  f ()

let step t =
  if Array.length t.lanes > 1 then
    invalid_arg "Sim.Engine.step: laned engine (use run)";
  let lane = t.lanes.(0) in
  let time = lane_next_time lane in
  if time = max_int then false
  else begin
    exec_next t lane time;
    true
  end

let flush_executed t =
  let e = executed t in
  let d = e - t.flushed in
  if d > 0 then begin
    ignore (Atomic.fetch_and_add total_executed d);
    t.flushed <- e
  end;
  let rec bump () =
    let c = Atomic.get global_live_hw in
    if t.max_live > c && not (Atomic.compare_and_set global_live_hw c t.max_live)
    then bump ()
  in
  bump ()

(* ---- sequential path (1 lane) ---- *)

let run_seq ?until t =
  let lane = t.lanes.(0) in
  let limit = match until with Some limit -> limit | None -> max_int in
  let rec loop () =
    if not t.stopped then begin
      let time = lane_next_time lane in
      if time < max_int && time <= limit then begin
        exec_next t lane time;
        loop ()
      end
    end
  in
  loop ();
  match until with
  | Some limit
    when (not t.stopped)
         && lane.l_clock < limit
         && lane_next_time lane < max_int ->
    lane.l_clock <- limit;
    t.clock <- limit
  | _ -> ()

(* ---- conservative laned path ---- *)

let lane_compare_xmsg a b =
  if a.x_time <> b.x_time then compare a.x_time b.x_time
  else if a.x_src <> b.x_src then compare a.x_src b.x_src
  else compare a.x_seq b.x_seq

(* Deliver buffered cross-lane sends into their destination lanes.  Sorting
   by (time, src lane, send seq) makes destination sequence assignment — and
   therefore all downstream tie-breaks — a deterministic function of the
   events alone, independent of shard count or execution interleaving. *)
let merge_channels t =
  let msgs = ref [] in
  Array.iter
    (fun lane ->
      if lane.l_out <> [] then begin
        msgs := List.rev_append lane.l_out !msgs;
        lane.l_out <- []
      end)
    t.lanes;
  match !msgs with
  | [] -> ()
  | ms ->
    let arr = Array.of_list ms in
    Array.sort lane_compare_xmsg arr;
    Array.iter
      (fun m ->
        t.merged <- t.merged + 1;
        ignore (push_lane t t.lanes.(m.x_dst) m.x_time m.x_fn))
      arr

let run_lane_window t lane ~horizon =
  t.cur <- lane;
  t.clock <- lane.l_clock;
  let rec loop () =
    if not t.stopped then begin
      (* [max_int] (nothing pending) is never below a horizon. *)
      let time = lane_next_time lane in
      if time < horizon then begin
        exec_next t lane time;
        loop ()
      end
    end
  in
  loop ()

let run_laned ?until t =
  (* A [stop] can leave sends buffered mid-window; fold them in first. *)
  merge_channels t;
  let rec window () =
    if not t.stopped then begin
      let tmin = ref max_int in
      Array.iter
        (fun lane ->
          let time = lane_next_time lane in
          if time < !tmin then tmin := time)
        t.lanes;
      if
        !tmin <> max_int
        && match until with Some limit -> !tmin <= limit | None -> true
      then begin
        let horizon = !tmin + t.lookahead in
        let horizon =
          match until with
          | Some limit -> min horizon (limit + 1)
          | None -> horizon
        in
        t.windows <- t.windows + 1;
        Array.iter (fun lane -> run_lane_window t lane ~horizon) t.lanes;
        merge_channels t;
        window ()
      end
    end
  in
  window ();
  match until with
  | Some limit when not t.stopped ->
    (* Mirror the sequential clamp: park every idle lane at the limit. *)
    let remaining = ref false in
    Array.iter
      (fun lane -> if lane_next_time lane < max_int then remaining := true)
      t.lanes;
    if !remaining then begin
      Array.iter
        (fun lane -> if lane.l_clock < limit then lane.l_clock <- limit)
        t.lanes;
      t.clock <- limit
    end
  | _ -> ()

let run ?until t =
  t.stopped <- false;
  Fun.protect
    ~finally:(fun () -> flush_executed t)
    (fun () ->
      if Array.length t.lanes = 1 then run_seq ?until t
      else run_laned ?until t)

let stop t = t.stopped <- true

let pending t =
  let n = ref 0 in
  Array.iter
    (fun lane -> n := !n + Heap.live_size lane.l_heap + Wheel.live lane.l_wheel)
    t.lanes;
  !n

let events_executed t = executed t

(* ---- lane configuration and introspection ---- *)

let configure_lanes t ~n ~lookahead =
  if n < 1 || n > max_lanes then invalid_arg "Sim.Engine.configure_lanes: n";
  if n > 1 && lookahead <= 0 then
    invalid_arg "Sim.Engine.configure_lanes: lookahead must be positive";
  if Array.length t.lanes > 1 then
    invalid_arg "Sim.Engine.configure_lanes: already configured";
  if n > 1 then begin
    t.lanes <- Array.init n (fun i -> if i = 0 then t.lanes.(0) else make_lane i);
    t.lookahead <- lookahead
  end

let n_lanes t = Array.length t.lanes
let lookahead t = t.lookahead
let current_lane t = t.cur.l_id
let windows t = t.windows
let cross_merged t = t.merged
let occupancy_hw t = t.max_live

let with_lane t lane f =
  if lane < 0 || lane >= Array.length t.lanes then
    invalid_arg "Sim.Engine.with_lane";
  let prev = t.cur in
  t.cur <- t.lanes.(lane);
  t.clock <- t.cur.l_clock;
  Fun.protect
    ~finally:(fun () ->
      t.cur <- prev;
      t.clock <- prev.l_clock)
    f

let at_lane t ~lane time f =
  let src = t.cur in
  if lane = src.l_id then ignore (push_lane t src time f)
  else begin
    if lane < 0 || lane >= Array.length t.lanes then
      invalid_arg "Sim.Engine.at_lane";
    (* The conservative protocol is only sound if cross-lane sends cannot
       land inside the current window. *)
    assert (time >= src.l_clock + t.lookahead);
    let seq = src.l_xseq in
    src.l_xseq <- seq + 1;
    src.l_out <-
      { x_time = time; x_src = src.l_id; x_seq = seq; x_dst = lane; x_fn = f }
      :: src.l_out
  end
