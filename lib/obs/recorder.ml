(* The recorder is a domain-local, optional sink for probes compiled into
   the simulator.  When none is installed every probe is a no-op, so an
   uninstrumented run is bit-identical to the pre-obs simulator: probes never
   charge simulated time, they only observe it.  A ledger-only recorder
   (the default) also turns the span probes into no-ops: spans, their track
   names and their [span.*] series are what a recorder costs per op. *)

type span = {
  sp_track : string;
  sp_layer : Layer.t;
  sp_name : string;
  sp_begin : int;
  mutable sp_end : int;  (* -1 while open *)
  sp_depth : int;
}

type t = {
  keep_spans : bool;
  mutable spans_rev : span list;
  mutable n_spans : int;
  open_stacks : (string, span list) Hashtbl.t;
  mutable tracks_rev : string list;  (* insertion order, for determinism *)
  ledger : int array array;  (* Layer.count x Cause.count, nanoseconds *)
  stats : Sim.Stats.t;
  mutable last_time : int;
}

let create ?(spans = false) () =
  {
    keep_spans = spans;
    spans_rev = [];
    n_spans = 0;
    open_stacks = Hashtbl.create 32;
    tracks_rev = [];
    ledger = Array.init Layer.count (fun _ -> Array.make Cause.count 0);
    stats = Sim.Stats.create ();
    last_time = 0;
  }

(* The installed recorder is domain-local: parallel experiment jobs each
   install their own recorder on their own domain without interference, and
   the probes' fast path stays a single DLS load + match. *)
let current_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let active () = !(Domain.DLS.get current_key)
let install t = Domain.DLS.get current_key := Some t
let uninstall () = Domain.DLS.get current_key := None

(* ---------- probes ---------- *)

let touch t now = if now > t.last_time then t.last_time <- now

let charge ~layer ~cause ns =
  (* Negative amounts are refunds (e.g. a context switch abandoned by a
     preemption): they keep the ledger equal to CPU busy time. *)
  if ns <> 0 then
    match active () with
    | None -> ()
    | Some t ->
      let row = t.ledger.(Layer.index layer) in
      let j = Cause.index cause in
      row.(j) <- row.(j) + ns

let count name n =
  match active () with
  | None -> ()
  | Some t -> Sim.Stats.add t.stats name n

let observe name v =
  match active () with
  | None -> ()
  | Some t -> Sim.Stats.record t.stats name v

let register_track t track =
  if not (Hashtbl.mem t.open_stacks track) then begin
    Hashtbl.add t.open_stacks track [];
    t.tracks_rev <- track :: t.tracks_rev
  end

(* The recorder that keeps spans, if the installed one does. *)
let span_sink () =
  match active () with Some t as sink when t.keep_spans -> sink | _ -> None

let keeps_spans () = match span_sink () with Some _ -> true | None -> false

let span_begin ~track ~layer ~name ~now =
  match span_sink () with
  | None -> ()
  | Some t ->
    touch t now;
    register_track t track;
    let stack = Hashtbl.find t.open_stacks track in
    let sp =
      {
        sp_track = track;
        sp_layer = layer;
        sp_name = name;
        sp_begin = now;
        sp_end = -1;
        sp_depth = List.length stack;
      }
    in
    Hashtbl.replace t.open_stacks track (sp :: stack);
    t.spans_rev <- sp :: t.spans_rev;
    t.n_spans <- t.n_spans + 1

let span_end ~track ~now =
  match span_sink () with
  | None -> ()
  | Some t -> (
    touch t now;
    match Hashtbl.find_opt t.open_stacks track with
    | None | Some [] -> ()
    | Some (sp :: rest) ->
      sp.sp_end <- now;
      Hashtbl.replace t.open_stacks track rest;
      Sim.Stats.record t.stats
        (Printf.sprintf "span.%s.%s" (Layer.to_string sp.sp_layer) sp.sp_name)
        (float_of_int (now - sp.sp_begin) /. 1_000.))

(* ---------- fiber-aware span helpers ---------- *)

let fiber_track () =
  match Sim.Fiber.self_opt () with
  | Some f -> Printf.sprintf "%s#%d" (Sim.Fiber.name f) (Sim.Fiber.id f)
  | None -> "events"

let enter eng layer name =
  match span_sink () with
  | None -> ()
  | Some _ ->
    span_begin ~track:(fiber_track ()) ~layer ~name ~now:(Sim.Engine.now eng)

let leave eng =
  match span_sink () with
  | None -> ()
  | Some _ -> span_end ~track:(fiber_track ()) ~now:(Sim.Engine.now eng)

let with_span eng layer name f =
  match span_sink () with
  | None -> f ()
  | Some _ ->
    let track = fiber_track () in
    span_begin ~track ~layer ~name ~now:(Sim.Engine.now eng);
    Fun.protect
      ~finally:(fun () -> span_end ~track ~now:(Sim.Engine.now eng))
      f

(* ---------- accessors ---------- *)

let ledger_ns t ~layer ~cause = t.ledger.(Layer.index layer).(Cause.index cause)

let cause_ns t cause =
  let j = Cause.index cause in
  Array.fold_left (fun acc row -> acc + row.(j)) 0 t.ledger

let layer_ns t layer =
  let row = t.ledger.(Layer.index layer) in
  let acc = ref 0 in
  List.iter
    (fun c -> if Cause.is_cpu c then acc := !acc + row.(Cause.index c))
    Cause.all;
  !acc

let cpu_ns t =
  List.fold_left
    (fun acc c -> if Cause.is_cpu c then acc + cause_ns t c else acc)
    0 Cause.all

let spans t = List.rev t.spans_rev
let n_spans t = t.n_spans

let open_spans t =
  Hashtbl.fold (fun _ stack acc -> acc + List.length stack) t.open_stacks 0

let tracks t = List.rev t.tracks_rev
let stats t = t.stats
let last_time t = t.last_time
