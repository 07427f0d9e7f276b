type switch_costs = {
  warm : Sim.Time.span;
  cold_idle : Sim.Time.span;
  cold_preempt : Sim.Time.span;
}

type job = {
  key : int;
  prio : int;
  label : string;
  layer : Obs.Layer.t;
  mutable needs_switch : bool;
  mutable remaining : Sim.Time.span;
  on_complete : unit -> unit;
}

type running = {
  job : job;
  started : Sim.Time.t;
  switch : Sim.Time.span;
  handle : Sim.Engine.handle;  (* the completion event *)
}

type t = {
  eng : Sim.Engine.t;
  costs : switch_costs;
  track : string;
  mutable current : running option;
  (* One FIFO per priority level; level 0 = interrupts. *)
  ready : job Queue.t array;
  (* Per level, a job preempted mid-run, which resumes before the level's
     FIFO.  At most one waits per level: a level's jobs start either from
     [dispatch], which takes this slot first, or by preempting a job of a
     higher level, which cannot be running while this slot is full. *)
  front : job option array;
  mutable last : int;
  mutable busy_ns : Sim.Time.span;
  mutable busy_intr_ns : Sim.Time.span;
  mutable n_switches : int;
  (* Every completion event runs this one closure; it reads [current], so
     [start] need not allocate a fresh callback per dispatched job. *)
  mutable on_tick : unit -> unit;
}

let n_prios = 3
let interrupt_key = -1
let idle_key = -2

let busy t = Option.is_some t.current
let last_key t = t.last
let busy_time t = t.busy_ns
let busy_interrupt_time t = t.busy_intr_ns
let switches t = t.n_switches

let accrue t running now =
  let elapsed = now - running.started in
  t.busy_ns <- t.busy_ns + elapsed;
  if running.job.key = interrupt_key then
    t.busy_intr_ns <- t.busy_intr_ns + elapsed

let queue_length t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.ready
  + Array.fold_left (fun acc j -> if Option.is_some j then acc + 1 else acc) 0 t.front

let switch_cost t ~preempting job =
  if job.key = interrupt_key then 0
  else if job.key = t.last then
    if job.needs_switch then t.costs.warm else 0
  else if preempting then t.costs.cold_preempt
  else t.costs.cold_idle

let rec start t ~preempting job =
  let switch = switch_cost t ~preempting job in
  if job.key <> interrupt_key then begin
    if switch > 0 then t.n_switches <- t.n_switches + 1;
    t.last <- job.key;
    (* A job preempted mid-run and restarted must not pay its wakeup
       switch twice. *)
    job.needs_switch <- false
  end;
  (* Each switch-in charges its switch cost; requested work is charged by
     the semantic submitter, so ledger CPU totals match [busy_time]. *)
  Obs.Recorder.charge ~layer:job.layer ~cause:Obs.Cause.Ctx_switch switch;
  let now = Sim.Engine.now t.eng in
  if Obs.Recorder.keeps_spans () then begin
    let name = if job.key = interrupt_key then "irq:" ^ job.label else job.label in
    Obs.Recorder.span_begin ~track:t.track ~layer:job.layer ~name ~now
  end;
  let handle = Sim.Engine.after t.eng (switch + job.remaining) t.on_tick in
  t.current <- Some { job; started = now; switch; handle }

and complete t running =
  let now = Sim.Engine.now t.eng in
  accrue t running now;
  Obs.Recorder.span_end ~track:t.track ~now;
  t.current <- None;
  running.job.on_complete ();
  dispatch t

and dispatch t = if Option.is_none t.current then pick t 0

and pick t i =
  if i < n_prios then
    match t.front.(i) with
    | Some job ->
      t.front.(i) <- None;
      start t ~preempting:false job
    | None -> (
      match Queue.take_opt t.ready.(i) with
      | Some job -> start t ~preempting:false job
      | None -> pick t (i + 1))

let create ?(name = "cpu") eng costs =
  let t =
    {
      eng;
      costs;
      track = "cpu:" ^ name;
      current = None;
      ready = Array.init n_prios (fun _ -> Queue.create ());
      front = Array.make n_prios None;
      last = idle_key;
      busy_ns = 0;
      busy_intr_ns = 0;
      n_switches = 0;
      on_tick = ignore;
    }
  in
  t.on_tick <-
    (fun () ->
      match t.current with Some r -> complete t r | None -> assert false);
  t

let preempt t running =
  let now = Sim.Engine.now t.eng in
  Sim.Engine.cancel t.eng running.handle;
  accrue t running now;
  Obs.Recorder.span_end ~track:t.track ~now;
  (* The switch cost was charged in full at switch-in, but a preemption
     arriving mid-switch abandons the un-elapsed tail: that time never
     runs (the restart pays its own switch, if any), so refund it to keep
     the ledger equal to busy time. *)
  let unrun_switch = max 0 (running.switch - (now - running.started)) in
  Obs.Recorder.charge ~layer:running.job.layer ~cause:Obs.Cause.Ctx_switch
    (-unrun_switch);
  (* Time spent switching in does not count as job progress. *)
  let elapsed_work = max 0 (now - running.started - running.switch) in
  running.job.remaining <- max 0 (running.job.remaining - elapsed_work);
  t.current <- None;
  (* It resumes before later arrivals of the same priority. *)
  let prio = running.job.prio in
  assert (Option.is_none t.front.(prio));
  t.front.(prio) <- Some running.job

let submit ?(needs_switch = true) ?(label = "job") ?(layer = Obs.Layer.App) t
    ~key ~prio ~cost on_complete =
  assert (prio >= 0 && prio < n_prios);
  let job = { key; prio; label; layer; needs_switch; remaining = cost; on_complete } in
  match t.current with
  | None ->
    Queue.push job t.ready.(prio);
    dispatch t
  | Some running when prio < running.job.prio ->
    preempt t running;
    start t ~preempting:true job
  | Some _ -> Queue.push job t.ready.(prio)
