type config = {
  ctx_warm : Sim.Time.span;
  ctx_cold_idle : Sim.Time.span;
  ctx_cold_preempt : Sim.Time.span;
  interrupt_entry : Sim.Time.span;
  syscall_base : Sim.Time.span;
  trap_cost : Sim.Time.span;
  lock_cost : Sim.Time.span;
  reg_windows : int;
}

type t = {
  mid : int;
  mname : string;
  eng : Sim.Engine.t;
  cpu : Cpu.t;
  config : config;
}

let create eng ~id ~name config =
  let costs =
    {
      Cpu.warm = config.ctx_warm;
      cold_idle = config.ctx_cold_idle;
      cold_preempt = config.ctx_cold_preempt;
    }
  in
  { mid = id; mname = name; eng; cpu = Cpu.create ~name eng costs; config }

let id t = t.mid
let name t = t.mname
let engine t = t.eng
let cpu t = t.cpu
let config t = t.config

let interrupt ?(layer = Obs.Layer.App) ?charges t ~name ~cost handler =
  (* Interrupt entry is a kernel-boundary crossing; the body defaults to
     protocol processing unless the caller itemises it. *)
  Obs.Recorder.charge ~layer ~cause:Obs.Cause.Uk_crossing
    t.config.interrupt_entry;
  let itemized =
    match charges with
    | None -> 0
    | Some parts ->
      List.fold_left
        (fun acc (ly, cause, ns) ->
          Obs.Recorder.charge ~layer:ly ~cause ns;
          acc + ns)
        0 parts
  in
  Obs.Recorder.charge ~layer ~cause:Obs.Cause.Proto_proc (cost - itemized);
  Cpu.submit t.cpu ~key:Cpu.interrupt_key ~prio:0 ~label:name ~layer
    ~cost:(t.config.interrupt_entry + cost)
    handler

let utilization t ~until =
  if until <= 0 then 0.
  else float_of_int (Cpu.busy_time t.cpu) /. float_of_int until
