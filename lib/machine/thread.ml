type prio = Daemon | Normal

type t = {
  mach : Mach.t;
  tname : string;
  tprio : prio;
  mutable fib : Sim.Fiber.t option;
  (* True when the thread has blocked since it last held the CPU, so its
     next compute owes a scheduler invocation (context switch). *)
  mutable blocked_since_run : bool;
  regwin : Regwin.t;
}

(* A thread lives in its fiber's owner slot: finding the running thread
   is a field read, and a finished simulation's threads become garbage
   with its fibers. *)
type Sim.Fiber.owner += Thread of t

let self_opt () = match Sim.Fiber.current_owner () with Thread t -> Some t | _ -> None

let self () =
  match Sim.Fiber.current_owner () with
  | Thread t -> t
  | _ -> invalid_arg "Thread.self: not inside a machine thread"

let machine t = t.mach
let name t = t.tname
let prio t = t.tprio

let fiber t =
  match t.fib with
  | Some f -> f
  | None -> invalid_arg "Thread.fiber: not yet started"

let prio_level = function Daemon -> 1 | Normal -> 2

let spawn mach ?(prio = Normal) tname body =
  let windows = (Mach.config mach).Mach.reg_windows in
  let t =
    { mach; tname; tprio = prio; fib = None; blocked_since_run = true;
      regwin = Regwin.create ~windows }
  in
  let fib =
    Sim.Fiber.spawn (Mach.engine mach) ~name:(Mach.name mach ^ "/" ^ tname) (fun () -> body ())
  in
  t.fib <- Some fib;
  Sim.Fiber.set_owner fib (Thread t);
  t

let alive t = match t.fib with Some f -> Sim.Fiber.alive f | None -> false
let kill t = match t.fib with Some f -> Sim.Fiber.kill f | None -> ()
let join t = match t.fib with Some f -> Sim.Fiber.join f | None -> ()

(* One CPU submission of [d] work for the calling thread.  All semantic
   entry points funnel through here so a logical operation with several
   attributed parts still costs exactly one CPU job (identical timing to a
   single [compute]). *)
let submit_self t ~layer d =
  if d < 0 then invalid_arg "Thread.compute: negative duration";
  if d = 0 then ()
  else begin
    let needs_switch = t.blocked_since_run in
    t.blocked_since_run <- false;
    Sim.Fiber.suspend (fun fib resume ->
        ignore fib;
        Cpu.submit ~needs_switch ~label:t.tname ~layer (Mach.cpu t.mach)
          ~key:(Sim.Fiber.id (fiber t))
          ~prio:(prio_level t.tprio) ~cost:d resume)
  end

let compute ?(cause = Obs.Cause.Proto_proc) ?(layer = Obs.Layer.App) d =
  let t = self () in
  Obs.Recorder.charge ~layer ~cause d;
  submit_self t ~layer d

let compute_parts ?(layer = Obs.Layer.App) parts =
  let t = self () in
  let total =
    List.fold_left
      (fun acc (cause, d) ->
        if d < 0 then invalid_arg "Thread.compute_parts: negative duration";
        Obs.Recorder.charge ~layer ~cause d;
        acc + d)
      0 parts
  in
  submit_self t ~layer total

let charge_traps t ~layer n =
  if n > 0 then begin
    let d = n * (Mach.config t.mach).Mach.trap_cost in
    Obs.Recorder.charge ~layer ~cause:Obs.Cause.Regwin_trap d;
    Obs.Recorder.count "obs.regwin.traps" n;
    submit_self t ~layer d
  end

let call_frames ?(layer = Obs.Layer.App) n =
  let t = self () in
  charge_traps t ~layer (Regwin.call t.regwin n)

let ret_frames ?(layer = Obs.Layer.App) n =
  let t = self () in
  charge_traps t ~layer (Regwin.ret t.regwin n)

let syscall ?(kernel_work = 0) ?(layer = Obs.Layer.App) ?charges () =
  let t = self () in
  let base = (Mach.config t.mach).Mach.syscall_base in
  Obs.Recorder.charge ~layer ~cause:Obs.Cause.Uk_crossing base;
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
  Obs.Recorder.charge ~layer ~cause:Obs.Cause.Proto_proc
    (kernel_work - itemized);
  submit_self t ~layer (base + kernel_work);
  Regwin.syscall_save t.regwin

let mark_direct_wake t = t.blocked_since_run <- false

let sleep d =
  let t = self () in
  t.blocked_since_run <- true;
  Sim.Fiber.sleep d

let suspend register =
  let t = self () in
  t.blocked_since_run <- true;
  Sim.Fiber.suspend (fun _fib resume -> register t resume)
