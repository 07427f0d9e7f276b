open Sim
open Machine

(* Cost configuration with round numbers so expected times are easy to
   compute by hand. *)
let config =
  {
    Mach.ctx_warm = Time.us 60;
    ctx_cold_idle = Time.us 70;
    ctx_cold_preempt = Time.us 110;
    interrupt_entry = Time.us 10;
    syscall_base = Time.us 25;
    trap_cost = Time.us 6;
    lock_cost = Time.us 1;
    reg_windows = 6;
  }

let fixture () =
  let e = Engine.create () in
  let m = Mach.create e ~id:0 ~name:"m0" config in
  (e, m)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Regwin *)

let test_regwin_overflow () =
  let w = Regwin.create ~windows:6 in
  check_int "5 calls fit" 0 (Regwin.call w 5);
  check_int "live full" 6 (Regwin.resident w);
  check_int "6th call spills" 1 (Regwin.call w 1);
  check_int "deep calls spill each" 3 (Regwin.call w 3);
  check_int "depth" 9 (Regwin.depth w)

let test_regwin_underflow () =
  let w = Regwin.create ~windows:6 in
  ignore (Regwin.call w 7);
  (* live is 6; the first 5 returns consume resident windows, the final 2
     must reload. *)
  check_int "ret traps" 2 (Regwin.ret w 7);
  check_int "depth zero" 0 (Regwin.depth w)

let test_regwin_syscall_save () =
  let w = Regwin.create ~windows:6 in
  check_int "no spill on 5" 0 (Regwin.call w 5);
  Regwin.syscall_save w;
  check_int "only top restored" 1 (Regwin.resident w);
  check_int "every ret traps" 5 (Regwin.ret w 5)

let test_regwin_ret_below_zero () =
  let w = Regwin.create ~windows:6 in
  Alcotest.check_raises "invalid" (Invalid_argument "Regwin.ret: below frame zero")
    (fun () -> ignore (Regwin.ret w 1))

let prop_regwin_depth_consistent =
  QCheck.Test.make ~name:"regwin depth tracks calls minus rets" ~count:300
    QCheck.(list (int_range 0 10))
    (fun ns ->
      let w = Regwin.create ~windows:6 in
      let depth = ref 0 in
      List.iteri
        (fun i n ->
          if i mod 2 = 0 then begin
            ignore (Regwin.call w n);
            depth := !depth + n
          end
          else begin
            let n = min n !depth in
            ignore (Regwin.ret w n);
            depth := !depth - n
          end)
        ns;
      Regwin.depth w = !depth && Regwin.resident w >= 1 && Regwin.resident w <= 6)

(* ------------------------------------------------------------------ *)
(* Thread + Cpu timing *)

let test_compute_charges_cold_switch () =
  let e, m = fixture () in
  let done_at = ref (-1) in
  ignore
    (Thread.spawn m "a" (fun () ->
         Thread.compute (Time.us 100);
         done_at := Engine.now e));
  Engine.run e;
  check_int "cold_idle + work" (Time.us 170) !done_at

let test_back_to_back_computes_no_switch () =
  let e, m = fixture () in
  let done_at = ref (-1) in
  ignore
    (Thread.spawn m "a" (fun () ->
         Thread.compute (Time.us 100);
         Thread.compute (Time.us 100);
         done_at := Engine.now e));
  Engine.run e;
  check_int "only one switch" (Time.us 270) !done_at

let test_two_threads_serialize () =
  let e, m = fixture () in
  let a_done = ref (-1) and b_done = ref (-1) in
  ignore (Thread.spawn m "a" (fun () -> Thread.compute (Time.us 100); a_done := Engine.now e));
  ignore (Thread.spawn m "b" (fun () -> Thread.compute (Time.us 100); b_done := Engine.now e));
  Engine.run e;
  check_int "a first" (Time.us 170) !a_done;
  check_int "b queued behind a, pays cold switch" (Time.us 340) !b_done

let test_daemon_preempts_normal () =
  let e, m = fixture () in
  let a_done = ref (-1) and b_done = ref (-1) in
  ignore
    (Thread.spawn m ~prio:Thread.Normal "worker" (fun () ->
         Thread.compute (Time.us 1000);
         a_done := Engine.now e));
  ignore
    (Thread.spawn m ~prio:Thread.Daemon "daemon" (fun () ->
         Thread.sleep (Time.us 100);
         Thread.compute (Time.us 50);
         b_done := Engine.now e));
  Engine.run e;
  (* Worker: cold 70 + work; at t=100 daemon preempts (worker has done 30 of
     1000).  Daemon: cold_preempt 110 + 50 -> done 260.  Worker restarts:
     cold 70 + 970 -> 1300. *)
  check_int "daemon done" (Time.us 260) !b_done;
  check_int "worker delayed" (Time.us 1300) !a_done

(* Preemptions nest across levels, and each preempted job resumes ahead of
   the same-priority jobs that queued behind it.  Switches are free, so
   every completion time is plain arithmetic. *)
let test_preempted_jobs_resume_first () =
  let e = Engine.create () in
  let cpu = Cpu.create e { Cpu.warm = 0; cold_idle = 0; cold_preempt = 0 } in
  let log = ref [] in
  let job name ~key ~prio ~cost at =
    ignore
      (Engine.at e at (fun () ->
           Cpu.submit cpu ~key ~prio ~cost (fun () -> log := (name, Engine.now e) :: !log)))
  in
  job "low" ~key:1 ~prio:2 ~cost:100 0;
  job "low2" ~key:2 ~prio:2 ~cost:10 10;
  job "mid" ~key:3 ~prio:1 ~cost:100 20 (* preempts low after 20 *);
  job "mid2" ~key:4 ~prio:1 ~cost:10 30;
  job "irq" ~key:Cpu.interrupt_key ~prio:0 ~cost:5 40 (* preempts mid after 20 *);
  let waiting = ref (-1) in
  ignore (Engine.at e 41 (fun () -> waiting := Cpu.queue_length cpu));
  Engine.run e;
  check_int "low, low2, mid, mid2 wait behind the interrupt" 4 !waiting;
  Alcotest.(check (list (pair string int)))
    "completion order"
    [ ("irq", 45); ("mid", 125); ("mid2", 135); ("low", 215); ("low2", 225) ]
    (List.rev !log)

let test_warm_wakeup_same_thread () =
  let e, m = fixture () in
  let mu = Sync.Mutex.create m in
  let cv = Sync.Condvar.create m in
  let done_at = ref (-1) in
  ignore
    (Thread.spawn m "a" (fun () ->
         Thread.compute (Time.us 10);
         Sync.Mutex.lock mu;
         Sync.Condvar.wait cv mu;
         Sync.Mutex.unlock mu;
         Thread.compute (Time.us 10);
         done_at := Engine.now e));
  ignore (Engine.at e (Time.us 1000) (fun () -> Sync.Condvar.signal cv));
  Engine.run e;
  (* After the signal: syscall return 25 (in Condvar.wait) happens first as
   a compute... the wait charges syscall on wake (25, warm switch 60 since
   the thread is still the last one loaded), lock costs 2us total, then the
   final compute of 10 runs with no further switch. *)
  check_bool "woke after signal" true (!done_at > Time.us 1000);
  check_bool "warm path is cheap" true (!done_at < Time.us 1200)

let test_interrupt_runs_at_cost () =
  let e, m = fixture () in
  let fired_at = ref (-1) in
  ignore
    (Engine.at e (Time.us 50) (fun () ->
         Mach.interrupt m ~name:"rx" ~cost:(Time.us 20) (fun () -> fired_at := Engine.now e)));
  Engine.run e;
  check_int "entry + cost" (Time.us 80) !fired_at

let test_interrupt_delays_compute () =
  let e, m = fixture () in
  let done_at = ref (-1) in
  ignore
    (Thread.spawn m "a" (fun () ->
         Thread.compute (Time.us 1000);
         done_at := Engine.now e));
  ignore
    (Engine.at e (Time.us 500) (fun () ->
         Mach.interrupt m ~name:"rx" ~cost:(Time.us 20) (fun () -> ())));
  Engine.run e;
  (* Worker would finish at 1070; interrupt inserts 30us of CPU, and the
     worker resumes in the same context (no extra switch). *)
  check_int "delayed by interrupt" (Time.us 1100) !done_at

let test_interrupt_does_not_clobber_context () =
  let e, m = fixture () in
  let done_at = ref (-1) in
  ignore
    (Thread.spawn m "a" (fun () ->
         Thread.compute (Time.us 100);
         (* Interrupt fires between the two computes. *)
         Thread.compute (Time.us 100);
         done_at := Engine.now e));
  ignore
    (Engine.at e (Time.us 170) (fun () ->
         Mach.interrupt m ~name:"rx" ~cost:(Time.us 20) (fun () -> ())));
  Engine.run e;
  (* 70 + 100, then interrupt 30, then second compute with no switch. *)
  check_int "no cold switch after interrupt" (Time.us 300) !done_at

let test_syscall_charges_and_saves_windows () =
  let e, m = fixture () in
  let t_before = ref 0 and t_after = ref 0 and traps_time = ref 0 in
  ignore
    (Thread.spawn m "a" (fun () ->
         Thread.compute (Time.us 10);
         Thread.call_frames 5;
         t_before := Engine.now e;
         Thread.syscall ();
         t_after := Engine.now e;
         let before_rets = Engine.now e in
         Thread.ret_frames 5;
         traps_time := Engine.now e - before_rets));
  Engine.run e;
  check_int "syscall base" (Time.us 25) (!t_after - !t_before);
  check_int "five underflow traps on return path" (Time.us 30) !traps_time

(* ------------------------------------------------------------------ *)
(* Sync *)

let test_mutex_mutual_exclusion () =
  let e, m = fixture () in
  let mu = Sync.Mutex.create m in
  let in_cs = ref 0 and max_in_cs = ref 0 and runs = ref 0 in
  for i = 1 to 3 do
    ignore
      (Thread.spawn m (Printf.sprintf "t%d" i) (fun () ->
           Sync.Mutex.lock mu;
           incr in_cs;
           if !in_cs > !max_in_cs then max_in_cs := !in_cs;
           Thread.compute (Time.us 100);
           decr in_cs;
           incr runs;
           Sync.Mutex.unlock mu))
  done;
  Engine.run e;
  check_int "never two inside" 1 !max_in_cs;
  check_int "all ran" 3 !runs

let test_condvar_signal_wakes_one () =
  let e, m = fixture () in
  let mu = Sync.Mutex.create m in
  let cv = Sync.Condvar.create m in
  let woke = ref 0 in
  for i = 1 to 2 do
    ignore
      (Thread.spawn m (Printf.sprintf "w%d" i) (fun () ->
           Sync.Mutex.lock mu;
           Sync.Condvar.wait cv mu;
           incr woke;
           Sync.Mutex.unlock mu))
  done;
  ignore (Engine.at e (Time.us 500) (fun () -> Sync.Condvar.signal cv));
  Engine.run e;
  check_int "exactly one woke" 1 !woke;
  check_int "one still waiting" 1 (Sync.Condvar.waiters cv)

let test_condvar_broadcast_wakes_all () =
  let e, m = fixture () in
  let mu = Sync.Mutex.create m in
  let cv = Sync.Condvar.create m in
  let woke = ref 0 in
  for i = 1 to 3 do
    ignore
      (Thread.spawn m (Printf.sprintf "w%d" i) (fun () ->
           Sync.Mutex.lock mu;
           Sync.Condvar.wait cv mu;
           incr woke;
           Sync.Mutex.unlock mu))
  done;
  ignore (Engine.at e (Time.us 500) (fun () -> Sync.Condvar.broadcast cv));
  Engine.run e;
  check_int "all woke" 3 !woke

let test_condvar_no_lost_wakeup () =
  let e, m = fixture () in
  let mu = Sync.Mutex.create m in
  let cv = Sync.Condvar.create m in
  let ready = ref false and woke = ref false in
  ignore
    (Thread.spawn m "waiter" (fun () ->
         Sync.Mutex.lock mu;
         while not !ready do
           Sync.Condvar.wait cv mu
         done;
         woke := true;
         Sync.Mutex.unlock mu));
  ignore
    (Thread.spawn m "setter" (fun () ->
         Thread.compute (Time.us 10);
         ready := true;
         Sync.Condvar.signal cv));
  Engine.run e;
  check_bool "woke" true !woke

let test_utilization () =
  let e, m = fixture () in
  ignore (Thread.spawn m "a" (fun () -> Thread.compute (Time.us 500)));
  Engine.run e;
  let u = Mach.utilization m ~until:(Engine.now e) in
  check_bool "busy whole run" true (u > 0.99 && u <= 1.01)

(* Reference register-window model: an explicit stack of frames, each
   marked resident or spilled; compare trap counts against Regwin. *)
module Regwin_ref = struct
  type t = { windows : int; mutable frames : bool list (* true = resident *) }

  let create ~windows = { windows; frames = [ true ] }
  let resident t = List.length (List.filter Fun.id t.frames)

  let call t n =
    let traps = ref 0 in
    for _ = 1 to n do
      if resident t = t.windows then begin
        (* Spill the deepest resident frame. *)
        incr traps;
        let arr = Array.of_list t.frames in
        let deepest = ref (-1) in
        Array.iteri (fun i r -> if r then deepest := i) arr;
        arr.(!deepest) <- false;
        t.frames <- Array.to_list arr
      end;
      t.frames <- true :: t.frames
    done;
    !traps

  let ret t n =
    let traps = ref 0 in
    for _ = 1 to n do
      match t.frames with
      | _ :: ((next :: _) as rest) ->
        if not next then begin
          incr traps;
          t.frames <- (match rest with _ :: r -> true :: r | [] -> [])
        end
        else t.frames <- rest
      | _ -> invalid_arg "ref: below zero"
    done;
    !traps

  let syscall_save t =
    t.frames <- (match t.frames with top :: rest -> top :: List.map (fun _ -> false) rest | [] -> [])
end

let prop_regwin_matches_reference =
  QCheck.Test.make ~name:"regwin trap counts match a reference model" ~count:300
    QCheck.(list (int_range 0 20))
    (fun script ->
      let w = Regwin.create ~windows:6 in
      let r = Regwin_ref.create ~windows:6 in
      let depth = ref 0 in
      let ok = ref true in
      List.iteri
        (fun i n ->
          match i mod 3 with
          | 0 ->
            let a = Regwin.call w n and b = Regwin_ref.call r n in
            depth := !depth + n;
            if a <> b then ok := false
          | 1 ->
            let n = min n !depth in
            let a = Regwin.ret w n and b = Regwin_ref.ret r n in
            depth := !depth - n;
            if a <> b then ok := false
          | _ ->
            Regwin.syscall_save w;
            Regwin_ref.syscall_save r)
        script;
      !ok)

let prop_cpu_all_jobs_complete =
  QCheck.Test.make ~name:"cpu completes every job; busy time covers all work" ~count:100
    QCheck.(pair (int_range 1 30) (int_range 1 1_000_000))
    (fun (njobs, seed) ->
      let e = Engine.create () in
      let m = Mach.create e ~id:0 ~name:"m" config in
      let rng = Rng.create ~seed in
      let total_work = ref 0 in
      let completed = ref 0 in
      for i = 1 to njobs do
        let cost = Time.us (1 + Rng.int rng 500) in
        total_work := !total_work + cost;
        let prio = if Rng.bool rng then Thread.Daemon else Thread.Normal in
        let delay = Rng.int rng 2000 in
        ignore
          (Engine.at e delay (fun () ->
               ignore
                 (Thread.spawn m ~prio (Printf.sprintf "j%d" i) (fun () ->
                      Thread.compute cost;
                      incr completed))))
      done;
      Engine.run e;
      !completed = njobs
      && Cpu.busy_time (Mach.cpu m) >= !total_work
      && Engine.now e >= !total_work)

let prop_segment_fifo_per_receiver =
  QCheck.Test.make ~name:"segment delivers FIFO per sender" ~count:100
    QCheck.(pair (int_range 1 30) (int_range 1 1_000_000))
    (fun (nframes, seed) ->
      let e = Engine.create () in
      let seg = Net.Segment.create e "s" in
      let got = ref [] in
      let _rx =
        Net.Segment.attach seg ~name:"rx" ~accepts:(fun _ -> true) (fun f ->
            got := (f.Net.Frame.bytes, Engine.now e) :: !got)
      in
      let tx = Net.Segment.attach seg ~name:"tx" ~accepts:(fun _ -> false) (fun _ -> ()) in
      let rng = Rng.create ~seed in
      let sent = ref [] in
      for i = 1 to nframes do
        let bytes = 1 + Rng.int rng 1500 in
        sent := bytes :: !sent;
        ignore i;
        Net.Segment.transmit seg ~from:tx
          (Net.Frame.make ~src:0 ~dest:Net.Frame.Broadcast ~bytes Sim.Payload.Empty)
      done;
      Engine.run e;
      let deliveries = List.rev !got in
      List.map fst deliveries = List.rev !sent
      && (let times = List.map snd deliveries in
          List.sort compare times = times))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "machine"
    [
      ( "regwin",
        [
          Alcotest.test_case "overflow" `Quick test_regwin_overflow;
          Alcotest.test_case "underflow" `Quick test_regwin_underflow;
          Alcotest.test_case "syscall save" `Quick test_regwin_syscall_save;
          Alcotest.test_case "ret below zero" `Quick test_regwin_ret_below_zero;
        ]
        @ qsuite [ prop_regwin_depth_consistent; prop_regwin_matches_reference ] );
      ( "cpu",
        [
          Alcotest.test_case "cold switch charged" `Quick test_compute_charges_cold_switch;
          Alcotest.test_case "back-to-back free" `Quick test_back_to_back_computes_no_switch;
          Alcotest.test_case "two threads serialize" `Quick test_two_threads_serialize;
          Alcotest.test_case "daemon preempts" `Quick test_daemon_preempts_normal;
          Alcotest.test_case "preempted jobs resume first" `Quick test_preempted_jobs_resume_first;
          Alcotest.test_case "warm wakeup" `Quick test_warm_wakeup_same_thread;
          Alcotest.test_case "interrupt cost" `Quick test_interrupt_runs_at_cost;
          Alcotest.test_case "interrupt delays compute" `Quick test_interrupt_delays_compute;
          Alcotest.test_case "interrupt keeps context" `Quick test_interrupt_does_not_clobber_context;
          Alcotest.test_case "syscall + windows" `Quick test_syscall_charges_and_saves_windows;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutex exclusion" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "signal wakes one" `Quick test_condvar_signal_wakes_one;
          Alcotest.test_case "broadcast wakes all" `Quick test_condvar_broadcast_wakes_all;
          Alcotest.test_case "no lost wakeup" `Quick test_condvar_no_lost_wakeup;
          Alcotest.test_case "utilization" `Quick test_utilization;
        ]
        @ qsuite [ prop_cpu_all_jobs_complete; prop_segment_fifo_per_receiver ] );
    ]
