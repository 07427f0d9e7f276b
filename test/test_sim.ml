open Sim
(* Tests for the discrete-event core: heap, engine, fibers, suspend, rng,
   stats. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create ~dummy:"" () in
  ignore (Heap.push h ~time:30 "c");
  ignore (Heap.push h ~time:10 "a");
  ignore (Heap.push h ~time:20 "b");
  let pop () = match Heap.pop h with Some (_, v) -> v | None -> "END" in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c"; "END" ] [ p1; p2; p3; p4 ]

let test_heap_fifo_ties () =
  let h = Heap.create ~dummy:0 () in
  for i = 0 to 9 do
    ignore (Heap.push h ~time:5 i)
  done;
  let order = List.init 10 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "fifo" (List.init 10 Fun.id) order

let test_heap_cancel () =
  let h = Heap.create ~dummy:"" () in
  let a = Heap.push h ~time:1 "a" in
  ignore (Heap.push h ~time:2 "b");
  Heap.cancel h a;
  check_bool "cancelled" true (Heap.cancelled h a);
  check_int "live" 1 (Heap.live_size h);
  (match Heap.pop h with
   | Some (t, v) ->
     check_int "time" 2 t;
     Alcotest.(check string) "value" "b" v
   | None -> Alcotest.fail "expected b");
  check_bool "empty" true (Heap.pop h = None)

let test_heap_peek_skips_cancelled () =
  let h = Heap.create ~dummy:"" () in
  let a = Heap.push h ~time:1 "a" in
  ignore (Heap.push h ~time:7 "b");
  Heap.cancel h a;
  check_int "peek" 7 (Heap.next_time h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Heap.create ~dummy:0 () in
      List.iter (fun t -> ignore (Heap.push h ~time:t t)) times;
      let rec drain acc =
        match Heap.pop h with Some (t, _) -> drain (t :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare times)

let prop_heap_cancel_subset =
  QCheck.Test.make ~name:"cancelled events never pop" ~count:200
    QCheck.(list (pair (int_bound 1_000) bool))
    (fun entries ->
      let h = Heap.create ~dummy:0 () in
      let keep =
        List.filter_map
          (fun (t, cancel_it) ->
            let hd = Heap.push h ~time:t t in
            if cancel_it then begin
              Heap.cancel h hd;
              None
            end
            else Some t)
          entries
      in
      let rec drain acc =
        match Heap.pop h with Some (t, _) -> drain (t :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare keep)

(* Model-based test: drive the slot heap with a random interleaving of
   push / pop / cancel and compare every observation against a naive
   reference model (an association list ordered by (time, seq)).  Also
   checks the compaction invariant after each step: dead entries never
   outnumber live ones once the heap is past its initial capacity. *)
let prop_heap_model =
  QCheck.Test.make ~name:"heap matches reference model" ~count:150
    QCheck.(list (pair (int_bound 2) (int_bound 500)))
    (fun ops ->
      let h = Heap.create ~dummy:(-1) () in
      (* model entries: (time, seq, handle), live only *)
      let model = ref [] in
      let next_seq = ref 0 in
      let model_min () =
        List.fold_left
          (fun acc ((t, s, _) as e) ->
            match acc with
            | None -> Some e
            | Some (t', s', _) ->
              if t < t' || (t = t' && s < s') then Some e else acc)
          None !model
      in
      let ok = ref true in
      let check b = if not b then ok := false in
      let invariants () =
        check (Heap.live_size h = List.length !model);
        (* compaction keeps dead <= live beyond the small-heap floor *)
        check
          (Heap.size h - Heap.live_size h <= Heap.live_size h
           || Heap.size h <= 64)
      in
      let pop_and_check () =
        match (Heap.pop h, model_min ()) with
        | None, None -> ()
        | Some (t, v), Some (mt, ms, mh) ->
          check (t = mt && v = ms);
          check (not (Heap.cancelled h mh));
          model := List.filter (fun (_, s, _) -> s <> ms) !model
        | Some _, None | None, Some _ -> check false
      in
      List.iter
        (fun (op, x) ->
          (match op with
           | 0 ->
             let seq = !next_seq in
             incr next_seq;
             let hd = Heap.push h ~time:x seq in
             model := (x, seq, hd) :: !model
           | 1 -> pop_and_check ()
           | _ -> (
               match !model with
               | [] -> ()
               | l ->
                 let _, s, hd = List.nth l (x mod List.length l) in
                 Heap.cancel h hd;
                 (* double-cancel is a no-op (the first may have already
                    compacted the entry away) *)
                 Heap.cancel h hd;
                 model := List.filter (fun (_, s', _) -> s' <> s) !model));
          invariants ())
        ops;
      (* drain: remaining pops must replay the model in (time, seq) order *)
      while !model <> [] do
        pop_and_check ()
      done;
      check (Heap.pop h = None);
      check (Heap.live_size h = 0);
      !ok)

(* Cancelling almost everything must shrink [size] via compaction rather
   than leaving the heap full of dead entries. *)
let test_heap_compaction_bounds () =
  let h = Heap.create ~dummy:0 () in
  let n = 10_000 in
  let handles = Array.init n (fun i -> Heap.push h ~time:i i) in
  for i = 0 to n - 2 do
    Heap.cancel h handles.(i)
  done;
  check_int "live" 1 (Heap.live_size h);
  check_bool "compacted" true (Heap.size h <= 64);
  (match Heap.pop h with
   | Some (t, v) ->
     check_int "survivor time" (n - 1) t;
     check_int "survivor value" (n - 1) v
   | None -> Alcotest.fail "survivor lost");
  check_bool "drained" true (Heap.pop h = None)

(* Handles are generation-tagged: a handle kept across its slot's reuse
   must not cancel the new occupant. *)
let test_heap_stale_handle () =
  let h = Heap.create ~dummy:"" () in
  let a = Heap.push h ~time:1 "a" in
  ignore (Heap.pop h);
  (* slot freed: "a" fired *)
  let b = Heap.push h ~time:2 "b" in
  Heap.cancel h a;
  (* stale: must not kill "b" *)
  check_bool "b alive" true (not (Heap.cancelled h b));
  check_int "live" 1 (Heap.live_size h);
  (match Heap.pop h with
   | Some (_, v) -> Alcotest.(check string) "b pops" "b" v
   | None -> Alcotest.fail "b lost")

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.at e 30 (note "c"));
  ignore (Engine.at e 10 (note "a"));
  ignore (Engine.at e 20 (note "b"));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_int "clock" 30 (Engine.now e)

let test_engine_same_instant_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    ignore (Engine.at e 5 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore
    (Engine.at e 10 (fun () ->
         fired := "outer" :: !fired;
         ignore (Engine.after e 5 (fun () -> fired := "inner" :: !fired))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !fired);
  check_int "clock" 15 (Engine.now e)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.at e 10 (fun () -> fired := true) in
  Engine.cancel e h;
  Engine.run e;
  check_bool "not fired" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.at e 10 (fun () -> incr fired));
  ignore (Engine.at e 100 (fun () -> incr fired));
  Engine.run ~until:50 e;
  check_int "only first" 1 !fired;
  check_int "clock clamped" 50 (Engine.now e);
  Engine.run e;
  check_int "second after resume" 2 !fired

let test_engine_stop () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.at e 1 (fun () -> incr fired; Engine.stop e));
  ignore (Engine.at e 2 (fun () -> incr fired));
  Engine.run e;
  check_int "stopped after first" 1 !fired

(* An exception escaping an event must not lose the executed-event counts:
   [run] flushes them into the process-wide tally on the way out. *)
let test_engine_counts_survive_exception () =
  let e = Engine.create () in
  ignore (Engine.at e 1 ignore);
  ignore (Engine.at e 2 (fun () -> failwith "boom"));
  ignore (Engine.at e 3 ignore);
  let before = Engine.events_total () in
  (match Engine.run e with
   | () -> Alcotest.fail "expected the event's exception to escape run"
   | exception Failure _ -> ());
  check_int "executed flushed to global tally" 2 (Engine.events_total () - before);
  check_int "per-engine count" 2 (Engine.events_executed e)

(* ------------------------------------------------------------------ *)
(* Timing wheel (far timers) and the hybrid scheduler *)

let g0 = Wheel.granule0

(* Far timers cross the wheel; near events stay in the heap.  The merged
   fire order must still be exactly (time, schedule order). *)
let test_wheel_order_across_structures () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.at e (3 * g0) (note "far-b"));
  ignore (Engine.at e 5 (note "near-a"));
  ignore (Engine.at e (7 * g0) (note "far-c"));
  ignore (Engine.at e (3 * g0) (note "far-b2"));
  Engine.run e;
  Alcotest.(check (list string))
    "order" [ "near-a"; "far-b"; "far-b2"; "far-c" ] (List.rev !log)

(* Cancelling a wheel timer whose bucket has already been drained into the
   heap must still take effect: the wheel slot forwards the cancel to the
   migrated heap entry. *)
let test_wheel_cancel_after_migration () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.at e ((3 * g0) + 17) (fun () -> fired := true) in
  (* This event shares the victim's bucket, so executing it proves the
     bucket was flushed to the heap before the cancel runs. *)
  ignore (Engine.at e ((3 * g0) + 1) (fun () -> Engine.cancel e h));
  Engine.run e;
  check_bool "migrated timer cancelled" false !fired

(* A handle kept past its timer's firing is stale; cancelling it later must
   not disturb anything (the forwarding slot was reclaimed on fire). *)
let test_wheel_stale_cancel_after_fire () =
  let e = Engine.create () in
  let fired = ref 0 in
  let fired_late = ref false in
  let h = Engine.at e (2 * g0) (fun () -> incr fired) in
  ignore (Engine.at e (4 * g0) (fun () -> Engine.cancel e h));
  ignore (Engine.at e (6 * g0) (fun () -> fired_late := true));
  Engine.run e;
  check_int "fired exactly once" 1 !fired;
  check_bool "unrelated later timer unaffected" true !fired_late

(* The hybrid model test (the wheel's contract): an engine with the wheel
   enabled must fire the exact same (time, id) sequence as one with every
   event in the pure heap, under a random program of schedules and cancels
   — including cancels of already-fired (stale) handles and of timers that
   have migrated wheel -> heap.  Each op is (kind, x, gap):
   - kind 0 schedules a near event (heap path), 1 a timer a few granules
     out (wheel level 0), 2 a timer from 256 granules to past 65 536
     (levels 1 and 2, so their buckets cascade and cancels can empty
     them), and 3 cancels the handle of op [x mod n];
   - gap 0 and 1 put a long idle stretch (~300 and ~70 000 granules)
     before the op, so upper-level buckets come due with nothing else
     pending; any other gap advances a third of a granule. *)
let run_scheduler_program ~wheel ops =
  let n = List.length ops in
  let e = Engine.create ~wheel () in
  let log = ref [] in
  let handles = Array.make (max 1 n) None in
  let tick = ref 0 in
  List.iteri
    (fun i (kind, x, gap) ->
      (tick :=
         !tick
         +
         match gap with
         | 0 -> (300 * g0) + (x * 7)
         | 1 -> (70_000 * g0) + (x * 13)
         | _ -> g0 / 3);
      ignore
        (Engine.at e !tick (fun () ->
             let delay =
               match kind with
               | 0 -> Some (1 + (x mod g0))
               | 1 -> Some (g0 + (x * 2053 mod (5 * g0)))
               | 2 -> Some ((256 * g0) + (x * 14 * g0) + (x * 2053 mod g0))
               | _ -> None
             in
             match delay with
             | Some d ->
               handles.(i) <-
                 Some
                   (Engine.after e d (fun () ->
                        log := (Engine.now e, i) :: !log))
             | None -> (
               match handles.(x mod max 1 n) with
               | Some h -> Engine.cancel e h (* live, migrated or stale *)
               | None -> ()))))
    ops;
  Engine.run e;
  List.rev !log

let prop_wheel_matches_heap =
  QCheck.Test.make ~name:"hybrid wheel+heap fires exactly like a pure heap"
    ~count:200
    QCheck.(
      list_of_size Gen.(5 -- 80) (triple (int_bound 3) (int_bound 10_000) (int_bound 7)))
    (fun ops ->
      run_scheduler_program ~wheel:true ops
      = run_scheduler_program ~wheel:false ops)

(* ------------------------------------------------------------------ *)
(* Fibers *)

let test_fiber_sleep () =
  let e = Engine.create () in
  let wake = ref (-1) in
  ignore
    (Fiber.spawn e (fun () ->
         Fiber.sleep (Time.us 100);
         wake := Engine.now e));
  Engine.run e;
  check_int "woke at 100us" (Time.us 100) !wake

let test_fiber_sequential_sleeps () =
  let e = Engine.create () in
  let marks = ref [] in
  ignore
    (Fiber.spawn e (fun () ->
         Fiber.sleep 10;
         marks := Engine.now e :: !marks;
         Fiber.sleep 20;
         marks := Engine.now e :: !marks));
  Engine.run e;
  Alcotest.(check (list int)) "marks" [ 10; 30 ] (List.rev !marks)

let test_fiber_join () =
  let e = Engine.create () in
  let finished = ref false in
  let worker = Fiber.spawn e ~name:"worker" (fun () -> Fiber.sleep 50) in
  ignore
    (Fiber.spawn e ~name:"joiner" (fun () ->
         Fiber.join worker;
         finished := Engine.now e = 50));
  Engine.run e;
  check_bool "joined at 50" true !finished

let test_fiber_join_dead () =
  let e = Engine.create () in
  let ok = ref false in
  let worker = Fiber.spawn e (fun () -> ()) in
  ignore
    (Fiber.spawn e (fun () ->
         Fiber.sleep 10;
         Fiber.join worker;
         ok := true));
  Engine.run e;
  check_bool "join returns for dead fiber" true !ok

let test_fiber_kill_suspended () =
  let e = Engine.create () in
  let progressed = ref false in
  let victim =
    Fiber.spawn e (fun () ->
        Fiber.sleep (Time.sec 1);
        progressed := true)
  in
  ignore
    (Fiber.spawn e (fun () ->
         Fiber.sleep 10;
         Fiber.kill victim));
  Engine.run e;
  check_bool "victim did not progress" false !progressed;
  check_bool "victim dead" false (Fiber.alive victim);
  check_bool "ended well before 1s" true (Engine.now e < Time.sec 1)

let test_fiber_kill_runs_exit_hooks () =
  let e = Engine.create () in
  let hook = ref false in
  let victim = Fiber.spawn e (fun () -> Fiber.sleep (Time.sec 1)) in
  Fiber.on_exit victim (fun () -> hook := true);
  ignore (Fiber.spawn e (fun () -> Fiber.kill victim));
  Engine.run e;
  check_bool "hook ran" true !hook

let test_fiber_exception_propagates () =
  let e = Engine.create () in
  ignore (Fiber.spawn e ~name:"bad" (fun () -> failwith "boom"));
  match Engine.run e with
  | () -> Alcotest.fail "expected Fiber_failure"
  | exception Engine.Fiber_failure ("bad", Failure msg) when msg = "boom" -> ()
  | exception _ -> Alcotest.fail "wrong exception"

let test_fiber_self_name () =
  let e = Engine.create () in
  let seen = ref "" in
  ignore (Fiber.spawn e ~name:"me" (fun () -> seen := Fiber.name (Fiber.self ())));
  Engine.run e;
  Alcotest.(check string) "self name" "me" !seen

let test_fiber_ids_unique () =
  let e = Engine.create () in
  let a = Fiber.spawn e (fun () -> ()) in
  let b = Fiber.spawn e (fun () -> ()) in
  check_bool "distinct ids" true (Fiber.id a <> Fiber.id b)

(* ------------------------------------------------------------------ *)
(* Suspend: a fiber blocked on a hand-stashed [resume], as a condition
   variable or a CPU scheduler would block it *)

let test_suspend_resume_from_event () =
  let e = Engine.create () in
  let registered_at = ref (-1) and woke_at = ref (-1) in
  ignore
    (Fiber.spawn e (fun () ->
         Fiber.suspend (fun _ resume ->
             registered_at := Engine.now e;
             ignore (Engine.at e 42 resume));
         woke_at := Engine.now e));
  Engine.run e;
  check_int "register ran at once" 0 !registered_at;
  check_int "woke at resume time" 42 !woke_at

let test_suspend_extra_resumes_ignored () =
  let e = Engine.create () in
  let wakes = ref [] in
  ignore
    (Fiber.spawn e (fun () ->
         Fiber.suspend (fun _ resume ->
             ignore (Engine.at e 10 resume);
             ignore (Engine.at e 20 resume));
         wakes := Engine.now e :: !wakes;
         (* The stale resume at 20 belongs to the first suspension and must
            not end this one. *)
         Fiber.suspend (fun _ resume -> ignore (Engine.at e 30 resume));
         wakes := Engine.now e :: !wakes));
  Engine.run e;
  Alcotest.(check (list int)) "one wake per suspension" [ 10; 30 ] (List.rev !wakes)

let test_suspend_wake_cleanup_once () =
  let e = Engine.create () in
  let cleanups = ref 0 and victim_cleanups = ref 0 and progressed = ref false in
  ignore
    (Fiber.spawn e (fun () ->
         Fiber.suspend (fun fiber resume ->
             Fiber.set_wake_cleanup fiber (fun () -> incr cleanups);
             ignore (Engine.at e 5 resume);
             ignore (Engine.at e 6 resume))));
  let victim =
    Fiber.spawn e (fun () ->
        Fiber.suspend (fun fiber _resume ->
            Fiber.set_wake_cleanup fiber (fun () -> incr victim_cleanups));
        progressed := true)
  in
  ignore (Engine.at e 7 (fun () -> Fiber.kill victim));
  Engine.run e;
  check_int "cleanup once on resume" 1 !cleanups;
  check_int "cleanup once on kill" 1 !victim_cleanups;
  check_bool "killed fiber did not progress" false !progressed;
  check_bool "victim dead" false (Fiber.alive victim)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 in
  let b = Rng.create ~seed:7 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same stream" xs ys

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  check_bool "different streams" true (xs <> ys)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_float_in_bounds =
  QCheck.Test.make ~name:"rng float within bounds" ~count:500
    QCheck.(small_int)
    (fun seed ->
      let r = Rng.create ~seed in
      let v = Rng.float r 3.5 in
      v >= 0. && v < 3.5)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_counters () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "b" 5;
  check_int "a" 2 (Stats.counter s "a");
  check_int "b" 5 (Stats.counter s "b");
  check_int "missing" 0 (Stats.counter s "zzz")

let test_stats_series () =
  let s = Stats.create () in
  Stats.record s "lat" 1.0;
  Stats.record s "lat" 3.0;
  check_int "count" 2 (Stats.count s "lat");
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean s "lat");
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_value s "lat");
  Alcotest.(check (float 1e-9)) "max" 3.0 (Stats.max_value s "lat")

let test_stats_percentile_domain () =
  let s = Stats.create () in
  Stats.record s "lat" 1.0;
  let raises p =
    match Stats.percentile s "lat" p with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "p = -1 rejected" true (raises (-1.));
  check_bool "p = 101 rejected" true (raises 101.);
  check_bool "p = nan rejected" true (raises Float.nan);
  check_bool "p = 0 ok" true (Stats.percentile s "lat" 0. >= 0.);
  check_bool "p = 100 ok" true (Stats.percentile s "lat" 100. >= 0.);
  (* accessors agree with the long form *)
  Stats.record s "lat" 2.0;
  Stats.record s "lat" 4.0;
  Alcotest.(check (float 1e-9)) "p50" (Stats.percentile s "lat" 50.) (Stats.p50 s "lat");
  Alcotest.(check (float 1e-9)) "p95" (Stats.percentile s "lat" 95.) (Stats.p95 s "lat");
  Alcotest.(check (float 1e-9)) "p99" (Stats.percentile s "lat" 99.) (Stats.p99 s "lat")

(* Percentile estimates from the log-bucket histogram must stay within the
   documented bucket width (16 sub-buckets/octave => ~3% relative error,
   3.5% with rounding slop) of the exact nearest-rank percentile. *)
let prop_stats_percentile_accuracy =
  QCheck.Test.make ~name:"percentile within log-bucket error" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 200) (float_range 1. 1000.))
              (int_range 0 100))
    (fun (samples, p_int) ->
      let p = float_of_int p_int in
      let s = Stats.create () in
      List.iter (Stats.record s "x") samples;
      let sorted = List.sort compare samples |> Array.of_list in
      let n = Array.length sorted in
      let rank =
        let r = int_of_float (Float.round (p /. 100. *. float_of_int n)) in
        if r < 1 then 1 else if r > n then n else r
      in
      let exact = sorted.(rank - 1) in
      let est = Stats.percentile s "x" p in
      abs_float (est -. exact) <= 0.035 *. exact)

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_units () =
  check_int "us" 1_000 (Time.us 1);
  check_int "ms" 1_000_000 (Time.ms 1);
  check_int "sec" 1_000_000_000 (Time.sec 1);
  check_int "us_f" 800 (Time.us_f 0.8);
  Alcotest.(check (float 1e-9)) "to_ms" 1.27 (Time.to_ms (Time.us_f 1270.))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_heap_cancel;
          Alcotest.test_case "peek skips cancelled" `Quick test_heap_peek_skips_cancelled;
          Alcotest.test_case "compaction bounds" `Quick test_heap_compaction_bounds;
          Alcotest.test_case "stale handle" `Quick test_heap_stale_handle;
        ]
        @ qsuite [ prop_heap_sorted; prop_heap_cancel_subset; prop_heap_model ] );
      ( "engine",
        [
          Alcotest.test_case "order" `Quick test_engine_order;
          Alcotest.test_case "same-instant fifo" `Quick test_engine_same_instant_fifo;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "stop" `Quick test_engine_stop;
          Alcotest.test_case "counts survive exception" `Quick
            test_engine_counts_survive_exception;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "order across structures" `Quick
            test_wheel_order_across_structures;
          Alcotest.test_case "cancel after migration" `Quick
            test_wheel_cancel_after_migration;
          Alcotest.test_case "stale cancel after fire" `Quick
            test_wheel_stale_cancel_after_fire;
        ]
        @ qsuite [ prop_wheel_matches_heap ] );
      ( "fiber",
        [
          Alcotest.test_case "sleep" `Quick test_fiber_sleep;
          Alcotest.test_case "sequential sleeps" `Quick test_fiber_sequential_sleeps;
          Alcotest.test_case "join" `Quick test_fiber_join;
          Alcotest.test_case "join dead" `Quick test_fiber_join_dead;
          Alcotest.test_case "kill suspended" `Quick test_fiber_kill_suspended;
          Alcotest.test_case "kill runs exit hooks" `Quick test_fiber_kill_runs_exit_hooks;
          Alcotest.test_case "exception propagates" `Quick test_fiber_exception_propagates;
          Alcotest.test_case "self name" `Quick test_fiber_self_name;
          Alcotest.test_case "unique ids" `Quick test_fiber_ids_unique;
        ] );
      ( "suspend",
        [
          Alcotest.test_case "resume from event" `Quick test_suspend_resume_from_event;
          Alcotest.test_case "extra resumes ignored" `Quick
            test_suspend_extra_resumes_ignored;
          Alcotest.test_case "wake cleanup once" `Quick test_suspend_wake_cleanup_once;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        ]
        @ qsuite [ prop_rng_int_in_bounds; prop_rng_float_in_bounds ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "series" `Quick test_stats_series;
          Alcotest.test_case "percentile domain" `Quick test_stats_percentile_domain;
        ]
        @ qsuite [ prop_stats_percentile_accuracy ] );
      ("time", [ Alcotest.test_case "units" `Quick test_time_units ]);
    ]
