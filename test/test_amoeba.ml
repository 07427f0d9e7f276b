open Sim
open Machine
open Net
open Flip
open Amoeba

let machine_config =
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

type fixture = {
  eng : Engine.t;
  machines : Mach.t array;
  topo : Topology.t;
  flips : Flip_iface.t array;
}

let pool ?per_segment n =
  let eng = Engine.create () in
  let machines =
    Array.init n (fun i -> Mach.create eng ~id:i ~name:(Printf.sprintf "m%d" i) machine_config)
  in
  let topo = Topology.build eng ~machines ?per_segment () in
  let flips =
    Array.mapi (fun i _ -> Flip_iface.create machines.(i) topo.Topology.nics.(i)) machines
  in
  { eng; machines; topo; flips }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type Payload.t += Num of int

let num = function Num n -> n | _ -> Alcotest.fail "expected Num payload"

(* ------------------------------------------------------------------ *)
(* RPC *)

(* An echo server that adds 1 to the request's number. *)
let spawn_incr_server fx ~machine ~count =
  let rpc = Rpc.create fx.flips.(machine) in
  let port = Rpc.export rpc ~name:"incr" in
  let served = ref 0 in
  ignore
    (Thread.spawn fx.machines.(machine) ~prio:Thread.Daemon "server" (fun () ->
         for _ = 1 to count do
           let r = Rpc.get_request port in
           incr served;
           Rpc.put_reply port r ~size:4 (Num (num (Rpc.request_payload r) + 1))
         done));
  (rpc, port, served)

let test_rpc_roundtrip () =
  let fx = pool 2 in
  let _srpc, port, served = spawn_incr_server fx ~machine:1 ~count:1 in
  let crpc = Rpc.create fx.flips.(0) in
  let reply = ref (-1) in
  let finished_at = ref 0 in
  ignore
    (Thread.spawn fx.machines.(0) "client" (fun () ->
         let _sz, payload = Rpc.trans crpc ~dst:(Rpc.address port) ~size:4 (Num 41) in
         reply := num payload;
         finished_at := Engine.now fx.eng));
  Engine.run fx.eng;
  check_int "reply value" 42 !reply;
  check_int "served once" 1 !served;
  check_bool "latency sane (0.5ms..5ms)" true
    (!finished_at > Time.us 500 && !finished_at < Time.ms 5)

let test_rpc_large_request_fragments () =
  let fx = pool 2 in
  let _srpc, port, served = spawn_incr_server fx ~machine:1 ~count:1 in
  let crpc = Rpc.create fx.flips.(0) in
  let ok = ref false in
  ignore
    (Thread.spawn fx.machines.(0) "client" (fun () ->
         let _sz, payload = Rpc.trans crpc ~dst:(Rpc.address port) ~size:8000 (Num 1) in
         ok := num payload = 2));
  Engine.run fx.eng;
  check_bool "completed" true !ok;
  check_int "served once" 1 !served;
  (* 8000B request is 6 FLIP fragments + locate + reply + ack. *)
  check_bool "many frames" true (Nic.frames_sent (Topology.nic fx.topo 0) >= 6)

let test_rpc_concurrent_clients () =
  let fx = pool 3 in
  let _srpc, port, served = spawn_incr_server fx ~machine:2 ~count:8 in
  let replies = ref [] in
  for m = 0 to 1 do
    let crpc = Rpc.create fx.flips.(m) in
    ignore
      (Thread.spawn fx.machines.(m) "client" (fun () ->
           for i = 1 to 4 do
             let _sz, payload =
               Rpc.trans crpc ~dst:(Rpc.address port) ~size:4 (Num ((10 * m) + i))
             in
             replies := num payload :: !replies
           done))
  done;
  Engine.run fx.eng;
  check_int "served all" 8 !served;
  Alcotest.(check (list int))
    "all incremented"
    [ 2; 3; 4; 5; 12; 13; 14; 15 ]
    (List.sort compare !replies)

let test_put_reply_wrong_thread_rejected () =
  let fx = pool 2 in
  let rpc = Rpc.create fx.flips.(1) in
  let port = Rpc.export rpc ~name:"p" in
  let got_error = ref false in
  ignore
    (Thread.spawn fx.machines.(1) ~prio:Thread.Daemon "server" (fun () ->
         let r = Rpc.get_request port in
         (* Hand the request to a different thread for the reply: Amoeba
            forbids this. *)
         ignore
           (Thread.spawn fx.machines.(1) "other" (fun () ->
                match Rpc.put_reply port r ~size:0 Payload.Empty with
                | () -> ()
                | exception Invalid_argument _ ->
                  got_error := true;
                  (* Unblock the client properly. *)
                  ()))));
  let crpc = Rpc.create fx.flips.(0) in
  ignore
    (Thread.spawn fx.machines.(0) "client" (fun () ->
         match Rpc.trans crpc ~dst:(Rpc.address port) ~size:0 Payload.Empty with
         | _ -> ()
         | exception Rpc.Rpc_failure _ -> ()));
  Engine.run fx.eng;
  check_bool "wrong-thread reply rejected" true !got_error

let test_rpc_request_loss_retransmits () =
  let fx = pool 2 in
  let _srpc, port, served = spawn_incr_server fx ~machine:1 ~count:1 in
  let crpc = Rpc.create fx.flips.(0) in
  (* Drop the first unicast data frame from m0 (the request). *)
  let dropped = ref 0 in
  Segment.set_fault_injector fx.topo.Topology.segments.(0)
    (Some
       (fun frame ->
         match frame.Frame.payload with
         | Flip_iface.Data f
           when frame.Frame.src = 0 && f.Fragment.dst = Rpc.address port && !dropped = 0 ->
           incr dropped;
           true
         | _ -> false));
  let ok = ref false in
  ignore
    (Thread.spawn fx.machines.(0) "client" (fun () ->
         let _sz, p = Rpc.trans crpc ~dst:(Rpc.address port) ~size:4 (Num 1) in
         ok := num p = 2));
  Engine.run fx.eng;
  check_bool "completed despite loss" true !ok;
  check_int "dropped one" 1 !dropped;
  check_bool "client retransmitted" true (Rpc.retransmissions crpc >= 1);
  check_int "server executed once" 1 !served

let test_rpc_reply_loss_replayed () =
  let fx = pool 2 in
  let _srpc, port, served = spawn_incr_server fx ~machine:1 ~count:1 in
  let crpc = Rpc.create fx.flips.(0) in
  (* Drop the first reply data frame (from m1 back to m0). *)
  let dropped = ref 0 in
  Segment.set_fault_injector fx.topo.Topology.segments.(0)
    (Some
       (fun frame ->
         match frame.Frame.payload with
         | Flip_iface.Data f
           when frame.Frame.src = 1
                && (match f.Fragment.payload with Rpc.Reply _ -> true | _ -> false)
                && !dropped = 0 ->
           incr dropped;
           true
         | _ -> false));
  let ok = ref false in
  ignore
    (Thread.spawn fx.machines.(0) "client" (fun () ->
         let _sz, p = Rpc.trans crpc ~dst:(Rpc.address port) ~size:4 (Num 7) in
         ok := num p = 8));
  Engine.run fx.eng;
  check_bool "completed" true !ok;
  check_int "dropped reply once" 1 !dropped;
  check_int "server executed exactly once" 1 !served

let test_rpc_failure_when_no_server () =
  let fx = pool 2 in
  let crpc = Rpc.create fx.flips.(0) in
  let failed = ref false in
  ignore
    (Thread.spawn fx.machines.(0) "client" (fun () ->
         match Rpc.trans crpc ~dst:(Address.fresh_point fx.eng) ~size:4 (Num 1) with
         | _ -> ()
         | exception Rpc.Rpc_failure _ -> failed := true));
  Engine.run fx.eng;
  check_bool "times out" true !failed

let prop_rpc_exactly_once_under_loss =
  QCheck.Test.make ~name:"rpc survives random loss exactly-once" ~count:15
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let fx = pool 2 in
      let n = 10 in
      let _srpc, port, served = spawn_incr_server fx ~machine:1 ~count:n in
      let crpc = Rpc.create fx.flips.(0) in
      let rng = Rng.create ~seed in
      Segment.set_fault_injector fx.topo.Topology.segments.(0)
        (Some
           (fun frame ->
             (* 20% loss on data frames; never drop locates to keep the run
                short. *)
             match frame.Frame.payload with
             | Flip_iface.Data _ -> Rng.int rng 100 < 20
             | _ -> false));
      let replies = ref [] in
      ignore
        (Thread.spawn fx.machines.(0) "client" (fun () ->
             for i = 1 to n do
               let _sz, p = Rpc.trans crpc ~dst:(Rpc.address port) ~size:4 (Num i) in
               replies := num p :: !replies
             done));
      Engine.run fx.eng;
      !served = n && List.rev !replies = List.init n (fun i -> i + 2))

(* ------------------------------------------------------------------ *)
(* Group *)

(* Spawns a receive daemon per member collecting deliveries. *)
let spawn_receivers fx members ~count =
  let logs = Array.map (fun _ -> ref []) members in
  Array.iteri
    (fun i m ->
      let mach = fx.machines.(i) in
      ignore
        (Thread.spawn mach ~prio:Thread.Daemon (Printf.sprintf "recv%d" i) (fun () ->
             for _ = 1 to count do
               let sender, _size, payload = Group.receive m in
               logs.(i) := (sender, num payload) :: !(logs.(i))
             done)))
    members;
  logs

let test_group_basic_broadcast () =
  let fx = pool 2 in
  let _grp, members = Group.create_static ~name:"g" ~sequencer:1 fx.flips in
  let logs = spawn_receivers fx members ~count:1 in
  let sender_done = ref false in
  ignore
    (Thread.spawn fx.machines.(0) "sender" (fun () ->
         Group.send members.(0) ~size:100 (Num 5);
         sender_done := true));
  Engine.run fx.eng;
  check_bool "send returned" true !sender_done;
  Alcotest.(check (list (pair int int))) "member0 got it" [ (0, 5) ] !(logs.(0));
  Alcotest.(check (list (pair int int))) "member1 got it" [ (0, 5) ] !(logs.(1))

let test_group_large_message_bb () =
  let fx = pool 3 in
  let grp, members = Group.create_static ~name:"g" ~sequencer:0 fx.flips in
  ignore grp;
  let logs = spawn_receivers fx members ~count:1 in
  ignore
    (Thread.spawn fx.machines.(2) "sender" (fun () ->
         Group.send members.(2) ~size:8000 (Num 99)));
  Engine.run fx.eng;
  Array.iteri
    (fun i log ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member%d" i)
        [ (2, 99) ] !log)
    logs

let test_group_total_order_two_senders () =
  let fx = pool 3 in
  let _grp, members = Group.create_static ~name:"g" ~sequencer:0 fx.flips in
  let n_each = 5 in
  let logs = spawn_receivers fx members ~count:(2 * n_each) in
  for s = 1 to 2 do
    ignore
      (Thread.spawn fx.machines.(s) (Printf.sprintf "sender%d" s) (fun () ->
           for i = 1 to n_each do
             Group.send members.(s) ~size:64 (Num ((100 * s) + i))
           done))
  done;
  Engine.run fx.eng;
  let sequences = Array.map (fun log -> List.rev !log) logs in
  check_int "member0 count" (2 * n_each) (List.length sequences.(0));
  Array.iteri
    (fun i s ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member%d sees the same total order" i)
        sequences.(0) s)
    sequences;
  (* Per-sender FIFO holds inside the total order. *)
  List.iter
    (fun s ->
      let mine = List.filter (fun (snd_, _) -> snd_ = s) sequences.(0) in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "sender %d fifo" s)
        (List.init n_each (fun i -> (s, (100 * s) + i + 1)))
        mine)
    [ 1; 2 ]

let test_group_loss_recovery () =
  let fx = pool 3 in
  let grp, members = Group.create_static ~name:"g" ~sequencer:0 fx.flips in
  let n = 6 in
  let logs = spawn_receivers fx members ~count:n in
  (* Drop the 2nd Ordered multicast once (member 2 will see a gap). *)
  let dropped = ref 0 in
  Segment.set_fault_injector fx.topo.Topology.segments.(0)
    (Some
       (fun frame ->
         match frame.Frame.payload with
         | Flip_iface.Data f -> (
             match f.Fragment.payload with
             | Total_order.Ordered e when e.Total_order.e_seq = 1 && !dropped = 0 ->
               incr dropped;
               true
             | _ -> false)
         | _ -> false));
  ignore
    (Thread.spawn fx.machines.(1) "sender" (fun () ->
         for i = 1 to n do
           Group.send members.(1) ~size:64 (Num i)
         done));
  Engine.run fx.eng;
  check_int "dropped once" 1 !dropped;
  check_bool "retransmissions happened" true (Group.retransmissions grp >= 1);
  Array.iteri
    (fun i log ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member%d ordered delivery" i)
        (List.init n (fun k -> (1, k + 1)))
        (List.rev !log))
    logs

let test_group_history_trimmed () =
  let config = { Group.default_config with Group.history_high = 8 } in
  let fx = pool 2 in
  let grp, members = Group.create_static ~config ~name:"g" ~sequencer:0 fx.flips in
  let n = 64 in
  let _logs = spawn_receivers fx members ~count:n in
  ignore
    (Thread.spawn fx.machines.(1) "sender" (fun () ->
         for i = 1 to n do
           Group.send members.(1) ~size:64 (Num i)
         done));
  Engine.run fx.eng;
  check_int "all ordered" n (Group.messages_ordered grp);
  check_bool "history bounded"
    true
    (Group.history_length grp < n)

let prop_group_total_order_under_loss =
  QCheck.Test.make ~name:"total order survives random loss" ~count:10
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let fx = pool 4 in
      let _grp, members = Group.create_static ~name:"g" ~sequencer:0 fx.flips in
      let n_each = 4 in
      let total = 3 * n_each in
      let logs = spawn_receivers fx members ~count:total in
      let rng = Rng.create ~seed in
      Segment.set_fault_injector fx.topo.Topology.segments.(0)
        (Some
           (fun frame ->
             match frame.Frame.payload with
             | Flip_iface.Data _ -> Rng.int rng 100 < 15
             | _ -> false));
      for s = 1 to 3 do
        ignore
          (Thread.spawn fx.machines.(s) (Printf.sprintf "sender%d" s) (fun () ->
               for i = 1 to n_each do
                 Group.send members.(s) ~size:64 (Num ((100 * s) + i))
               done))
      done;
      Engine.run fx.eng;
      let seq0 = List.rev !(logs.(0)) in
      List.length seq0 = total
      && Array.for_all (fun log -> List.rev !log = seq0) logs)

(* ------------------------------------------------------------------ *)
(* Dynamic membership *)

let test_group_join () =
  let fx = pool 3 in
  (* Start with members on machines 0 and 1; machine 2 joins later. *)
  let grp, members =
    Group.create_static ~name:"g" ~sequencer:0 (Array.sub fx.flips 0 2)
  in
  let logs = spawn_receivers fx members ~count:3 in
  let joined_log = ref [] in
  let view_at_join = ref [] in
  ignore
    (Thread.spawn fx.machines.(2) "joiner" (fun () ->
         Thread.sleep (Time.ms 5);
         let m = Group.join grp fx.flips.(2) in
         view_at_join := Group.view m;
         check_bool "has an index" true (Group.member_index m >= 2);
         (* Receive the messages sent after the join. *)
         ignore
           (Thread.spawn fx.machines.(2) ~prio:Thread.Daemon "recv2" (fun () ->
                for _ = 1 to 2 do
                  let sender, _, payload = Group.receive m in
                  joined_log := (sender, num payload) :: !joined_log
                done))));
  ignore
    (Thread.spawn fx.machines.(1) "sender" (fun () ->
         (* One message before the join completes, two after. *)
         Group.send members.(1) ~size:32 (Num 1);
         Thread.sleep (Time.ms 50);
         Group.send members.(1) ~size:32 (Num 2);
         Group.send members.(1) ~size:32 (Num 3)));
  Engine.run fx.eng;
  Alcotest.(check (list (pair int int)))
    "old members see all three"
    [ (1, 1); (1, 2); (1, 3) ]
    (List.rev !(logs.(0)));
  Alcotest.(check (list (pair int int)))
    "joiner sees exactly the post-join messages"
    [ (1, 2); (1, 3) ]
    (List.rev !joined_log);
  check_bool "joiner's view includes itself" true (List.mem 2 !view_at_join);
  check_int "sequencer counts three members" 3 (Group.member_count grp)

let test_group_join_mid_stream () =
  (* A member joining while another broadcasts must not keep what was
     ordered before its join: stashed, those entries never drained and its
     gap timer re-armed every 200 ms forever. *)
  let fx = pool 3 in
  let grp, members =
    Group.create_static ~name:"g" ~sequencer:0 (Array.sub fx.flips 0 2)
  in
  let n = 40 in
  let _logs = spawn_receivers fx members ~count:n in
  let joined = ref None in
  ignore
    (Thread.spawn fx.machines.(1) "sender" (fun () ->
         for i = 1 to n do
           Group.send members.(1) ~size:32 (Num i)
         done));
  ignore
    (Thread.spawn fx.machines.(2) "joiner" (fun () ->
         Thread.sleep (Time.ms 3);
         joined := Some (Group.join grp fx.flips.(2))));
  Engine.run ~until:(Time.sec 60) fx.eng;
  (match !joined with
   | Some m -> check_int "joiner delivered to the end" n (Group.delivered_seq m)
   | None -> Alcotest.fail "join did not complete");
  check_int "nothing pending" 0 (Engine.pending fx.eng);
  check_bool "drained before 2 s" true (Engine.latest fx.eng < Time.sec 2)

let test_group_joiner_can_send () =
  let fx = pool 3 in
  let grp, members = Group.create_static ~name:"g" ~sequencer:0 (Array.sub fx.flips 0 2) in
  let logs = spawn_receivers fx members ~count:1 in
  ignore
    (Thread.spawn fx.machines.(2) "joiner" (fun () ->
         let m = Group.join grp fx.flips.(2) in
         Group.send m ~size:32 (Num 77)));
  Engine.run fx.eng;
  Array.iteri
    (fun i log ->
      match !log with
      | [ (sender, 77) ] ->
        check_bool (Printf.sprintf "member %d got joiner's message" i) true (sender >= 2)
      | _ -> Alcotest.fail "expected exactly the joiner's message")
    logs

let test_group_leave () =
  let fx = pool 3 in
  let grp, members = Group.create_static ~name:"g" ~sequencer:0 fx.flips in
  let events = ref [] in
  Group.set_membership_handler members.(0) (fun e -> events := e :: !events);
  let logs = spawn_receivers fx members ~count:1 in
  ignore logs;
  ignore
    (Thread.spawn fx.machines.(2) "leaver" (fun () ->
         Thread.sleep (Time.ms 5);
         Group.leave members.(2);
         check_bool "inactive after leave" false (Group.active members.(2))));
  ignore
    (Thread.spawn fx.machines.(1) "sender" (fun () ->
         Thread.sleep (Time.ms 100);
         Group.send members.(1) ~size:32 (Num 4)));
  Engine.run fx.eng;
  check_int "two members left" 2 (Group.member_count grp);
  check_bool "member 0 saw the departure" true
    (List.exists (function Group.Left 2 -> true | _ -> false) !events);
  Alcotest.(check (list int)) "member 0's view" [ 0; 1 ] (Group.view members.(0))

let test_group_lost_final_message () =
  (* The run's last broadcast is lost on the far side of the switch only:
     no later traffic reveals the hole there, so the sequencer's catch-up
     rounds must repair it. *)
  let fx = pool ~per_segment:2 4 in
  let _grp, members = Group.create_static ~name:"g" ~sequencer:0 fx.flips in
  let n = 3 in
  let logs = spawn_receivers fx members ~count:n in
  let spec = Result.get_ok (Faults.Spec.parse "swpart=0.1+0.05") in
  let faults = Faults.Inject.install fx.eng fx.topo spec in
  ignore
    (Thread.spawn fx.machines.(1) "sender" (fun () ->
         for i = 1 to n do
           if i = n then Thread.sleep (Time.ms 100 - Engine.now fx.eng);
           Group.send members.(1) ~size:32 (Num i)
         done));
  Engine.run fx.eng;
  check_bool "the switch dropped the last broadcast" true
    (Faults.Inject.switch_drops faults >= 1);
  Array.iteri
    (fun i log ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member %d delivered the last broadcast" i)
        (List.init n (fun k -> (1, k + 1)))
        (List.rev !log))
    logs

let test_group_departed_member_quiet () =
  (* A member that has left must ignore group traffic.  A duplicated
     accept used to leave an awaited slot in the departed member's stash,
     whose gap timer then re-armed every 200 ms forever. *)
  let fx = pool 3 in
  let _grp, members = Group.create_static ~name:"g" ~sequencer:0 fx.flips in
  let logs = spawn_receivers fx (Array.sub members 0 2) ~count:1 in
  let duplicated = ref false in
  Segment.set_fault fx.topo.Topology.segments.(0)
    (Some
       (fun frame ->
         match frame.Frame.payload with
         | Flip_iface.Data { Fragment.payload = Total_order.Accept _; _ }
           when not !duplicated ->
           duplicated := true;
           Segment.Duplicate
         | _ -> Segment.Pass));
  ignore
    (Thread.spawn fx.machines.(2) "leaver" (fun () ->
         Thread.sleep (Time.ms 5);
         Group.leave members.(2)));
  ignore
    (Thread.spawn fx.machines.(1) "sender" (fun () ->
         Thread.sleep (Time.ms 100);
         Group.send members.(1) ~size:4000 (Num 4)));
  Engine.run ~until:(Time.sec 60) fx.eng;
  check_bool "the accept was duplicated" true !duplicated;
  Array.iteri
    (fun i log ->
      Alcotest.(check (list (pair int int))) (Printf.sprintf "member %d" i) [ (1, 4) ] !log)
    logs;
  check_int "nothing pending" 0 (Engine.pending fx.eng);
  check_bool "drained before 2 s" true (Engine.latest fx.eng < Time.sec 2)

let test_group_eviction_of_silent_member () =
  (* A member that stops answering status requests must not block history
     trimming forever: the sequencer evicts it. *)
  let config = { Group.default_config with Group.history_high = 8 } in
  let fx = pool 3 in
  let grp, members = Group.create_static ~config ~name:"g" ~sequencer:0 fx.flips in
  let n = 120 in
  (* Members 0 and 1 consume; member 2 goes silent immediately (its FLIP
     endpoints vanish, as if the machine were unplugged). *)
  let logs = spawn_receivers fx (Array.sub members 0 2) ~count:n in
  ignore logs;
  Flip_iface.unregister fx.flips.(2) (Address.group 0);
  (* Silence machine 2 by dropping everything addressed to it. *)
  Segment.set_fault_injector fx.topo.Topology.segments.(0)
    (Some (fun frame -> frame.Frame.dest = Frame.Unicast 2));
  Net.Nic.set_rx (Topology.nic fx.topo 2) (fun _ -> ());
  ignore
    (Thread.spawn fx.machines.(1) "sender" (fun () ->
         for i = 1 to n do
           Group.send members.(1) ~size:32 (Num i)
         done));
  Engine.run fx.eng;
  check_int "silent member evicted" 2 (Group.member_count grp);
  check_bool "history stayed bounded" true (Group.history_length grp < n / 2);
  check_bool "survivors saw the eviction" true
    (not (List.mem 2 (Group.view members.(0))))

let test_group_silent_tail_recovered () =
  (* Lose every multicast copy of the LAST ordered message (and its
     re-announcements): no later traffic reveals the hole, so only the
     sequencer's idle catch-up rounds can repair the members that missed
     it.  The sender must not be the one to trigger the repair: it gets
     rescued by a unicast retransmission first. *)
  let fx = pool 3 in
  let grp, members = Group.create_static ~name:"g" ~sequencer:0 fx.flips in
  let n = 3 in
  let logs = spawn_receivers fx members ~count:n in
  let drops = ref 0 in
  Segment.set_fault_injector fx.topo.Topology.segments.(0)
    (Some
       (fun frame ->
         match frame.Frame.payload with
         | Flip_iface.Data f -> (
             match f.Fragment.payload with
             | Total_order.Ordered e
               when e.Total_order.e_seq = n - 1
                    && frame.Frame.dest = Frame.Multicast
                    && !drops < 4 ->
               incr drops;
               true
             | _ -> false)
         | _ -> false));
  ignore
    (Thread.spawn fx.machines.(1) "sender" (fun () ->
         for i = 1 to n do
           Group.send members.(1) ~size:32 (Num i)
         done));
  Engine.run fx.eng;
  check_bool "multicasts of the tail were lost" true (!drops >= 2);
  Array.iteri
    (fun i log ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member %d complete despite silent tail" i)
        (List.init n (fun k -> (1, k + 1)))
        (List.rev !log))
    logs;
  check_int "all ordered" n (Group.messages_ordered grp)

(* ------------------------------------------------------------------ *)
(* Capabilities and the directory service *)

let test_capability_validate () =
  let priv = Capability.create_port ~seed:7 in
  let cap = Capability.mint priv ~obj:3 in
  check_bool "owner validates" true (Capability.validate priv cap);
  check_bool "all rights" true (Capability.has_rights cap Capability.all_rights);
  (* Tampering with rights without the matching check fails. *)
  let forged = { cap with Capability.cap_rights = Capability.right_read } in
  check_bool "tampered rights rejected" false (Capability.validate priv forged);
  let forged2 = { cap with Capability.cap_obj = 4 } in
  check_bool "wrong object rejected" false (Capability.validate priv forged2);
  let other = Capability.create_port ~seed:8 in
  check_bool "wrong server rejects" false (Capability.validate other cap)

let test_capability_restrict () =
  let priv = Capability.create_port ~seed:7 in
  let cap = Capability.mint priv ~obj:1 in
  let ro = Capability.restrict cap ~rights:Capability.right_read in
  check_bool "restricted validates" true (Capability.validate priv ro);
  check_bool "read only" true (Capability.has_rights ro Capability.right_read);
  check_bool "no write" false (Capability.has_rights ro Capability.right_write);
  (* Upgrading rights on a restricted capability must not validate. *)
  let upgraded = { ro with Capability.cap_rights = Capability.all_rights } in
  check_bool "upgrade rejected" false (Capability.validate priv upgraded);
  (* Only owner capabilities restrict offline (as in Amoeba). *)
  let double = Capability.restrict ro ~rights:0 in
  check_bool "double restriction rejected" false (Capability.validate priv double)

let prop_capability_unforgeable =
  QCheck.Test.make ~name:"random check fields never validate" ~count:300
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 0xFF))
    (fun (check, rights) ->
      let priv = Capability.create_port ~seed:99 in
      let cap =
        {
          Capability.cap_port = Capability.public priv;
          cap_obj = 5;
          cap_rights = rights;
          cap_check = check;
        }
      in
      not (Capability.validate priv cap))

let test_directory_service () =
  let fx = pool 2 in
  let server_rpc = Rpc.create fx.flips.(1) in
  let dir = Directory.start server_rpc in
  let dir_addr = Directory.address dir in
  let admin = Directory.root dir in
  let ro = Capability.restrict admin ~rights:Capability.right_read in
  let client = Rpc.create fx.flips.(0) in
  let svc_priv = Capability.create_port ~seed:42 in
  let svc_cap = Capability.mint svc_priv ~obj:1 in
  let looked_up = ref None in
  let denied_register = ref false in
  let denied_lookup = ref false in
  let names = ref [] in
  ignore
    (Thread.spawn fx.machines.(0) "client" (fun () ->
         (* Admin registers a service. *)
         Directory.register client ~dir:dir_addr ~cap:admin ~name:"tty" svc_cap;
         (* Read-only capability can look it up... *)
         looked_up := Some (Directory.lookup client ~dir:dir_addr ~cap:ro ~name:"tty");
         names := Directory.list_names client ~dir:dir_addr ~cap:ro;
         (* ...but cannot register. *)
         (try Directory.register client ~dir:dir_addr ~cap:ro ~name:"evil" svc_cap
          with Directory.Denied -> denied_register := true);
         (* Unknown names are denied. *)
         (try ignore (Directory.lookup client ~dir:dir_addr ~cap:ro ~name:"nope")
          with Directory.Denied -> denied_lookup := true)));
  Engine.run fx.eng;
  check_bool "lookup returned the service capability" true (!looked_up = Some svc_cap);
  Alcotest.(check (list string)) "names" [ "tty" ] !names;
  check_bool "read-only register denied" true !denied_register;
  check_bool "unknown lookup denied" true !denied_lookup

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "amoeba"
    [
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "large request" `Quick test_rpc_large_request_fragments;
          Alcotest.test_case "concurrent clients" `Quick test_rpc_concurrent_clients;
          Alcotest.test_case "wrong-thread reply" `Quick test_put_reply_wrong_thread_rejected;
          Alcotest.test_case "request loss" `Quick test_rpc_request_loss_retransmits;
          Alcotest.test_case "reply loss" `Quick test_rpc_reply_loss_replayed;
          Alcotest.test_case "no server" `Quick test_rpc_failure_when_no_server;
        ]
        @ qsuite [ prop_rpc_exactly_once_under_loss ] );
      ( "group",
        [
          Alcotest.test_case "basic broadcast" `Quick test_group_basic_broadcast;
          Alcotest.test_case "large message (BB)" `Quick test_group_large_message_bb;
          Alcotest.test_case "total order, two senders" `Quick test_group_total_order_two_senders;
          Alcotest.test_case "loss recovery" `Quick test_group_loss_recovery;
          Alcotest.test_case "history trimmed" `Quick test_group_history_trimmed;
          Alcotest.test_case "join" `Quick test_group_join;
          Alcotest.test_case "joiner can send" `Quick test_group_joiner_can_send;
          Alcotest.test_case "join mid-stream" `Quick test_group_join_mid_stream;
          Alcotest.test_case "leave" `Quick test_group_leave;
          Alcotest.test_case "departed member stays quiet" `Quick test_group_departed_member_quiet;
          Alcotest.test_case "eviction of silent member" `Quick test_group_eviction_of_silent_member;
          Alcotest.test_case "silent tail recovered" `Quick test_group_silent_tail_recovered;
          Alcotest.test_case "lost final message" `Quick test_group_lost_final_message;
        ]
        @ qsuite [ prop_group_total_order_under_loss ] );
      ( "capability",
        [
          Alcotest.test_case "validate" `Quick test_capability_validate;
          Alcotest.test_case "restrict" `Quick test_capability_restrict;
          Alcotest.test_case "directory service" `Quick test_directory_service;
        ]
        @ qsuite [ prop_capability_unforgeable ] );
    ]


