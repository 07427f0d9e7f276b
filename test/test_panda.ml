open Sim
open Machine
open Net
open Flip

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
  sys : Panda.System_layer.t array;
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
  let sys =
    Array.mapi
      (fun i flip -> Panda.System_layer.create ~name:(Printf.sprintf "pan%d" i) flip)
      flips
  in
  { eng; machines; topo; flips; sys }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type Payload.t += Num of int

let num = function Num n -> n | _ -> Alcotest.fail "expected Num payload"

(* ------------------------------------------------------------------ *)
(* Panda RPC *)

let spawn_incr_service fx ~machine =
  let rpc = Panda.Rpc.create fx.sys.(machine) in
  let served = ref 0 in
  Panda.Rpc.set_request_handler rpc (fun ~client:_ ~size:_ payload ~reply ->
      incr served;
      reply ~size:4 (Num (num payload + 1)));
  (rpc, served)

let test_prpc_roundtrip () =
  let fx = pool 2 in
  let srpc, served = spawn_incr_service fx ~machine:1 in
  let crpc = Panda.Rpc.create fx.sys.(0) in
  let reply = ref (-1) and finished_at = ref 0 in
  ignore
    (Thread.spawn fx.machines.(0) "client" (fun () ->
         let _sz, p = Panda.Rpc.trans crpc ~dst:(Panda.Rpc.address srpc) ~size:4 (Num 41) in
         reply := num p;
         finished_at := Engine.now fx.eng));
  Engine.run fx.eng;
  check_int "reply" 42 !reply;
  check_int "served once" 1 !served;
  check_bool "latency sane (0.5ms..6ms)" true
    (!finished_at > Time.us 500 && !finished_at < Time.ms 6)

let test_prpc_user_slower_than_kernel () =
  (* The paper's headline: the user-space null RPC is slower than the
     kernel-space one, by a fraction of a millisecond. *)
  let user_latency =
    let fx = pool 2 in
    let srpc, _ = spawn_incr_service fx ~machine:1 in
    let crpc = Panda.Rpc.create fx.sys.(0) in
    let t0 = ref 0 and t1 = ref 0 in
    ignore
      (Thread.spawn fx.machines.(0) "client" (fun () ->
           (* Warm up the route caches, then measure. *)
           ignore (Panda.Rpc.trans crpc ~dst:(Panda.Rpc.address srpc) ~size:0 (Num 0));
           t0 := Engine.now fx.eng;
           ignore (Panda.Rpc.trans crpc ~dst:(Panda.Rpc.address srpc) ~size:0 (Num 0));
           t1 := Engine.now fx.eng));
    Engine.run fx.eng;
    !t1 - !t0
  in
  let kernel_latency =
    let fx = pool 2 in
    let rpc1 = Amoeba.Rpc.create fx.flips.(1) in
    let port = Amoeba.Rpc.export rpc1 ~name:"p" in
    ignore
      (Thread.spawn fx.machines.(1) ~prio:Thread.Daemon "server" (fun () ->
           for _ = 1 to 2 do
             let r = Amoeba.Rpc.get_request port in
             Amoeba.Rpc.put_reply port r ~size:0 Payload.Empty
           done));
    let crpc = Amoeba.Rpc.create fx.flips.(0) in
    let t0 = ref 0 and t1 = ref 0 in
    ignore
      (Thread.spawn fx.machines.(0) "client" (fun () ->
           ignore (Amoeba.Rpc.trans crpc ~dst:(Amoeba.Rpc.address port) ~size:0 Payload.Empty);
           t0 := Engine.now fx.eng;
           ignore (Amoeba.Rpc.trans crpc ~dst:(Amoeba.Rpc.address port) ~size:0 Payload.Empty);
           t1 := Engine.now fx.eng));
    Engine.run fx.eng;
    !t1 - !t0
  in
  check_bool
    (Printf.sprintf "user (%dns) slower than kernel (%dns)" user_latency kernel_latency)
    true
    (user_latency > kernel_latency);
  check_bool "gap under 1ms" true (user_latency - kernel_latency < Time.ms 1)

let test_prpc_async_reply_from_other_thread () =
  (* Amoeba's kernel RPC forbids this; Panda's pan_rpc_reply allows it. *)
  let fx = pool 2 in
  let srpc = Panda.Rpc.create fx.sys.(1) in
  let stash = ref None in
  Panda.Rpc.set_request_handler srpc (fun ~client:_ ~size:_ payload ~reply ->
      (* Don't reply now: park the continuation. *)
      stash := Some (payload, reply));
  ignore
    (Thread.spawn fx.machines.(1) "replier" (fun () ->
         while !stash = None do
           Thread.sleep (Time.us 200)
         done;
         match !stash with
         | Some (payload, reply) -> reply ~size:4 (Num (num payload * 2))
         | None -> ()));
  let crpc = Panda.Rpc.create fx.sys.(0) in
  let reply = ref (-1) in
  ignore
    (Thread.spawn fx.machines.(0) "client" (fun () ->
         let _sz, p = Panda.Rpc.trans crpc ~dst:(Panda.Rpc.address srpc) ~size:4 (Num 21) in
         reply := num p));
  Engine.run fx.eng;
  check_int "async reply works" 42 !reply

let test_prpc_piggyback_acks () =
  let fx = pool 2 in
  let srpc, served = spawn_incr_service fx ~machine:1 in
  let crpc = Panda.Rpc.create fx.sys.(0) in
  ignore
    (Thread.spawn fx.machines.(0) "client" (fun () ->
         for i = 1 to 5 do
           ignore (Panda.Rpc.trans crpc ~dst:(Panda.Rpc.address srpc) ~size:4 (Num i))
         done));
  Engine.run fx.eng;
  check_int "served" 5 !served;
  (* Replies 1..4 are acknowledged by piggybacking on requests 2..5; only
     the last reply needs an explicit ack after the timeout. *)
  check_int "one explicit ack" 1 (Panda.Rpc.explicit_acks crpc)

let test_prpc_loss_recovery () =
  let fx = pool 2 in
  let srpc, served = spawn_incr_service fx ~machine:1 in
  let crpc = Panda.Rpc.create fx.sys.(0) in
  let rng = Rng.create ~seed:424242 in
  Segment.set_fault_injector fx.topo.Topology.segments.(0)
    (Some
       (fun frame ->
         match frame.Frame.payload with
         | Flip_iface.Data _ -> Rng.int rng 100 < 20
         | _ -> false));
  let replies = ref [] in
  let n = 10 in
  ignore
    (Thread.spawn fx.machines.(0) "client" (fun () ->
         for i = 1 to n do
           let _sz, p = Panda.Rpc.trans crpc ~dst:(Panda.Rpc.address srpc) ~size:4 (Num i) in
           replies := num p :: !replies
         done));
  Engine.run fx.eng;
  check_int "all served exactly once" n !served;
  Alcotest.(check (list int))
    "replies in order"
    (List.init n (fun i -> i + 2))
    (List.rev !replies)

let test_prpc_large_message () =
  let fx = pool 2 in
  let srpc, _served = spawn_incr_service fx ~machine:1 in
  let crpc = Panda.Rpc.create fx.sys.(0) in
  let ok = ref false in
  ignore
    (Thread.spawn fx.machines.(0) "client" (fun () ->
         let _sz, p = Panda.Rpc.trans crpc ~dst:(Panda.Rpc.address srpc) ~size:8000 (Num 3) in
         ok := num p = 4));
  Engine.run fx.eng;
  check_bool "8KB rpc ok" true !ok

(* ------------------------------------------------------------------ *)
(* Panda group *)

let attach_logs members =
  Array.map
    (fun m ->
      let log = ref [] in
      Panda.Group.set_handler m (fun ~sender ~size:_ payload ->
          log := (sender, num payload) :: !log);
      log)
    members

let test_pgroup_basic () =
  let fx = pool 2 in
  let _grp, members =
    Panda.Group.create_static ~name:"g" ~sequencer:(Panda.Group.On_member 1) fx.sys
  in
  let logs = attach_logs members in
  let send_done = ref false in
  ignore
    (Thread.spawn fx.machines.(0) "sender" (fun () ->
         Panda.Group.send members.(0) ~size:100 (Num 7);
         send_done := true));
  Engine.run fx.eng;
  check_bool "send returned" true !send_done;
  Alcotest.(check (list (pair int int))) "m0" [ (0, 7) ] !(logs.(0));
  Alcotest.(check (list (pair int int))) "m1" [ (0, 7) ] !(logs.(1))

let test_pgroup_total_order () =
  let fx = pool 4 in
  let _grp, members =
    Panda.Group.create_static ~name:"g" ~sequencer:(Panda.Group.On_member 0) fx.sys
  in
  let logs = attach_logs members in
  let n_each = 5 in
  for s = 1 to 3 do
    ignore
      (Thread.spawn fx.machines.(s) (Printf.sprintf "sender%d" s) (fun () ->
           for i = 1 to n_each do
             Panda.Group.send members.(s) ~size:64 (Num ((100 * s) + i))
           done))
  done;
  Engine.run fx.eng;
  let seq0 = List.rev !(logs.(0)) in
  check_int "all delivered" (3 * n_each) (List.length seq0);
  Array.iteri
    (fun i log ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member %d agrees" i)
        seq0
        (List.rev !log))
    logs

let test_pgroup_large_bb () =
  let fx = pool 3 in
  let _grp, members =
    Panda.Group.create_static ~name:"g" ~sequencer:(Panda.Group.On_member 0) fx.sys
  in
  let logs = attach_logs members in
  ignore
    (Thread.spawn fx.machines.(2) "sender" (fun () ->
         Panda.Group.send members.(2) ~size:8000 (Num 11)));
  Engine.run fx.eng;
  Array.iter
    (fun log -> Alcotest.(check (list (pair int int))) "delivery" [ (2, 11) ] !log)
    logs

let test_pgroup_dedicated_sequencer () =
  let fx = pool 3 in
  (* Machine 2 is sacrificed to the sequencer; members live on 0 and 1. *)
  let member_sys = [| fx.sys.(0); fx.sys.(1) |] in
  let _grp, members =
    Panda.Group.create_static ~name:"g"
      ~sequencer:(Panda.Group.Dedicated fx.sys.(2))
      member_sys
  in
  let logs = attach_logs members in
  ignore
    (Thread.spawn fx.machines.(0) "sender" (fun () ->
         for i = 1 to 3 do
           Panda.Group.send members.(0) ~size:64 (Num i)
         done));
  Engine.run fx.eng;
  Array.iter
    (fun log ->
      Alcotest.(check (list (pair int int)))
        "ordered delivery"
        [ (0, 1); (0, 2); (0, 3) ]
        (List.rev !log))
    logs

let test_pgroup_nonblocking_send () =
  let fx = pool 2 in
  let _grp, members =
    Panda.Group.create_static ~name:"g" ~sequencer:(Panda.Group.On_member 1) fx.sys
  in
  let logs = attach_logs members in
  let returned_at = ref 0 in
  ignore
    (Thread.spawn fx.machines.(0) "sender" (fun () ->
         Panda.Group.send_nonblocking members.(0) ~size:64 (Num 1);
         returned_at := Engine.now fx.eng));
  Engine.run fx.eng;
  (* The nonblocking send returns before the sequencer round trip (well
     under the ~1.7ms blocking latency) yet the message is delivered. *)
  check_bool "returned early" true (!returned_at < Time.us 900);
  Alcotest.(check (list (pair int int))) "delivered" [ (0, 1) ] !(logs.(0));
  Alcotest.(check (list (pair int int))) "delivered remote" [ (0, 1) ] !(logs.(1))

let test_pgroup_loss_recovery () =
  let fx = pool 3 in
  let grp, members =
    Panda.Group.create_static ~name:"g" ~sequencer:(Panda.Group.On_member 0) fx.sys
  in
  let logs = attach_logs members in
  let rng = Rng.create ~seed:77 in
  Segment.set_fault_injector fx.topo.Topology.segments.(0)
    (Some
       (fun frame ->
         match frame.Frame.payload with
         | Flip_iface.Data _ -> Rng.int rng 100 < 15
         | _ -> false));
  let n = 8 in
  ignore
    (Thread.spawn fx.machines.(1) "sender" (fun () ->
         for i = 1 to n do
           Panda.Group.send members.(1) ~size:64 (Num i)
         done));
  Engine.run fx.eng;
  check_bool "retransmissions happened" true (Panda.Group.retransmissions grp >= 0);
  Array.iteri
    (fun i log ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member %d complete ordered delivery" i)
        (List.init n (fun k -> (1, k + 1)))
        (List.rev !log))
    logs

let test_pgroup_lost_final_message () =
  (* The run's last broadcast is lost on the far side of the switch only;
     the user-space sequencer's catch-up rounds must repair it. *)
  let fx = pool ~per_segment:2 4 in
  let _grp, members =
    Panda.Group.create_static ~name:"g" ~sequencer:(Panda.Group.On_member 0) fx.sys
  in
  let logs = attach_logs members in
  let n = 3 in
  let spec = Result.get_ok (Faults.Spec.parse "swpart=0.1+0.05") in
  let faults = Faults.Inject.install fx.eng fx.topo spec in
  ignore
    (Thread.spawn fx.machines.(1) "sender" (fun () ->
         for i = 1 to n do
           if i = n then Thread.sleep (Time.ms 100 - Engine.now fx.eng);
           Panda.Group.send members.(1) ~size:32 (Num i)
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

let test_pgroup_user_slower_than_kernel () =
  (* Group latency: kernel sequencer (interrupt context) beats the
     user-space sequencer thread. *)
  let measure_user () =
    let fx = pool 2 in
    let _grp, members =
      Panda.Group.create_static ~name:"g" ~sequencer:(Panda.Group.On_member 1) fx.sys
    in
    Array.iter (fun m -> Panda.Group.set_handler m (fun ~sender:_ ~size:_ _ -> ())) members;
    let t0 = ref 0 and t1 = ref 0 in
    ignore
      (Thread.spawn fx.machines.(0) "sender" (fun () ->
           Panda.Group.send members.(0) ~size:0 (Num 0);
           t0 := Engine.now fx.eng;
           Panda.Group.send members.(0) ~size:0 (Num 0);
           t1 := Engine.now fx.eng));
    Engine.run fx.eng;
    !t1 - !t0
  in
  let measure_kernel () =
    let fx = pool 2 in
    let _grp, members = Amoeba.Group.create_static ~name:"g" ~sequencer:1 fx.flips in
    Array.iteri
      (fun i m ->
        ignore
          (Thread.spawn fx.machines.(i) ~prio:Thread.Daemon "recv" (fun () ->
               for _ = 1 to 2 do
                 ignore (Amoeba.Group.receive m)
               done)))
      members;
    let t0 = ref 0 and t1 = ref 0 in
    ignore
      (Thread.spawn fx.machines.(0) "sender" (fun () ->
           Amoeba.Group.send members.(0) ~size:0 (Num 0);
           t0 := Engine.now fx.eng;
           Amoeba.Group.send members.(0) ~size:0 (Num 0);
           t1 := Engine.now fx.eng));
    Engine.run fx.eng;
    !t1 - !t0
  in
  let user = measure_user () and kernel = measure_kernel () in
  check_bool
    (Printf.sprintf "user group (%dns) slower than kernel (%dns)" user kernel)
    true (user > kernel);
  check_bool "gap under 1ms" true (user - kernel < Time.ms 1)

let test_pgroup_silent_tail_recovered () =
  (* Same as the kernel-group silent-tail case: the last ordered multicast
     is lost repeatedly; the user-space sequencer's catch-up rounds must
     repair the members that missed it. *)
  let fx = pool 3 in
  let grp, members =
    Panda.Group.create_static ~name:"g" ~sequencer:(Panda.Group.On_member 0) fx.sys
  in
  let logs = attach_logs members in
  let n = 3 in
  let drops = ref 0 in
  Segment.set_fault_injector fx.topo.Topology.segments.(0)
    (Some
       (fun frame ->
         match frame.Frame.payload with
         | Flip_iface.Data f -> (
             match Panda.System_layer.unwrap f with
             | Some pan -> (
                 match pan.Fragment.payload with
                 | Total_order.Ordered { e_seq; _ }
                   when e_seq = n - 1 && frame.Frame.dest = Frame.Multicast && !drops < 4 ->
                   incr drops;
                   true
                 | _ -> false)
             | None -> false)
         | _ -> false));
  ignore
    (Thread.spawn fx.machines.(1) "sender" (fun () ->
         for i = 1 to n do
           Panda.Group.send members.(1) ~size:32 (Num i)
         done));
  Engine.run fx.eng;
  check_bool "tail multicasts lost" true (!drops >= 2);
  Array.iteri
    (fun i log ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member %d complete" i)
        (List.init n (fun k -> (1, k + 1)))
        (List.rev !log))
    logs;
  check_int "all ordered" n (Panda.Group.messages_ordered grp)

(* ------------------------------------------------------------------ *)
(* Optimized stack: differential properties against the baseline *)

(* One sender, one receiver, a custom FLIP MTU and a custom system-layer
   config; returns the delivered messages in order and the sender's FLIP
   packet count. *)
let run_delivery ~mtu ~sys_config ~sizes =
  let eng = Engine.create () in
  let machines =
    Array.init 2 (fun i -> Mach.create eng ~id:i ~name:(Printf.sprintf "m%d" i) machine_config)
  in
  let topo = Topology.build eng ~machines () in
  let flip_config = { Flip_iface.default_config with Flip_iface.mtu } in
  let flips =
    Array.mapi
      (fun i _ -> Flip_iface.create machines.(i) ~config:flip_config topo.Topology.nics.(i))
      machines
  in
  let sys =
    Array.mapi
      (fun i flip ->
        Panda.System_layer.create ~config:sys_config ~name:(Printf.sprintf "pan%d" i) flip)
      flips
  in
  let delivered = ref [] in
  Panda.System_layer.add_handler sys.(1) (fun ~src:_ ~size payload ->
      delivered := (size, payload) :: !delivered;
      true);
  ignore
    (Thread.spawn machines.(0) "sender" (fun () ->
         List.iteri
           (fun i size ->
             Panda.System_layer.send sys.(0)
               ~dst:(Panda.System_layer.address sys.(1))
               ~size (Num i))
           sizes));
  Engine.run eng;
  ( List.rev !delivered,
    Flip_iface.packets_out flips.(0),
    Panda.System_layer.fastpath_deliveries sys.(1) )

let optimized_config =
  { Panda.System_layer.default_config with single_frag = true; sg_copy = true; rx_fastpath = true }

(* The tentpole differential: for random sizes and MTUs the optimized path
   delivers byte-identical payloads with identical message boundaries, and
   its fragments are sized so FLIP never re-fragments — the sender's FLIP
   packet count is exactly [ceil (size / panda_mtu)] per message. *)
let prop_optimized_differential =
  QCheck.Test.make ~count:60 ~name:"optimized = baseline deliveries, single fragmentation"
    QCheck.(
      pair
        (int_range 100 4000) (* FLIP MTU *)
        (list_of_size Gen.(1 -- 3) (int_range 0 20_000) (* message sizes *)))
    (fun (mtu, sizes) ->
      QCheck.assume (mtu > 16 + 1);
      let base, _, base_fast = run_delivery ~mtu ~sys_config:Panda.System_layer.default_config ~sizes in
      let opt, opt_packets, _ = run_delivery ~mtu ~sys_config:optimized_config ~sizes in
      (* Byte-identical deliveries: same boundaries, sizes and payloads in
         the same order. *)
      if base <> opt then QCheck.Test.fail_report "optimized deliveries differ from baseline";
      if base_fast <> 0 then QCheck.Test.fail_report "baseline used the fast path";
      (* Never FLIP-level re-fragmentation: every Panda fragment is one
         FLIP packet, so the sender's packet count is the sum of
         ceil(size / panda_mtu) over the messages. *)
      let panda_mtu = mtu - Panda.System_layer.default_config.Panda.System_layer.pan_header in
      let expect =
        List.fold_left
          (fun acc size -> acc + max 1 ((size + panda_mtu - 1) / panda_mtu))
          0 sizes
      in
      if opt_packets <> expect then
        QCheck.Test.fail_reportf "FLIP packets %d, expected %d (mtu=%d sizes=%s)" opt_packets
          expect mtu
          (String.concat "," (List.map string_of_int sizes));
      true)

let test_optimized_fastpath_counter () =
  (* Single-fragment messages take the receive fast path; multi-fragment
     ones keep the daemon (the paper's protocol structure is preserved). *)
  let single, _, fast1 =
    run_delivery ~mtu:1460 ~sys_config:optimized_config ~sizes:[ 100; 200 ]
  in
  check_int "both delivered" 2 (List.length single);
  check_int "both via fast path" 2 fast1;
  let multi, _, fast2 = run_delivery ~mtu:1460 ~sys_config:optimized_config ~sizes:[ 8000 ] in
  check_int "multi-fragment delivered" 1 (List.length multi);
  check_int "multi-fragment kept the daemon path" 0 fast2

let () =
  Alcotest.run "panda"
    [
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_prpc_roundtrip;
          Alcotest.test_case "user slower than kernel" `Quick test_prpc_user_slower_than_kernel;
          Alcotest.test_case "async reply" `Quick test_prpc_async_reply_from_other_thread;
          Alcotest.test_case "piggyback acks" `Quick test_prpc_piggyback_acks;
          Alcotest.test_case "loss recovery" `Quick test_prpc_loss_recovery;
          Alcotest.test_case "large message" `Quick test_prpc_large_message;
        ] );
      ( "group",
        [
          Alcotest.test_case "basic" `Quick test_pgroup_basic;
          Alcotest.test_case "total order" `Quick test_pgroup_total_order;
          Alcotest.test_case "large (BB)" `Quick test_pgroup_large_bb;
          Alcotest.test_case "dedicated sequencer" `Quick test_pgroup_dedicated_sequencer;
          Alcotest.test_case "nonblocking send" `Quick test_pgroup_nonblocking_send;
          Alcotest.test_case "loss recovery" `Quick test_pgroup_loss_recovery;
          Alcotest.test_case "silent tail recovered" `Quick test_pgroup_silent_tail_recovered;
          Alcotest.test_case "lost final message" `Quick test_pgroup_lost_final_message;
          Alcotest.test_case "user slower than kernel" `Quick test_pgroup_user_slower_than_kernel;
        ] );
      ( "optimized",
        [
          QCheck_alcotest.to_alcotest prop_optimized_differential;
          Alcotest.test_case "fast-path counter" `Quick test_optimized_fastpath_counter;
        ] );
    ]
