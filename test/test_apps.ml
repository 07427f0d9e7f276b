(* End-to-end application tests: each app, run through the full simulated
   stack on both protocol implementations, must reproduce the host-side
   sequential result exactly. *)

open Sim
open Machine
open Net

let machine_config = Core.Params.(calibrated.machine)

let make_domain ?(extra = false) n kind =
  let eng = Engine.create () in
  let total = n + if extra then 1 else 0 in
  let machines =
    Array.init total (fun i -> Mach.create eng ~id:i ~name:(Printf.sprintf "m%d" i) machine_config)
  in
  let topo = Topology.build eng ~machines () in
  let flips =
    Array.mapi (fun i _ -> Flip.Flip_iface.create machines.(i) topo.Topology.nics.(i)) machines
  in
  let worker_flips = Array.sub flips 0 n in
  let backends =
    match kind with
    | `Kernel -> Orca.Backend.kernel_stack worker_flips ()
    | `User -> Orca.Backend.user_stack worker_flips ()
    | `User_dedicated ->
      Orca.Backend.user_stack worker_flips ~dedicated_sequencer:flips.(n) ()
  in
  (eng, Orca.Rts.create_domain backends)

let run_app kind ~procs make =
  let extra = kind = `User_dedicated in
  let eng, dom = make_domain ~extra procs kind in
  let body, result = make dom in
  for rank = 0 to procs - 1 do
    ignore (Orca.Rts.spawn dom ~rank (Printf.sprintf "p%d" rank) body)
  done;
  Engine.run eng;
  (result (), Engine.now eng)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let impls = [ ("kernel", `Kernel); ("user", `User) ]

let app_cases name ~seq ~make ~procs =
  List.concat_map
    (fun (label, kind) ->
      List.map
        (fun p ->
          Alcotest.test_case (Printf.sprintf "%s P=%d [%s]" name p label) `Quick
            (fun () ->
              let result, _ = run_app kind ~procs:p make in
              check_int "matches sequential" seq result))
        procs)
    impls

let tsp_cases =
  let p = Apps.Tsp.test_params in
  app_cases "tsp" ~seq:(Apps.Tsp.sequential p)
    ~make:(fun dom -> Apps.Tsp.make dom p)
    ~procs:[ 1; 2; 4 ]

let asp_cases =
  let p = Apps.Asp.test_params in
  app_cases "asp" ~seq:(Apps.Asp.sequential p)
    ~make:(fun dom -> Apps.Asp.make dom p)
    ~procs:[ 1; 3; 4 ]

let ab_cases =
  let p = Apps.Ab.test_params in
  app_cases "ab" ~seq:(Apps.Ab.sequential p)
    ~make:(fun dom -> Apps.Ab.make dom p)
    ~procs:[ 1; 2; 4 ]

let rl_cases =
  let p = Apps.Rl.test_params in
  app_cases "rl" ~seq:(Apps.Rl.sequential p)
    ~make:(fun dom -> Apps.Rl.make dom p)
    ~procs:[ 1; 2; 4 ]

let sor_cases =
  let p = Apps.Sor.test_params in
  app_cases "sor" ~seq:(Apps.Sor.sequential p)
    ~make:(fun dom -> Apps.Sor.make dom p)
    ~procs:[ 1; 2; 4 ]

let leq_cases =
  let p = Apps.Leq.test_params in
  app_cases "leq" ~seq:(Apps.Leq.sequential p)
    ~make:(fun dom -> Apps.Leq.make dom p)
    ~procs:[ 1; 2; 4 ]

(* The dedicated-sequencer variant must also compute correct results. *)
let test_leq_dedicated () =
  let p = Apps.Leq.test_params in
  let result, _ = run_app `User_dedicated ~procs:2 (fun dom -> Apps.Leq.make dom p) in
  check_int "dedicated matches sequential" (Apps.Leq.sequential p) result

(* TSP parallel runs may find the optimum along different search paths but
   must end at the same optimal tour. *)
let test_tsp_superlinear_is_possible () =
  let p = Apps.Tsp.test_params in
  check_bool "optimum below greedy" true
    (Apps.Tsp.sequential p <= Apps.Tsp.jobs_of p * 100)

let test_decode_job_distinct () =
  let p = Apps.Tsp.test_params in
  let seen = Hashtbl.create 64 in
  let jobs = Apps.Tsp.jobs_of p in
  for _k = 0 to jobs - 1 do
    ()
  done;
  (* jobs_of counts (n-1)(n-2)... prefixes *)
  check_int "job count" ((p.Apps.Tsp.n_cities - 1) * (p.Apps.Tsp.n_cities - 2)) jobs;
  ignore seen

(* Workload generators are deterministic. *)
let test_workload_deterministic () =
  let a = Apps.Workload.dist_matrix ~seed:5 ~n:8 ~lo:1 ~hi:50 in
  let b = Apps.Workload.dist_matrix ~seed:5 ~n:8 ~lo:1 ~hi:50 in
  check_bool "same matrices" true (a = b);
  check_bool "symmetric" true
    (Array.for_all Fun.id (Array.init 8 (fun i -> Array.for_all Fun.id (Array.init 8 (fun j -> a.(i).(j) = a.(j).(i))))))

let test_block_range_covers () =
  List.iter
    (fun (n, parts) ->
      let total = ref 0 in
      for rank = 0 to parts - 1 do
        let lo, hi = Apps.Workload.block_range ~n ~parts ~rank in
        total := !total + (hi - lo);
        check_bool "ordered" true (lo <= hi)
      done;
      check_int (Printf.sprintf "covers n=%d parts=%d" n parts) n !total)
    [ (10, 3); (32, 32); (7, 8); (100, 16) ]

(* Exchange buffers respect iteration tags under both backends. *)
let test_exchange_orders_iterations () =
  List.iter
    (fun (_, kind) ->
      let eng, dom = make_domain 2 kind in
      let ex = Apps.Exchange.create dom ~name:"x" ~row_bytes:64 in
      let got = ref [] in
      ignore
        (Orca.Rts.spawn dom ~rank:0 "producer" (fun ~rank ->
             for iter = 1 to 3 do
               Apps.Exchange.put ex ~rank ~dir:`Down ~iter (Apps.Workload.Int_v (10 * iter))
             done));
      ignore
        (Orca.Rts.spawn dom ~rank:1 "consumer" (fun ~rank:_ ->
             (* Fetch out of order: tags must match regardless. *)
             List.iter
               (fun iter ->
                 match Apps.Exchange.get ex ~owner:0 ~dir:`Down ~iter with
                 | Apps.Workload.Int_v v -> got := v :: !got
                 | _ -> ())
               [ 2; 1; 3 ]));
      Engine.run eng;
      Alcotest.(check (list int)) "tagged gets" [ 20; 10; 30 ] (List.rev !got))
    impls

let test_convergence_votes () =
  List.iter
    (fun (_, kind) ->
      let eng, dom = make_domain 3 kind in
      let conv = Apps.Convergence.make dom ~name:"c" in
      let outcomes = ref [] in
      for rank = 0 to 2 do
        ignore
          (Orca.Rts.spawn dom ~rank "voter" (fun ~rank ->
               (* Round 1: only rank 1 changed -> continue.  Round 2:
                  nobody changed -> stop. *)
               let r1 = Apps.Convergence.vote conv ~iter:1 ~changed:(rank = 1) in
               let r2 = Apps.Convergence.vote conv ~iter:2 ~changed:false in
               outcomes := (rank, r1, r2) :: !outcomes))
      done;
      Engine.run eng;
      List.iter
        (fun (_, r1, r2) ->
          check_bool "round1 continues" true r1;
          check_bool "round2 stops" false r2)
        !outcomes;
      check_int "all voted" 3 (List.length !outcomes))
    impls

let () =
  Alcotest.run "apps"
    [
      ("tsp", tsp_cases @ [ Alcotest.test_case "jobs" `Quick test_decode_job_distinct;
                            Alcotest.test_case "bound sanity" `Quick test_tsp_superlinear_is_possible ]);
      ("asp", asp_cases);
      ("ab", ab_cases);
      ("rl", rl_cases);
      ("sor", sor_cases);
      ("leq", leq_cases @ [ Alcotest.test_case "dedicated" `Quick test_leq_dedicated ]);
      ( "infra",
        [
          Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "block range" `Quick test_block_range_covers;
          Alcotest.test_case "exchange tags" `Quick test_exchange_orders_iterations;
          Alcotest.test_case "convergence votes" `Quick test_convergence_votes;
        ] );
    ]
