module Thread = Machine.Thread
module Mach = Machine.Mach
module Cpu = Machine.Cpu

type Sim.Payload.t += Ping

let warmup_rounds = 2
let measure_rounds = 10
let latency_rounds = warmup_rounds + measure_rounds

(* Every experiment below decomposes into independent simulations (cells);
   [run_cells] evaluates them in input order — sequentially without a
   pool (today's exact code path), concurrently with one.  Each cell
   builds its own engine and machines, so cells share no mutable state
   and the results are identical either way. *)
let run_cells ?pool thunks =
  match pool with
  | None -> List.map (fun f -> f ()) thunks
  | Some p -> Exec.Pool.map_list p (fun f -> f ()) thunks

(* A grid of cells, [cell outer inner] for every pair, fanned out as one
   flat list and regrouped by outer key: [(outer, [(inner, result)])], in
   input order. *)
let run_grid ?pool outers inners cell =
  let results =
    Array.of_list
      (run_cells ?pool
         (List.concat_map (fun o -> List.map (fun i () -> cell o i) inners) outers))
  in
  let n = List.length inners in
  List.mapi
    (fun k o -> (o, List.mapi (fun j i -> (i, results.((k * n) + j))) inners))
    outers

(* ------------------------------------------------------------------ *)
(* The microbenchmarks' testbed: [n] machines on one segment, built by
   [Cell] like every other cell, and the costs [impl]'s protocols run
   under.  The pool has no extra machine for a dedicated sequencer. *)
let micro_cell ?faults ?net ?costs ~n impl =
  if impl = Cluster.User_dedicated then
    invalid_arg "Experiments: the microbenchmark pool has no dedicated sequencer machine";
  let cluster =
    Cell.cluster (Cell.create ?faults ?net ?costs ~n (Cluster.Rpc_stack impl))
  in
  (cluster, Cluster.stack_costs cluster impl)

let system_layers costs flips =
  Array.mapi
    (fun i flip ->
      Panda.System_layer.create ~config:costs.Params.panda_system
        ~name:(Printf.sprintf "s%d" i) flip)
    flips

(* Simulated time of a run's measured rounds: from the end of the last
   warmup round to the end of round [rounds].  [marks] holds the end of
   every round, oldest first. *)
let measured_span ?(rounds = latency_rounds) marks =
  List.nth marks (rounds - 1) - List.nth marks (warmup_rounds - 1)

let per_round to_unit marks =
  to_unit (measured_span marks) /. float_of_int measure_rounds

(* ------------------------------------------------------------------ *)
(* Table 1: system-layer unicast/multicast (user space only) *)

(* Ping-pong between the two system-layer daemons: replies are sent from
   within the upcall, so no context switch is in the measured path beyond
   the daemon dispatch itself (paper §4.1). *)
let raw_pingpong ?faults ?net ~mcast ~size () =
  let cluster, costs = micro_cell ?faults ?net ~n:2 Cluster.User in
  let eng = cluster.Cluster.eng and flips = cluster.Cluster.flips in
  let sys = system_layers costs flips in
  let gaddr = Flip.Address.fresh_group eng in
  if mcast then
    Array.iteri
      (fun i flip ->
        Flip.Flip_iface.register flip gaddr (fun frag ->
            (* The benchmark driver filters its own looped-back multicasts
               before they reach the daemon. *)
            if not (Flip.Address.equal frag.Flip.Fragment.src (Panda.System_layer.address sys.(i)))
            then
              match Panda.System_layer.unwrap frag with
              | Some pan -> Panda.System_layer.inject sys.(i) pan
              | None -> ()))
      flips;
  let t_start = ref Sim.Time.zero and t_end = ref Sim.Time.zero and count = ref 0 in
  let send_from_daemon i =
    if mcast then Panda.System_layer.mcast_from_daemon sys.(i) ~group:gaddr ~size Ping
    else
      Panda.System_layer.send_from_daemon sys.(i)
        ~dst:(Panda.System_layer.address sys.(1 - i))
        ~size Ping
  in
  Array.iteri
    (fun i s ->
      Panda.System_layer.add_handler s (fun ~src ~size:_ payload ->
          match payload with
          | Ping when Flip.Address.equal src (Panda.System_layer.address s) ->
            true (* own multicast looped back *)
          | Ping ->
            if i = 0 then begin
              incr count;
              if !count = warmup_rounds then t_start := Sim.Engine.now eng;
              if !count = latency_rounds then t_end := Sim.Engine.now eng
              else send_from_daemon 0
            end
            else send_from_daemon 1;
            true
          | _ -> false))
    sys;
  ignore
    (Thread.spawn cluster.Cluster.machines.(0) "starter" (fun () ->
         if mcast then Panda.System_layer.mcast sys.(0) ~group:gaddr ~size Ping
         else
           Panda.System_layer.send sys.(0)
             ~dst:(Panda.System_layer.address sys.(1))
             ~size Ping));
  Sim.Engine.run eng;
  (* Each round is two one-way messages. *)
  Sim.Time.to_ms (!t_end - !t_start) /. float_of_int (2 * measure_rounds)

let unicast_latency ?faults ?net ~size () = raw_pingpong ?faults ?net ~mcast:false ~size ()
let multicast_latency ?faults ?net ~size () = raw_pingpong ?faults ?net ~mcast:true ~size ()

(* ------------------------------------------------------------------ *)
(* Table 1: RPC and group latency *)

(* When a recorder is supplied, [window] selects what it sees: [`Measured]
   installs it from the start of the first measured round to the end of the
   last one (warmup and post-run drain excluded, matching the latency
   window); [`Whole] records the entire run, so the ledger can be compared
   against total CPU busy time. *)
let record_round recorder window i =
  match (recorder, window) with
  | Some r, `Measured when i = warmup_rounds + 1 -> Obs.Recorder.install r
  | _ -> ()

let record_done recorder window =
  match (recorder, window) with
  | Some _, `Measured -> Obs.Recorder.uninstall ()
  | _ -> ()

(* A null-RPC server on rank 1; returns rank 0's call. *)
let rpc_round ~size ~rounds impl cluster costs =
  let flips = cluster.Cluster.flips in
  match impl with
  | Cluster.Kernel ->
    let srpc = Amoeba.Rpc.create ~config:costs.Params.amoeba_rpc flips.(1) in
    let port = Amoeba.Rpc.export srpc ~name:"bench" in
    ignore
      (Thread.spawn cluster.Cluster.machines.(1) ~prio:Thread.Daemon "server" (fun () ->
           for _ = 1 to rounds do
             let r = Amoeba.Rpc.get_request port in
             Amoeba.Rpc.put_reply port r ~size:0 Sim.Payload.Empty
           done));
    let crpc = Amoeba.Rpc.create ~config:costs.Params.amoeba_rpc flips.(0) in
    fun () -> ignore (Amoeba.Rpc.trans crpc ~dst:(Amoeba.Rpc.address port) ~size Ping)
  | _ ->
    let sys = system_layers costs flips in
    let srpc = Panda.Rpc.create ~config:costs.Params.panda_rpc sys.(1) in
    Panda.Rpc.set_request_handler srpc (fun ~client:_ ~size:_ _ ~reply ->
        reply ~size:0 Sim.Payload.Empty);
    let crpc = Panda.Rpc.create ~config:costs.Params.panda_rpc sys.(0) in
    fun () -> ignore (Panda.Rpc.trans crpc ~dst:(Panda.Rpc.address srpc) ~size Ping)

(* A two-member group whose sequencer is on rank 1, as in the paper's
   measurement; returns rank 0's send. *)
let group_round ~size ~rounds impl cluster costs =
  let flips = cluster.Cluster.flips in
  match impl with
  | Cluster.Kernel ->
    let _grp, members =
      Amoeba.Group.create_static ~config:costs.Params.amoeba_group ~name:"bench"
        ~sequencer:1 flips
    in
    Array.iteri
      (fun i m ->
        ignore
          (Thread.spawn cluster.Cluster.machines.(i) ~prio:Thread.Daemon "recv" (fun () ->
               for _ = 1 to rounds do
                 ignore (Amoeba.Group.receive m)
               done)))
      members;
    fun () -> Amoeba.Group.send members.(0) ~size Ping
  | _ ->
    let sys = system_layers costs flips in
    let _grp, members =
      Panda.Group.create_static ~config:costs.Params.panda_group ~name:"bench"
        ~sequencer:(Panda.Group.On_member 1) sys
    in
    Array.iter
      (fun m -> Panda.Group.set_handler m (fun ~sender:_ ~size:_ _ -> ()))
      members;
    fun () -> Panda.Group.send members.(0) ~size Ping

(* One [`Rpc] or [`Group] benchmark on a two-machine pool: a thread on
   rank 0 runs [rounds] rounds and marks the end of each.  Returns the
   marks, oldest first, and the machines. *)
let micro_run ?recorder ?(window = `Measured) ?faults ?net ?costs ~proto ~impl ~size
    ~rounds () =
  let cluster, costs = micro_cell ?faults ?net ?costs ~n:2 impl in
  let eng = cluster.Cluster.eng and machines = cluster.Cluster.machines in
  let marks = ref [] in
  let run () =
    let name, round =
      match proto with
      | `Rpc -> ("client", rpc_round ~size ~rounds impl cluster costs)
      | `Group -> ("sender", group_round ~size ~rounds impl cluster costs)
    in
    ignore
      (Thread.spawn machines.(0) name (fun () ->
           for i = 1 to rounds do
             record_round recorder window i;
             round ();
             marks := Sim.Engine.now eng :: !marks
           done;
           record_done recorder window));
    Sim.Engine.run eng
  in
  (match (recorder, window) with
   | Some r, `Whole ->
     Obs.Recorder.install r;
     run ();
     Obs.Recorder.uninstall ()
   | _ -> run ());
  (List.rev !marks, machines)

let latency_ms ?faults ?net ?costs ~proto ~impl ~size () =
  per_round Sim.Time.to_ms
    (fst (micro_run ?faults ?net ?costs ~proto ~impl ~size ~rounds:latency_rounds ()))

let rpc_latency ?faults ?net ~impl ~size () =
  latency_ms ?faults ?net ~proto:`Rpc ~impl ~size ()

let group_latency ?faults ?net ~impl ~size () =
  latency_ms ?faults ?net ~proto:`Group ~impl ~size ()

type lat_row = {
  lr_size : int;
  lr_unicast : float;
  lr_multicast : float;
  lr_rpc_user : float;
  lr_rpc_kernel : float;
  lr_grp_user : float;
  lr_grp_kernel : float;
  lr_rpc_opt : float;
  lr_grp_opt : float;
}

let table1_sizes = [ 0; 1024; 2048; 3072; 4096 ]

let table1 ?pool ?faults ?net ?(sizes = table1_sizes) () =
  (* One cell per (size, column): 8 independent simulations per row. *)
  let cells =
    List.concat_map
      (fun size ->
        [
          (fun () -> unicast_latency ?faults ?net ~size ());
          (fun () -> multicast_latency ?faults ?net ~size ());
          (fun () -> rpc_latency ?faults ?net ~impl:Cluster.User ~size ());
          (fun () -> rpc_latency ?faults ?net ~impl:Cluster.Kernel ~size ());
          (fun () -> group_latency ?faults ?net ~impl:Cluster.User ~size ());
          (fun () -> group_latency ?faults ?net ~impl:Cluster.Kernel ~size ());
          (fun () -> rpc_latency ?faults ?net ~impl:Cluster.User_optimized ~size ());
          (fun () -> group_latency ?faults ?net ~impl:Cluster.User_optimized ~size ());
        ])
      sizes
  in
  let rec rows sizes vals =
    match (sizes, vals) with
    | [], [] -> []
    | size :: sizes, u :: m :: ru :: rk :: gu :: gk :: ro :: go :: vals ->
      {
        lr_size = size;
        lr_unicast = u;
        lr_multicast = m;
        lr_rpc_user = ru;
        lr_rpc_kernel = rk;
        lr_grp_user = gu;
        lr_grp_kernel = gk;
        lr_rpc_opt = ro;
        lr_grp_opt = go;
      }
      :: rows sizes vals
    | _ -> assert false
  in
  rows sizes (run_cells ?pool cells)

(* ------------------------------------------------------------------ *)
(* Table 2: throughput *)

let rpc_throughput ?faults ?net ~impl () =
  let rounds = 40 in
  let size = 8000 in
  let marks, _ = micro_run ?faults ?net ~proto:`Rpc ~impl ~size ~rounds () in
  let secs = Sim.Time.to_sec (measured_span ~rounds marks) in
  float_of_int ((rounds - warmup_rounds) * size) /. secs /. 1024.

(* Several members stream large messages concurrently, saturating the
   Ethernet; throughput is the ordered goodput. *)
let group_throughput ?faults ?net ~impl () =
  let n = 4 in
  let per_member = 12 in
  let size = 8000 in
  let cluster, costs = micro_cell ?faults ?net ~n impl in
  let eng = cluster.Cluster.eng and machines = cluster.Cluster.machines in
  let total = n * per_member in
  let done_at = ref Sim.Time.zero in
  let delivered = ref 0 in
  let note_delivery () =
    incr delivered;
    if !delivered = total * n then done_at := Sim.Engine.now eng
  in
  (match impl with
   | Cluster.Kernel ->
     let _grp, members =
       Amoeba.Group.create_static ~config:costs.Params.amoeba_group ~name:"tput"
         ~sequencer:0 cluster.Cluster.flips
     in
     Array.iteri
       (fun i m ->
         ignore
           (Thread.spawn machines.(i) ~prio:Thread.Daemon "recv" (fun () ->
                for _ = 1 to total do
                  ignore (Amoeba.Group.receive m);
                  note_delivery ()
                done)))
       members;
     Array.iteri
       (fun i m ->
         ignore
           (Thread.spawn machines.(i) "sender" (fun () ->
                for _ = 1 to per_member do
                  Amoeba.Group.send m ~size Ping
                done)))
       members
   | _ ->
     let sys = system_layers costs cluster.Cluster.flips in
     let _grp, members =
       Panda.Group.create_static ~config:costs.Params.panda_group ~name:"tput"
         ~sequencer:(Panda.Group.On_member 0) sys
     in
     Array.iter
       (fun m ->
         Panda.Group.set_handler m (fun ~sender:_ ~size:_ _ -> note_delivery ()))
       members;
     Array.iteri
       (fun i m ->
         ignore
           (Thread.spawn machines.(i) "sender" (fun () ->
                for _ = 1 to per_member do
                  Panda.Group.send m ~size Ping
                done)))
       members);
  Sim.Engine.run eng;
  let secs = Sim.Time.to_sec !done_at in
  float_of_int (total * size) /. secs /. 1024.

type tput_row = {
  tr_proto : string;
  tr_user : float;
  tr_kernel : float;
  tr_opt : float;
}

let table2 ?pool ?faults ?net () =
  match
    run_cells ?pool
      [
        (fun () -> rpc_throughput ?faults ?net ~impl:Cluster.User ());
        (fun () -> rpc_throughput ?faults ?net ~impl:Cluster.Kernel ());
        (fun () -> group_throughput ?faults ?net ~impl:Cluster.User ());
        (fun () -> group_throughput ?faults ?net ~impl:Cluster.Kernel ());
        (fun () -> rpc_throughput ?faults ?net ~impl:Cluster.User_optimized ());
        (fun () -> group_throughput ?faults ?net ~impl:Cluster.User_optimized ());
      ]
  with
  | [ ru; rk; gu; gk; ro; go ] ->
    [
      { tr_proto = "RPC"; tr_user = ru; tr_kernel = rk; tr_opt = ro };
      { tr_proto = "group"; tr_user = gu; tr_kernel = gk; tr_opt = go };
    ]
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Table 3 *)

let table3 ?pool ?faults ?checked ?net ?(procs = [ 1; 8; 16; 32 ]) ?app_names () =
  let apps =
    match app_names with
    | None -> Runner.apps
    | Some names -> List.map Runner.app_named names
  in
  let cells =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun p ->
            let impls =
              if app.Runner.app_name = "leq" then
                [ Cluster.Kernel; Cluster.User; Cluster.User_dedicated; Cluster.User_optimized ]
              else [ Cluster.Kernel; Cluster.User; Cluster.User_optimized ]
            in
            List.map (fun impl -> (impl, p, app)) impls)
          procs)
      apps
  in
  Runner.run_many ?pool ?faults ?checked ?net cells

(* ------------------------------------------------------------------ *)
(* Breakdowns: re-measure the user/kernel gap with one mechanism at a
   time made free, mirroring the paper's §4.2/§4.3 accounting. *)

let null_rpc_gap ?net costs =
  let user = latency_ms ?net ~costs ~proto:`Rpc ~impl:Cluster.User ~size:0 () in
  let kernel = latency_ms ?net ~costs ~proto:`Rpc ~impl:Cluster.Kernel ~size:0 () in
  (user -. kernel) *. 1000.

let no_ctx_switches c =
  { c with
    Params.machine =
      { c.Params.machine with Mach.ctx_warm = 0; ctx_cold_idle = 0; ctx_cold_preempt = 0 } }

let no_traps c = { c with Params.machine = { c.Params.machine with Mach.trap_cost = 0 } }

let no_double_frag c =
  { c with
    Params.panda_system = { c.Params.panda_system with Panda.System_layer.frag_cost = 0 } }

let equal_headers_rpc c =
  { c with
    Params.panda_rpc =
      { c.Params.panda_rpc with
        Panda.Rpc.header_bytes = c.Params.amoeba_rpc.Amoeba.Rpc.header_bytes } }

let equal_headers_group c =
  { c with
    Params.panda_group =
      { c.Params.panda_group with
        Panda.Group.header_bytes = c.Params.amoeba_group.Amoeba.Group.header_bytes } }

let no_flip_extra c =
  { c with
    Params.panda_system =
      { c.Params.panda_system with Panda.System_layer.user_flip_extra = 0 } }

(* The RPC gap decomposes cleanly as a differential (re-measure the gap
   with one mechanism free at a time). *)
let rpc_breakdown ?pool ?net () =
  let labelled =
    [
      ("context switches", no_ctx_switches);
      ("register-window traps", no_traps);
      ("double fragmentation", no_double_frag);
      ("header size difference", equal_headers_rpc);
      ("untuned user-level FLIP interface", no_flip_extra);
    ]
  in
  let gaps =
    run_cells ?pool
      ((fun () -> null_rpc_gap ?net Params.calibrated)
       :: List.map
            (fun (_, transform) () -> null_rpc_gap ?net (transform Params.calibrated))
            labelled)
  in
  match gaps with
  | base :: rest ->
    ("total user-kernel gap", base)
    :: List.map2 (fun (label, _) gap -> (label, base -. gap)) labelled rest
  | [] -> assert false

(* The group paths interleave with the wire on both sides, so differential
   gaps are unstable; decompose the user-space latency itself instead (how
   much of it each mechanism costs), next to the measured total gap. *)
let group_breakdown ?pool ?net () =
  let user transform () =
    latency_ms ?net ~costs:(transform Params.calibrated) ~proto:`Group
      ~impl:Cluster.User ~size:0 ()
    *. 1000.
  in
  let kernel () = group_latency ?net ~impl:Cluster.Kernel ~size:0 () *. 1000. in
  match
    run_cells ?pool
      [
        user Fun.id;
        kernel;
        user no_ctx_switches;
        user no_traps;
        user no_double_frag;
        user equal_headers_group;
        user no_flip_extra;
      ]
  with
  | [ base; kern; ctx; traps; frag; hdr; flip ] ->
    [
      ("total user-kernel gap", base -. kern);
      ("context switches (user path)", base -. ctx);
      ("register-window traps (user path)", base -. traps);
      ("double fragmentation (user path)", base -. frag);
      ("header size difference", base -. hdr);
      ("untuned user-level FLIP interface (user path)", base -. flip);
    ]
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Measured breakdowns: the same accounting derived from the observability
   ledger of two recorded null-latency runs, instead of differential
   re-simulation.  Components that exist identically on both stacks cancel
   in the user-kernel delta; what remains is the paper's overhead list. *)

(* Header bytes charged to FLIP itself (and their NIC reception share)
   appear identically on both stacks, so the header component is the delta
   of upper-layer header wire cost only. *)
let upper_header_ns r =
  List.fold_left
    (fun acc ly ->
      if ly = Obs.Layer.Flip || ly = Obs.Layer.Nic then acc
      else acc + Obs.Recorder.ledger_ns r ~layer:ly ~cause:Obs.Cause.Header_wire)
    0 Obs.Layer.all

let user_flip_ns r = Obs.Recorder.ledger_ns r ~layer:Obs.Layer.Flip ~cause:Obs.Cause.Uk_crossing

(* Records the measured rounds of one null run; returns the recorder and
   the per-round latency in µs. *)
let recorded_null ?net proto impl =
  let r = Obs.Recorder.create () in
  let marks, _ =
    micro_run ~recorder:r ?net ~proto ~impl ~size:0 ~rounds:latency_rounds ()
  in
  (r, per_round Sim.Time.to_us marks)

let us_per_round ns = float_of_int ns /. float_of_int measure_rounds /. 1000.

let measured_breakdown ?pool ?net () =
  (* Four independent recorded runs; the accounting below is pure. *)
  let runs =
    run_cells ?pool
      [
        (fun () -> recorded_null ?net `Rpc Cluster.User);
        (fun () -> recorded_null ?net `Rpc Cluster.Kernel);
        (fun () -> recorded_null ?net `Group Cluster.User);
        (fun () -> recorded_null ?net `Group Cluster.Kernel);
      ]
  in
  let rpc_u, rpc_k, grp_u, grp_k =
    match runs with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
  in
  let rpc =
    let ru, lat_u = rpc_u in
    let rk, lat_k = rpc_k in
    let delta f = us_per_round (f ru - f rk) in
    let cause c r = Obs.Recorder.cause_ns r c in
    [
      ("total user-kernel gap", lat_u -. lat_k);
      ("context switches", delta (cause Obs.Cause.Ctx_switch));
      ("register-window traps", delta (cause Obs.Cause.Regwin_trap));
      ("double fragmentation", delta (cause Obs.Cause.Fragmentation));
      ("header size difference", delta upper_header_ns);
      ("untuned user-level FLIP interface", delta user_flip_ns);
      ("kernel crossings (other)",
       delta (fun r -> Obs.Recorder.cause_ns r Obs.Cause.Uk_crossing - user_flip_ns r));
      ("protocol processing (other)", delta (cause Obs.Cause.Proto_proc));
      ("data copying", delta (cause Obs.Cause.Copy));
    ]
  in
  let group =
    let ru, lat_u = grp_u in
    let rk, lat_k = grp_k in
    let user f = us_per_round (f ru) in
    let cause c r = Obs.Recorder.cause_ns r c in
    [
      ("total user-kernel gap", lat_u -. lat_k);
      ("context switches (user path)", user (cause Obs.Cause.Ctx_switch));
      ("register-window traps (user path)", user (cause Obs.Cause.Regwin_trap));
      ("double fragmentation (user path)", user (cause Obs.Cause.Fragmentation));
      ("header size difference", us_per_round (upper_header_ns ru - upper_header_ns rk));
      ("untuned user-level FLIP interface (user path)", user user_flip_ns);
    ]
  in
  (rpc, group)

(* A whole-run recording of one Table 1 null-RPC benchmark, plus the total
   CPU busy time of both machines — for trace export and for checking the
   ledger-vs-CPU-time invariant. *)
let recorded_rpc ?net ?(impl = Cluster.User) ?(size = 0) () =
  let r = Obs.Recorder.create ~spans:true () in
  let _marks, machines =
    micro_run ~recorder:r ~window:`Whole ?net ~proto:`Rpc ~impl ~size
      ~rounds:latency_rounds ()
  in
  let busy =
    Array.fold_left (fun acc m -> acc + Cpu.busy_time (Mach.cpu m)) 0 machines
  in
  (r, busy)

(* ------------------------------------------------------------------ *)
(* Optimized-stack differential: record baseline-user and optimized null
   runs and diff the cost ledgers cell by cell.  On a single-fragment null
   operation the four optimizations are disjoint in the cause dimension —
   single fragmentation is the only mechanism touching [Fragmentation]
   charges, scatter-gather the only one touching [Copy], compact headers
   the only one touching [Header_wire], and the receive fast path the only
   one changing scheduling and kernel-crossing work — so every saved
   microsecond lands in exactly one named bucket and the residual (causes
   owned by no mechanism) must be zero. *)

type opt_cell = {
  oc_layer : Obs.Layer.t;
  oc_cause : Obs.Cause.t;
  oc_us : float;  (** µs/round this ledger cell shrank (negative = grew) *)
}

type opt_breakdown = {
  ob_base_us : float;  (** baseline user-space null latency, µs/round *)
  ob_opt_us : float;  (** optimized user-space null latency, µs/round *)
  ob_kernel_us : float;  (** kernel-space reference, µs/round *)
  ob_cells : opt_cell list;  (** every nonzero (layer, cause) ledger delta *)
  ob_mechanisms : (string * float) list;  (** µs/round recovered per optimization *)
  ob_residual_us : float;  (** deltas owned by no mechanism — 0 by construction *)
}

let mechanism_of_cause = function
  | Obs.Cause.Fragmentation -> Some "single fragmentation"
  | Obs.Cause.Copy -> Some "scatter-gather zero-copy"
  | Obs.Cause.Header_wire -> Some "compact headers"
  | Obs.Cause.Ctx_switch | Obs.Cause.Uk_crossing | Obs.Cause.Regwin_trap
  | Obs.Cause.Proto_proc -> Some "single-switch receive fast path"
  | Obs.Cause.Fault_wire | Obs.Cause.Idle | Obs.Cause.Offload -> None

let mechanism_names =
  [
    "single fragmentation";
    "scatter-gather zero-copy";
    "compact headers";
    "single-switch receive fast path";
  ]

let diff_breakdown (ru, lat_u) (ro, lat_o) kernel_us =
  let cells =
    List.concat_map
      (fun ly ->
        List.filter_map
          (fun c ->
            let d =
              Obs.Recorder.ledger_ns ru ~layer:ly ~cause:c
              - Obs.Recorder.ledger_ns ro ~layer:ly ~cause:c
            in
            if d = 0 then None
            else Some { oc_layer = ly; oc_cause = c; oc_us = us_per_round d })
          Obs.Cause.all)
      Obs.Layer.all
  in
  let sum pred =
    List.fold_left (fun acc cl -> if pred cl then acc +. cl.oc_us else acc) 0. cells
  in
  {
    ob_base_us = lat_u;
    ob_opt_us = lat_o;
    ob_kernel_us = kernel_us;
    ob_cells = cells;
    ob_mechanisms =
      List.map
        (fun n -> (n, sum (fun cl -> mechanism_of_cause cl.oc_cause = Some n)))
        mechanism_names;
    ob_residual_us = sum (fun cl -> mechanism_of_cause cl.oc_cause = None);
  }

let optimized_breakdown ?pool ?net () =
  match
    run_cells ?pool
      [
        (fun () -> `Rec (recorded_null ?net `Rpc Cluster.User));
        (fun () -> `Rec (recorded_null ?net `Rpc Cluster.User_optimized));
        (fun () -> `Lat (rpc_latency ?net ~impl:Cluster.Kernel ~size:0 () *. 1000.));
        (fun () -> `Rec (recorded_null ?net `Group Cluster.User));
        (fun () -> `Rec (recorded_null ?net `Group Cluster.User_optimized));
        (fun () -> `Lat (group_latency ?net ~impl:Cluster.Kernel ~size:0 () *. 1000.));
      ]
  with
  | [ `Rec ru; `Rec ro; `Lat rk; `Rec gu; `Rec go; `Lat gk ] ->
    (diff_breakdown ru ro rk, diff_breakdown gu go gk)
  | _ -> assert false

let pp_opt_breakdown fmt ob =
  Format.fprintf fmt "  baseline user %8.1f us   optimized %8.1f us   kernel %8.1f us@,"
    ob.ob_base_us ob.ob_opt_us ob.ob_kernel_us;
  Format.fprintf fmt "  recovered %.1f us:@," (ob.ob_base_us -. ob.ob_opt_us);
  List.iter
    (fun (name, us) -> Format.fprintf fmt "    %-34s %8.1f us@," name us)
    ob.ob_mechanisms;
  Format.fprintf fmt "    %-34s %8.1f us@," "residual (unattributed)" ob.ob_residual_us;
  Format.fprintf fmt "  ledger cells removed:@,";
  List.iter
    (fun cl ->
      Format.fprintf fmt "    %-10s %-14s %8.1f us@,"
        (Obs.Layer.to_string cl.oc_layer)
        (Obs.Cause.to_string cl.oc_cause)
        cl.oc_us)
    (List.sort (fun a b -> compare b.oc_us a.oc_us) ob.ob_cells)

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablation_dedicated_sequencer ?pool ?net ?(procs = [ 8; 16; 32 ]) () =
  let app = Runner.app_named "leq" in
  Runner.run_many ?pool ?net
    (List.concat_map
       (fun p -> [ (Cluster.User, p, app); (Cluster.User_dedicated, p, app) ])
       procs)

let ablation_nonblocking ?pool ?net () =
  (* Time the sender perceives per broadcast, blocking vs nonblocking. *)
  let measure ~nonblocking =
    let cluster, costs = micro_cell ?net ~n:2 Cluster.User in
    let eng = cluster.Cluster.eng in
    let sys = system_layers costs cluster.Cluster.flips in
    let _grp, members =
      Panda.Group.create_static ~config:costs.Params.panda_group ~name:"nb"
        ~sequencer:(Panda.Group.On_member 1) sys
    in
    Array.iter (fun m -> Panda.Group.set_handler m (fun ~sender:_ ~size:_ _ -> ())) members;
    let marks = ref [] in
    ignore
      (Thread.spawn cluster.Cluster.machines.(0) "sender" (fun () ->
           for _ = 1 to latency_rounds do
             if nonblocking then Panda.Group.send_nonblocking members.(0) ~size:64 Ping
             else Panda.Group.send members.(0) ~size:64 Ping;
             marks := Sim.Engine.now eng :: !marks
           done));
    Sim.Engine.run eng;
    per_round Sim.Time.to_ms (List.rev !marks)
  in
  match
    run_cells ?pool
      [
        (fun () -> measure ~nonblocking:false);
        (fun () -> measure ~nonblocking:true);
      ]
  with
  | [ blocking; nonblocking ] ->
    [ ("blocking send (ms)", blocking); ("nonblocking send (ms)", nonblocking) ]
  | _ -> assert false

let ablation_migration ?pool ?net () =
  (* A central object accessed overwhelmingly by one remote process: with
     static placement every access is an RPC; the adaptive heuristic
     migrates the object to the accessor. *)
  let run placement =
    let cell = Cell.create ?net ~n:2 (Cluster.Rpc_stack Cluster.User) in
    let eng = (Cell.cluster cell).Cluster.eng in
    let dom = Orca.Rts.create_domain (Cell.backends cell) in
    let od =
      Orca.Rts.declare dom ~name:"cell" ~placement ~init:(fun ~rank:_ -> ref 0)
    in
    let add =
      Orca.Rts.defop od ~name:"add" ~kind:`Write (fun st _ ->
          incr st;
          Sim.Payload.Empty)
    in
    let finish = ref Sim.Time.zero in
    ignore
      (Orca.Rts.spawn dom ~rank:1 "worker" (fun ~rank:_ ->
           for _ = 1 to 400 do
             ignore (Orca.Rts.invoke add Sim.Payload.Empty)
           done;
           finish := Sim.Engine.now eng));
    Sim.Engine.run eng;
    (Sim.Time.to_ms !finish, Orca.Rts.migrations dom)
  in
  let static_run, adaptive_run =
    match
      run_cells ?pool
        [
          (fun () -> run (Orca.Rts.Owned 0));
          (fun () -> run (Orca.Rts.Adaptive { owner = 0; state_bytes = 128 }));
        ]
    with
    | [ s; a ] -> (s, a)
    | _ -> assert false
  in
  let static_ms, _ = static_run in
  let adaptive_ms, migs = adaptive_run in
  [
    ("static placement (remote owner), ms", static_ms);
    ("adaptive placement, ms", adaptive_ms);
    ("migrations", float_of_int migs);
  ]

(* The paper's closing point: "the performance of our user-space
   implementation could be improved significantly if user-level access to
   the network would be allowed, since such access would eliminate many
   system calls."  Model that future: the user-space stack maps the
   network interface, so its per-packet kernel crossings and the untuned
   user-level FLIP interface go away (a trap-free fast path), while the
   kernel stack is unchanged. *)
let user_mapped c =
  { c with
    Params.panda_system =
      { c.Params.panda_system with
        Panda.System_layer.user_flip_extra = 0;
        recv_fixed = Sim.Time.us 15 };
    machine = { c.Params.machine with Mach.syscall_base = Sim.Time.us 3 } }

let ablation_user_level_network ?pool ?net () =
  let mapped proto () =
    latency_ms ?net ~costs:(user_mapped Params.calibrated) ~proto ~impl:Cluster.User
      ~size:0 ()
  in
  (* Only the user columns are meaningful under the modified machine: the
     kernel numbers come from the calibrated costs. *)
  let base_user, mapped_user, base_kernel, grp_base_user, grp_mapped_user,
      grp_base_kernel =
    match
      run_cells ?pool
        [
          (fun () -> rpc_latency ?net ~impl:Cluster.User ~size:0 ());
          mapped `Rpc;
          (fun () -> rpc_latency ?net ~impl:Cluster.Kernel ~size:0 ());
          (fun () -> group_latency ?net ~impl:Cluster.User ~size:0 ());
          mapped `Group;
          (fun () -> group_latency ?net ~impl:Cluster.Kernel ~size:0 ());
        ]
    with
    | [ a; b; c; d; e; f ] -> (a, b, c, d, e, f)
    | _ -> assert false
  in
  [
    ("RPC user (today), ms", base_user);
    ("RPC user with user-level network, ms", mapped_user);
    ("RPC kernel (reference), ms", base_kernel);
    ("group user (today), ms", grp_base_user);
    ("group user with user-level network, ms", grp_mapped_user);
    ("group kernel (reference), ms", grp_base_kernel);
  ]

(* ------------------------------------------------------------------ *)
(* Fault sweep: how gracefully each stack degrades as the network gets
   worse.  Per (implementation, loss rate): the Table 1 null latencies
   under that loss, plus one full application run in checked mode — so the
   row also certifies that the invariants hold and the answer is still
   right at that rate. *)

type fault_row = {
  fw_impl : Cluster.impl;
  fw_rate : float;  (** i.i.d. frame-loss probability *)
  fw_rpc_ms : float;  (** null RPC latency under that loss *)
  fw_grp_ms : float;  (** null group latency under that loss *)
  fw_app : string;
  fw_app_s : float;  (** application runtime under that loss, checked mode *)
  fw_valid : bool;
  fw_retrans : int;
  fw_kills : int;  (** frames the schedule killed during the app run *)
  fw_violations : int;
}

let fault_sweep ?pool ?net ?(rates = [ 0.; 0.001; 0.01; 0.05 ]) ?(app_name = "tsp")
    ?(procs = 8) ?(seed = 1) () =
  let app = Runner.app_named app_name in
  Runner.prepare app;
  let cell impl rate () =
    let faults = if rate > 0. then Some (Faults.Spec.loss ~seed rate) else None in
    let rpc = rpc_latency ?faults ?net ~impl ~size:0 () in
    let grp = group_latency ?faults ?net ~impl ~size:0 () in
    let o = Runner.run ?faults ?net ~checked:true ~impl ~procs app in
    {
      fw_impl = impl;
      fw_rate = rate;
      fw_rpc_ms = rpc;
      fw_grp_ms = grp;
      fw_app = app_name;
      fw_app_s = o.Runner.o_seconds;
      fw_valid = o.Runner.o_valid;
      fw_retrans = o.Runner.o_retrans;
      fw_kills = o.Runner.o_fault_kills;
      fw_violations = List.length o.Runner.o_violations;
    }
  in
  let cells =
    List.concat_map
      (fun impl -> List.map (fun rate -> cell impl rate) rates)
      [ Cluster.Kernel; Cluster.User; Cluster.User_optimized ]
  in
  run_cells ?pool cells

let pp_fault_row fmt r =
  Format.fprintf fmt
    "%-6s loss=%5.2f%%  rpc %6.2f ms  grp %6.2f ms  %s %7.1f s%s  retrans=%-5d killed=%-5d%s"
    (Cluster.impl_label r.fw_impl) (100. *. r.fw_rate) r.fw_rpc_ms r.fw_grp_ms
    r.fw_app r.fw_app_s
    (if r.fw_valid then "" else " INVALID")
    r.fw_retrans r.fw_kills
    (if r.fw_violations = 0 then "" else Printf.sprintf "  %d VIOLATIONS" r.fw_violations)

(* ------------------------------------------------------------------ *)
(* Load sweeps: throughput-latency curves and sequencer saturation.
   Each (impl, operating point) is an independent cell — a fresh cluster,
   fault injectors and checker — so the sweeps fan out over the pool with
   the same canonical-order reassembly as every table above. *)

let load_impls = [ Cluster.Kernel; Cluster.User; Cluster.User_optimized ]

let load_cell ?faults ?checked ?net ?client_ranks
    ?(policy = Panda.Seq_policy.Single) ~nodes ~impl cfg () =
  let cell =
    Cell.create ?faults ?checked ?net ~policy ~n:nodes (Cluster.Rpc_stack impl)
  in
  let cluster = Cell.cluster cell in
  let backends = Cell.backends cell in
  let m =
    Load.Clients.run cfg ~eng:cluster.Cluster.eng ~backends
      ~machines:cluster.Cluster.machines
      ~seq_machine:(Cluster.sequencer_machine cluster impl)
      ?client_ranks ~shards:(Panda.Seq_policy.shards policy) ()
  in
  { m with Load.Metrics.violations = (Cell.finish cell).Cell.n_violations }

let load_rates = [ 200.; 400.; 800.; 1200.; 1600.; 2000. ]

let load_sweep ?pool ?faults ?checked ?net ?(nodes = 4)
    ?(config = Load.Clients.default) ?(rates = load_rates) ?(impls = load_impls)
    () =
  List.map
    (fun (impl, points) -> (impl, Load.Sweep.curve (List.map snd points)))
    (run_grid ?pool impls rates (fun impl rate ->
         load_cell ?faults ?checked ?net ~nodes ~impl
           { config with Load.Clients.rate } ()))

(* ------------------------------------------------------------------ *)
(* Loss x load tail grids.  The protocols' 200 ms retransmission timeout
   is invisible in means — a 1% frame-loss rate barely moves the average
   null-RPC time — but it owns the tail: every lost request or reply
   parks its caller for the full timeout, so p99/p99.9 jump by two to
   three orders of magnitude.  The grid quantifies that as an
   amplification factor against the loss-free baseline at the same
   (stack, offered load) point, one independent cell per coordinate. *)

type tail_cell = {
  tc_impl : Cluster.impl;
  tc_loss : float;
  tc_rate : float;
  tc_metrics : Load.Metrics.t;
  tc_amp99 : float;
  tc_amp999 : float;
}

let tail_losses = [ 0.; 0.001; 0.01; 0.03 ]

let tail_grid ?pool ?net ?(nodes = 4) ?(config = Load.Clients.default)
    ?(losses = tail_losses) ?(rates = [ 200.; 800. ]) ?(impls = load_impls) () =
  (* The amplification baseline is the loss-free cell, so make sure the
     grid contains one even when the caller's list omits it. *)
  let losses =
    if List.exists (fun l -> l = 0.) losses then losses else 0. :: losses
  in
  List.iter
    (fun l ->
      if not (Float.is_finite l) || l < 0. || l >= 1. then
        invalid_arg "Experiments.tail_grid: loss must be in [0, 1)")
    losses;
  let coords =
    List.concat_map
      (fun impl ->
        List.concat_map (fun loss -> List.map (fun rate -> (impl, loss, rate)) rates)
          losses)
      impls
  in
  let cells =
    List.map
      (fun (impl, loss, rate) () ->
        let faults = if loss > 0. then Some (Faults.Spec.loss loss) else None in
        load_cell ?faults ?net ~nodes ~impl
          { config with Load.Clients.rate }
          ())
      coords
  in
  let results = run_cells ?pool cells in
  let grid = List.combine coords results in
  let baseline impl rate =
    match
      List.find_opt (fun ((i, l, r), _) -> i = impl && l = 0. && r = rate) grid
    with
    | Some (_, m) -> m
    | None -> assert false
  in
  List.map
    (fun ((impl, loss, rate), m) ->
      let b = baseline impl rate in
      let amp bp p = if bp > 0. then p /. bp else Float.nan in
      {
        tc_impl = impl;
        tc_loss = loss;
        tc_rate = rate;
        tc_metrics = m;
        tc_amp99 = amp b.Load.Metrics.p99_ms m.Load.Metrics.p99_ms;
        tc_amp999 = amp b.Load.Metrics.p999_ms m.Load.Metrics.p999_ms;
      })
    grid

let pp_tail_cell fmt c =
  Format.fprintf fmt
    "%-10s loss=%5.2f%%  rate=%6.0f/s  p50 %7.3f  p99 %8.3f  p99.9 %8.3f ms  amp99 %6.1fx  amp99.9 %6.1fx"
    (Cluster.impl_label c.tc_impl) (100. *. c.tc_loss) c.tc_rate
    c.tc_metrics.Load.Metrics.p50_ms c.tc_metrics.Load.Metrics.p99_ms
    c.tc_metrics.Load.Metrics.p999_ms c.tc_amp99 c.tc_amp999

(* The load-side complement of the paper's §4.3 sequencer accounting:
   closed-loop group senders with zero think time, scaled until the
   sequencer is the bottleneck.  Rank 0 hosts the sequencer and never
   sends, so its utilization is pure sequencing. *)
let sequencer_senders = [ 1; 2; 4; 7 ]

(* Closed-loop zero-think group senders on ranks 1..s, for every sender
   count [s] under every outer key; [stack_of] names the stack and
   sequencer policy an outer key runs. *)
let sender_sweep ~name ?pool ?faults ?checked ?net ~nodes ~senders
    ~clients_per_node ~config outers stack_of =
  let cfg =
    {
      config with
      Load.Clients.op = Load.Clients.Group;
      arrival = Load.Arrival.Closed 0;
      clients_per_node;
    }
  in
  run_grid ?pool outers senders (fun outer s ->
      if s >= nodes then invalid_arg ("Experiments." ^ name ^ ": senders >= nodes");
      let impl, policy = stack_of outer in
      let client_ranks = List.init s (fun i -> i + 1) in
      load_cell ?faults ?checked ?net ?policy ~client_ranks ~nodes ~impl cfg ())

let sequencer_saturation ?pool ?faults ?checked ?net ?(nodes = 8)
    ?(senders = sequencer_senders) ?(clients_per_node = 2)
    ?(config = Load.Clients.default) ?(impls = load_impls) ?policy () =
  sender_sweep ~name:"sequencer_saturation" ?pool ?faults ?checked ?net ~nodes
    ~senders ~clients_per_node ~config impls (fun impl -> (impl, policy))

let pp_saturation_row fmt (s, m) =
  Format.fprintf fmt
    "%-10s senders=%-2d  %8.1f msg/s  p50 %7.3f ms  p99 %7.3f ms  seq %5.1f%%%s"
    m.Load.Metrics.label s m.Load.Metrics.achieved m.Load.Metrics.p50_ms
    m.Load.Metrics.p99_ms
    (100. *. m.Load.Metrics.seq_util)
    (if m.Load.Metrics.violations = 0 then ""
     else Printf.sprintf "  %d VIOLATIONS" m.Load.Metrics.violations)

(* The tentpole sweep: the same closed-loop sender grid, but varying the
   protocol family around the user-space sequencer instead of the stack.
   Every policy runs the identical workload, so the capacity curves are
   before/after comparable point by point — [Single] is the 725 msg/s
   wall, each other policy is one engineering answer to it. *)
let sequencer_policies = Panda.Seq_policy.sweep

let sequencer_policy_sweep ?pool ?faults ?checked ?net ?(nodes = 8)
    ?(senders = sequencer_senders) ?(clients_per_node = 2)
    ?(config = Load.Clients.default) ?(impl = Cluster.User)
    ?(policies = sequencer_policies) () =
  sender_sweep ~name:"sequencer_policy_sweep" ?pool ?faults ?checked ?net
    ~nodes ~senders ~clients_per_node ~config policies (fun policy ->
      (impl, Some policy))

let pp_policy_row fmt (policy, (s, m)) =
  let shard_note =
    if Array.length m.Load.Metrics.per_shard > 1 then
      Printf.sprintf "  shards=[%s]"
        (String.concat ";"
           (Array.to_list (Array.map string_of_int m.Load.Metrics.per_shard)))
    else ""
  in
  Format.fprintf fmt
    "%-10s senders=%-2d  %8.1f msg/s  p50 %7.3f ms  p99 %7.3f ms  seq %5.1f%%%s%s"
    (Panda.Seq_policy.to_string policy)
    s m.Load.Metrics.achieved m.Load.Metrics.p50_ms m.Load.Metrics.p99_ms
    (100. *. m.Load.Metrics.seq_util)
    shard_note
    (if m.Load.Metrics.violations = 0 then ""
     else Printf.sprintf "  %d VIOLATIONS" m.Load.Metrics.violations)

(* ------------------------------------------------------------------ *)
(* One-sided crossover: the DHT workload over all four stacks across
   network eras.  Each (era, mix, stack) runs two independent cells — an
   open-loop low-rate latency probe and a closed-loop capacity cell —
   and the capacity cell's recorder ledger is partitioned into the cost
   components the crossover argument turns on. *)

(* Partition of the window's CPU ledger.  The four CPU buckets enumerate
   every (layer, is_cpu cause) cell, so their sum must equal the
   recorder's CPU total; [ol_residual_ms] is the difference and any
   nonzero value means a charge escaped the attribution. *)
type os_ledger = {
  ol_initiator_ms : float;
  ol_target_ms : float;
  ol_nic_ms : float;
  ol_stack_ms : float;
  ol_wire_hdr_ms : float;
  ol_cpu_ms : float;
  ol_residual_ms : float;
}

let os_ledger_of r =
  let ms ns = float_of_int ns /. 1e6 in
  let init = ref 0 and target = ref 0 and nic = ref 0 and stack = ref 0 in
  List.iter
    (fun layer ->
      List.iter
        (fun cause ->
          if Obs.Cause.is_cpu cause then
            let v = Obs.Recorder.ledger_ns r ~layer ~cause in
            match (layer, cause) with
            | Obs.Layer.Onesided, (Obs.Cause.Uk_crossing | Obs.Cause.Offload) ->
              target := !target + v
            | Obs.Layer.Onesided, _ -> init := !init + v
            | Obs.Layer.Nic, _ -> nic := !nic + v
            | _, _ -> stack := !stack + v)
        Obs.Cause.all)
    Obs.Layer.all;
  let total = Obs.Recorder.cpu_ns r in
  {
    ol_initiator_ms = ms !init;
    ol_target_ms = ms !target;
    ol_nic_ms = ms !nic;
    ol_stack_ms = ms !stack;
    ol_wire_hdr_ms = ms (Obs.Recorder.cause_ns r Obs.Cause.Header_wire);
    ol_cpu_ms = ms total;
    ol_residual_ms = ms (total - (!init + !target + !nic + !stack));
  }

type xcell = {
  xc_net : string;
  xc_stack : Cluster.stack;
  xc_read_pct : int;
  xc_latency : Load.Metrics.t;  (** open-loop low-rate probe *)
  xc_capacity : Load.Metrics.t;  (** closed-loop, zero think time *)
  xc_ledger : os_ledger;  (** the capacity cell's window ledger *)
  xc_wire_util : float;  (** busiest segment over the capacity window *)
  xc_gets : int;
  xc_puts : int;
  xc_dht_violations : int;
}

(* Each resource's utilization over a window of [window], from its busy
   time at the window's two edges. *)
let utilization ~window before after =
  let window_s = Sim.Time.to_sec window in
  Array.mapi (fun i b -> Float.max 0. (Sim.Time.to_sec (after.(i) - b) /. window_s)) before

(* Snapshots every segment's busy time at the load window's two edges,
   running [also edge] in the same events (edge 0 is the window's start,
   1 its end).  Both are read-only, so their order within the instant is
   immaterial; call this before building the stack, as the event order of
   pinned results requires.  Returns each segment's utilization over the
   window, to read once the engine has drained. *)
let window_snapshots ?(also = ignore) cluster cfg =
  let eng = cluster.Cluster.eng in
  let segs = cluster.Cluster.topo.Net.Topology.segments in
  let busy = Array.init 2 (fun _ -> Array.make (Array.length segs) 0) in
  let t0 = Sim.Engine.now eng in
  List.iteri
    (fun edge at ->
      ignore
        (Sim.Engine.at eng at (fun () ->
             Array.iteri (fun i s -> busy.(edge).(i) <- Net.Segment.busy_time s) segs;
             also edge)))
    [ t0 + cfg.Load.Clients.warmup; t0 + cfg.Load.Clients.warmup + cfg.Load.Clients.window ];
  fun () -> utilization ~window:cfg.Load.Clients.window busy.(0) busy.(1)

let max_of = Array.fold_left Float.max 0.
let sum_of = Array.fold_left ( +. ) 0.

(* One DHT measurement on a fresh cluster.  Returns the window metrics
   plus the ledger partition, the busiest segment's utilization over the
   window, and the DHT's own coherence counters (client-observed torn
   blocks plus the post-drain at-rest scan). *)
let dht_cell ?faults ?checked ~net ~stack ~read_pct ~params ~nodes cfg () =
  let cell = Cell.create ?faults ?checked ~net ~n:nodes stack in
  let cluster = Cell.cluster cell in
  let eng = cluster.Cluster.eng in
  let dp = { params with Apps.Dht.dh_read_pct = read_pct } in
  let recorder = Obs.Recorder.create () in
  let wire = window_snapshots cluster cfg in
  let dht =
    match stack with
    | Cluster.Rpc_stack _ ->
      let backends = Cell.backends cell in
      Apps.Dht.create_rpc ~params:dp ~backends ~server:0 ()
    | Cluster.One_sided ->
      let rnics = Cell.rnics cell in
      Apps.Dht.create_onesided ~params:dp ~rnics ~server:0 ()
  in
  let m =
    Load.Clients.run_custom cfg ~eng ~machines:cluster.Cluster.machines
      ~label:(Cluster.stack_label stack) ~op_name:"dht" ~recorder
      ~op:(fun rank rng -> Apps.Dht.client_op dht ~rank rng)
      ()
  in
  let m = { m with Load.Metrics.violations = (Cell.finish cell).Cell.n_violations } in
  let dviol = Apps.Dht.violations dht + Apps.Dht.check_at_rest dht in
  (m, os_ledger_of recorder, max_of (wire ()), Apps.Dht.gets dht, Apps.Dht.puts dht, dviol)

let crossover_nets = [ Params.net10m; Params.net100m; Params.net1g ]

let onesided_crossover ?pool ?faults ?checked
    ?(nets = crossover_nets) ?(stacks = Cluster.all_stacks)
    ?(read_pcts = [ 90 ]) ?(nodes = 4) ?(params = Apps.Dht.default_params)
    ?(config = { Load.Clients.default with Load.Clients.clients_per_node = 2 })
    () =
  let lat_cfg =
    { config with Load.Clients.arrival = Load.Arrival.Uniform; rate = 100. }
  in
  let cap_cfg =
    { config with Load.Clients.arrival = Load.Arrival.Closed 0 }
  in
  let cells =
    List.concat_map
      (fun net ->
        List.concat_map
          (fun read_pct ->
            List.map
              (fun stack () ->
                let lat, _, _, _, _, lat_viol =
                  dht_cell ?faults ?checked ~net ~stack ~read_pct ~params
                    ~nodes lat_cfg ()
                in
                let cap, ledger, wire, gets, puts, cap_viol =
                  dht_cell ?faults ?checked ~net ~stack ~read_pct ~params
                    ~nodes cap_cfg ()
                in
                {
                  xc_net = net.Params.np_name;
                  xc_stack = stack;
                  xc_read_pct = read_pct;
                  xc_latency = lat;
                  xc_capacity = cap;
                  xc_ledger = ledger;
                  xc_wire_util = wire;
                  xc_gets = gets;
                  xc_puts = puts;
                  xc_dht_violations = lat_viol + cap_viol;
                })
              stacks)
          read_pcts)
      nets
  in
  run_cells ?pool cells

type crossover_row = {
  xs_net : string;
  xs_read_pct : int;
  xs_best_rpc : string;
  xs_rpc_capacity : float;
  xs_os_capacity : float;
  xs_os_wins : bool;
  xs_mechanism : string;
}

let crossover_summary cells =
  let keys =
    List.fold_left
      (fun acc c ->
        let k = (c.xc_net, c.xc_read_pct) in
        if List.mem k acc then acc else acc @ [ k ])
      [] cells
  in
  List.filter_map
    (fun (net, pct) ->
      let group =
        List.filter (fun c -> c.xc_net = net && c.xc_read_pct = pct) cells
      in
      let rpcs =
        List.filter
          (fun c ->
            match c.xc_stack with Cluster.Rpc_stack _ -> true | _ -> false)
          group
      in
      let os =
        List.find_opt (fun c -> c.xc_stack = Cluster.One_sided) group
      in
      match (rpcs, os) with
      | [], _ | _, None -> None
      | r0 :: rest, Some os ->
        let best =
          List.fold_left
            (fun b c ->
              if
                c.xc_capacity.Load.Metrics.achieved
                > b.xc_capacity.Load.Metrics.achieved
              then c
              else b)
            r0 rest
        in
        let bm = best.xc_capacity and om = os.xc_capacity in
        let os_wins = om.Load.Metrics.achieved > bm.Load.Metrics.achieved in
        (* The ledger differential: which cost component flips (or holds)
           the winner.  When one-sided wins, the best RPC stack's server
           thread is the bottleneck — protocol+app CPU the one-sided path
           simply does not have (its stack bucket is 0 and its target CPU
           is all interrupt context).  When RPC holds, the wire is the
           common bottleneck and the one-sided path pays more round trips
           per logical op on it. *)
        let mechanism =
          if os_wins then
            Printf.sprintf
              "server CPU flips it: %s server thread %.0f%% busy (stack+app CPU %.1f ms) vs one-sided 0 thread CPU (%.1f ms target, all interrupt; stack bucket %.1f ms)"
              (Cluster.stack_label best.xc_stack)
              (100. *. bm.Load.Metrics.server_thread_util)
              best.xc_ledger.ol_stack_ms os.xc_ledger.ol_target_ms
              os.xc_ledger.ol_stack_ms
          else
            Printf.sprintf
              "wire holds it: segment util %.0f%% (%s) vs %.0f%% (one-sided, %d–%d wire round trips per op)"
              (100. *. best.xc_wire_util)
              (Cluster.stack_label best.xc_stack)
              (100. *. os.xc_wire_util) 2 3
        in
        Some
          {
            xs_net = net;
            xs_read_pct = pct;
            xs_best_rpc = Cluster.stack_label best.xc_stack;
            xs_rpc_capacity = bm.Load.Metrics.achieved;
            xs_os_capacity = om.Load.Metrics.achieved;
            xs_os_wins = os_wins;
            xs_mechanism = mechanism;
          })
    keys

let pp_xcell fmt c =
  Format.fprintf fmt
    "%-7s %-10s r%d%%  cap %8.1f op/s  p50 %6.3f ms  srv %5.1f%% (thr %5.1f%%)  wire %5.1f%%  stackCPU %7.2f ms  tgt %6.2f ms  resid %.3f ms%s"
    c.xc_net
    (Cluster.stack_label c.xc_stack)
    c.xc_read_pct c.xc_capacity.Load.Metrics.achieved
    c.xc_latency.Load.Metrics.p50_ms
    (100. *. c.xc_capacity.Load.Metrics.server_util)
    (100. *. c.xc_capacity.Load.Metrics.server_thread_util)
    (100. *. c.xc_wire_util) c.xc_ledger.ol_stack_ms c.xc_ledger.ol_target_ms
    c.xc_ledger.ol_residual_ms
    (if c.xc_dht_violations + c.xc_capacity.Load.Metrics.violations = 0 then ""
     else
       Printf.sprintf "  %d VIOLATIONS"
         (c.xc_dht_violations + c.xc_capacity.Load.Metrics.violations))

let pp_crossover_row fmt r =
  Format.fprintf fmt "%-7s r%d%%  best rpc %-10s %8.1f op/s  one-sided %8.1f op/s  %s — %s"
    r.xs_net r.xs_read_pct r.xs_best_rpc r.xs_rpc_capacity r.xs_os_capacity
    (if r.xs_os_wins then "ONE-SIDED WINS" else "rpc holds")
    r.xs_mechanism

let ablation_continuations ?pool ?net ?(procs = 16) () =
  let app = Runner.app_named "rl" in
  match
    Runner.run_many ?pool ?net [ (Cluster.Kernel, procs, app); (Cluster.User, procs, app) ]
  with
  | [ k; u ] ->
    [
      ("kernel (blocked server threads), s", k.Runner.o_seconds);
      ("user (continuations), s", u.Runner.o_seconds);
    ]
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Cluster scale: 64-512-node multi-segment pools running the sharded
   key/value service over any stack, with Zipf key routing and
   ledger-driven object migration.  One cell = one fresh cluster: a
   server on the first rank of every segment, the last non-server rank
   reserved for the rebalancing controller (reserved in every cell, so
   static and rebalanced runs drive the identical client population),
   everything else a client. *)

type ccell = {
  cc_nodes : int;
  cc_stack : Cluster.stack;
  cc_skew : Load.Keys.skew;
  cc_metrics : Load.Metrics.t;
  cc_wire_max : float;  (** busiest segment utilization over the window *)
  cc_wire_mean : float;
  cc_cross_frac : float;
      (** inter-segment share: switch-forwarded frames over all frames
          carried during the window *)
  cc_switch_fps : float;  (** switch forwarding rate over the window, frames/s *)
  cc_server_max : float;  (** busiest server machine over the window *)
  cc_server_mean : float;
  cc_gets : int;
  cc_puts : int;
  cc_dedup_hits : int;
  cc_relays : int;
  cc_migrations : int;
  cc_moves : int;  (** rebalancer decisions (of which forced: see stats) *)
  cc_service_viol : int;  (** service conformance: torn blocks, lost/dup puts *)
}

let cluster_controller_rank cluster =
  let servers = Cluster.server_ranks cluster in
  let n = Array.length cluster.Cluster.machines in
  let rec last r = if List.mem r servers then last (r - 1) else r in
  last (n - 1)

let cluster_default_config =
  {
    Load.Clients.default with
    Load.Clients.clients_per_node = 1;
    warmup = Sim.Time.ms 100;
    window = Sim.Time.ms 400;
  }

let cluster_cell ?faults ?checked ?net ?lanes ?(shards = 32) ?(replicas = 1)
    ?(service_params = Shard.Service.default_params) ?rebalance ~nodes ~stack
    ~skew cfg () =
  let cell = Cell.create ?faults ?checked ?net ?lanes ~n:nodes stack in
  let cluster = Cell.cluster cell in
  let eng = cluster.Cluster.eng in
  (* The one-sided service has no server threads to hand shards between,
     so it runs unreplicated and statically placed. *)
  let replicas = match stack with Cluster.One_sided -> 1 | _ -> replicas in
  let p =
    {
      service_params with
      Shard.Service.sv_shards = shards;
      sv_replicas = replicas;
      sv_skew = skew;
    }
  in
  let server_ranks = Array.of_list (Cluster.server_ranks cluster) in
  let router = Shard.Router.create ~shards ~replicas ~servers:server_ranks in
  let lane_of = Cluster.machine_lane cluster in
  let controller = cluster_controller_rank cluster in
  let client_ranks =
    List.filter
      (fun r -> r <> controller && not (Array.mem r server_ranks))
      (List.init nodes Fun.id)
  in
  (* The switch and server-machine ledgers at the window's edges, next to
     the wire's. *)
  let topo = cluster.Cluster.topo in
  let carried = Array.make 2 0 and fwd = Array.make 2 0 in
  let srv = Array.init 2 (fun _ -> Array.make (Array.length server_ranks) 0) in
  let wire =
    window_snapshots cluster cfg ~also:(fun edge ->
        carried.(edge) <-
          Array.fold_left
            (fun acc s -> acc + Net.Segment.frames_carried s)
            0 topo.Net.Topology.segments;
        fwd.(edge) <-
          (match topo.Net.Topology.switch with
           | Some sw -> Net.Switch.frames_forwarded sw
           | None -> 0);
        Array.iteri
          (fun i rank ->
            srv.(edge).(i) <- Cpu.busy_time (Mach.cpu cluster.Cluster.machines.(rank)))
          server_ranks)
  in
  let t0 = Sim.Engine.now eng in
  let run_load service =
    Load.Clients.run_custom cfg ~eng ~machines:cluster.Cluster.machines
      ~label:(Cluster.stack_label stack) ~op_name:"shard" ~lane_of
      ~server:server_ranks.(0) ~client_ranks
      ~op:(fun rank rng -> Shard.Service.client_op service ~rank rng)
      ()
  in
  let service, stats_opt =
    match stack with
    | Cluster.Rpc_stack _ ->
      let backends = Cell.backends cell in
      let service =
        Shard.Service.create_rpc ~params:p ~backends ~router ~lane_of ()
      in
      let stats =
        match rebalance with
        | None -> None
        | Some config ->
          Some
            (Shard.Rebalancer.spawn service
               ~machines:cluster.Cluster.machines ~via:controller
               ~until:(t0 + cfg.Load.Clients.warmup + cfg.Load.Clients.window)
               ~lane_of ~config ())
      in
      (service, stats)
    | Cluster.One_sided ->
      let rnics = Cell.rnics cell in
      (Shard.Service.create_onesided ~params:p ~rnics ~router (), None)
  in
  Option.iter (Shard.Service.register_checker service) (Cell.checker cell);
  let m = run_load service in
  let m = { m with Load.Metrics.violations = (Cell.finish cell).Cell.n_violations } in
  let wire = wire () in
  let srv = utilization ~window:cfg.Load.Clients.window srv.(0) srv.(1) in
  let carried = carried.(1) - carried.(0) and fwd = fwd.(1) - fwd.(0) in
  {
    cc_nodes = nodes;
    cc_stack = stack;
    cc_skew = skew;
    cc_metrics = m;
    cc_wire_max = max_of wire;
    cc_wire_mean = sum_of wire /. float_of_int (Array.length wire);
    cc_cross_frac = (if carried = 0 then 0. else float_of_int fwd /. float_of_int carried);
    cc_switch_fps = float_of_int fwd /. Sim.Time.to_sec cfg.Load.Clients.window;
    cc_server_max = max_of srv;
    cc_server_mean = sum_of srv /. float_of_int (Array.length srv);
    cc_gets = Shard.Service.gets service;
    cc_puts = Shard.Service.puts_acked service;
    cc_dedup_hits = Shard.Service.dedup_hits service;
    cc_relays = Shard.Service.relays service;
    cc_migrations = Shard.Service.migrations service;
    cc_moves = (match stats_opt with Some s -> s.Shard.Rebalancer.rs_moves | None -> 0);
    cc_service_viol =
      Shard.Service.violations service
      + List.length (Shard.Service.check_at_rest service);
  }

let cluster_nodes = [ 64; 256 ]
let cluster_skews = [ Load.Keys.Uniform; Load.Keys.Zipf 0.99 ]
let cluster_stacks = Cluster.all_stacks
let cluster_rates = [ 2000.; 4000.; 8000. ]

(* The tentpole sweep: nodes x stack x skew, each combination ramped over
   offered rates to its saturation knee.  Open-loop uniform arrivals so
   the knee is against a configured offered load. *)
let cluster_sweep ?pool ?faults ?checked ?net ?lanes ?shards ?replicas
    ?service_params ?rebalance ?(nodes = cluster_nodes)
    ?(stacks = cluster_stacks) ?(skews = cluster_skews)
    ?(rates = cluster_rates) ?(config = cluster_default_config) () =
  let combos =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun stack -> List.map (fun skew -> (n, stack, skew)) skews)
          stacks)
      nodes
  in
  List.map
    (fun (combo, points) ->
      let points = List.map snd points in
      let curve = Load.Sweep.curve (List.map (fun c -> c.cc_metrics) points) in
      (combo, points, Load.Sweep.knee curve))
    (run_grid ?pool combos rates (fun (n, stack, skew) rate ->
         cluster_cell ?faults ?checked ?net ?lanes ?shards ?replicas
           ?service_params ?rebalance ~nodes:n ~stack ~skew
           { config with Load.Clients.rate }
           ()))

(* The migration A/B: the identical skewed closed-loop workload twice —
   static placement vs the ledger-driven rebalancer — so the achieved
   difference is attributable to object migration alone.  The window is
   long (1.5 s) and the rebalancer ticks fast (50 ms) so the moves land
   early and the stabilized placement dominates the measurement. *)
let cluster_ab_config =
  {
    cluster_default_config with
    Load.Clients.arrival = Load.Arrival.Closed 0;
    warmup = Sim.Time.ms 100;
    window = Sim.Time.ms 1500;
  }

let cluster_ab_rebalance =
  {
    Shard.Rebalancer.default_config with
    Shard.Rebalancer.rb_interval = Sim.Time.ms 50;
  }

let cluster_migration_ab ?pool ?faults ?checked ?net ?lanes ?shards ?replicas
    ?service_params ?(rebalance = cluster_ab_rebalance) ?(nodes = 64)
    ?(stack = Cluster.Rpc_stack Cluster.User_optimized)
    ?(skew = Load.Keys.Zipf 1.2) ?(config = cluster_ab_config) () =
  let cfg = { config with Load.Clients.arrival = Load.Arrival.Closed 0 } in
  let cells =
    [
      (fun () ->
        cluster_cell ?faults ?checked ?net ?lanes ?shards ?replicas
          ?service_params ~nodes ~stack ~skew cfg ());
      (fun () ->
        cluster_cell ?faults ?checked ?net ?lanes ?shards ?replicas
          ?service_params ~rebalance ~nodes ~stack ~skew cfg ());
    ]
  in
  match run_cells ?pool cells with
  | [ static_cell; rebalanced ] -> (static_cell, rebalanced)
  | _ -> assert false

let pp_ccell fmt c =
  Format.fprintf fmt
    "n=%-4d %-10s %-9s  %9.1f op/s  p50 %6.3f ms  p99 %7.3f ms  srv %5.1f%%/%5.1f%%  wire %5.1f%%  x-seg %4.1f%%  mig %d%s%s"
    c.cc_nodes
    (Cluster.stack_label c.cc_stack)
    (Load.Keys.skew_label c.cc_skew)
    c.cc_metrics.Load.Metrics.achieved c.cc_metrics.Load.Metrics.p50_ms
    c.cc_metrics.Load.Metrics.p99_ms
    (100. *. c.cc_server_max)
    (100. *. c.cc_server_mean)
    (100. *. c.cc_wire_max)
    (100. *. c.cc_cross_frac)
    c.cc_migrations
    (if c.cc_dedup_hits = 0 then ""
     else Printf.sprintf "  dedup %d relays %d" c.cc_dedup_hits c.cc_relays)
    (if c.cc_service_viol + c.cc_metrics.Load.Metrics.violations = 0 then ""
     else
       Printf.sprintf "  %d VIOLATIONS"
         (c.cc_service_viol + c.cc_metrics.Load.Metrics.violations))

let pp_knee fmt = function
  | Load.Sweep.Knee r -> Format.fprintf fmt "knee @ %.0f op/s" r
  | Load.Sweep.Unsaturated -> Format.fprintf fmt "unsaturated"
  | Load.Sweep.Saturated -> Format.fprintf fmt "saturated from the first point"
