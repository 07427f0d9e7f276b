(* Command-line driver for the reproduction: regenerate the paper's
   evaluation artifacts ([bench]), or run any one experiment individually,
   with parameters. *)

open Cmdliner

(* --- flags shared by the subcommands; each is defined once, taking the
   subcommand's default where those differ --- *)

let impl_conv =
  let parse = function
    | "kernel" -> Ok Core.Cluster.Kernel
    | "user" -> Ok Core.Cluster.User
    | "user-dedicated" -> Ok Core.Cluster.User_dedicated
    | "optimized" -> Ok Core.Cluster.User_optimized
    | s -> Error (`Msg (Printf.sprintf "unknown implementation %S" s))
  in
  Arg.conv (parse, fun fmt i -> Format.pp_print_string fmt (Core.Cluster.impl_label i))

let impl_arg =
  Arg.(
    value
    & opt impl_conv Core.Cluster.User
    & info [ "impl" ] ~doc:"kernel | user | user-dedicated | optimized")

let impls_arg =
  Arg.(
    value
    & opt (some (list impl_conv)) None
    & info [ "impls" ] ~docv:"IMPL,..."
        ~doc:"Stacks to sweep (default kernel,user,optimized)")

let stack_conv =
  let parse s =
    match Core.Cluster.stack_of_string s with
    | Some st -> Ok st
    | None -> Error (`Msg (Printf.sprintf "unknown stack %S" s))
  in
  Arg.conv
    (parse, fun fmt s -> Format.pp_print_string fmt (Core.Cluster.stack_label s))

let stacks_arg =
  Arg.(
    value
    & opt (some (list stack_conv)) None
    & info [ "stacks" ] ~docv:"STACK,..."
        ~doc:"Stacks to sweep (default kernel,user,optimized,onesided)")

let procs_arg =
  Arg.(value & opt int 8 & info [ "procs"; "p" ] ~doc:"Number of processors")

let profile_conv =
  let parse s =
    match Core.Params.net_profile_of_string s with
    | Some p -> Ok p
    | None when Sys.file_exists s -> (
      match Core.Params.net_profile_load s with
      | Ok p -> Ok p
      | Error e -> Error (`Msg (Printf.sprintf "profile file %s: %s" s e)))
    | None ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown network profile %S (expected %s, or a profile file)" s
              (String.concat " | "
                 (List.map
                    (fun p -> p.Core.Params.np_name)
                    Core.Params.net_profiles))))
  in
  Arg.conv
    (parse, fun fmt p -> Format.pp_print_string fmt p.Core.Params.np_name)

let profile_doc =
  "Network era the cluster is built on: $(b,net10m) (the paper's 10 Mbit/s \
   Ethernet, the default), $(b,net100m), $(b,net1g) or $(b,net10g) — or the \
   path of a profile file written by $(b,calibrate --out).  Machine and \
   protocol costs stay at their 1995 values; only wire, switch and NIC \
   constants change."

let profile_arg_doc doc =
  Arg.(value & opt profile_conv Core.Params.net10m & info [ "profile" ] ~docv:"ERA" ~doc)

let profile_arg = profile_arg_doc profile_doc

let size_arg = Arg.(value & opt int 0 & info [ "size" ] ~doc:"Message payload bytes")

let faults_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Faults.Spec.parse s) in
  Arg.conv (parse, Faults.Spec.pp)

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject deterministic network faults, e.g. \
           $(b,seed=42,loss=0.01,dup=0.005,burst=0.001x8,part=0.5+0.2).  Keys: \
           seed, loss, dup, corrupt, reorder, rdelay (us), burst=PxN, \
           part=T+D (s), swpart=T+D (s), seqcrash=T (s; crash the group \
           sequencer mid-run — needs a recoverable $(b,--sequencer) policy).")

let policy_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Panda.Seq_policy.of_string s) in
  Arg.conv
    (parse, fun fmt p -> Format.pp_print_string fmt (Panda.Seq_policy.to_string p))

let policy_list_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Panda.Seq_policy.parse_list s) in
  Arg.conv
    ( parse,
      fun fmt ps ->
        Format.pp_print_string fmt
          (String.concat "," (List.map Panda.Seq_policy.to_string ps)) )

let policy_arg =
  Arg.(
    value
    & opt policy_conv Panda.Seq_policy.Single
    & info [ "sequencer" ] ~docv:"MODE"
        ~doc:
          "Sequencer capacity policy for the group protocol: $(b,single) \
           (the paper's, default), $(b,batch)[:N], $(b,shard)[:N] or \
           $(b,failover).  The kernel stack accepts \
           single and batch only, and a $(b,seqcrash) fault needs a user \
           stack with a policy other than single; other combinations exit 2.")

(* Seconds on the command line, simulated time inside. *)
let seconds x = Sim.Time.us_f (x *. 1e6)

let time_conv =
  let parse s =
    match float_of_string_opt s with
    | Some x -> Ok (seconds x)
    | None -> Error (`Msg (Printf.sprintf "invalid duration %S, expected seconds" s))
  in
  Arg.conv (parse, fun fmt t -> Format.fprintf fmt "%g" (Sim.Time.to_sec t))

let window_arg ?absent kind default =
  Arg.(
    value & opt kind default
    & info [ "window" ] ?absent ~docv:"S" ~doc:"Measurement window, simulated seconds")

let warmup_arg default =
  Arg.(
    value
    & opt time_conv (seconds default)
    & info [ "warmup" ] ~docv:"S" ~doc:"Warmup before the window, simulated seconds")

let period_arg ?absent kind default =
  Arg.(
    value & opt kind default
    & info [ "period" ] ?absent ~docv:"S" ~doc:"Diurnal cycle length, simulated seconds")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Master seed for all RNG streams")

let nodes_arg ?absent kind default =
  Arg.(
    value & opt kind default
    & info [ "nodes" ] ?absent ~docv:"N"
        ~doc:
          "Cluster size in machines (8 per Ethernet segment; larger pools \
           span segments behind a switch)")

let clients_arg default =
  Arg.(value & opt int default & info [ "clients" ] ~doc:"Client threads per client node")

let rate_arg default =
  Arg.(value & opt float default & info [ "rate" ] ~doc:"Peak aggregate arrival rate, ops/s")

let floor_arg default =
  Arg.(
    value & opt float default
    & info [ "floor" ] ~doc:"Trough rate as a fraction of the peak, in (0, 1]")

let rates_arg =
  Arg.(
    value
    & opt (some (list float)) None
    & info [ "rates" ] ~docv:"R,..."
        ~doc:"Offered-load ramp in aggregate ops/s (comma-separated)")

let op_arg =
  Arg.(
    value
    & opt (enum [ ("rpc", Load.Clients.Rpc); ("group", Load.Clients.Group) ]) Load.Clients.Rpc
    & info [ "op" ] ~doc:"Operation under load: $(b,rpc) or $(b,group)")

let mix_arg =
  let mix_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Load.Mix.parse s) in
    Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Load.Mix.to_string m))
  in
  Arg.(
    value & opt mix_conv (Load.Mix.single 0)
    & info [ "mix" ] ~docv:"SIZExW,..."
        ~doc:"Weighted request-size mix in bytes, e.g. $(b,64x9,8192x1)")

let checked_arg =
  Arg.(
    value & flag
    & info [ "checked" ]
        ~doc:
          "Interpose the protocol-conformance checkers (at-most-once RPC, \
           request/reply pairing, payload integrity, gap-free identical \
           total order, the one-sided at-most-once CAS invariants); \
           violations are printed and make the run exit nonzero.")

let lanes_arg =
  Arg.(
    value & flag
    & info [ "lanes" ]
        ~doc:
          "Shard each multi-segment cluster (more than one Ethernet \
           segment, i.e. more than 8 machines) into conservative \
           per-segment engine lanes with deterministic cross-lane merge. \
           Laned runs are reproducible and bit-identical at every $(b,-j); \
           they also match the unlaned engine exactly unless the workload \
           produces same-instant cross-segment arrivals (heavy cluster \
           cells), where only the deterministic tie-break order differs. \
           Single-segment clusters always use the plain sequential \
           engine.")

let jobs_arg default =
  Arg.(
    value
    & opt int default
    & info [ "j"; "jobs" ]
        ~doc:
          "Run the experiment's independent simulations on $(docv) domains. \
           The output is bit-identical for every value; 1 is the plain \
           sequential path."
        ~docv:"N")

let obs_log_arg =
  Arg.(
    value & flag
    & info [ "obs-log" ] ~doc:"Print the simulator's timestamped event log")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Also dump every measured operating point to $(docv) as CSV")

let reject msg =
  prerr_endline ("amoeba_repro: " ^ msg);
  exit 2

let seq_crash faults = Option.bind faults (fun f -> f.Faults.Spec.seq_crash) <> None

(* Rejects, before anything is simulated, a stack x sequencer policy x
   seqcrash combination the library cannot run: exit 2 with the reason,
   like any other bad argument. *)
let check_sequencer ?faults impls policies =
  List.iter
    (fun impl ->
      List.iter
        (fun policy ->
          match
            Core.Cluster.sequencer_support ~seq_crash:(seq_crash faults) impl policy
          with
          | Ok () -> ()
          | Error msg -> reject msg)
        policies)
    impls

(* The DHT and the sharded service run every RPC stack under the single
   sequencer, and the one-sided stack has no sequencer to crash. *)
let check_stacks ?faults stacks =
  check_sequencer ?faults
    (List.filter_map
       (function Core.Cluster.Rpc_stack impl -> Some impl | One_sided -> None)
       stacks)
    [ Panda.Seq_policy.Single ];
  if seq_crash faults && List.mem Core.Cluster.One_sided stacks then
    reject "seqcrash needs a sequencer: the one-sided stack has none"

(* CSV dumps for --out: one row per measured operating point, optionally
   prefixed by extra key columns (e.g. the tail grid's loss rate). *)
let metrics_csv_columns =
  [
    "label"; "op"; "offered"; "achieved"; "issued"; "completed"; "p50_ms";
    "p95_ms"; "p99_ms"; "p999_ms"; "mean_ms"; "max_ms"; "client_util";
    "server_util"; "seq_util"; "violations";
  ]

let metrics_csv_row (m : Load.Metrics.t) =
  [
    m.label; m.op;
    Printf.sprintf "%.3f" m.offered;
    Printf.sprintf "%.3f" m.achieved;
    string_of_int m.issued;
    string_of_int m.completed;
    Printf.sprintf "%.6f" m.p50_ms;
    Printf.sprintf "%.6f" m.p95_ms;
    Printf.sprintf "%.6f" m.p99_ms;
    Printf.sprintf "%.6f" m.p999_ms;
    Printf.sprintf "%.6f" m.mean_ms;
    Printf.sprintf "%.6f" m.max_ms;
    Printf.sprintf "%.6f" m.client_util;
    Printf.sprintf "%.6f" m.server_util;
    Printf.sprintf "%.6f" m.seq_util;
    string_of_int m.violations;
  ]

let write_csv path ~extra_columns rows =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (String.concat "," (extra_columns @ metrics_csv_columns));
      output_char oc '\n';
      List.iter
        (fun (extra, m) ->
          output_string oc (String.concat "," (extra @ metrics_csv_row m));
          output_char oc '\n')
        rows);
  Printf.printf "wrote %s (%d rows)\n" path (List.length rows)

(* --- bench: every artifact of the evaluation --- *)

let bench_cmd =
  let artifacts_arg =
    let names = List.map (fun a -> (a.Artifacts.name, a.Artifacts.name)) Artifacts.all in
    Arg.(
      value & pos_all (enum names) []
      & info [] ~docv:"ARTIFACT"
          ~doc:
            ("Artifacts to regenerate, run in this order whatever the order \
              given (default: all of them): "
            ^ String.concat ", " (List.map fst names)))
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Shrink the larger artifacts to their smoke size (Table 3 at \
             P in {1,8}, short load windows, the 64-node cluster grid)")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Also write BENCH_results.json: each artifact's json section, and \
             per-artifact wall seconds, simulated events, events/second and \
             the pending-event high-water mark")
  in
  let run selected quick json net faults lanes jobs obs_log =
    (* Every artifact runs the kernel stack under the single sequencer,
       which survives no sequencer crash. *)
    check_sequencer ?faults [ Core.Cluster.Kernel ] [ Panda.Seq_policy.Single ];
    if faults <> None then begin
      match List.filter (fun a -> a.Artifacts.fault_free) (Artifacts.chosen selected) with
      | [] -> ()
      | refused ->
        reject
          (Printf.sprintf "--faults: %s run fault-free by design; name only other artifacts"
             (String.concat ", " (List.map (fun a -> a.Artifacts.name) refused)))
    end;
    Core.Cluster.set_default_lanes lanes;
    if obs_log then Obs.Log.set_enabled true;
    if Artifacts.run ~json { Artifacts.jobs; quick; faults; net } selected > 0 then
      exit 1
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate the evaluation: Tables 1-3, the Sec. 4.2/4.3 \
          breakdowns and this reproduction's own artifacts, with the paper's \
          values alongside; exit 1 if any artifact finds a violation or an \
          invalid result")
    Term.(
      const run $ artifacts_arg $ quick_arg $ json_arg
      $ profile_arg_doc
          (profile_doc
         ^ "  The $(b,onesided) artifact sweeps its own eras and $(b,engine) \
            builds no network, so both ignore it.")
      $ faults_arg
      $ lanes_arg
      $ jobs_arg (Exec.Pool.recommended ())
      $ obs_log_arg)

(* --- latency --- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the RPC run and write a Chrome trace_event JSON to $(docv) \
           (load in chrome://tracing or Perfetto)")

let obs_arg =
  Arg.(
    value & flag
    & info [ "obs" ] ~doc:"Dump the recorded RPC run's cost ledger and statistics as CSV")

let latency_cmd =
  let run impl size net faults trace obs obs_log =
    check_sequencer ?faults [ impl ] [ Panda.Seq_policy.Single ];
    if impl = Core.Cluster.User_dedicated then
      reject
        "latency runs on two machines, with no third one for a dedicated \
         sequencer: run user-dedicated with app leq";
    if obs_log then Obs.Log.set_enabled true;
    Printf.printf "RPC   %-6s %5d B: %.3f ms\n" (Core.Cluster.impl_label impl) size
      (Core.Experiments.rpc_latency ?faults ~net ~impl ~size ());
    Printf.printf "group %-6s %5d B: %.3f ms\n" (Core.Cluster.impl_label impl) size
      (Core.Experiments.group_latency ?faults ~net ~impl ~size ());
    if trace <> None || obs then begin
      let r, _busy = Core.Experiments.recorded_rpc ~net ~impl ~size () in
      (match trace with
       | Some file -> (
         try
           Obs.Export.to_file file (Obs.Export.chrome_trace r);
           Printf.printf "trace: %s (%d spans)\n" file (Obs.Recorder.n_spans r)
         with Sys_error msg ->
           Printf.eprintf "cannot write trace: %s\n" msg;
           exit 1)
       | None -> ());
      if obs then print_string (Obs.Export.csv r)
    end
  in
  Cmd.v (Cmd.info "latency" ~doc:"Measure RPC and group latency (Table 1 entries)")
    Term.(
      const run $ impl_arg $ size_arg $ profile_arg $ faults_arg $ trace_arg
      $ obs_arg $ obs_log_arg)

(* --- app --- *)

let app_cmd =
  let app_arg =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun a -> (a.Core.Runner.app_name, a)) Core.Runner.apps))) None
      & info [] ~docv:"APP" ~doc:"tsp | asp | ab | rl | sor | leq")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print protocol and utilization counters")
  in
  let run app impl procs net faults checked stats lanes sequencer =
    check_sequencer ?faults [ impl ] [ sequencer ];
    let o =
      Core.Runner.run ?faults ~checked ~net ~lanes ~sequencer ~impl ~procs app
    in
    Format.printf "%a@." Core.Runner.pp_outcome o;
    if stats then Format.printf "  %a@." Core.Runner.pp_stats o.Core.Runner.o_stats;
    List.iter (fun v -> Printf.printf "  violation: %s\n" v) o.Core.Runner.o_violations;
    if o.Core.Runner.o_violations <> [] || not o.Core.Runner.o_valid then exit 1
  in
  Cmd.v
    (Cmd.info "app" ~doc:"Run one Orca application (a Table 3 cell)")
    Term.(
      const run $ app_arg $ impl_arg $ procs_arg $ profile_arg $ faults_arg
      $ checked_arg $ stats_arg $ lanes_arg $ policy_arg)

(* --- fault sweep --- *)

let fault_sweep_cmd =
  let rates_arg =
    Arg.(
      value
      & opt (list float) [ 0.; 0.001; 0.01; 0.05 ]
      & info [ "rates" ] ~docv:"P,..."
          ~doc:"Frame-loss probabilities to sweep (comma-separated)")
  in
  let app_arg =
    Arg.(value & opt string "tsp" & info [ "app" ] ~doc:"Application for the checked run")
  in
  let run rates app procs net seed lanes jobs =
    Core.Cluster.set_default_lanes lanes;
    let rows =
      Artifacts.with_pool jobs (fun ?pool () ->
          Core.Experiments.fault_sweep ?pool ~net ~rates ~app_name:app ~procs
            ~seed ())
    in
    List.iter (fun r -> Format.printf "%a@." Core.Experiments.pp_fault_row r) rows;
    if
      List.exists
        (fun r -> r.Core.Experiments.fw_violations > 0 || not r.Core.Experiments.fw_valid)
        rows
    then exit 1
  in
  Cmd.v
    (Cmd.info "fault-sweep"
       ~doc:
         "Latency and correctness of both stacks vs. frame-loss rate \
          (checked mode; nonzero exit on any invariant violation)")
    Term.(
      const run $ rates_arg $ app_arg $ procs_arg $ profile_arg $ seed_arg
      $ lanes_arg $ jobs_arg 1)

(* --- load sweep --- *)

let load_sweep_cmd =
  let arrival_arg =
    let arrival_conv =
      let parse s = Result.map_error (fun m -> `Msg m) (Load.Arrival.parse s) in
      Arg.conv (parse, fun fmt a -> Format.pp_print_string fmt (Load.Arrival.to_string a))
    in
    Arg.(
      value & opt arrival_conv Load.Arrival.Uniform
      & info [ "arrival" ] ~docv:"PROC"
          ~doc:
            "Arrival process: $(b,uniform), $(b,poisson), $(b,closed=US) \
             (think time, us), $(b,ramp:S)[$(b,/FLOOR)] (diurnal \
             raised-cosine, period S seconds) or $(b,replay:FILE)[$(b,@SCALE)] \
             (trace replay; see the $(b,replay) command)")
  in
  let seq_arg =
    Arg.(
      value
      & opt ~vopt:(Some [ Panda.Seq_policy.Single ]) (some policy_list_conv) None
      & info [ "sequencer" ] ~docv:"MODE,..."
          ~doc:
            "Run the sequencer-saturation experiment instead of a rate ramp: \
             closed-loop group senders scaled over ranks until the sequencer \
             is the bottleneck.  Without a value (or with $(b,single)) the \
             three stacks are compared under the paper's protocol; with \
             policy modes ($(b,single) | $(b,batch)[:N] | $(b,shard)[:N] | \
             $(b,failover), comma-separated, or $(b,all)) \
             the user stack's capacity is swept policy by policy.")
  in
  let run impls rates nodes clients op arrival mix window warmup seed sequencer
      net faults checked out lanes jobs =
    (match sequencer with
     | Some (_ :: _ as policies) when policies <> [ Panda.Seq_policy.Single ] ->
       (* The policy sweep runs the first of --impls only. *)
       check_sequencer ?faults
         [ (match impls with Some (i :: _) -> i | _ -> Core.Cluster.User) ]
         policies
     | _ ->
       check_sequencer ?faults
         (Option.value impls ~default:Core.Experiments.load_impls)
         [ Panda.Seq_policy.Single ]);
    Core.Cluster.set_default_lanes lanes;
    let config =
      {
        Load.Clients.default with
        Load.Clients.op;
        mix;
        arrival;
        clients_per_node = clients;
        warmup;
        window;
        seed;
      }
    in
    let nodes =
      match nodes with Some n -> n | None -> if sequencer <> None then 8 else 4
    in
    let violations = ref 0 in
    let csv_rows = ref [] in
    let note_metrics ?(extra = []) m = csv_rows := (extra, m) :: !csv_rows in
    (match sequencer with
     | Some [ Panda.Seq_policy.Single ] | Some [] ->
       (* The classic three-stack saturation comparison, all under the
          paper's single-sequencer protocol. *)
       List.iter
         (fun (_, rows) ->
           List.iter
             (fun ((s, m) as row) ->
               violations := !violations + m.Load.Metrics.violations;
               note_metrics ~extra:[ string_of_int s ] m;
               Format.printf "%a@." Core.Experiments.pp_saturation_row row)
             rows;
           Format.printf "@.")
         (Artifacts.with_pool jobs (fun ?pool () ->
              Core.Experiments.sequencer_saturation ?pool ?faults ~checked ~net
                ~nodes ~clients_per_node:clients ~config ?impls ()))
     | Some policies ->
       (* Policy × senders capacity table over one stack (the first of
          --impls, default user). *)
       let impl =
         match impls with Some (i :: _) -> i | _ -> Core.Cluster.User
       in
       List.iter
         (fun (policy, rows) ->
           List.iter
             (fun ((s, m) as row) ->
               violations := !violations + m.Load.Metrics.violations;
               note_metrics
                 ~extra:[ Panda.Seq_policy.to_string policy; string_of_int s ]
                 m;
               Format.printf "%a@." Core.Experiments.pp_policy_row (policy, row))
             rows;
           Format.printf "@.")
         (Artifacts.with_pool jobs (fun ?pool () ->
              Core.Experiments.sequencer_policy_sweep ?pool ?faults ~checked
                ~net ~nodes ~clients_per_node:clients ~config ~impl ~policies ()))
     | None ->
       List.iter
         (fun (_, curve) ->
           List.iter
             (fun m ->
               violations := !violations + m.Load.Metrics.violations;
               note_metrics m)
             curve.Load.Sweep.c_points;
           Format.printf "%a@.@." Load.Sweep.pp_curve curve)
         (Artifacts.with_pool jobs (fun ?pool () ->
              Core.Experiments.load_sweep ?pool ?faults ~checked ~net ~nodes
                ~config ?rates ?impls ())));
    (match out with
     | Some path ->
       let extra_columns =
         match sequencer with
         | None -> []
         | Some [ Panda.Seq_policy.Single ] | Some [] -> [ "senders" ]
         | Some _ -> [ "policy"; "senders" ]
       in
       write_csv path ~extra_columns (List.rev !csv_rows)
     | None -> ());
    if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "load-sweep"
       ~doc:
         "Drive the stacks with sustained seeded traffic: throughput-latency \
          curves with tail percentiles and knee detection, or (with \
          $(b,--sequencer)) group-sender scaling until the sequencers saturate")
    Term.(
      const run $ impls_arg $ rates_arg
      $ nodes_arg ~absent:"4; 8 with $(b,--sequencer)" Arg.(some int) None
      $ clients_arg Load.Clients.default.Load.Clients.clients_per_node
      $ op_arg $ arrival_arg $ mix_arg
      $ window_arg time_conv (seconds 1.)
      $ warmup_arg 0.25 $ seed_arg $ seq_arg $ profile_arg $ faults_arg
      $ checked_arg $ out_arg $ lanes_arg $ jobs_arg 1)

(* --- scenario: replay / tail-grid / soak / calibrate --- *)

let replay_cmd =
  let gen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "gen" ] ~docv:"FILE"
          ~doc:
            "Synthesize a trace (diurnal ramp x bursts over a Poisson base) \
             and write it to $(docv) instead of, or before, replaying")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Replay $(docv) against a cluster; with $(b,--gen FILE) and no \
             $(b,--trace), the generated trace is replayed directly")
  in
  let duration_arg =
    Arg.(
      value
      & opt time_conv (seconds 2.)
      & info [ "duration" ] ~docv:"S" ~doc:"Synthesized trace length, seconds")
  in
  let burst_arg =
    Arg.(
      value & opt float 3.
      & info [ "burst-mult" ] ~doc:"Rate multiplier inside periodic burst windows")
  in
  let scale_arg =
    Arg.(
      value & opt float 1.
      & info [ "scale" ]
          ~doc:
            "Time-scale the replayed trace: $(docv) < 1 compresses it \
             (higher offered load), > 1 stretches it"
        ~docv:"F")
  in
  let run gen trace rate duration period floor burst_mult scale mix impl nodes
      clients checked seed net faults lanes =
    check_sequencer ?faults [ impl ] [ Panda.Seq_policy.Single ];
    Core.Cluster.set_default_lanes lanes;
    (match gen with
     | Some path ->
       let t =
         Load.Trace.synthesize ?period ~floor ~burst_mult ~mix ~rate ~duration
           ~seed ()
       in
       Load.Trace.save path t;
       Printf.printf "wrote %s: %d requests over %.3f s (peak %.0f/s, floor %.2f)\n"
         path (Load.Trace.length t)
         (Sim.Time.to_sec (Load.Trace.duration t))
         rate floor
     | None -> ());
    let replay_path =
      match (trace, gen) with Some p, _ -> Some p | None, g -> g
    in
    match replay_path with
    | None ->
      if gen = None then (
        prerr_endline "replay: nothing to do (need --gen and/or --trace)";
        exit 2)
    | Some path ->
      let tr =
        match Load.Trace.load path with
        | Ok t -> Load.Trace.scale scale t
        | Error e ->
          prerr_endline ("replay: " ^ e);
          exit 2
      in
      (* The window covers the whole scaled trace plus drain slack, so
         every entry is measured; warmup 0 keeps trace offset = schedule. *)
      let cfg =
        {
          Load.Clients.default with
          Load.Clients.arrival =
            Load.Arrival.Replay { rp_path = path; rp_scale = scale };
          clients_per_node = clients;
          warmup = 0;
          window = Load.Trace.duration tr + Sim.Time.ms 500;
          seed;
        }
      in
      let m = Core.Experiments.load_cell ?faults ~checked ~net ~nodes ~impl cfg () in
      Format.printf "%a@.%a@." Load.Metrics.pp_header () Load.Metrics.pp m;
      if m.Load.Metrics.violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Synthesize and/or replay a timestamped request trace against a \
          cluster: entries are dealt round-robin to the client population \
          and latency is measured from each request's scheduled trace time")
    Term.(
      const run $ gen_arg $ trace_arg $ rate_arg 400. $ duration_arg
      $ period_arg ~absent:"the whole duration" Arg.(some time_conv) None
      $ floor_arg 0.1 $ burst_arg $ scale_arg $ mix_arg $ impl_arg
      $ nodes_arg Arg.int 4
      $ clients_arg Load.Clients.default.Load.Clients.clients_per_node
      $ checked_arg $ seed_arg $ profile_arg $ faults_arg $ lanes_arg)

let tail_grid_cmd =
  let losses_arg =
    Arg.(
      value
      & opt (some (list float)) None
      & info [ "losses" ] ~docv:"P,..."
          ~doc:
            "Frame-loss probabilities (default 0,0.001,0.01,0.03); a 0 \
             baseline column is added if omitted")
  in
  let run impls losses rates nodes window seed net out lanes jobs =
    Core.Cluster.set_default_lanes lanes;
    let config = { Load.Clients.default with Load.Clients.window; seed } in
    let cells =
      Artifacts.with_pool jobs (fun ?pool () ->
          Core.Experiments.tail_grid ?pool ~net ~nodes ~config ?losses ?rates
            ?impls ())
    in
    List.iter (fun c -> Format.printf "%a@." Core.Experiments.pp_tail_cell c) cells;
    match out with
    | Some path ->
      write_csv path ~extra_columns:[ "loss" ]
        (List.map
           (fun c ->
             ( [ Printf.sprintf "%.6f" c.Core.Experiments.tc_loss ],
               c.Core.Experiments.tc_metrics ))
           cells)
    | None -> ()
  in
  Cmd.v
    (Cmd.info "tail-grid"
       ~doc:
         "Sweep frame-loss rate x offered load per stack and report \
          p99/p99.9 tail amplification over the loss-free baseline — the \
          cost of the 200 ms retransmission timeout under loss")
    Term.(
      const run $ impls_arg $ losses_arg $ rates_arg $ nodes_arg Arg.int 4
      $ window_arg time_conv (seconds 1.)
      $ seed_arg $ profile_arg $ out_arg $ lanes_arg $ jobs_arg 1)

let soak_cmd =
  let windows_arg =
    Arg.(
      value & opt int Scenario.Soak.default.Scenario.Soak.sk_windows
      & info [ "windows" ] ~doc:"Number of consecutive report windows")
  in
  let run impl nodes policy op rate period floor clients window windows mix
      seed net faults lanes =
    check_sequencer ?faults [ impl ] [ policy ];
    Core.Cluster.set_default_lanes lanes;
    let report =
      Scenario.Soak.run
        {
          Scenario.Soak.sk_impl = impl;
          sk_nodes = nodes;
          sk_policy = policy;
          sk_op = op;
          sk_mix = mix;
          sk_rate = rate;
          sk_period = period;
          sk_floor = floor;
          sk_clients_per_node = clients;
          sk_warmup = Scenario.Soak.default.Scenario.Soak.sk_warmup;
          sk_window = window;
          sk_windows = windows;
          sk_faults = faults;
          sk_net = Some net;
          sk_seed = seed;
        }
    in
    Format.printf "%a@." Scenario.Soak.pp_report report;
    if report.Scenario.Soak.r_violations > 0 then exit 1
  in
  let d = Scenario.Soak.default in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Long-horizon soak: diurnal load, optional fault churn and mid-run \
          sequencer crash, conformance checkers always on, one timeline row \
          per window; nonzero exit on any invariant violation")
    Term.(
      const run $ impl_arg $ nodes_arg Arg.int 4 $ policy_arg $ op_arg
      $ rate_arg d.Scenario.Soak.sk_rate
      $ period_arg time_conv (seconds 2.)
      $ floor_arg d.Scenario.Soak.sk_floor
      $ clients_arg d.Scenario.Soak.sk_clients_per_node
      $ window_arg time_conv (seconds 0.25)
      $ windows_arg $ mix_arg $ seed_arg $ profile_arg $ faults_arg $ lanes_arg)

let calibrate_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the fitted profile to $(docv) (readable by $(b,--profile))")
  in
  let name_arg =
    Arg.(
      value & opt string "fitted"
      & info [ "name" ] ~doc:"The fitted profile's $(b,name) field")
  in
  let run net name out =
    let m = Scenario.Calibrate.measure ~net () in
    Format.printf "%a" Scenario.Calibrate.pp m;
    match Scenario.Calibrate.fit ~name m with
    | Error e ->
      Format.printf "fit FAILED: %s@." e;
      exit 1
    | Ok fitted ->
      Format.printf "fitted constants:@.%s"
        (Core.Params.net_profile_to_string fitted);
      let ref_ms, fit_ms = Scenario.Calibrate.verify ~reference:net fitted in
      Format.printf "verify: user null RPC %.3f ms (reference) vs %.3f ms (fitted)%s@."
        ref_ms fit_ms
        (if ref_ms = fit_ms then " — exact" else " — MISMATCH");
      (match out with
       | Some path ->
         Core.Params.net_profile_save path fitted;
         Printf.printf "wrote %s\n" path
       | None -> ());
      if ref_ms <> fit_ms then exit 1
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Recover a network cost profile from probe simulations alone \
          (wire-busy, receive-interrupt and switch round-trip observables, \
          exact integer fits) and verify it reproduces the reference \
          latency; $(b,--out) saves a profile file for $(b,--profile)")
    Term.(const run $ profile_arg $ name_arg $ out_arg)

(* --- DHT and the one-sided crossover --- *)

let reads_arg =
  Arg.(
    value
    & opt (list int) [ 90 ]
    & info [ "reads" ] ~docv:"PCT,..."
        ~doc:"Get share(s) of the Zipf get/put mix, percent")

let dht_config ~clients ~warmup ~window ~seed =
  {
    Load.Clients.default with
    Load.Clients.clients_per_node = clients;
    warmup;
    window;
    seed;
  }

let dht_cmd =
  let stack_arg =
    Arg.(
      value
      & opt stack_conv Core.Cluster.One_sided
      & info [ "stack" ] ~doc:"kernel | user | optimized | onesided")
  in
  let run stack reads nodes clients window warmup seed net faults checked lanes
      jobs =
    check_stacks ?faults [ stack ];
    Core.Cluster.set_default_lanes lanes;
    let config = dht_config ~clients ~warmup ~window ~seed in
    let cells =
      Artifacts.with_pool jobs (fun ?pool () ->
          Core.Experiments.onesided_crossover ?pool ?faults ~checked
            ~nets:[ net ] ~stacks:[ stack ] ~read_pcts:reads ~nodes ~config ())
    in
    List.iter (fun c -> Format.printf "%a@." Core.Experiments.pp_xcell c) cells;
    if List.exists (fun c -> Artifacts.xcell_violations c > 0) cells then exit 1
  in
  Cmd.v
    (Cmd.info "dht"
       ~doc:
         "Run the Zipf get/put distributed hash table over one stack on one \
          network era (a crossover cell): latency probe plus closed-loop \
          capacity, with the ledger partition and coherence checks")
    Term.(
      const run $ stack_arg $ reads_arg $ nodes_arg Arg.int 4 $ clients_arg 2
      $ window_arg time_conv (seconds 0.5)
      $ warmup_arg 0.1 $ seed_arg $ profile_arg $ faults_arg $ checked_arg
      $ lanes_arg $ jobs_arg 1)

let crossover_cmd =
  let nets_arg =
    Arg.(
      value
      & opt (some (list profile_conv)) None
      & info [ "profiles" ] ~docv:"ERA,..."
          ~doc:"Network eras to sweep (default net10m,net100m,net1g)")
  in
  let run nets stacks reads nodes clients window warmup seed faults checked
      lanes jobs =
    check_stacks ?faults (Option.value stacks ~default:Core.Cluster.all_stacks);
    Core.Cluster.set_default_lanes lanes;
    let config = dht_config ~clients ~warmup ~window ~seed in
    let cells =
      Artifacts.with_pool jobs (fun ?pool () ->
          Core.Experiments.onesided_crossover ?pool ?faults ~checked ?nets
            ?stacks ~read_pcts:reads ~nodes ~config ())
    in
    List.iter (fun c -> Format.printf "%a@." Core.Experiments.pp_xcell c) cells;
    Format.printf "@.";
    List.iter
      (fun r -> Format.printf "%a@." Core.Experiments.pp_crossover_row r)
      (Core.Experiments.crossover_summary cells);
    if List.exists (fun c -> Artifacts.xcell_violations c > 0) cells then exit 1
  in
  Cmd.v
    (Cmd.info "crossover"
       ~doc:
         "Sweep the DHT workload over profile x stack x mix and report the \
          RPC-vs-one-sided capacity crossover with its ledger-differential \
          mechanism")
    Term.(
      const run $ nets_arg $ stacks_arg $ reads_arg $ nodes_arg Arg.int 4
      $ clients_arg 2
      $ window_arg time_conv (seconds 0.5)
      $ warmup_arg 0.1 $ seed_arg $ faults_arg $ checked_arg $ lanes_arg
      $ jobs_arg 1)

(* --- cluster scale --- *)

let skew_conv =
  let parse s =
    match Load.Keys.skew_of_string s with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown skew %S (expected uniform | zipf:THETA)" s))
  in
  Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Load.Keys.skew_label k))

let cluster_cmd =
  let skews_arg =
    Arg.(
      value
      & opt (list skew_conv) Core.Experiments.cluster_skews
      & info [ "skews" ] ~docv:"SKEW,..."
          ~doc:
            "Key popularity skews: $(b,uniform) or $(b,zipf:THETA) \
             (default uniform,zipf:0.99)")
  in
  let shards_arg =
    Arg.(value & opt int 32 & info [ "shards" ] ~doc:"Shards in the key space")
  in
  let replicas_arg =
    Arg.(
      value & opt int 1
      & info [ "replicas" ]
          ~doc:"Copies per shard (primary + backups; one-sided runs force 1)")
  in
  let rebalance_arg =
    Arg.(
      value & flag
      & info [ "rebalance" ]
          ~doc:
            "Run the ledger-driven rebalancer: a controller samples every \
             server's CPU busy-time ledger and migrates shards off \
             saturated machines mid-run.")
  in
  let force_arg =
    Arg.(
      value
      & opt (list time_conv) []
      & info [ "force-migrate" ] ~docv:"T,..."
          ~doc:
            "Simulated seconds at which the rebalancer must issue a \
             migration regardless of its saturation gates (implies \
             $(b,--rebalance)).")
  in
  let ab_arg =
    Arg.(
      value & flag
      & info [ "migration-ab" ]
          ~doc:
            "Instead of the rate sweep, run the placement A/B: the \
             identical skewed closed-loop workload with and without the \
             rebalancer, reporting the achieved-throughput delta \
             attributable to object migration.")
  in
  let run nodes stacks skews rates shards replicas window seed rebalance forced
      ab net faults checked lanes jobs =
    check_stacks ?faults (Option.value stacks ~default:Core.Experiments.cluster_stacks);
    Core.Cluster.set_default_lanes lanes;
    let rebalance =
      if (not rebalance) && forced = [] then None
      else
        Some
          {
            Core.Experiments.cluster_ab_rebalance with
            Shard.Rebalancer.rb_forced = forced;
          }
    in
    (* --window overrides the configuration's own window. *)
    let config (base : Load.Clients.config) =
      { base with Load.Clients.window = Option.value window ~default:base.window; seed }
    in
    let violations = ref 0 in
    let count c = violations := !violations + Artifacts.ccell_violations c in
    if ab then begin
      let nodes = List.nth_opt nodes 0 in
      let stack = Option.bind stacks (fun s -> List.nth_opt s 0) in
      let skew = List.nth_opt skews 0 in
      let static, rebal =
        Artifacts.with_pool jobs (fun ?pool () ->
            Core.Experiments.cluster_migration_ab ?pool ?faults ~checked ~net
              ~lanes ~shards ~replicas ?rebalance ?nodes ?stack ?skew
              ~config:(config Core.Experiments.cluster_ab_config) ())
      in
      count static;
      count rebal;
      Format.printf "static     %a@." Core.Experiments.pp_ccell static;
      Format.printf "rebalanced %a@." Core.Experiments.pp_ccell rebal;
      let a = static.Core.Experiments.cc_metrics.Load.Metrics.achieved
      and b = rebal.Core.Experiments.cc_metrics.Load.Metrics.achieved in
      Format.printf "migration delta: %+.1f%% (%d migrations)@."
        (100. *. (b -. a) /. a)
        rebal.Core.Experiments.cc_migrations
    end
    else
      List.iter
        (fun ((n, stack, skew), cells, knee) ->
          Format.printf "-- %d nodes  %s  %s@." n
            (Core.Cluster.stack_label stack)
            (Load.Keys.skew_label skew);
          List.iter
            (fun c ->
              count c;
              Format.printf "%a@." Core.Experiments.pp_ccell c)
            cells;
          Format.printf "   knee: %a@.@." Core.Experiments.pp_knee knee)
        (Artifacts.with_pool jobs (fun ?pool () ->
             Core.Experiments.cluster_sweep ?pool ?faults ~checked ~net ~lanes
               ~shards ~replicas ?rebalance ~nodes ?stacks ~skews ?rates
               ~config:(config Core.Experiments.cluster_default_config) ()));
    if !violations > 0 then begin
      Printf.eprintf "cluster: %d conformance violations\n" !violations;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Cluster-scale sharded service: 64-512 node multi-segment pools \
          under a Zipf-routed get/put workload, swept to the saturation \
          knee, with optional ledger-driven shard migration \
          ($(b,--rebalance), $(b,--force-migrate)) and the placement A/B \
          ($(b,--migration-ab))")
    Term.(
      const run
      $ nodes_arg Arg.(list int) Core.Experiments.cluster_nodes
      $ stacks_arg $ skews_arg $ rates_arg $ shards_arg $ replicas_arg
      $ window_arg ~absent:"0.4; 1.5 with $(b,--migration-ab)" Arg.(some time_conv) None
      $ seed_arg $ rebalance_arg $ force_arg $ ab_arg $ profile_arg
      $ faults_arg $ checked_arg $ lanes_arg $ jobs_arg 1)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "amoeba_repro" ~version:"1.0"
      ~doc:
        "Reproduction of 'Comparing Kernel-Space and User-Space Communication \
         Protocols on Amoeba' (ICDCS 1995) as a discrete-event simulation"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            bench_cmd;
            latency_cmd;
            app_cmd;
            fault_sweep_cmd;
            load_sweep_cmd;
            replay_cmd;
            tail_grid_cmd;
            soak_cmd;
            calibrate_cmd;
            dht_cmd;
            crossover_cmd;
            cluster_cmd;
          ]))
