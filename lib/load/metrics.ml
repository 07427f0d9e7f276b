type t = {
  label : string;
  op : string;
  offered : float;
  achieved : float;
  issued : int;
  completed : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_ms : float;
  max_ms : float;
  client_util : float;
  server_util : float;
  server_thread_util : float;
  seq_util : float;
  ledger_cpu_ms : float;
  violations : int;
  per_shard : int array;
  per_window : t array;
}

let saturated ?(frac = 0.95) t = t.achieved < frac *. t.offered

let pp_header fmt () =
  Format.fprintf fmt "%-10s %5s %9s %9s  %8s %8s %8s %9s  %6s %6s%s" "stack" "op"
    "offered/s" "achieved" "p50 ms" "p95 ms" "p99 ms" "p99.9 ms" "srv%" "seq%" ""

let pp fmt t =
  Format.fprintf fmt
    "%-10s %5s %9.1f %9.1f  %8.3f %8.3f %8.3f %9.3f  %5.1f%% %5.1f%%%s"
    t.label t.op t.offered t.achieved t.p50_ms t.p95_ms t.p99_ms t.p999_ms
    (100. *. t.server_util) (100. *. t.seq_util)
    (if t.violations = 0 then ""
     else Printf.sprintf "  %d VIOLATIONS" t.violations)
