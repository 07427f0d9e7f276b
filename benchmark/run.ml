(* The benchmark driver.

     dune exec ./benchmark/run.exe -- --workload NAME [--seed N] [--seconds S]
                                      [--trace 0|1] [--json FILE]
     dune exec ./benchmark/run.exe -- compare BASE.jsonl NEW.jsonl

   One process runs one workload: timed repetitions (at least one per
   sub-seed, then more until [--seconds] have passed), one checked
   repetition and, with [--trace 1], one traced repetition.
   The last line of standard output is the result as one JSON object;
   [--trace 0] reports the end-to-end metrics BENCHMARK.json lists,
   [--trace 1] its per-layer metrics and writes the host spans to
   NAME.trace.json.  [--json FILE] appends the result, tagged with the
   workload and seed, to FILE for [compare].  The run exits 1 when a
   correctness gate fails. *)

open Benchmark

let spec_file = "BENCHMARK.json"

(* Distinct input seeds per run: sub-seed [i] of [--seed n] is [3n + i]. *)
let sub_seeds = 3

let min_samples = 10_000

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("run.exe: " ^ s); exit 1) fmt

let measure (w : Workloads.t) ~seed ~seconds ~trace =
  let seeded i = Workloads.with_seed ((seed * sub_seeds) + (i mod sub_seeds)) w in
  let start = Unix.gettimeofday () in
  let rec timed acc i =
    if i >= sub_seeds && Unix.gettimeofday () -. start >= seconds then List.rev acc
    else timed (Measure.rep ~probe:(i = 0) (seeded i) :: acc) (i + 1)
  in
  let timed = timed [] 0 in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let checked = Measure.rep ~checked:true (seeded 0) in
  let traced =
    if trace then begin
      Spans.start ();
      let r = Measure.rep (seeded 0) in
      Some (r, Spans.stop ())
    end
    else None
  in
  { Report.timed; sub_seeds; top_heap_mb; checked; traced }

let results (rep : Measure.rep) = List.map (fun c -> c.Measure.result) rep.Measure.cells

let all_reps (r : Report.run) =
  (r.Report.checked :: r.Report.timed) @ Option.to_list (Option.map fst r.Report.traced)

let gates (r : Report.run) =
  let timed = r.Report.timed in
  let replays = r.Report.checked :: Option.to_list (Option.map fst r.Report.traced) in
  let cells = List.concat_map results (all_reps r) in
  [
    ( "repetitions of one sub-seed are bit-identical",
      List.for_all
        (fun (i, rep) -> results rep = results (List.nth timed (i mod sub_seeds)))
        (List.mapi (fun i rep -> (i, rep)) timed) );
    ( "the checked and traced repetitions reproduce sub-seed 0 bit-identically",
      List.for_all (fun rep -> results rep = results (List.hd timed)) replays );
    ("every operation returned", List.for_all (fun c -> c.Cell.attempted = c.Cell.returned) cells);
    ( "no checker, service or at-rest violations",
      List.for_all (fun c -> c.Cell.violations = 0) cells );
    ( Printf.sprintf "every latency cell has at least %d samples" min_samples,
      List.for_all
        (fun rep ->
          List.for_all
            (fun c ->
              c.Measure.kind <> Cell.Latency
              || c.Measure.result.Cell.metrics.Load.Metrics.issued >= min_samples)
            rep.Measure.cells)
        (all_reps r) );
  ]

let spec_names spec key =
  List.filter_map
    (fun m -> Option.bind (Json.member "name" m) Json.to_str)
    (Json.to_list (Option.value ~default:Json.Null (Json.member key spec)))

let read_spec () =
  match Json.read_file spec_file with Ok j -> j | Error e -> die "%s: %s" spec_file e

let bench ~workload ~seed ~seconds ~trace ~json =
  let spec = read_spec () in
  let w =
    match Workloads.find workload with
    | Some w -> w
    | None -> die "unknown workload %S (one of %s)" workload (String.concat ", " Workloads.names)
  in
  let r = measure w ~seed ~seconds ~trace in
  let failed_gates = List.filter (fun (_, ok) -> not ok) (gates r) in
  List.iter (fun (g, _) -> prerr_endline ("run.exe: gate failed: " ^ g)) failed_gates;
  let available = if trace then Report.per_layer r else Report.end_to_end r in
  let metrics =
    List.map
      (fun name ->
        match List.assoc_opt name available with
        | Some { Report.v; unit } ->
          (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ])
        | None -> die "%s names metric %S, which this benchmark does not compute" spec_file name)
      (spec_names spec (if trace then "per_layer" else "end_to_end"))
  in
  let cells = List.concat_map results (all_reps r) in
  let attempted = List.fold_left (fun acc c -> acc + c.Cell.attempted) 0 cells in
  let failed = attempted - List.fold_left (fun acc c -> acc + c.Cell.returned) 0 cells in
  let fields =
    [
      ("correct", Json.Bool (failed_gates = []));
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("metrics", Json.Obj metrics);
    ]
  in
  Option.iter
    (fun (_, spans) ->
      Out_channel.with_open_bin (workload ^ ".trace.json") (fun oc ->
          output_string oc (Json.to_string (Spans.chrome_json spans))))
    r.Report.traced;
  Option.iter
    (fun file ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  ([ ("workload", Json.Str workload); ("seed", Json.Num (float_of_int seed)) ]
                  @ fields)));
          output_char oc '\n'))
    json;
  print_endline (Json.to_string (Json.Obj fields));
  if failed_gates <> [] then exit 1

let compare_files base next =
  let spec = read_spec () in
  let read f = match Compare.read_records f with Ok r -> r | Error e -> die "%s" e in
  let rows = Compare.rows (Compare.spec_metrics spec) (read base) (read next) in
  if rows = [] then die "no (workload, metric) pair appears in both files";
  Printf.printf "%-14s %-22s %-34s %-34s %8s  %s\n" "workload" "metric" "BASE median [q1, q3]"
    "NEW median [q1, q3]" "worse by" "verdict";
  List.iter (fun r -> Format.printf "%a@." Compare.pp_row r) rows;
  if List.exists (fun r -> r.Compare.verdict = Compare.Worse) rows then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: [ base; next ] -> compare_files base next
  | _ :: "compare" :: _ -> die "usage: run.exe compare BASE.jsonl NEW.jsonl"
  | _ ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
    let json = ref None in
    Arg.parse
      [
        ("--workload", Arg.Set_string workload, "NAME workload to run");
        ("--seed", Arg.Set_int seed, "N input seed (default 1)");
        ("--seconds", Arg.Set_float seconds, "S least host seconds of timed repetitions (default 10)");
        ( "--trace",
          Arg.Symbol ([ "0"; "1" ], fun s -> trace := int_of_string s),
          " per-layer metrics and a host trace (default 0)" );
        ("--json", Arg.String (fun f -> json := Some f), "FILE append the result to FILE");
      ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      "run.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--json FILE]";
    if !workload = "" then
      die "--workload is required (one of %s)" (String.concat ", " Workloads.names);
    if !seed < 0 then die "--seed must be non-negative";
    if not (Float.is_finite !seconds) || !seconds < 0. then die "--seconds must be non-negative";
    bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~json:!json
