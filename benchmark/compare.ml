(* [run.exe compare BASE NEW]: per (workload, end-to-end metric), each
   side's median and quartiles over its runs, and a verdict against the
   metric's bound from BENCHMARK.json. *)

type metric = { name : string; lower_is_better : bool; bound : float }

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_label = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let spec_metrics spec =
  List.filter_map
    (fun m ->
      match
        ( Option.bind (Json.member "name" m) Json.to_str,
          Option.bind (Json.member "better" m) Json.to_str,
          Option.bind (Json.member "bound" m) Json.to_num )
      with
      | Some name, Some better, Some bound -> Some { name; lower_is_better = better = "lower"; bound }
      | _ -> None)
    (Json.to_list (Option.value ~default:Json.Null (Json.member "end_to_end" spec)))

(* Relative change of [x] against [base], signed so that positive is worse. *)
let worsening m ~base x =
  let d = if base = 0. then 0. else (x -. base) /. Float.abs base in
  if m.lower_is_better then d else -.d

let spread l =
  let q1, med, q3 = Report.quartiles l in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med

(* Unresolved when either side's quartile spread is wider than the bound,
   unless every NEW run beats every BASE run. *)
let judge m base news =
  let beats x y = if m.lower_is_better then x < y else x > y in
  let all_beat = List.for_all (fun n -> List.for_all (fun b -> beats n b) base) news in
  let d = worsening m ~base:(Report.median base) (Report.median news) in
  if spread base > m.bound || spread news > m.bound then
    if all_beat then Better else Unresolved
  else if d > m.bound then Worse
  else if d < -.m.bound then Better
  else Unchanged

(* One JSON record per line, as written by [--json]: the workload name and
   each metric's value. *)
let read_records path =
  match In_channel.with_open_bin path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | lines ->
    List.fold_left
      (fun acc line ->
        match acc with
        | Error _ -> acc
        | Ok recs when String.trim line = "" -> Ok recs
        | Ok recs ->
          (match Json.parse line with
           | Error e -> Error (path ^ ": " ^ e)
           | Ok j ->
             (match Option.bind (Json.member "workload" j) Json.to_str with
              | None -> Error (path ^ ": record without a workload")
              | Some w ->
                let metrics =
                  match Json.member "metrics" j with
                  | Some (Json.Obj l) ->
                    List.filter_map
                      (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_num))
                      l
                  | _ -> []
                in
                Ok ((w, metrics) :: recs))))
      (Ok []) lines
    |> Result.map List.rev

let values recs workload name =
  List.filter_map (fun (w, ms) -> if w = workload then List.assoc_opt name ms else None) recs

type row = {
  workload : string;
  metric : string;
  base : float * float * float;
  next : float * float * float;
  change : float;  (** relative worsening of the median, signed *)
  verdict : verdict;
}

let rows metrics base next =
  let workloads = List.sort_uniq compare (List.map fst base) in
  List.concat_map
    (fun w ->
      List.filter_map
        (fun m ->
          match (values base w m.name, values next w m.name) with
          | [], _ | _, [] -> None
          | b, n ->
            Some
              {
                workload = w;
                metric = m.name;
                base = Report.quartiles b;
                next = Report.quartiles n;
                change = worsening m ~base:(Report.median b) (Report.median n);
                verdict = judge m b n;
              })
        metrics)
    workloads

let pp_row fmt r =
  let q (a, b, c) = Printf.sprintf "%.6g [%.6g, %.6g]" b a c in
  Format.fprintf fmt "%-14s %-22s %-34s %-34s %+7.2f%%  %s" r.workload r.metric (q r.base)
    (q r.next) (100. *. r.change) (verdict_label r.verdict)
