(* Sequencer capacity policies.  The user-space sequencer is the group
   protocol's hardest scaling wall (one machine pinned at 100% CPU orders
   every broadcast); each policy attacks the wall differently and the
   load experiments measure what each one buys. *)

type t =
  | Single
  | Batching of int
  | Sharded of int
  | Failover

let default_batch = 16
let default_shards = 4

let to_string = function
  | Single -> "single"
  | Batching n -> Printf.sprintf "batch:%d" n
  | Sharded n -> Printf.sprintf "shard:%d" n
  | Failover -> "failover"

let label = function
  | Single -> "single"
  | Batching _ -> "batch"
  | Sharded _ -> "shard"
  | Failover -> "failover"

let of_string s =
  let s = String.trim s in
  let name, arg =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
      ( String.sub s 0 i,
        Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let pos_int key v k =
    match int_of_string_opt v with
    | Some n when n > 0 -> Ok (k n)
    | _ -> Error (Printf.sprintf "%s: expected a positive integer, got %S" key v)
  in
  match (name, arg) with
  | "single", None -> Ok Single
  | "batch", None -> Ok (Batching default_batch)
  | "batch", Some v -> pos_int "batch" v (fun n -> Batching n)
  | "shard", None -> Ok (Sharded default_shards)
  | "shard", Some v -> pos_int "shard" v (fun n -> Sharded n)
  | "failover", None -> Ok Failover
  | _ ->
    Error
      (Printf.sprintf
         "unknown sequencer policy %S (expected single, batch[:N], shard[:N] or \
          failover)"
         s)

let sweep =
  [
    Single;
    Batching default_batch;
    Sharded default_shards;
    Failover;
  ]

let parse_list s =
  let items = String.split_on_char ',' s in
  List.fold_left
    (fun acc it ->
      Result.bind acc (fun ps ->
          let it = String.trim it in
          if it = "" then Ok ps
          else if it = "all" then Ok (List.rev_append sweep ps)
          else Result.map (fun p -> p :: ps) (of_string it)))
    (Ok []) items
  |> Result.map List.rev

let shards = function Sharded n -> max 1 n | _ -> 1

(* Fibonacci-hash the key onto a shard: deterministic across runs and
   well-spread even for the sequential keys load generators produce. *)
let shard_of_key ~shards key =
  if shards <= 1 then 0
  else (key * 2654435761) land max_int mod shards
