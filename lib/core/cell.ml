type t = {
  cluster : Cluster.t;
  stack : Cluster.stack;
  policy : Panda.Seq_policy.t;
  seq_crash : Sim.Time.t option;
  injected : Faults.Inject.stats option;
  checker : Faults.Invariants.t option;
}

let create ?faults ?(checked = false) ?net ?costs ?lanes
    ?(policy = Panda.Seq_policy.Single) ~n stack =
  let cluster =
    Cluster.create
      ~extra_machine:(stack = Cluster.Rpc_stack Cluster.User_dedicated)
      ?net ?costs ?lanes ~n ()
  in
  let injected =
    Option.map (Faults.Inject.install cluster.Cluster.eng cluster.Cluster.topo) faults
  in
  let checker =
    if checked then
      Some (Faults.Invariants.create ~shards:(Panda.Seq_policy.shards policy) ())
    else None
  in
  {
    cluster;
    stack;
    policy;
    seq_crash = Option.bind faults (fun f -> f.Faults.Spec.seq_crash);
    injected;
    checker;
  }

let cluster t = t.cluster
let checker t = t.checker

let backends t =
  match t.stack with
  | Cluster.Rpc_stack impl ->
    Cluster.backends ?checker:t.checker ~policy:t.policy ?seq_crash:t.seq_crash
      t.cluster impl
  | Cluster.One_sided -> invalid_arg "Cell.backends: a one-sided cell has no RPC stack"

let rnics t =
  if t.seq_crash <> None then
    invalid_arg "Cell.rnics: the one-sided stack has no sequencer to crash";
  let rnics = Cluster.rnics t.cluster in
  Option.iter (fun c -> Faults.Invariants.attach_rnics c rnics) t.checker;
  rnics

let kills t = match t.injected with Some s -> Faults.Inject.killed s | None -> 0

type verdict = { violations : string list; n_violations : int; kills : int }

let finish t =
  match t.checker with
  | Some c ->
    Faults.Invariants.finalize c;
    {
      violations = Faults.Invariants.violations c;
      n_violations = Faults.Invariants.n_violations c;
      kills = kills t;
    }
  | None -> { violations = []; n_violations = 0; kills = kills t }
