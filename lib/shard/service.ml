type params = {
  sv_keys : int;
  sv_value_words : int;
  sv_shards : int;
  sv_replicas : int;
  sv_read_pct : int;
  sv_skew : Load.Keys.skew;
  sv_store_fixed : Sim.Time.span;
  sv_store_word : Sim.Time.span;
  sv_backoff : Sim.Time.span;
}

let default_params =
  {
    sv_keys = 4096;
    sv_value_words = 16;
    sv_shards = 16;
    sv_replicas = 1;
    sv_read_pct = 90;
    sv_skew = Load.Keys.Zipf 0.99;
    sv_store_fixed = Sim.Time.us 5;
    sv_store_word = Sim.Time.ns 10;
    sv_backoff = Sim.Time.ms 2;
  }

type Sim.Payload.t +=
  | Sv_get of { key : int }
  | Sv_put of { key : int; rid : int }
  | Sv_val of { key : int; version : int; block : int array }
  | Sv_ack of { rid : int; dedup : bool }
  | Sv_moved of { shard : int; owner : int; epoch : int }
  | Sv_prop of { shard : int; key : int; version : int; rid : int }
  | Sv_prop_ack
  | Sv_move of { shard : int; to_rank : int; epoch : int }
  | Sv_move_ack of { ok : bool }
  | Sv_install of {
      shard : int;
      epoch : int;
      to_rank : int;
      versions : int array;  (** local-slot order *)
      rids : int array;  (** the shard's dedup set, sorted *)
      relays : (int * int) array;  (** (rid, key) parked during the freeze *)
    }
  | Sv_install_ack

(* Block layout: value words then a tag word carrying the version, so any
   reader can verify the block against its own tag — stale is legal, torn
   or spliced is not. *)
let block_words p = p.sv_value_words + 1
let mix key version = (key * 1_000_003) lxor (version * 7_919)
let pattern_word key version j = mix key version + j

let fill_block p ~key ~version (a : int array) ~off =
  for j = 0 to p.sv_value_words - 1 do
    a.(off + j) <- pattern_word key version j
  done;
  a.(off + p.sv_value_words) <- version

(* Request framing bytes beyond the data words (opcode, key, rid). *)
let req_meta = 16

type shard_state = {
  ss_shard : int;
  mutable ss_epoch : int;
  mutable ss_primary : bool;
  ss_versions : int array;  (* per local slot *)
  ss_blocks : int array;  (* local slot * block_words *)
  ss_dedup : (int, unit) Hashtbl.t;  (* applied put rids *)
  mutable ss_frozen : bool;  (* handoff started; refuse service *)
  mutable ss_snapped : bool;  (* handoff snapshot taken; stop relaying *)
  mutable ss_relays_rev : (int * int) list;  (* (rid, key), newest first *)
}

type job =
  | Propagate of { shard : int; key : int; version : int; rid : int }
  | Transfer of { shard : int; to_rank : int; epoch : int }

type server = {
  sr_rank : int;
  sr_mach : Machine.Mach.t;
  sr_states : (int, shard_state) Hashtbl.t;
  sr_moved : (int, int * int) Hashtbl.t;  (* handed-off shard -> (owner, epoch) *)
  sr_view_owner : int array;
  sr_view_epoch : int array;
  sr_queue : job Queue.t;  (* async replication, FIFO *)
  sr_xfer : job Queue.t;  (* handoff transfers: drained first, so a frozen
                             shard is never starved behind replication *)
  sr_mu : Machine.Sync.Mutex.t;
  sr_cv : Machine.Sync.Condvar.t;
  mutable sr_ops : int;
}

type view = { vw_owner : int array; vw_epoch : int array }

type kind =
  | Over_rpc of { backends : Orca.Backend.t array; servers : server array }
  | Over_onesided of {
      rnics : Onesided.Rnic.t array;
      addrs : Flip.Address.t array;  (* per server index *)
      stores : int array array;  (* per server index: its region's words *)
    }

type t = {
  p : params;
  router : Router.t;
  kind : kind;
  keys_of : int array array;
  locate : int -> int * int;
  shard_base : int array;  (* one-sided: shard's slot base inside its region *)
  views : view array;
  rid_next : int array;
  shard_ops : int array;
  migrating : (int, unit) Hashtbl.t;
  mutable n_gets : int;
  mutable n_puts_acked : int;
  mutable n_dedup_hits : int;
  mutable n_relays : int;
  mutable n_migrations : int;
  mutable n_viol : int;
  cdf : float array option;
}

let params t = t.p
let router t = t.router
let gets t = t.n_gets
let puts_acked t = t.n_puts_acked
let dedup_hits t = t.n_dedup_hits
let relays t = t.n_relays
let migrations t = t.n_migrations
let violations t = t.n_viol
let ops t = t.n_gets + t.n_puts_acked
let shard_ops t = Array.copy t.shard_ops

let store_cost p words = p.sv_store_fixed + (words * p.sv_store_word)

let charge p words =
  Machine.Thread.compute ~layer:Obs.Layer.App ~cause:Obs.Cause.Proto_proc
    (store_cost p words)

let fresh_state t ~shard =
  let n_local = Array.length t.keys_of.(shard) in
  let st =
    {
      ss_shard = shard;
      ss_epoch = 0;
      ss_primary = false;
      ss_versions = Array.make n_local 0;
      ss_blocks = Array.make (n_local * block_words t.p) 0;
      ss_dedup = Hashtbl.create 64;
      ss_frozen = false;
      ss_snapped = false;
      ss_relays_rev = [];
    }
  in
  Array.iteri
    (fun li key ->
      fill_block t.p ~key ~version:0 st.ss_blocks ~off:(li * block_words t.p))
    t.keys_of.(shard);
  st

let state_of t srv ~shard =
  match Hashtbl.find_opt srv.sr_states shard with
  | Some st -> st
  | None ->
    let st = fresh_state t ~shard in
    Hashtbl.replace srv.sr_states shard st;
    st

(* Apply one put: bump the slot's version, rewrite the block, remember the
   rid.  Idempotence across handoff lives in [ss_dedup]. *)
let apply_put t st ~li ~key ~rid =
  let v = st.ss_versions.(li) + 1 in
  st.ss_versions.(li) <- v;
  fill_block t.p ~key ~version:v st.ss_blocks ~off:(li * block_words t.p);
  Hashtbl.replace st.ss_dedup rid ();
  v

let enqueue srv job =
  Machine.Sync.Mutex.lock srv.sr_mu;
  (match job with
  | Transfer _ -> Queue.push job srv.sr_xfer
  | Propagate _ -> Queue.push job srv.sr_queue);
  Machine.Sync.Condvar.signal srv.sr_cv;
  Machine.Sync.Mutex.unlock srv.sr_mu

(* The routing answer a server gives when it is not the shard's primary:
   the handoff forwarding entry when it moved the shard away itself, its
   own routing view otherwise.  Either way the epoch lets the client
   reject stale advice. *)
let moved_reply srv ~shard ~reply =
  let owner, epoch =
    match Hashtbl.find_opt srv.sr_moved shard with
    | Some (o, e) -> (o, e)
    | None -> (srv.sr_view_owner.(shard), srv.sr_view_epoch.(shard))
  in
  reply ~size:req_meta (Sv_moved { shard; owner; epoch })

let install t srv ~shard ~epoch ~to_rank ~versions ~rids ~relays =
  let st = state_of t srv ~shard in
  if epoch > st.ss_epoch then begin
    st.ss_epoch <- epoch;
    (* Merge, don't overwrite: an async propagation racing ahead of this
       install may already have applied a version newer than the
       snapshot.  Versions are monotone, so per-slot max is exact. *)
    Array.iteri
      (fun li v ->
        if v > st.ss_versions.(li) then begin
          st.ss_versions.(li) <- v;
          fill_block t.p ~key:t.keys_of.(shard).(li) ~version:v st.ss_blocks
            ~off:(li * block_words t.p)
        end)
      versions;
    Array.iter (fun rid -> Hashtbl.replace st.ss_dedup rid ()) rids;
    (* Requests parked during the freeze: first (and only) application.
       Every member applies them in the same recorded order, so replicas
       agree; the client's retry will hit the dedup table. *)
    Array.iter
      (fun (rid, key) ->
        if not (Hashtbl.mem st.ss_dedup rid) then begin
          let _, li = t.locate key in
          ignore (apply_put t st ~li ~key ~rid)
        end)
      relays;
    st.ss_primary <- srv.sr_rank = to_rank;
    st.ss_frozen <- false;
    st.ss_snapped <- false;
    st.ss_relays_rev <- [];
    srv.sr_view_owner.(shard) <- to_rank;
    srv.sr_view_epoch.(shard) <- epoch;
    Hashtbl.remove srv.sr_moved shard
  end

let on_request t srv ~client:_ ~size:_ payload ~reply =
  let p = t.p in
  match payload with
  | Sv_get { key } -> (
    let shard, li = t.locate key in
    match Hashtbl.find_opt srv.sr_states shard with
    | Some st when st.ss_primary && not st.ss_frozen ->
      charge p (block_words p);
      srv.sr_ops <- srv.sr_ops + 1;
      t.shard_ops.(shard) <- t.shard_ops.(shard) + 1;
      let b = Array.sub st.ss_blocks (li * block_words p) (block_words p) in
      reply ~size:(8 * block_words p)
        (Sv_val { key; version = st.ss_versions.(li); block = b })
    | _ ->
      charge p 0;
      moved_reply srv ~shard ~reply)
  | Sv_put { key; rid } -> (
    let shard, li = t.locate key in
    match Hashtbl.find_opt srv.sr_states shard with
    | Some st when st.ss_primary && not st.ss_frozen ->
      if Hashtbl.mem st.ss_dedup rid then begin
        (* The relay path's second arrival: the put was applied during
           the handoff install, so at-most-once means answering from the
           dedup table, never re-executing. *)
        charge p 0;
        t.n_dedup_hits <- t.n_dedup_hits + 1;
        reply ~size:req_meta (Sv_ack { rid; dedup = true })
      end
      else begin
        charge p (block_words p + 1);
        let version = apply_put t st ~li ~key ~rid in
        srv.sr_ops <- srv.sr_ops + 1;
        t.shard_ops.(shard) <- t.shard_ops.(shard) + 1;
        if p.sv_replicas > 1 then
          enqueue srv (Propagate { shard; key; version; rid });
        reply ~size:req_meta (Sv_ack { rid; dedup = false })
      end
    | Some st when st.ss_primary (* frozen: handoff in progress *) ->
      charge p 0;
      if
        (not st.ss_snapped)
        && (not (Hashtbl.mem st.ss_dedup rid))
        && not (List.exists (fun (r, _) -> r = rid) st.ss_relays_rev)
      then begin
        (* Park the request in the handoff: the new primary applies it at
           install, and this client's retry then finds the rid deduped. *)
        st.ss_relays_rev <- (rid, key) :: st.ss_relays_rev;
        t.n_relays <- t.n_relays + 1
      end;
      moved_reply srv ~shard ~reply
    | _ ->
      charge p 0;
      moved_reply srv ~shard ~reply)
  | Sv_prop { shard; key; version; rid } ->
    let _, li = t.locate key in
    let st = state_of t srv ~shard in
    charge p (block_words p + 1);
    if version > st.ss_versions.(li) then begin
      st.ss_versions.(li) <- version;
      fill_block p ~key ~version st.ss_blocks ~off:(li * block_words p)
    end;
    Hashtbl.replace st.ss_dedup rid ();
    reply ~size:req_meta Sv_prop_ack
  | Sv_move { shard; to_rank; epoch } -> (
    match Hashtbl.find_opt srv.sr_states shard with
    | Some st when st.ss_primary && not st.ss_frozen ->
      charge p 0;
      st.ss_frozen <- true;
      Hashtbl.replace srv.sr_moved shard (to_rank, epoch);
      srv.sr_view_owner.(shard) <- to_rank;
      srv.sr_view_epoch.(shard) <- epoch;
      enqueue srv (Transfer { shard; to_rank; epoch });
      reply ~size:req_meta (Sv_move_ack { ok = true })
    | _ ->
      charge p 0;
      reply ~size:req_meta (Sv_move_ack { ok = false }))
  | Sv_install { shard; epoch; to_rank; versions; rids; relays } ->
    (* Deserialisation cost scales with the transferred state. *)
    charge p
      (Array.length versions * (1 + block_words p)
      + Array.length rids + (2 * Array.length relays));
    install t srv ~shard ~epoch ~to_rank ~versions ~rids ~relays;
    reply ~size:req_meta Sv_install_ack
  | _ ->
    t.n_viol <- t.n_viol + 1;
    reply ~size:req_meta (Sv_ack { rid = -1; dedup = false })

(* ---- the per-server worker: async replication and handoff transfers.
   Runs as an ordinary machine thread so it may block on RPCs — handlers
   never do (they reply inline), which keeps the kernel stack's bounded
   server-thread pool free of park-and-wait cycles across machines. *)

let do_propagate t backends srv ~shard ~key ~version ~rid =
  let size = req_meta + (8 * block_words t.p) in
  List.iter
    (fun rank ->
      if rank <> srv.sr_rank then
        ignore
          (backends.(srv.sr_rank).Orca.Backend.rpc ~dst:rank ~size
             (Sv_prop { shard; key; version; rid })))
    (Router.replica_ranks t.router shard)

let do_transfer t backends servers srv ~shard ~to_rank ~epoch =
  let st = Hashtbl.find srv.sr_states shard in
  st.ss_snapped <- true;
  let versions = Array.copy st.ss_versions in
  let rids =
    Array.of_list
      (List.sort compare
         (Hashtbl.fold (fun rid () acc -> rid :: acc) st.ss_dedup []))
  in
  let relays = Array.of_list (List.rev st.ss_relays_rev) in
  let n_local = Array.length versions in
  let size =
    req_meta
    + (8 * n_local * (1 + block_words t.p))
    + (16 * Array.length rids)
    + (16 * Array.length relays)
  in
  let members = Router.replica_ranks t.router shard in
  List.iter
    (fun rank ->
      if rank = srv.sr_rank then
        (* The old primary stays in the new replica set: install locally. *)
        install t
          servers.(match Router.server_index t.router ~rank with
                   | Some i -> i
                   | None -> assert false)
          ~shard ~epoch ~to_rank ~versions ~rids ~relays
      else
        ignore
          (backends.(srv.sr_rank).Orca.Backend.rpc ~dst:rank ~size
             (Sv_install { shard; epoch; to_rank; versions; rids; relays })))
    members;
  if not (List.mem srv.sr_rank members) then Hashtbl.remove srv.sr_states shard;
  Hashtbl.remove t.migrating shard;
  t.n_migrations <- t.n_migrations + 1

let worker t backends servers srv () =
  let rec loop () =
    Machine.Sync.Mutex.lock srv.sr_mu;
    while Queue.is_empty srv.sr_xfer && Queue.is_empty srv.sr_queue do
      Machine.Sync.Condvar.wait srv.sr_cv srv.sr_mu
    done;
    let job =
      Queue.pop (if Queue.is_empty srv.sr_xfer then srv.sr_queue else srv.sr_xfer)
    in
    Machine.Sync.Mutex.unlock srv.sr_mu;
    (match job with
    | Propagate { shard; key; version; rid } ->
      do_propagate t backends srv ~shard ~key ~version ~rid
    | Transfer { shard; to_rank; epoch } ->
      do_transfer t backends servers srv ~shard ~to_rank ~epoch);
    loop ()
  in
  loop ()

(* ---- construction *)

let make_views router ~ranks ~shards =
  Array.init ranks (fun _ ->
      {
        vw_owner = Array.init shards (fun s -> Router.owner_rank router s);
        vw_epoch = Array.make shards 0;
      })

let base_of_router p router =
  (* One-sided region layout: each server's region concatenates its
     shards' slabs in shard order (static placement only). *)
  let shard_base = Array.make p.sv_shards 0 in
  let keys_of = Router.keys_of_shard ~shards:p.sv_shards ~keys:p.sv_keys in
  let next = Array.make (Router.n_servers router) 0 in
  for s = 0 to p.sv_shards - 1 do
    let o = Router.owner_index router s in
    shard_base.(s) <- next.(o);
    next.(o) <- next.(o) + Array.length keys_of.(s)
  done;
  (keys_of, shard_base, next)

let create_rpc ~params:p ~backends ~router ?lane_of () =
  if Router.shards router <> p.sv_shards then
    invalid_arg "Service.create_rpc: router/params shard mismatch";
  let n = Array.length backends in
  let keys_of = Router.keys_of_shard ~shards:p.sv_shards ~keys:p.sv_keys in
  let server_ranks = Router.servers router in
  let servers =
    Array.map
      (fun rank ->
        let mach = backends.(rank).Orca.Backend.machine in
        {
          sr_rank = rank;
          sr_mach = mach;
          sr_states = Hashtbl.create 16;
          sr_moved = Hashtbl.create 8;
          sr_view_owner =
            Array.init p.sv_shards (fun s -> Router.owner_rank router s);
          sr_view_epoch = Array.make p.sv_shards 0;
          sr_queue = Queue.create ();
          sr_xfer = Queue.create ();
          sr_mu = Machine.Sync.Mutex.create mach;
          sr_cv = Machine.Sync.Condvar.create mach;
          sr_ops = 0;
        })
      server_ranks
  in
  let t =
    {
      p;
      router;
      kind = Over_rpc { backends; servers };
      keys_of;
      locate = Router.locate ~shards:p.sv_shards ~keys:p.sv_keys;
      shard_base = [||];
      views = make_views router ~ranks:n ~shards:p.sv_shards;
      rid_next = Array.make n 0;
      shard_ops = Array.make p.sv_shards 0;
      migrating = Hashtbl.create 8;
      n_gets = 0;
      n_puts_acked = 0;
      n_dedup_hits = 0;
      n_relays = 0;
      n_migrations = 0;
      n_viol = 0;
      cdf = Load.Keys.cdf p.sv_skew ~keys:p.sv_keys;
    }
  in
  (* Initial placement: every replica-set member starts with an installed
     copy, the ring owner as primary. *)
  for s = 0 to p.sv_shards - 1 do
    List.iteri
      (fun i idx ->
        let srv = servers.(idx) in
        let st = state_of t srv ~shard:s in
        st.ss_primary <- i = 0)
      (Router.replica_indices router s)
  done;
  Array.iter
    (fun srv ->
      let b = backends.(srv.sr_rank) in
      b.Orca.Backend.set_rpc_handler (on_request t srv);
      (* Daemon priority: on a saturated server the worker would starve
         behind the protocol daemons at [Normal], leaving frozen shards
         in handoff limbo for the rest of the run. *)
      let spawn () =
        ignore
          (Machine.Thread.spawn srv.sr_mach ~prio:Machine.Thread.Daemon
             (Printf.sprintf "shard-wrk.%d" srv.sr_rank)
             (worker t backends servers srv))
      in
      match lane_of with
      | None -> spawn ()
      | Some lane ->
        Sim.Engine.with_lane (Machine.Mach.engine srv.sr_mach)
          (lane srv.sr_rank) spawn)
    servers;
  t

let region_key = 1

let create_onesided ~params:p ~rnics ~router () =
  if Router.shards router <> p.sv_shards then
    invalid_arg "Service.create_onesided: router/params shard mismatch";
  if Router.replicas router > 1 then
    invalid_arg "Service.create_onesided: one-sided service is unreplicated";
  let keys_of, shard_base, region_slots = base_of_router p router in
  let slot_words = block_words p + 1 in
  let server_ranks = Router.servers router in
  let stores =
    Array.mapi
      (fun i rank ->
        let data = Array.make (region_slots.(i) * slot_words) 0 in
        let region =
          { Onesided.Region.key = region_key; name = "shard"; data }
        in
        Onesided.Rnic.register_region rnics.(rank) region;
        data)
      server_ranks
  in
  let t =
    {
      p;
      router;
      kind =
        Over_onesided
          {
            rnics;
            addrs =
              Array.map (fun rank -> Onesided.Rnic.addr rnics.(rank)) server_ranks;
            stores;
          };
      keys_of;
      locate = Router.locate ~shards:p.sv_shards ~keys:p.sv_keys;
      shard_base;
      views = make_views router ~ranks:(Array.length rnics) ~shards:p.sv_shards;
      rid_next = Array.make (Array.length rnics) 0;
      shard_ops = Array.make p.sv_shards 0;
      migrating = Hashtbl.create 8;
      n_gets = 0;
      n_puts_acked = 0;
      n_dedup_hits = 0;
      n_relays = 0;
      n_migrations = 0;
      n_viol = 0;
      cdf = Load.Keys.cdf p.sv_skew ~keys:p.sv_keys;
    }
  in
  (* Fill every slot with its version-0 pattern. *)
  for s = 0 to p.sv_shards - 1 do
    let o = Router.owner_index router s in
    Array.iteri
      (fun li key ->
        let off = (shard_base.(s) + li) * slot_words in
        stores.(o).(off) <- 0;
        fill_block p ~key ~version:0 stores.(o) ~off:(off + 1))
      keys_of.(s)
  done;
  t

(* ---- client side *)

let check_block t ~key (b : int array) ~off =
  let version = b.(off + t.p.sv_value_words) in
  let ok = ref true in
  for j = 0 to t.p.sv_value_words - 1 do
    if b.(off + j) <> pattern_word key version j then ok := false
  done;
  if not !ok then t.n_viol <- t.n_viol + 1

let next_rid t ~rank =
  let seq = t.rid_next.(rank) in
  t.rid_next.(rank) <- seq + 1;
  (rank lsl 32) lor seq

let rpc_op t backends ~rank ~is_get ~key =
  let shard, _ = t.locate key in
  let view = t.views.(rank) in
  let rid = if is_get then -1 else next_rid t ~rank in
  let size =
    if is_get then req_meta else req_meta + (8 * block_words t.p)
  in
  let payload = if is_get then Sv_get { key } else Sv_put { key; rid } in
  let rec go attempt =
    let owner = view.vw_owner.(shard) in
    let _, rsp = backends.(rank).Orca.Backend.rpc ~dst:owner ~size payload in
    match rsp with
    | Sv_val { key = k; version = _; block } ->
      if k <> key then t.n_viol <- t.n_viol + 1;
      check_block t ~key block ~off:0;
      t.n_gets <- t.n_gets + 1
    | Sv_ack { rid = r; dedup = _ } ->
      if r <> rid then t.n_viol <- t.n_viol + 1;
      t.n_puts_acked <- t.n_puts_acked + 1
    | Sv_moved { shard = s; owner = o; epoch = e } ->
      (* Strictly-newer epochs only: a lagging server must not roll the
         client's route back to an owner that already handed off. *)
      if e > view.vw_epoch.(s) then begin
        view.vw_owner.(s) <- o;
        view.vw_epoch.(s) <- e
      end;
      (* Linearly growing backoff: a shard frozen mid-handoff must not be
         smothered under a redirect storm from every hot-key client. *)
      Machine.Thread.sleep (Stdlib.min attempt 16 * t.p.sv_backoff);
      go (attempt + 1)
    | _ -> t.n_viol <- t.n_viol + 1
  in
  go 1

let os_slot_off t ~shard ~li = (t.shard_base.(shard) + li) * (block_words t.p + 1)

let os_op t rnics addrs ~rank ~is_get ~key =
  let shard, li = t.locate key in
  let o = Router.owner_index t.router shard in
  let r = rnics.(rank) in
  let dst = addrs.(o) in
  let off = os_slot_off t ~shard ~li in
  let bw = block_words t.p in
  if is_get then begin
    (* Index read then block read: every pointer hop is a round trip, no
       server thread anywhere. *)
    let _v =
      (Onesided.Rnic.read r ~dst ~rkey:region_key ~off ~words:1).(0)
    in
    let b =
      Onesided.Rnic.read r ~dst ~rkey:region_key ~off:(off + 1) ~words:bw
    in
    check_block t ~key b ~off:0;
    t.n_gets <- t.n_gets + 1
  end
  else begin
    (* Claim the next version with cas, then publish the block. *)
    let rec claim expected =
      let old =
        Onesided.Rnic.cas r ~dst ~rkey:region_key ~off ~expected
          ~desired:(expected + 1)
      in
      if old = expected then expected + 1 else claim old
    in
    let v0 = (Onesided.Rnic.read r ~dst ~rkey:region_key ~off ~words:1).(0) in
    let v = claim v0 in
    let b = Array.make bw 0 in
    fill_block t.p ~key ~version:v b ~off:0;
    Onesided.Rnic.write r ~dst ~rkey:region_key ~off:(off + 1) b;
    t.n_puts_acked <- t.n_puts_acked + 1;
    t.shard_ops.(shard) <- t.shard_ops.(shard) + 1
  end

let client_op t ~rank rng =
  let is_get = Sim.Rng.int rng 100 < t.p.sv_read_pct in
  let key = Load.Keys.draw ?cdf:t.cdf ~keys:t.p.sv_keys rng in
  match t.kind with
  | Over_rpc { backends; _ } -> rpc_op t backends ~rank ~is_get ~key
  | Over_onesided { rnics; addrs; _ } -> os_op t rnics addrs ~rank ~is_get ~key

(* ---- migration entry point (called from a machine thread) *)

let migrate t ~via ~shard ~to_rank =
  match t.kind with
  | Over_onesided _ -> false
  | Over_rpc { backends; _ } -> (
    if Hashtbl.mem t.migrating shard then false
    else
      match Router.server_index t.router ~rank:to_rank with
      | None -> false
      | Some to_index ->
        let from_rank = Router.owner_rank t.router shard in
        if from_rank = to_rank then false
        else begin
          Hashtbl.replace t.migrating shard ();
          match Router.migrate t.router ~shard ~to_index with
          | None ->
            Hashtbl.remove t.migrating shard;
            false
          | Some epoch ->
            let _, rsp =
              backends.(via).Orca.Backend.rpc ~dst:from_rank ~size:req_meta
                (Sv_move { shard; to_rank; epoch })
            in
            (match rsp with
            | Sv_move_ack { ok = true } -> ()
            | _ -> t.n_viol <- t.n_viol + 1);
            true
        end)

let migration_in_flight t = Hashtbl.length t.migrating > 0

(* ---- end-of-run conformance audit *)

let check_at_rest t =
  let bad = ref [] in
  let addv fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  let applied = ref 0 in
  (match t.kind with
  | Over_rpc { servers; _ } ->
    for shard = 0 to t.p.sv_shards - 1 do
      let owner = Router.owner_rank t.router shard in
      let members = Router.replica_ranks t.router shard in
      let state_at rank =
        match Router.server_index t.router ~rank with
        | None -> None
        | Some i -> Hashtbl.find_opt servers.(i).sr_states shard
      in
      match state_at owner with
      | None -> addv "shard %d: owner %d holds no state at rest" shard owner
      | Some st ->
        if not st.ss_primary then
          addv "shard %d: owner %d's copy is not primary at rest" shard owner;
        if st.ss_frozen then
          addv "shard %d: still frozen at rest (handoff never completed)" shard;
        Array.iteri
          (fun li v ->
            applied := !applied + v;
            let key = t.keys_of.(shard).(li) in
            let off = li * block_words t.p in
            let tag = st.ss_blocks.(off + t.p.sv_value_words) in
            if tag <> v then
              addv "shard %d key %d: version %d but block tag %d" shard key v tag;
            for j = 0 to t.p.sv_value_words - 1 do
              if st.ss_blocks.(off + j) <> pattern_word key tag j then
                addv "shard %d key %d: torn block at rest" shard key
            done)
          st.ss_versions;
        List.iter
          (fun rank ->
            if rank <> owner then
              match state_at rank with
              | None ->
                addv "shard %d: replica member %d holds no copy at rest" shard
                  rank
              | Some sb ->
                if sb.ss_versions <> st.ss_versions then
                  addv "shard %d: replica at %d diverged from primary %d" shard
                    rank owner)
          members
    done
  | Over_onesided { stores; _ } ->
    let slot_words = block_words t.p + 1 in
    for shard = 0 to t.p.sv_shards - 1 do
      let o = Router.owner_index t.router shard in
      Array.iteri
        (fun li key ->
          let off = (t.shard_base.(shard) + li) * slot_words in
          let v = stores.(o).(off) in
          applied := !applied + v;
          let tag = stores.(o).(off + 1 + t.p.sv_value_words) in
          if tag <> v then
            addv "shard %d key %d: version %d but block tag %d" shard key v tag;
          for j = 0 to t.p.sv_value_words - 1 do
            if stores.(o).(off + 1 + j) <> pattern_word key tag j then
              addv "shard %d key %d: torn block at rest" shard key
          done)
        t.keys_of.(shard)
    done);
  if !applied <> t.n_puts_acked then
    addv
      "exactly-once broken: %d applied versions at rest vs %d acked puts \
       (dedup hits %d, relays %d, migrations %d)"
      !applied t.n_puts_acked t.n_dedup_hits t.n_relays t.n_migrations;
  List.rev !bad

let register_checker t checker =
  Faults.Invariants.add_check checker (fun () -> check_at_rest t)
