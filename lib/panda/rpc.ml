module Thread = Machine.Thread
module Id_tbl = Flip.Address.Id_tbl

type config = {
  header_bytes : int;
  call_depth : int;
  proc_cost : Sim.Time.span;
  ack_delay : Sim.Time.span;
  retrans_timeout : Sim.Time.span;
  max_retries : int;
}

let default_config =
  {
    header_bytes = 64;
    call_depth = 2;
    proc_cost = Sim.Time.us 60;
    ack_delay = Sim.Time.ms 20;
    retrans_timeout = Sim.Time.ms 200;
    max_retries = 30;
  }

type Sim.Payload.t +=
  | Preq of {
      client : Flip.Address.t;
      trans_id : int;
      acks : int list;
      size : int;
      user : Sim.Payload.t;
    }
  | Prep of { trans_id : int; size : int; user : Sim.Payload.t }
  | Pack of { client : Flip.Address.t; trans_ids : int list }

exception Rpc_failure of string

type pending = {
  p_id : int;
  p_tag : int;
  p_dst : Flip.Address.t;
  p_size : int;
  p_user : Sim.Payload.t;
  mutable p_reply : (int * Sim.Payload.t) option;
  mutable p_resume : (unit -> unit) option;
  mutable p_thread : Machine.Thread.t option;
  mutable p_timer : Sim.Engine.handle option;
  mutable p_tries : int;
}

type ack_slot = {
  mutable due : int list;
  mutable ack_timer : Sim.Engine.handle option;
}

type req_state =
  | Processing
  | Replied of { rp_size : int; rp_user : Sim.Payload.t; rp_tag : int }
  | Acked
      (* Tombstone: the client acknowledged the reply.  Kept in the
         (bounded) cache rather than removed, so a duplicate of the
         original request still in flight is dropped instead of
         re-running the handler. *)

type handler_fn =
  client:Flip.Address.t ->
  size:int ->
  Sim.Payload.t ->
  reply:(size:int -> Sim.Payload.t -> unit) ->
  unit

type t = {
  sys : System_layer.t;
  cfg : config;
  pending : pending Id_tbl.t;  (* by trans_id *)
  acks : ack_slot Flip.Address.Tbl.t;  (* by server *)
  states : req_state Id_tbl.t;  (* by [Address.pair_key client trans_id] *)
  state_order : int Queue.t;
  mutable handler : handler_fn option;
  mutable next_trans : int;
  mutable n_trans : int;
  mutable n_retrans : int;
  mutable n_explicit_acks : int;
}

let address t = System_layer.address t.sys
let system t = t.sys
let transactions t = t.n_trans
let retransmissions t = t.n_retrans
let explicit_acks t = t.n_explicit_acks
let set_request_handler t h = t.handler <- Some h

let eng t = Machine.Mach.engine (System_layer.machine t.sys)

let msg_size t payload_bytes = t.cfg.header_bytes + payload_bytes

let max_state_cache = 4096

let bound_states t =
  while Queue.length t.state_order > max_state_cache do
    Id_tbl.remove t.states (Queue.pop t.state_order)
  done

let note_acked t client trans_id =
  let key = Flip.Address.pair_key client trans_id in
  if Id_tbl.mem t.states key then Id_tbl.replace t.states key Acked

(* --- reply acknowledgement bookkeeping (client side) --- *)

let ack_slot t dst =
  match Flip.Address.Tbl.find_opt t.acks dst with
  | Some s -> s
  | None ->
    let s = { due = []; ack_timer = None } in
    Flip.Address.Tbl.add t.acks dst s;
    s

(* Steal pending acks to piggyback on an outgoing request. *)
let take_acks t dst =
  match Flip.Address.Tbl.find_opt t.acks dst with
  | None -> []
  | Some s ->
    let due = s.due in
    s.due <- [];
    (match s.ack_timer with
     | Some h ->
       Sim.Engine.cancel (eng t) h;
       s.ack_timer <- None
     | None -> ());
    due

let note_ack_due t dst trans_id =
  let s = ack_slot t dst in
  if not (List.mem trans_id s.due) then s.due <- trans_id :: s.due;
  if s.ack_timer = None then
    s.ack_timer <-
      Some
        (Sim.Engine.after (eng t) t.cfg.ack_delay (fun () ->
             s.ack_timer <- None;
             let due = s.due in
             s.due <- [];
             if due <> [] then begin
               t.n_explicit_acks <- t.n_explicit_acks + 1;
               System_layer.send_from_interrupt t.sys ~dst ~size:(msg_size t 0)
                 (Pack { client = address t; trans_ids = due })
             end))

(* --- client --- *)

let rpc_hdr t = (Obs.Layer.Panda_rpc, t.cfg.header_bytes)

let send_request t p ~acks =
  System_layer.send ~tag:p.p_tag ~hdr:(rpc_hdr t) t.sys ~dst:p.p_dst
    ~size:(msg_size t p.p_size)
    (Preq { client = address t; trans_id = p.p_id; acks; size = p.p_size; user = p.p_user })

let rec arm_retrans t p =
  p.p_timer <-
    Some
      (Sim.Engine.after (eng t) t.cfg.retrans_timeout (fun () ->
           if p.p_reply = None then
             if p.p_tries >= t.cfg.max_retries then (
               match p.p_resume with
               | Some resume ->
                 p.p_resume <- None;
                 resume ()
               | None -> ())
             else begin
               p.p_tries <- p.p_tries + 1;
               t.n_retrans <- t.n_retrans + 1;
               System_layer.send_from_interrupt ~tag:p.p_tag ~hdr:(rpc_hdr t)
                 t.sys ~dst:p.p_dst
                 ~size:(msg_size t p.p_size)
                 (Preq
                    { client = address t; trans_id = p.p_id; acks = []; size = p.p_size;
                      user = p.p_user });
               arm_retrans t p
             end))

let trans t ~dst ~size payload =
  Obs.Recorder.with_span (eng t) Obs.Layer.Panda_rpc "trans" @@ fun () ->
  Thread.call_frames ~layer:Obs.Layer.Panda_rpc t.cfg.call_depth;
  Thread.compute ~layer:Obs.Layer.Panda_rpc t.cfg.proc_cost;
  t.next_trans <- t.next_trans + 1;
  t.n_trans <- t.n_trans + 1;
  let p =
    {
      p_id = t.next_trans;
      p_tag = System_layer.alloc_tag t.sys;
      p_dst = dst;
      p_size = size;
      p_user = payload;
      p_reply = None;
      p_resume = None;
      p_thread = None;
      p_timer = None;
      p_tries = 0;
    }
  in
  Id_tbl.add t.pending p.p_id p;
  let acks = take_acks t dst in
  send_request t p ~acks;
  arm_retrans t p;
  if p.p_reply = None then
    Thread.suspend (fun th resume ->
        p.p_thread <- Some th;
        p.p_resume <- Some resume);
  Id_tbl.remove t.pending p.p_id;
  (match p.p_timer with Some h -> Sim.Engine.cancel (eng t) h | None -> ());
  match p.p_reply with
  | Some (rsize, ruser) ->
    (* The reply must be acknowledged: piggybacked on the next request to
       this server, or sent explicitly after ack_delay. *)
    note_ack_due t dst p.p_id;
    Thread.ret_frames ~layer:Obs.Layer.Panda_rpc t.cfg.call_depth;
    (rsize, ruser)
  | None ->
    Thread.ret_frames ~layer:Obs.Layer.Panda_rpc t.cfg.call_depth;
    raise (Rpc_failure "panda transaction timed out")

(* --- server --- *)

let pan_rpc_reply t ~client ~trans_id ~size payload =
  let rp_tag = System_layer.alloc_tag t.sys in
  Id_tbl.replace t.states (Flip.Address.pair_key client trans_id)
    (Replied { rp_size = size; rp_user = payload; rp_tag });
  System_layer.send ~tag:rp_tag ~hdr:(rpc_hdr t) t.sys ~dst:client
    ~size:(msg_size t size)
    (Prep { trans_id; size; user = payload })

(* Runs as an upcall in the system-layer daemon. *)
let on_message t ~src ~size:_ payload =
  match payload with
  | Preq { client; trans_id; acks; size; user } ->
    Thread.compute ~layer:Obs.Layer.Panda_rpc t.cfg.proc_cost;
    List.iter (fun id -> note_acked t client id) acks;
    let key = Flip.Address.pair_key client trans_id in
    (match Id_tbl.find_opt t.states key with
     | Some Processing -> () (* duplicate while the handler runs *)
     | Some Acked -> () (* stale duplicate of a completed transaction *)
     | Some (Replied { rp_size; rp_user; rp_tag }) ->
       (* Reply was lost: replay it under the same tag (charged to the
          daemon). *)
       System_layer.send_from_daemon ~tag:rp_tag ~hdr:(rpc_hdr t) t.sys
         ~dst:client ~size:(msg_size t rp_size)
         (Prep { trans_id; size = rp_size; user = rp_user })
     | None -> (
         match t.handler with
         | None -> ()
         | Some handler ->
           Id_tbl.replace t.states key Processing;
           Queue.push key t.state_order;
           bound_states t;
           Obs.Recorder.with_span (eng t) Obs.Layer.Panda_rpc "serve"
             (fun () ->
               handler ~client ~size user
                 ~reply:(fun ~size payload ->
                   pan_rpc_reply t ~client ~trans_id ~size payload))));
    true
  | Prep { trans_id; size; user } ->
    Thread.compute ~layer:Obs.Layer.Panda_rpc t.cfg.proc_cost;
    (match Id_tbl.find_opt t.pending trans_id with
     | Some p when p.p_reply = None ->
       (match p.p_timer with Some h -> Sim.Engine.cancel (eng t) h | None -> ());
       p.p_reply <- Some (size, user);
       (match p.p_resume with
        | Some resume ->
          p.p_resume <- None;
          (* Signalling the blocked client costs the daemon a kernel
             crossing (kernel threads), then the client is scheduled: the
             user-space implementation's two extra context switches. *)
          System_layer.wake_blocked ?thread:p.p_thread t.sys resume
        | None -> ())
     | Some _ | None ->
       (* Duplicate reply: the ack was lost; make sure another one goes
          out so the server stops replaying. *)
       note_ack_due t src trans_id);
    true
  | Pack { client; trans_ids } ->
    List.iter (fun id -> note_acked t client id) trans_ids;
    true
  | _ -> false

let create ?(config = default_config) sys =
  let t =
    {
      sys;
      cfg = config;
      pending = Id_tbl.create 16;
      acks = Flip.Address.Tbl.create 8;
      states = Id_tbl.create 64;
      state_order = Queue.create ();
      handler = None;
      next_trans = 0;
      n_trans = 0;
      n_retrans = 0;
      n_explicit_acks = 0;
    }
  in
  System_layer.add_handler sys (fun ~src ~size payload -> on_message t ~src ~size payload);
  t
