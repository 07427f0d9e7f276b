module Thread = Machine.Thread

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

type ack_slot = {
  mutable due : int list;
  mutable ack_timer : Sim.Engine.handle option;
}

type handler_fn =
  client:Flip.Address.t ->
  size:int ->
  Sim.Payload.t ->
  reply:(size:int -> Sim.Payload.t -> unit) ->
  unit

type t = {
  sys : System_layer.t;
  cfg : config;
  calls : (int * Sim.Payload.t) Flip.Request.calls;  (* by trans_id *)
  acks : ack_slot Flip.Address.Tbl.t;  (* by server *)
  replies : (int * Sim.Payload.t * int) Flip.Request.replies;
      (* (size, user, tag) of each reply, replayed under its tag *)
  mutable handler : handler_fn option;
  mutable n_explicit_acks : int;
}

let address t = System_layer.address t.sys
let system t = t.sys
let transactions t = Flip.Request.opened t.calls
let retransmissions t = Flip.Request.retransmissions t.calls
let explicit_acks t = t.n_explicit_acks
let set_request_handler t h = t.handler <- Some h

let eng t = Machine.Mach.engine (System_layer.machine t.sys)

let msg_size t payload_bytes = t.cfg.header_bytes + payload_bytes

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

let trans t ~dst ~size payload =
  Obs.Recorder.with_span (eng t) Obs.Layer.Panda_rpc "trans" @@ fun () ->
  Thread.call_frames ~layer:Obs.Layer.Panda_rpc t.cfg.call_depth;
  Thread.compute ~layer:Obs.Layer.Panda_rpc t.cfg.proc_cost;
  let c = Flip.Request.start t.calls in
  let tag = System_layer.alloc_tag t.sys in
  let request acks =
    Preq { client = address t; trans_id = Flip.Request.id c; acks; size; user = payload }
  in
  System_layer.send ~tag ~hdr:(rpc_hdr t) t.sys ~dst ~size:(msg_size t size)
    (request (take_acks t dst));
  Flip.Request.arm c ~retransmit:(fun () ->
      System_layer.send_from_interrupt ~tag ~hdr:(rpc_hdr t) t.sys ~dst
        ~size:(msg_size t size) (request []));
  match Flip.Request.await c with
  | Some (rsize, ruser) ->
    (* The reply must be acknowledged: piggybacked on the next request to
       this server, or sent explicitly after ack_delay. *)
    note_ack_due t dst (Flip.Request.id c);
    Thread.ret_frames ~layer:Obs.Layer.Panda_rpc t.cfg.call_depth;
    (rsize, ruser)
  | None ->
    Thread.ret_frames ~layer:Obs.Layer.Panda_rpc t.cfg.call_depth;
    raise (Rpc_failure "panda transaction timed out")

(* --- server --- *)

let pan_rpc_reply t ~client ~trans_id ~size payload =
  let tag = System_layer.alloc_tag t.sys in
  Flip.Request.reply t.replies ~client ~id:trans_id (size, payload, tag);
  System_layer.send ~tag ~hdr:(rpc_hdr t) t.sys ~dst:client
    ~size:(msg_size t size)
    (Prep { trans_id; size; user = payload })

(* Runs as an upcall in the system-layer daemon. *)
let on_message t ~src ~size:_ payload =
  match payload with
  | Preq { client; trans_id; acks; size; user } ->
    Thread.compute ~layer:Obs.Layer.Panda_rpc t.cfg.proc_cost;
    List.iter (fun id -> Flip.Request.ack t.replies ~client ~id) acks;
    (match Flip.Request.lookup t.replies ~client ~id:trans_id with
     | Some (Processing | Acked) -> () (* being served, or stale *)
     | Some (Replied (size, user, tag)) ->
       (* Reply was lost: replay it under the same tag (charged to the
          daemon). *)
       System_layer.send_from_daemon ~tag ~hdr:(rpc_hdr t) t.sys ~dst:client
         ~size:(msg_size t size) (Prep { trans_id; size; user })
     | None -> (
         match t.handler with
         | None -> ()
         | Some handler ->
           Flip.Request.add t.replies ~client ~id:trans_id Processing;
           Obs.Recorder.with_span (eng t) Obs.Layer.Panda_rpc "serve"
             (fun () ->
               handler ~client ~size user
                 ~reply:(fun ~size payload ->
                   pan_rpc_reply t ~client ~trans_id ~size payload))));
    true
  | Prep { trans_id; size; user } ->
    Thread.compute ~layer:Obs.Layer.Panda_rpc t.cfg.proc_cost;
    (match Flip.Request.find t.calls trans_id with
     | Some c ->
       (* Signalling the blocked client costs the daemon a kernel crossing
          (kernel threads), then the client is scheduled: the user-space
          implementation's two extra context switches. *)
       Flip.Request.complete c (size, user) ~wake:(fun thread resume ->
           System_layer.wake_blocked ~thread t.sys resume)
     | None ->
       (* Duplicate reply: the ack was lost; make sure another one goes
          out so the server stops replaying. *)
       note_ack_due t src trans_id);
    true
  | Pack { client; trans_ids } ->
    List.iter (fun id -> Flip.Request.ack t.replies ~client ~id) trans_ids;
    true
  | _ -> false

let create ?(config = default_config) sys =
  let t =
    {
      sys;
      cfg = config;
      calls =
        Flip.Request.create
          (Machine.Mach.engine (System_layer.machine sys))
          ~timeout:config.retrans_timeout ~max_retries:config.max_retries;
      acks = Flip.Address.Tbl.create 8;
      replies = Flip.Request.replies ();
      handler = None;
      n_explicit_acks = 0;
    }
  in
  System_layer.add_handler sys (fun ~src ~size payload -> on_message t ~src ~size payload);
  t
