module Thread = Machine.Thread
module Mach = Machine.Mach

type config = {
  header_bytes : int;
  copy_byte : Sim.Time.span;
  deliver_fixed : Sim.Time.span;
  call_depth : int;
  retrans_timeout : Sim.Time.span;
  max_retries : int;
}

let default_config =
  {
    header_bytes = 56;
    copy_byte = Sim.Time.ns 50;
    deliver_fixed = Sim.Time.us 30;
    call_depth = 2;
    retrans_timeout = Sim.Time.ms 200;
    max_retries = 30;
  }

exception Rpc_failure of string

type Sim.Payload.t +=
  | Request of { client : Flip.Address.t; trans_id : int; size : int; user : Sim.Payload.t }
  | Reply of { trans_id : int; size : int; user : Sim.Payload.t }
  | Ack of { client : Flip.Address.t; trans_id : int }

type t = {
  flip : Flip.Flip_iface.t;
  cfg : config;
  client_addr : Flip.Address.t;
  reasm : Flip.Reassembly.t;
  calls : (int * Sim.Payload.t) Flip.Request.calls;  (* by trans_id *)
}

type port = {
  rpc : t;
  addr : Flip.Address.t;
  reasm_srv : Flip.Reassembly.t;
  queue : request Queue.t;
  waiters : (unit -> unit) Queue.t;
  replies : (int * Sim.Payload.t * int) Flip.Request.replies;
      (* (size, user, msg_id) of each reply, replayed under its message id *)
}

and request = {
  r_port : port;
  r_client : Flip.Address.t;
  r_trans : int;
  r_size : int;
  r_user : Sim.Payload.t;
  mutable r_thread : Thread.t option;
}

let config t = t.cfg
let flip t = t.flip
let client_address t = t.client_addr
let address port = port.addr
let request_size r = r.r_size
let request_payload r = r.r_user
let request_client r = r.r_client
let transactions t = Flip.Request.opened t.calls
let retransmissions t = Flip.Request.retransmissions t.calls

let mach t = Flip.Flip_iface.machine t.flip
let eng t = Mach.engine (mach t)

(* Total bytes a protocol message occupies as a FLIP message. *)
let wire_size t payload_bytes = t.cfg.header_bytes + payload_bytes

let rpc_hdr t = (Obs.Layer.Amoeba_rpc, t.cfg.header_bytes)

(* Client-side kernel input: reply fragments arrive in interrupt context. *)
let client_input t frag =
  match Flip.Reassembly.add t.reasm frag with
  | Some (server, _, Reply { trans_id; size; user }) -> (
      match Flip.Request.find t.calls trans_id with
      | Some c ->
        (* Acknowledge the reply: the server replays it until acked. *)
        Flip.Flip_iface.unicast t.flip ~src:t.client_addr ~dst:server
          ~size:(wire_size t 0)
          (Ack { client = t.client_addr; trans_id });
        (* Amoeba delivers the reply directly into the blocked client:
           no scheduler invocation. *)
        Flip.Request.complete c (size, user) ~wake:(fun thread resume ->
            Thread.mark_direct_wake thread;
            resume ())
      | None -> () (* transaction already completed; late duplicate *))
  | Some _ | None -> ()

let create ?(config = default_config) flip =
  let eng = Mach.engine (Flip.Flip_iface.machine flip) in
  let client_addr = Flip.Address.fresh_point eng in
  let t =
    {
      flip;
      cfg = config;
      client_addr;
      reasm = Flip.Reassembly.create ();
      calls =
        Flip.Request.create eng ~timeout:config.retrans_timeout
          ~max_retries:config.max_retries;
    }
  in
  Flip.Flip_iface.register flip client_addr (fun frag -> client_input t frag);
  t

let trans t ~dst ~size payload =
  Obs.Recorder.with_span (eng t) Obs.Layer.Amoeba_rpc "trans" @@ fun () ->
  assert (Thread.machine (Thread.self ()) == mach t);
  Thread.call_frames ~layer:Obs.Layer.Amoeba_rpc t.cfg.call_depth;
  let c = Flip.Request.start t.calls in
  let msg_id = Flip.Flip_iface.alloc_msg_id t.flip in
  let send_request () =
    Flip.Flip_iface.unicast ~msg_id ~hdr:(rpc_hdr t) t.flip ~src:t.client_addr ~dst
      ~size:(wire_size t size)
      (Request { client = t.client_addr; trans_id = Flip.Request.id c; size; user = payload })
  in
  (* The kernel hands fragments to the NIC as it copies them, so the
     transmission overlaps the system call's copy work. *)
  send_request ();
  Flip.Request.arm c ~retransmit:(fun () ->
      Obs.Log.log (eng t) "amoeba.rpc" "retransmit to %a (try %d)" Flip.Address.pp dst
        (Flip.Request.tries c);
      (* The retransmission runs in kernel timer context. *)
      let cost = Flip.Flip_iface.send_cost t.flip ~size:(wire_size t size) in
      Mach.interrupt (mach t) ~layer:Obs.Layer.Amoeba_rpc
        ~charges:[ (Obs.Layer.Flip, Obs.Cause.Proto_proc, cost) ]
        ~name:"rpc.retrans" ~cost send_request);
  let copy = size * t.cfg.copy_byte in
  let out = Flip.Flip_iface.send_cost t.flip ~size:(wire_size t size) in
  Thread.syscall ~layer:Obs.Layer.Amoeba_rpc ~kernel_work:(copy + out)
    ~charges:
      [ (Obs.Layer.Amoeba_rpc, Obs.Cause.Copy, copy);
        (Obs.Layer.Flip, Obs.Cause.Proto_proc, out) ]
    ();
  (* The reply may already have arrived while the send syscall ran. *)
  match Flip.Request.await c with
  | Some (rsize, ruser) ->
    (* Copy the reply up to user space and return down the (shallow)
       protocol stack. *)
    Thread.compute_parts ~layer:Obs.Layer.Amoeba_rpc
      [ (Obs.Cause.Proto_proc, t.cfg.deliver_fixed);
        (Obs.Cause.Copy, rsize * t.cfg.copy_byte) ];
    Thread.ret_frames ~layer:Obs.Layer.Amoeba_rpc t.cfg.call_depth;
    (rsize, ruser)
  | None ->
    Thread.ret_frames ~layer:Obs.Layer.Amoeba_rpc t.cfg.call_depth;
    raise (Rpc_failure "transaction timed out")

(* ------------------------------------------------------------------ *)
(* Server side *)

let send_reply_from_kernel port ~client ~trans_id ~size ~user ~msg_id =
  let t = port.rpc in
  Flip.Flip_iface.unicast ~msg_id ~hdr:(rpc_hdr t) t.flip ~src:port.addr
    ~dst:client
    ~size:(wire_size t size)
    (Reply { trans_id; size; user })

let enqueue_request port r =
  Queue.push r port.queue;
  match Queue.take_opt port.waiters with
  | Some wake -> wake ()
  | None -> ()

(* Server-side kernel input, in interrupt context. *)
let server_input port frag =
  match Flip.Reassembly.add port.reasm_srv frag with
  | Some (_, _, Request { client; trans_id; size; user }) -> (
      match Flip.Request.lookup port.replies ~client ~id:trans_id with
      | Some (Processing | Acked) -> () (* being served, or stale *)
      | Some (Replied (size, user, msg_id)) ->
        (* The reply was lost: replay it under the same message id so
           surviving fragments of earlier copies still count. *)
        send_reply_from_kernel port ~client ~trans_id ~size ~user ~msg_id
      | None ->
        Flip.Request.add port.replies ~client ~id:trans_id Processing;
        enqueue_request port
          { r_port = port; r_client = client; r_trans = trans_id; r_size = size;
            r_user = user; r_thread = None })
  | Some (_, _, Ack { client; trans_id }) -> Flip.Request.ack port.replies ~client ~id:trans_id
  | Some _ | None -> ()

let export t ~name =
  ignore name;
  let addr = Flip.Address.fresh_point (eng t) in
  let port =
    {
      rpc = t;
      addr;
      reasm_srv = Flip.Reassembly.create ();
      queue = Queue.create ();
      waiters = Queue.create ();
      replies = Flip.Request.replies ();
    }
  in
  Flip.Flip_iface.register t.flip addr (fun frag -> server_input port frag);
  port

let rec get_request_loop port =
  let t = port.rpc in
  let thread = Thread.self () in
  assert (Thread.machine thread == mach t);
  Thread.syscall ~layer:Obs.Layer.Amoeba_rpc ();
  match Queue.take_opt port.queue with
  | Some r ->
    r.r_thread <- Some thread;
    Thread.compute_parts ~layer:Obs.Layer.Amoeba_rpc
      [ (Obs.Cause.Proto_proc, t.cfg.deliver_fixed);
        (Obs.Cause.Copy, r.r_size * t.cfg.copy_byte) ];
    r
  | None ->
    Thread.suspend (fun _ resume -> Queue.push resume port.waiters);
    (* A same-instant competitor may have taken the request; retry.  The
       retry costs another syscall, as a real re-issued get_request would. *)
    get_request_loop port

let get_request port =
  Obs.Recorder.with_span (eng port.rpc) Obs.Layer.Amoeba_rpc "get_request"
    (fun () -> get_request_loop port)

let put_reply port r ~size payload =
  let t = port.rpc in
  Obs.Recorder.with_span (eng t) Obs.Layer.Amoeba_rpc "put_reply" @@ fun () ->
  let thread = Thread.self () in
  (match r.r_thread with
   | Some owner when owner == thread -> ()
   | Some _ | None ->
     invalid_arg "Rpc.put_reply: reply must be sent by the get_request thread");
  let msg_id = Flip.Flip_iface.alloc_msg_id t.flip in
  Flip.Request.reply port.replies ~client:r.r_client ~id:r.r_trans (size, payload, msg_id);
  (* As in trans: the reply's transmission overlaps the copy work. *)
  send_reply_from_kernel port ~client:r.r_client ~trans_id:r.r_trans ~size ~user:payload
    ~msg_id;
  let copy = size * t.cfg.copy_byte in
  let out = Flip.Flip_iface.send_cost t.flip ~size:(wire_size t size) in
  Thread.syscall ~layer:Obs.Layer.Amoeba_rpc ~kernel_work:(copy + out)
    ~charges:
      [ (Obs.Layer.Amoeba_rpc, Obs.Cause.Copy, copy);
        (Obs.Layer.Flip, Obs.Cause.Proto_proc, out) ]
    ()
