module Thread = Machine.Thread
module Mach = Machine.Mach
module Id_tbl = Flip.Address.Id_tbl

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

type pending = {
  p_id : int;
  p_msg_id : int;
  p_dst : Flip.Address.t;
  p_size : int;
  p_user : Sim.Payload.t;
  p_thread : Thread.t;
  mutable p_reply : (int * Sim.Payload.t) option;
  mutable p_failed : bool;
  mutable p_resume : (unit -> unit) option;
  mutable p_timer : Sim.Engine.handle option;
  mutable p_tries : int;
}

type t = {
  flip : Flip.Flip_iface.t;
  cfg : config;
  client_addr : Flip.Address.t;
  reasm : Flip.Reassembly.t;
  pending : pending Id_tbl.t;  (* by trans_id *)
  mutable next_trans : int;
  mutable n_trans : int;
  mutable n_retrans : int;
}

type req_state =
  | Processing
  | Replied of { rp_size : int; rp_user : Sim.Payload.t; rp_msg_id : int }
  | Acked
      (* Tombstone: the client acknowledged the reply.  The entry must
         survive in the (bounded) cache — deleting it would let a
         duplicate of the original request, still in flight, re-run the
         handler and break at-most-once. *)

type port = {
  rpc : t;
  addr : Flip.Address.t;
  reasm_srv : Flip.Reassembly.t;
  queue : request Queue.t;
  waiters : (unit -> unit) Queue.t;
  states : req_state Id_tbl.t;  (* by [Address.pair_key client trans_id] *)
  state_order : int Queue.t; (* insertion order, for bounding *)
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
let transactions t = t.n_trans
let retransmissions t = t.n_retrans

let mach t = Flip.Flip_iface.machine t.flip
let eng t = Mach.engine (mach t)

(* Total bytes a protocol message occupies as a FLIP message. *)
let wire_size t payload_bytes = t.cfg.header_bytes + payload_bytes

let rpc_hdr t = (Obs.Layer.Amoeba_rpc, t.cfg.header_bytes)

let send_request t p =
  Flip.Flip_iface.unicast ~msg_id:p.p_msg_id ~hdr:(rpc_hdr t) t.flip
    ~src:t.client_addr ~dst:p.p_dst
    ~size:(wire_size t p.p_size)
    (Request { client = t.client_addr; trans_id = p.p_id; size = p.p_size; user = p.p_user })

let wake_client p =
  match p.p_resume with
  | Some resume ->
    p.p_resume <- None;
    resume ()
  | None -> ()

let rec arm_timer t p =
  p.p_timer <-
    Some
      (Sim.Engine.after (eng t) t.cfg.retrans_timeout (fun () ->
           if p.p_reply = None && not p.p_failed then
             if p.p_tries >= t.cfg.max_retries then begin
               p.p_failed <- true;
               wake_client p
             end
             else begin
               p.p_tries <- p.p_tries + 1;
               t.n_retrans <- t.n_retrans + 1;
               Obs.Log.log (eng t) "amoeba.rpc" "retransmit to %a (try %d)"
                 Flip.Address.pp p.p_dst p.p_tries;
               (* The retransmission runs in kernel timer context. *)
               let cost =
                 Flip.Flip_iface.send_cost t.flip ~size:(wire_size t p.p_size)
               in
               Mach.interrupt (mach t) ~layer:Obs.Layer.Amoeba_rpc
                 ~charges:[ (Obs.Layer.Flip, Obs.Cause.Proto_proc, cost) ]
                 ~name:"rpc.retrans" ~cost
                 (fun () -> send_request t p);
               arm_timer t p
             end))

(* Client-side kernel input: reply fragments arrive in interrupt context. *)
let client_input t frag =
  match Flip.Reassembly.add t.reasm frag with
  | Some (_, _, Reply { trans_id; size; user }) -> (
      (* Acknowledge every reply copy: the server retransmits until acked. *)
      (match Id_tbl.find_opt t.pending trans_id with
       | Some p ->
         Flip.Flip_iface.unicast t.flip ~src:t.client_addr ~dst:p.p_dst
           ~size:(wire_size t 0)
           (Ack { client = t.client_addr; trans_id });
         if p.p_reply = None then begin
           (match p.p_timer with Some h -> Sim.Engine.cancel (eng t) h | None -> ());
           p.p_reply <- Some (size, user);
           (* Amoeba delivers the reply directly into the blocked client:
              no scheduler invocation. *)
           Thread.mark_direct_wake p.p_thread;
           wake_client p
         end
       | None -> () (* transaction already completed; late duplicate *))
    )
  | Some _ | None -> ()

let create ?(config = default_config) flip =
  let client_addr =
    Flip.Address.fresh_point (Mach.engine (Flip.Flip_iface.machine flip))
  in
  let t =
    {
      flip;
      cfg = config;
      client_addr;
      reasm = Flip.Reassembly.create ();
      pending = Id_tbl.create 16;
      next_trans = 0;
      n_trans = 0;
      n_retrans = 0;
    }
  in
  Flip.Flip_iface.register flip client_addr (fun frag -> client_input t frag);
  t

let trans t ~dst ~size payload =
  Obs.Recorder.with_span (eng t) Obs.Layer.Amoeba_rpc "trans" @@ fun () ->
  let thread = Thread.self () in
  assert (Thread.machine thread == mach t);
  Thread.call_frames ~layer:Obs.Layer.Amoeba_rpc t.cfg.call_depth;
  t.next_trans <- t.next_trans + 1;
  t.n_trans <- t.n_trans + 1;
  let p =
    {
      p_id = t.next_trans;
      p_msg_id = Flip.Flip_iface.alloc_msg_id t.flip;
      p_dst = dst;
      p_size = size;
      p_user = payload;
      p_thread = thread;
      p_reply = None;
      p_failed = false;
      p_resume = None;
      p_timer = None;
      p_tries = 0;
    }
  in
  Id_tbl.add t.pending p.p_id p;
  (* The kernel hands fragments to the NIC as it copies them, so the
     transmission overlaps the system call's copy work. *)
  send_request t p;
  arm_timer t p;
  let copy = size * t.cfg.copy_byte in
  let out = Flip.Flip_iface.send_cost t.flip ~size:(wire_size t size) in
  Thread.syscall ~layer:Obs.Layer.Amoeba_rpc ~kernel_work:(copy + out)
    ~charges:
      [ (Obs.Layer.Amoeba_rpc, Obs.Cause.Copy, copy);
        (Obs.Layer.Flip, Obs.Cause.Proto_proc, out) ]
    ();
  (* The reply may already have arrived while the send syscall ran. *)
  if p.p_reply = None && not p.p_failed then
    Thread.suspend (fun _ resume -> p.p_resume <- Some resume);
  Id_tbl.remove t.pending p.p_id;
  match p.p_reply with
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

let max_reply_cache = 4096

let bound_states port =
  while Queue.length port.state_order > max_reply_cache do
    Id_tbl.remove port.states (Queue.pop port.state_order)
  done

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
      let key = Flip.Address.pair_key client trans_id in
      match Id_tbl.find_opt port.states key with
      | Some Processing -> () (* duplicate of a request being served *)
      | Some Acked -> () (* stale duplicate of a completed transaction *)
      | Some (Replied { rp_size; rp_user; rp_msg_id }) ->
        (* The reply was lost: replay it under the same message id so
           surviving fragments of earlier copies still count. *)
        send_reply_from_kernel port ~client ~trans_id ~size:rp_size ~user:rp_user
          ~msg_id:rp_msg_id
      | None ->
        Id_tbl.replace port.states key Processing;
        Queue.push key port.state_order;
        bound_states port;
        enqueue_request port
          { r_port = port; r_client = client; r_trans = trans_id; r_size = size;
            r_user = user; r_thread = None })
  | Some (_, _, Ack { client; trans_id }) ->
    let key = Flip.Address.pair_key client trans_id in
    if Id_tbl.mem port.states key then Id_tbl.replace port.states key Acked
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
      states = Id_tbl.create 64;
      state_order = Queue.create ();
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
  Id_tbl.replace port.states (Flip.Address.pair_key r.r_client r.r_trans)
    (Replied { rp_size = size; rp_user = payload; rp_msg_id = msg_id });
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
