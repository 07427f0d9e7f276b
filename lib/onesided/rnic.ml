type config = {
  os_header : int;
  post_cost : Sim.Time.span;
  completion_cost : Sim.Time.span;
  op_fixed : Sim.Time.span;
  op_word : Sim.Time.span;
  retrans_timeout : Sim.Time.span;
  max_retries : int;
}

let default_config =
  {
    os_header = 28;
    post_cost = Sim.Time.us 8;
    completion_cost = Sim.Time.us 6;
    op_fixed = Sim.Time.us 5;
    op_word = Sim.Time.ns 10;
    retrans_timeout = Sim.Time.ms 200;
    max_retries = 10;
  }

type op =
  | Read of { words : int }
  | Write of { values : int array }
  | Cas of { expected : int; desired : int }

type result = Values of int array | Written | Cas_was of int

type event =
  | Posted of { op_id : int; op : op }
  | Completed of { op_id : int; result : result; retries : int }
  | Failed of { op_id : int }
  | Target_exec of { src : Flip.Address.t; op_id : int; op : op; fresh : bool }

type Sim.Payload.t +=
  | Os_req of { op_id : int; rkey : int; off : int; op : op }
  | Os_rsp of { op_id : int; result : result }

type t = {
  flip : Flip.Flip_iface.t;
  cfg : config;
  addr : Flip.Address.t;
  reass : Flip.Reassembly.t;
  regions : (int, Region.t) Hashtbl.t;
  calls : result Flip.Request.calls;  (* by op_id *)
  (* At-most-once cas: the prior value each (initiator, op_id) saw. *)
  cas : int Flip.Request.replies;
  mutable n_target : int;
  mutable n_replays : int;
  mutable observer : (event -> unit) option;
}

let addr t = t.addr
let machine t = Flip.Flip_iface.machine t.flip
let config t = t.cfg
let posted t = Flip.Request.opened t.calls
let target_ops t = t.n_target
let retransmissions t = Flip.Request.retransmissions t.calls
let cas_replays t = t.n_replays

let set_observer t f =
  match t.observer with
  | None -> t.observer <- Some f
  | Some g ->
    t.observer <-
      Some
        (fun e ->
          g e;
          f e)

let emit t e = match t.observer with None -> () | Some f -> f e

let register_region t r =
  if Hashtbl.mem t.regions r.Region.key then
    invalid_arg "Rnic.register_region: key already registered";
  Hashtbl.replace t.regions r.Region.key r

let region t ~key =
  match Hashtbl.find_opt t.regions key with
  | Some r -> r
  | None -> invalid_arg "Rnic.region: unknown key"

(* Data bytes carried beyond the one-sided header (8-byte words). *)
let req_bytes = function
  | Read _ -> 0
  | Write { values } -> 8 * Array.length values
  | Cas _ -> 16

let rsp_bytes = function
  | Values v -> 8 * Array.length v
  | Written -> 0
  | Cas_was _ -> 8

(* Words the target touches: drives the per-word interrupt-context cost. *)
let op_words = function
  | Read { words } -> words
  | Write { values } -> Array.length values
  | Cas _ -> 1

let os_hdr t = (Obs.Layer.Onesided, t.cfg.os_header)

(* Target side: runs from the nested one-sided interrupt. *)
let execute t ~src ~op_id ~rkey ~off op =
  let r = region t ~key:rkey in
  let result =
    match op with
    | Read { words } -> Values (Array.sub r.Region.data off words)
    | Write { values } ->
      Array.blit values 0 r.Region.data off (Array.length values);
      Written
    | Cas { expected; desired } ->
      (match Flip.Request.lookup t.cas ~client:src ~id:op_id with
       | Some (Replied old) ->
         (* Retransmitted cas: replay the remembered outcome; executing
            again could swap twice.  Reads and writes are idempotent and
            never reach this path. *)
         t.n_replays <- t.n_replays + 1;
         emit t (Target_exec { src; op_id; op; fresh = false });
         Cas_was old
       | Some (Processing | Acked) | None ->
         let old = r.Region.data.(off) in
         if old = expected then r.Region.data.(off) <- desired;
         Flip.Request.add t.cas ~client:src ~id:op_id (Replied old);
         t.n_target <- t.n_target + 1;
         emit t (Target_exec { src; op_id; op; fresh = true });
         Cas_was old)
  in
  (match op with
   | Cas _ -> ()
   | _ ->
     t.n_target <- t.n_target + 1;
     emit t (Target_exec { src; op_id; op; fresh = true }));
  let msg_id = Flip.Flip_iface.alloc_msg_id t.flip in
  Flip.Flip_iface.unicast ~msg_id ~hdr:(os_hdr t) t.flip ~src:t.addr ~dst:src
    ~size:(t.cfg.os_header + rsp_bytes result)
    (Os_rsp { op_id; result })

let handle_request t ~src ~op_id ~rkey ~off op =
  (* The op completes in a nested interrupt on the target: entry cost to
     (Onesided, Uk_crossing) as for any interrupt, the op itself — data
     access plus emitting the reply — to (Onesided, Offload).  No thread
     is scheduled; this is the whole server-side data path. *)
  let cost = t.cfg.op_fixed + (op_words op * t.cfg.op_word) in
  Machine.Mach.interrupt (machine t) ~layer:Obs.Layer.Onesided
    ~charges:[ (Obs.Layer.Onesided, Obs.Cause.Offload, cost) ]
    ~name:"os.op" ~cost
    (fun () -> execute t ~src ~op_id ~rkey ~off op)

let handle_response t ~op_id result =
  match Flip.Request.find t.calls op_id with
  | Some c ->
    (* The completion is delivered straight into the blocked initiator —
       no scheduler invocation, as for Amoeba's in-kernel reply. *)
    Flip.Request.complete c result ~wake:(fun thread resume ->
        Machine.Thread.mark_direct_wake thread;
        resume ())
  | None -> () (* late duplicate after completion *)

let on_fragment t frag =
  match Flip.Reassembly.add t.reass frag with
  | None -> ()
  | Some (src, _total, payload) ->
    (match payload with
     | Os_req { op_id; rkey; off; op } ->
       handle_request t ~src ~op_id ~rkey ~off op
     | Os_rsp { op_id; result } -> handle_response t ~op_id result
     | _ -> ())

let create ?(config = default_config) flip =
  let eng = Machine.Mach.engine (Flip.Flip_iface.machine flip) in
  let t =
    {
      flip;
      cfg = config;
      addr = Flip.Address.fresh_point eng;
      reass = Flip.Reassembly.create ();
      regions = Hashtbl.create 8;
      calls =
        Flip.Request.create eng ~timeout:config.retrans_timeout
          ~max_retries:config.max_retries;
      cas = Flip.Request.replies ();
      n_target = 0;
      n_replays = 0;
      observer = None;
    }
  in
  Flip.Flip_iface.register flip t.addr (on_fragment t);
  t

(* NIC-autonomous retransmission: the timer and the resend charge no host
   CPU — the adapter retries on its own, which is what lets the initiator
   thread stay blocked at zero cost. *)
let perform t ~dst ~rkey ~off op =
  let c = Flip.Request.start t.calls in
  let op_id = Flip.Request.id c in
  emit t (Posted { op_id; op });
  (* Posting is pure user-level work against the mapped adapter: no
     syscall, no kernel output path — just the post descriptor write. *)
  Machine.Thread.compute ~layer:Obs.Layer.Onesided ~cause:Obs.Cause.Proto_proc
    t.cfg.post_cost;
  let msg_id = Flip.Flip_iface.alloc_msg_id t.flip in
  let send_request () =
    Flip.Flip_iface.unicast ~msg_id ~hdr:(os_hdr t) t.flip ~src:t.addr ~dst
      ~size:(t.cfg.os_header + req_bytes op)
      (Os_req { op_id; rkey; off; op })
  in
  send_request ();
  Flip.Request.arm c ~retransmit:send_request ~give_up:(fun () -> emit t (Failed { op_id }));
  (* The completion may already be in (loopback or a preempting receive
     interrupt during the post). *)
  match Flip.Request.await c with
  | Some result ->
    Machine.Thread.compute ~layer:Obs.Layer.Onesided
      ~cause:Obs.Cause.Proto_proc t.cfg.completion_cost;
    emit t (Completed { op_id; result; retries = Flip.Request.tries c });
    result
  | None ->
    Fmt.failwith "onesided: op %d to %a timed out after %d retries" op_id
      Flip.Address.pp dst (Flip.Request.tries c)

let read t ~dst ~rkey ~off ~words =
  match perform t ~dst ~rkey ~off (Read { words }) with
  | Values v -> v
  | Written | Cas_was _ -> assert false

let write t ~dst ~rkey ~off values =
  match perform t ~dst ~rkey ~off (Write { values }) with
  | Written -> ()
  | Values _ | Cas_was _ -> assert false

let cas t ~dst ~rkey ~off ~expected ~desired =
  match perform t ~dst ~rkey ~off (Cas { expected; desired }) with
  | Cas_was old -> old
  | Values _ | Written -> assert false
