module Thread = Machine.Thread
module Mach = Machine.Mach
module T = Flip.Total_order
module History = T.History
module Window = T.Window

type config = {
  header_bytes : int;
  accept_bytes : int;
  copy_byte : Sim.Time.span;
  deliver_fixed : Sim.Time.span;
  seq_process : Sim.Time.span;
  seq_batch_max : int;  (** orderings coalesced per interrupt; 1 = off *)
  seq_order_item : Sim.Time.span;  (** marginal cost per extra batched item *)
  call_depth : int;
  bb_threshold : int;
  retrans_timeout : Sim.Time.span;
  max_retries : int;
  history_high : int;
}

let default_config =
  {
    header_bytes = 52;
    accept_bytes = 32;
    copy_byte = Sim.Time.ns 50;
    deliver_fixed = Sim.Time.us 30;
    seq_process = Sim.Time.us 50;
    seq_batch_max = 1;
    seq_order_item = Sim.Time.us 15;
    call_depth = 2;
    bb_threshold = 1460;
    retrans_timeout = Sim.Time.ms 200;
    max_retries = 30;
    history_high = 512;
  }

type membership_event = Joined of int | Left of int

type Sim.Payload.t +=
  | Join_req of { j_addr : Flip.Address.t }
  | Join_ack of { j_index : int; j_seq : int }
  | Leave_req of { l_index : int }
  | Member_joined of int * Flip.Address.t
  | Member_left of int

(* Sender index used for the sequencer's own membership announcements. *)
let system_sender = -1

type sequencer = {
  sq_flip : Flip.Flip_iface.t;
  h : History.t;
  sq_members : (int, Flip.Address.t) Hashtbl.t;
  mutable sq_next_index : int;
  sq_reasm : Flip.Reassembly.t;
  mutable sq_sys_local : int; (* local-id counter for system announcements *)
  joining : (Flip.Address.t, int) Hashtbl.t; (* joiner addr -> index *)
  join_seq : (int, int) Hashtbl.t; (* index -> seq of its join announcement *)
  left_seq : (int, int) Hashtbl.t; (* index -> seq of its leave announcement *)
  mutable status_round : int;
  last_status_rsp : (int, int) Hashtbl.t; (* index -> round last answered *)
  sq_pending : (int * int * int * Sim.Payload.t) Queue.t; (* batched PB requests *)
  mutable sq_batch_scheduled : bool;
}

type t = {
  cfg : config;
  wire : T.wire;
  stats : T.stats;
  gaddr : Flip.Address.t;
  saddr : Flip.Address.t;
  mutable seqst : sequencer option;
}

type member = {
  grp : t;
  m_flip : Flip.Flip_iface.t;
  m_addr : Flip.Address.t;
  m_reasm : Flip.Reassembly.t;
  win : Window.t;
  deliver_q : (int * int * Sim.Payload.t) Queue.t;
  recv_waiters : (unit -> unit) Queue.t;
  view : (int, unit) Hashtbl.t;
  mutable on_membership : (membership_event -> unit) option;
  mutable join_waiter : (unit -> unit) option;
  mutable leave_waiter : (unit -> unit) option;
}

let config t = t.cfg
let member_index m = Window.me m.win

let member_count t =
  match t.seqst with Some s -> Hashtbl.length s.sq_members | None -> 0

let messages_ordered t = t.stats.T.ordered
let retransmissions t = t.stats.T.retrans
let history_length t = match t.seqst with Some s -> History.length s.h | None -> 0
let pending_deliveries m = Queue.length m.deliver_q
let delivered_seq m = Window.expected m.win - 1
let active m = Window.active m.win
let set_membership_handler m f = m.on_membership <- Some f
let view m = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) m.view [])
let m_mach m = Flip.Flip_iface.machine m.m_flip
let m_eng m = Mach.engine (m_mach m)

(* ------------------------------------------------------------------ *)
(* Sequencer (kernel, interrupt context on the sequencer's machine) *)

let seq_mach s = Flip.Flip_iface.machine s.sq_flip

let seq_unicast t s ~dst ~hdr ~size payload =
  Flip.Flip_iface.unicast ?hdr s.sq_flip ~src:t.saddr ~dst ~size payload

(* Evict members that have ignored many consecutive status rounds, so a
   crashed member cannot block history trimming forever.  The threshold is
   forgiving: losing a few responses to frame loss must not get a live
   member expelled. *)
let eviction_rounds = 8

let evict_unresponsive t s =
  let stale =
    Hashtbl.fold
      (fun ix _addr acc ->
        let last = try Hashtbl.find s.last_status_rsp ix with Not_found -> 0 in
        if s.status_round - last >= eviction_rounds then ix :: acc else acc)
      s.sq_members []
  in
  List.iter
    (fun ix ->
      Hashtbl.remove s.sq_members ix;
      History.forget s.h ix;
      Hashtbl.remove s.last_status_rsp ix;
      s.sq_sys_local <- s.sq_sys_local + 1;
      let local = s.sq_sys_local in
      History.mark_queued s.h ~sender:system_sender ~local;
      Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp ~name:"grp.evict"
        ~cost:t.cfg.seq_process (fun () ->
          let e =
            History.number s.h ~sender:system_sender ~local ~size:t.cfg.accept_bytes
              ~user:(Member_left ix)
          in
          Hashtbl.replace s.left_seq ix e.T.e_seq;
          History.announce s.h e))
    stale

(* Status rounds repeat on a timer until every member has caught up (the
   request carries [next_seq], so a member that silently missed the last
   messages — nothing after them to reveal the gap — asks for them), and a
   member that never answers cannot wedge trimming: after a few ignored
   rounds it is evicted. *)
let rec start_status_round t s =
  s.status_round <- s.status_round + 1;
  evict_unresponsive t s;
  History.status_req s.h;
  ignore
    (Sim.Engine.after (Mach.engine (seq_mach s)) (2 * t.cfg.retrans_timeout) (fun () ->
         if History.exchanging s.h then
           Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp
             ~name:"grp.status" ~cost:t.cfg.seq_process
             (fun () -> start_status_round t s)))

let maybe_status_exchange t s = if History.overflowing s.h then start_status_round t s

(* The idle check's catch-up is a status round; rounds repeat until every
   member has caught up. *)
let arm_idle_check t s =
  History.arm_idle s.h ~catch_up:(fun () ->
      if History.begin_exchange s.h then
        Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp ~name:"grp.status"
          ~cost:t.cfg.seq_process (fun () -> start_status_round t s);
      true)

let do_order t s ~sender ~local ~size ~user =
  let e = History.number s.h ~sender ~local ~size ~user in
  History.announce s.h e;
  (* Membership announcements carry extra bookkeeping. *)
  (match e.T.e_user with
   | Member_joined (index, addr) ->
     Hashtbl.replace s.join_seq index e.T.e_seq;
     History.set_delivered s.h index (e.T.e_seq - 1);
     Hashtbl.replace s.last_status_rsp index s.status_round;
     seq_unicast t s ~dst:addr ~hdr:None ~size:t.cfg.accept_bytes
       (Join_ack { j_index = index; j_seq = e.T.e_seq })
   | Member_left index ->
     Hashtbl.replace s.left_seq index e.T.e_seq;
     Hashtbl.remove s.sq_members index;
     History.forget s.h index
   | _ -> ());
  maybe_status_exchange t s;
  arm_idle_check t s

(* Batched ordering: while one sequencer interrupt is pending, further PB
   data requests queue behind it; the interrupt drains up to
   [seq_batch_max] of them, assigns them a consecutive range and announces
   the whole range in one multicast.  Marginal items cost only
   [seq_order_item] instead of a full [seq_process] — the amortization. *)
let rec do_order_batch t s =
  s.sq_batch_scheduled <- false;
  let entries = ref [] and k = ref 0 in
  while !k < t.cfg.seq_batch_max && not (Queue.is_empty s.sq_pending) do
    let sender, local, size, user = Queue.pop s.sq_pending in
    entries := History.number s.h ~sender ~local ~size ~user :: !entries;
    incr k
  done;
  (match List.rev !entries with
   | [] -> ()
   | [ e ] -> History.announce s.h e
   | entries -> History.announce_batch s.h entries);
  maybe_status_exchange t s;
  arm_idle_check t s;
  if not (Queue.is_empty s.sq_pending) then begin
    s.sq_batch_scheduled <- true;
    Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp ~name:"grp.sequencer"
      ~cost:t.cfg.seq_process (fun () -> do_order_batch t s)
  end

(* A queued ordering request: the sequencer's work is charged as a software
   interrupt on its machine, preempting whatever thread runs there. *)
let schedule_order t s ~sender ~local ~size ~user =
  History.mark_queued s.h ~sender ~local;
  if t.cfg.seq_batch_max > 1 && sender <> system_sender && not (T.uses_bb t.wire size)
  then begin
    Queue.push (sender, local, size, user) s.sq_pending;
    let k = Queue.length s.sq_pending in
    if not s.sq_batch_scheduled then begin
      s.sq_batch_scheduled <- true;
      Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp
        ~name:"grp.sequencer" ~cost:t.cfg.seq_process (fun () ->
          do_order_batch t s)
    end
    else if k > 1 then
      (* The marginal item rides the already-pending interrupt; its cost
         lands as a separate cheap interrupt so the ledger still sees it. *)
      Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp
        ~name:"grp.seq-batch-item" ~cost:t.cfg.seq_order_item (fun () -> ())
  end
  else
    Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp ~name:"grp.sequencer"
      ~cost:t.cfg.seq_process (fun () -> do_order t s ~sender ~local ~size ~user)

let handle_join_req t s ~addr =
  match Hashtbl.find_opt s.joining addr with
  | Some index -> (
      (* Duplicate join: ack again if the announcement is already out. *)
      match Hashtbl.find_opt s.join_seq index with
      | Some seq ->
        seq_unicast t s ~dst:addr ~hdr:None ~size:t.cfg.accept_bytes
          (Join_ack { j_index = index; j_seq = seq })
      | None -> ())
  | None ->
    let index = s.sq_next_index in
    s.sq_next_index <- s.sq_next_index + 1;
    Hashtbl.replace s.joining addr index;
    Hashtbl.replace s.sq_members index addr;
    s.sq_sys_local <- s.sq_sys_local + 1;
    schedule_order t s ~sender:system_sender ~local:s.sq_sys_local
      ~size:t.cfg.accept_bytes ~user:(Member_joined (index, addr))

let handle_leave_req t s ~index =
  match Hashtbl.find_opt s.left_seq index with
  | Some seq -> History.re_announce s.h seq
  | None ->
    if Hashtbl.mem s.sq_members index then begin
      s.sq_sys_local <- s.sq_sys_local + 1;
      schedule_order t s ~sender:system_sender ~local:s.sq_sys_local
        ~size:t.cfg.accept_bytes ~user:(Member_left index)
    end

let seq_handle t s payload =
  match payload with
  | T.Pb { sender; local; size; user } | T.Bb { sender; local; size; user } ->
    if not (History.duplicate s.h ~sender ~local) then
      schedule_order t s ~sender ~local ~size ~user
  | T.Retrans_req { member; from } ->
    let upto = History.burst_end s.h ~from in
    Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp ~name:"grp.retrans"
      ~cost:(t.cfg.seq_process * max 1 (upto - from + 1))
      (fun () ->
        match Hashtbl.find_opt s.sq_members member with
        | Some dst -> History.resend s.h ~from ~upto (seq_unicast t s ~dst)
        | None -> () (* the member is gone *))
  | T.Status_rsp { member; delivered } ->
    if Hashtbl.mem s.sq_members member then begin
      History.report s.h ~member ~delivered;
      Hashtbl.replace s.last_status_rsp member s.status_round;
      History.settle s.h
    end
  | Join_req { j_addr } -> handle_join_req t s ~addr:j_addr
  | Leave_req { l_index } -> handle_leave_req t s ~index:l_index
  | _ -> ()

let seq_input t s frag =
  match Flip.Reassembly.add s.sq_reasm frag with
  | Some (_, _, payload) -> seq_handle t s payload
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Member: ordered delivery *)

let wake_receiver m =
  match Queue.take_opt m.recv_waiters with Some wake -> wake () | None -> ()

let membership_event m event =
  (match event with
   | Joined ix -> Hashtbl.replace m.view ix ()
   | Left ix -> Hashtbl.remove m.view ix);
  (match m.on_membership with Some f -> f event | None -> ());
  match event with
  | Joined ix when ix = Window.me m.win -> (
      match m.join_waiter with
      | Some wake ->
        m.join_waiter <- None;
        wake ()
      | None -> ())
  | Left ix when ix = Window.me m.win -> (
      (* Out of the group (left or evicted): stop all recovery activity so
         a departed member cannot pester the sequencer forever. *)
      Window.leave m.win;
      match m.leave_waiter with
      | Some wake ->
        m.leave_waiter <- None;
        wake ()
      | None -> ())
  | Joined _ | Left _ -> ()

module W = Window.Make (struct
  type nonrec member = member

  let window m = m.win

  let to_sequencer m ~from_timer:_ payload =
    Flip.Flip_iface.unicast m.m_flip ~src:m.m_addr ~dst:m.grp.saddr
      ~size:m.grp.cfg.accept_bytes payload

  let on_gap_timer _ = ()

  let deliver m e =
    if e.T.e_sender = system_sender then (
      match e.T.e_user with
      | Member_joined (ix, _) -> membership_event m (Joined ix)
      | Member_left ix -> membership_event m (Left ix)
      | _ -> ())
    else begin
      Queue.push (e.T.e_sender, e.T.e_size, e.T.e_user) m.deliver_q;
      wake_receiver m;
      Window.complete m.win e ~wake:(fun _ resume -> resume ())
    end
end)

let member_handle m payload =
  if not (W.input m payload) then
    match payload with
    | Join_ack { j_index; j_seq } ->
      if Window.me m.win < 0 then begin
        Window.joined m.win ~index:j_index ~first:j_seq;
        (* Pull the announcement (and anything since) from the history. *)
        W.request m ~from_timer:false
      end
    | _ -> ()

let member_input m frag =
  match Flip.Reassembly.add m.m_reasm frag with
  | Some (_, _, payload) -> member_handle m payload
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Member API *)

let send m ~size payload =
  Obs.Recorder.with_span (m_eng m) Obs.Layer.Amoeba_grp "send" @@ fun () ->
  let t = m.grp in
  let thread = Thread.self () in
  assert (Thread.machine thread == m_mach m);
  if Window.me m.win < 0 || not (Window.active m.win) then
    raise (T.Group_failure "send from a member that has not joined (or has left)");
  Thread.call_frames ~layer:Obs.Layer.Amoeba_grp t.cfg.call_depth;
  let sw = Window.start_send m.win in
  let sender = Window.me m.win and local = Window.local sw in
  let msg_size = T.data_size t.wire size in
  let msg_id = Flip.Flip_iface.alloc_msg_id m.m_flip in
  let hdr = (Obs.Layer.Amoeba_grp, t.cfg.header_bytes) in
  let transmit () =
    if T.uses_bb t.wire size then
      Flip.Flip_iface.multicast ~msg_id ~hdr m.m_flip ~src:m.m_addr ~group:t.gaddr
        ~size:msg_size
        (T.Bb { sender; local; size; user = payload })
    else
      Flip.Flip_iface.unicast ~msg_id ~hdr m.m_flip ~src:m.m_addr ~dst:t.saddr ~size:msg_size
        (T.Pb { sender; local; size; user = payload })
  in
  let retransmit () =
    let cost = Flip.Flip_iface.send_cost m.m_flip ~size:msg_size in
    Mach.interrupt (m_mach m) ~layer:Obs.Layer.Amoeba_grp
      ~charges:[ (Obs.Layer.Flip, Obs.Cause.Proto_proc, cost) ]
      ~name:"grp.resend" ~cost transmit
  in
  (* Transmission overlaps the system call's copy work, as in the RPC. *)
  transmit ();
  Window.arm_retry m.win sw ~retransmit;
  let copy = size * t.cfg.copy_byte in
  let out = Flip.Flip_iface.send_cost m.m_flip ~size:msg_size in
  Thread.syscall ~layer:Obs.Layer.Amoeba_grp ~kernel_work:(copy + out)
    ~charges:
      [ (Obs.Layer.Amoeba_grp, Obs.Cause.Copy, copy);
        (Obs.Layer.Flip, Obs.Cause.Proto_proc, out) ]
    ();
  Window.await sw;
  Thread.ret_frames ~layer:Obs.Layer.Amoeba_grp t.cfg.call_depth;
  Window.check sw

let rec receive_loop m =
  let t = m.grp in
  Thread.syscall ~layer:Obs.Layer.Amoeba_grp ();
  match Queue.take_opt m.deliver_q with
  | Some (sender, size, user) ->
    Thread.compute_parts ~layer:Obs.Layer.Amoeba_grp
      [ (Obs.Cause.Proto_proc, t.cfg.deliver_fixed);
        (Obs.Cause.Copy, size * t.cfg.copy_byte) ];
    (sender, size, user)
  | None ->
    Thread.suspend (fun _ resume -> Queue.push resume m.recv_waiters);
    receive_loop m

let receive m =
  Obs.Recorder.with_span (m_eng m) Obs.Layer.Amoeba_grp "receive" (fun () ->
      receive_loop m)

(* ------------------------------------------------------------------ *)
(* Construction and membership *)

let make_member t flip ~index =
  let eng = Mach.engine (Flip.Flip_iface.machine flip) in
  {
    grp = t;
    m_flip = flip;
    m_addr = Flip.Address.fresh_point eng;
    m_reasm = Flip.Reassembly.create ();
    win =
      Window.create eng ~stats:t.stats ~timeout:t.cfg.retrans_timeout
        ~max_retries:t.cfg.max_retries ~me:index;
    deliver_q = Queue.create ();
    recv_waiters = Queue.create ();
    view = Hashtbl.create 8;
    on_membership = None;
    join_waiter = None;
    leave_waiter = None;
  }

let register_member t ?seq_tap m =
  let gaddr_handler =
    match seq_tap with
    | Some s ->
      fun frag ->
        member_input m frag;
        seq_input t s frag
    | None -> fun frag -> member_input m frag
  in
  Flip.Flip_iface.register m.m_flip t.gaddr gaddr_handler;
  Flip.Flip_iface.register m.m_flip m.m_addr (fun frag -> member_input m frag)

let create_static ?(config = default_config) ~name ~sequencer flips =
  ignore name;
  let n = Array.length flips in
  assert (n > 0 && sequencer >= 0 && sequencer < n);
  let eng = Mach.engine (Flip.Flip_iface.machine flips.(0)) in
  let t =
    {
      cfg = config;
      wire =
        { T.layer = Obs.Layer.Amoeba_grp; header_bytes = config.header_bytes;
          accept_bytes = config.accept_bytes; bb_threshold = config.bb_threshold };
      stats = T.stats ();
      gaddr = Flip.Address.fresh_group eng;
      saddr = Flip.Address.fresh_point eng;
      seqst = None;
    }
  in
  let members = Array.init n (fun i -> make_member t flips.(i) ~index:i) in
  Array.iter
    (fun m -> Array.iteri (fun i _ -> Hashtbl.replace m.view i ()) members)
    members;
  let sq_flip = flips.(sequencer) in
  let s =
    {
      sq_flip;
      h =
        History.create (Mach.engine (Flip.Flip_iface.machine sq_flip)) ~wire:t.wire
          ~stats:t.stats ~high:config.history_high
          ~idle_period:(2 * config.retrans_timeout) ~settle:History.Every_member_caught_up
          ~members:n
          ~mcast:(fun ~hdr ~size payload ->
            Flip.Flip_iface.multicast ?hdr sq_flip ~src:t.saddr ~group:t.gaddr ~size payload);
      sq_members = Hashtbl.create 16;
      sq_next_index = n;
      sq_reasm = Flip.Reassembly.create ();
      sq_sys_local = 0;
      joining = Hashtbl.create 4;
      join_seq = Hashtbl.create 4;
      left_seq = Hashtbl.create 4;
      status_round = 0;
      last_status_rsp = Hashtbl.create 16;
      sq_pending = Queue.create ();
      sq_batch_scheduled = false;
    }
  in
  Array.iteri (fun i m -> Hashtbl.replace s.sq_members i m.m_addr) members;
  t.seqst <- Some s;
  (* The sequencer's point address lives on its machine. *)
  Flip.Flip_iface.register s.sq_flip t.saddr (fun frag -> seq_input t s frag);
  (* Each member listens on the group address and on its own point address
     (for retransmissions unicast by the sequencer).  On the sequencer's
     machine the group-address traffic also feeds the sequencer, which
     needs to see BB data messages to assign them sequence numbers. *)
  Array.iteri
    (fun i m ->
      let seq_tap = if i = sequencer then Some s else None in
      register_member t ?seq_tap m)
    members;
  (t, members)

(* Join and leave requests are retransmitted until their announcement
   comes back through the total order (or the retries run out). *)
let request_until m ~waiter payload =
  let t = m.grp in
  let cancelled = ref false in
  let send_req () =
    Flip.Flip_iface.unicast m.m_flip ~src:m.m_addr ~dst:t.saddr ~size:t.cfg.accept_bytes payload
  in
  let rec arm tries =
    ignore
      (Sim.Engine.after (m_eng m) t.cfg.retrans_timeout (fun () ->
           if not !cancelled then
             if tries >= t.cfg.max_retries then ()
             else begin
               send_req ();
               arm (tries + 1)
             end))
  in
  let out = Flip.Flip_iface.send_cost m.m_flip ~size:t.cfg.accept_bytes in
  Thread.syscall ~layer:Obs.Layer.Amoeba_grp ~kernel_work:out
    ~charges:[ (Obs.Layer.Flip, Obs.Cause.Proto_proc, out) ]
    ();
  send_req ();
  arm 0;
  Thread.suspend (fun _ resume -> waiter resume);
  cancelled := true

let join t flip =
  let m = make_member t flip ~index:(-1) in
  register_member t m;
  request_until m ~waiter:(fun resume -> m.join_waiter <- Some resume)
    (Join_req { j_addr = m.m_addr });
  if Window.me m.win < 0 then raise (T.Group_failure "join did not complete");
  m

let leave m =
  if Window.me m.win >= 0 && Window.active m.win then
    request_until m ~waiter:(fun resume -> m.leave_waiter <- Some resume)
      (Leave_req { l_index = Window.me m.win })
