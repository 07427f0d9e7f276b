module Thread = Machine.Thread
module Mach = Machine.Mach
module Id_tbl = Flip.Address.Id_tbl

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

exception Group_failure of string

type entry = {
  e_seq : int;
  e_sender : int;
  e_local : int;
  e_size : int;
  e_user : Sim.Payload.t;
}

type membership_event = Joined of int | Left of int

type Sim.Payload.t +=
  | Pb_req of { sender : int; local_id : int; size : int; user : Sim.Payload.t }
  | Bb_data of { sender : int; local_id : int; size : int; user : Sim.Payload.t }
  | Ordered of entry
  | Ordered_batch of entry list
  | Accept of { a_seq : int; a_sender : int; a_local : int }
  | Retrans_req of { rq_member : int; rq_from : int }
  | Status_req of { sr_next : int }
  | Status_rsp of { st_member : int; st_delivered : int }
  | Join_req of { j_addr : Flip.Address.t }
  | Join_ack of { j_index : int; j_seq : int }
  | Leave_req of { l_index : int }
  | Member_joined of int * Flip.Address.t
  | Member_left of int

(* Sequence numbers queued for ordering but not yet assigned. *)
let queued_mark = -1

(* Sender index used for the sequencer's own membership announcements. *)
let system_sender = -1

type sequencer = {
  sq_flip : Flip.Flip_iface.t;
  sq_members : (int, Flip.Address.t) Hashtbl.t;
  sq_delivered : (int, int) Hashtbl.t; (* highest contiguous seq reported *)
  mutable sq_next_index : int;
  mutable next_seq : int;
  history : entry Id_tbl.t;
  mutable hist_lo : int;
  ordered_ids : Flip.Ordered_ids.t; (* (sender, local) -> seq, or queued_mark *)
  sq_reasm : Flip.Reassembly.t;
  mutable sq_sys_local : int; (* local-id counter for system announcements *)
  joining : (Flip.Address.t, int) Hashtbl.t; (* joiner addr -> index *)
  join_seq : (int, int) Hashtbl.t; (* index -> seq of its join announcement *)
  left_seq : (int, int) Hashtbl.t; (* index -> seq of its leave announcement *)
  mutable status_outstanding : bool;
  mutable status_round : int;
  last_status_rsp : (int, int) Hashtbl.t; (* index -> round last answered *)
  mutable idle_timer : Sim.Engine.handle option;
  sq_pending : (int * int * int * Sim.Payload.t) Queue.t; (* batched PB requests *)
  mutable sq_batch_scheduled : bool;
}

type t = {
  cfg : config;
  gname : string;
  gaddr : Flip.Address.t;
  saddr : Flip.Address.t;
  mutable seqst : sequencer option;
  mutable n_ordered : int;
  mutable n_retrans : int;
}

type slot = Full of entry | Awaiting of { aw_sender : int; aw_local : int }

type send_wait = {
  sw_local : int;
  sw_size : int;
  sw_user : Sim.Payload.t;
  mutable sw_done : bool;
  mutable sw_failed : bool;
  mutable sw_resume : (unit -> unit) option;
  mutable sw_timer : Sim.Engine.handle option;
  mutable sw_tries : int;
}

type member = {
  grp : t;
  m_flip : Flip.Flip_iface.t;
  mutable m_index : int; (* -1 until the join completes *)
  m_addr : Flip.Address.t;
  m_reasm : Flip.Reassembly.t;
  mutable m_active : bool;
  mutable expected : int;
  stash : slot Id_tbl.t;
  (* Keyed by [Flip.Ordered_ids.key] of (sender, local). *)
  awaiting_data : int Id_tbl.t;
  holding : (int * Sim.Payload.t) Id_tbl.t;
  deliver_q : (int * int * Sim.Payload.t) Queue.t;
  recv_waiters : (unit -> unit) Queue.t;
  sends : send_wait Id_tbl.t;
  mutable next_local : int;
  mutable gap_timer : Sim.Engine.handle option;
  mutable n_delivered : int;
  view : (int, unit) Hashtbl.t;
  mutable on_membership : (membership_event -> unit) option;
  mutable join_waiter : (unit -> unit) option;
  mutable leave_waiter : (unit -> unit) option;
}

let config t = t.cfg
let member_index m = m.m_index

let member_count t =
  match t.seqst with Some s -> Hashtbl.length s.sq_members | None -> 0

let messages_ordered t = t.n_ordered
let retransmissions t = t.n_retrans

let history_length t =
  match t.seqst with Some s -> Id_tbl.length s.history | None -> 0

let pending_deliveries m = Queue.length m.deliver_q
let delivered_seq m = m.expected - 1
let active m = m.m_active
let set_membership_handler m f = m.on_membership <- Some f

let view m = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) m.view [])

let m_mach m = Flip.Flip_iface.machine m.m_flip
let m_eng m = Mach.engine (m_mach m)

let data_size t size = t.cfg.header_bytes + size

let pair sender local = Flip.Ordered_ids.key ~sender ~local

(* Data-bearing messages (Pb_req/Bb_data/Ordered) carry the group header
   inside [data_size]; accepts and control traffic stay unattributed. *)
let grp_hdr t = (Obs.Layer.Amoeba_grp, t.cfg.header_bytes)

(* ------------------------------------------------------------------ *)
(* Sequencer (kernel, interrupt context on the sequencer's machine) *)

let seq_mach s = Flip.Flip_iface.machine s.sq_flip

let seq_multicast ?hdr t s ~size payload =
  Flip.Flip_iface.multicast ?hdr s.sq_flip ~src:t.saddr ~group:t.gaddr ~size payload

let seq_unicast ?hdr t s ~dst ~size payload =
  ignore s;
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
      Hashtbl.remove s.sq_delivered ix;
      Hashtbl.remove s.last_status_rsp ix;
      s.sq_sys_local <- s.sq_sys_local + 1;
      Flip.Ordered_ids.replace s.ordered_ids ~sender:system_sender ~local:s.sq_sys_local
        queued_mark;
      let local = s.sq_sys_local in
      Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp ~name:"grp.evict"
        ~cost:t.cfg.seq_process (fun () ->
          let e =
            { e_seq = s.next_seq; e_sender = system_sender; e_local = local;
              e_size = t.cfg.accept_bytes; e_user = Member_left ix }
          in
          s.next_seq <- s.next_seq + 1;
          Id_tbl.replace s.history e.e_seq e;
          Flip.Ordered_ids.replace s.ordered_ids ~sender:system_sender ~local e.e_seq;
          Hashtbl.replace s.left_seq ix e.e_seq;
          t.n_ordered <- t.n_ordered + 1;
          seq_multicast ~hdr:(grp_hdr t) t s ~size:(data_size t e.e_size)
            (Ordered e)))
    stale

(* Every live member has confirmed delivery of the full sequence. *)
let all_caught_up s =
  let lowest = Hashtbl.fold (fun _ v acc -> min v acc) s.sq_delivered max_int in
  lowest = max_int || lowest >= s.next_seq - 1

(* Status rounds repeat on a timer until every member has caught up (the
   request carries [next_seq], so a member that silently missed the last
   messages — nothing after them to reveal the gap — asks for them), and a
   member that never answers cannot wedge trimming: after a few ignored
   rounds it is evicted. *)
let rec start_status_round t s =
  s.status_round <- s.status_round + 1;
  evict_unresponsive t s;
  seq_multicast t s ~size:t.cfg.accept_bytes (Status_req { sr_next = s.next_seq });
  ignore
    (Sim.Engine.after (Mach.engine (seq_mach s)) (2 * t.cfg.retrans_timeout) (fun () ->
         if s.status_outstanding then
           Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp
             ~name:"grp.status" ~cost:t.cfg.seq_process
             (fun () -> start_status_round t s)))

let maybe_status_exchange t s =
  if Id_tbl.length s.history > t.cfg.history_high && not s.status_outstanding then begin
    s.status_outstanding <- true;
    start_status_round t s
  end

(* An idle check runs a while after each ordering: if some member has not
   confirmed the tail of the sequence, run catch-up rounds.  This is what
   guarantees the *last* broadcast of a run reaches everyone — losing it
   leaves no later traffic to expose the gap. *)
let rec arm_idle_check t s =
  (match s.idle_timer with
   | Some h -> Sim.Engine.cancel (Mach.engine (seq_mach s)) h
   | None -> ());
  s.idle_timer <-
    Some
      (Sim.Engine.after (Mach.engine (seq_mach s)) (2 * t.cfg.retrans_timeout) (fun () ->
           s.idle_timer <- None;
           if not (all_caught_up s) then begin
             if not s.status_outstanding then begin
               s.status_outstanding <- true;
               Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp
                 ~name:"grp.status" ~cost:t.cfg.seq_process
                 (fun () -> start_status_round t s)
             end;
             arm_idle_check t s
           end))

let do_order t s ~sender ~local_id ~size ~user =
  let e = { e_seq = s.next_seq; e_sender = sender; e_local = local_id; e_size = size; e_user = user } in
  s.next_seq <- s.next_seq + 1;
  Id_tbl.replace s.history e.e_seq e;
  Flip.Ordered_ids.replace s.ordered_ids ~sender ~local:local_id e.e_seq;
  t.n_ordered <- t.n_ordered + 1;
  if size <= t.cfg.bb_threshold then
    (* PB: the sequencer multicasts the full message. *)
    seq_multicast ~hdr:(grp_hdr t) t s ~size:(data_size t size) (Ordered e)
  else
    (* BB: the data was multicast by the sender; a small accept orders it. *)
    seq_multicast t s ~size:t.cfg.accept_bytes
      (Accept { a_seq = e.e_seq; a_sender = sender; a_local = local_id });
  (* Membership announcements carry extra bookkeeping. *)
  (match e.e_user with
   | Member_joined (index, addr) ->
     Hashtbl.replace s.join_seq index e.e_seq;
     Hashtbl.replace s.sq_delivered index (e.e_seq - 1);
     Hashtbl.replace s.last_status_rsp index s.status_round;
     seq_unicast t s ~dst:addr ~size:t.cfg.accept_bytes
       (Join_ack { j_index = index; j_seq = e.e_seq })
   | Member_left index ->
     Hashtbl.replace s.left_seq index e.e_seq;
     Hashtbl.remove s.sq_members index;
     Hashtbl.remove s.sq_delivered index
   | _ -> ());
  maybe_status_exchange t s;
  arm_idle_check t s

(* A queued ordering request: the sequencer's work is charged as a software
   interrupt on its machine, preempting whatever thread runs there. *)
let schedule_order_now t s ~sender ~local_id ~size ~user =
  Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp ~name:"grp.sequencer"
    ~cost:t.cfg.seq_process (fun () ->
      do_order t s ~sender ~local_id ~size ~user)

(* Batched ordering: while one sequencer interrupt is pending, further PB
   data requests queue behind it; the interrupt drains up to
   [seq_batch_max] of them, assigns them a consecutive range and announces
   the whole range in one multicast.  Marginal items cost only
   [seq_order_item] instead of a full [seq_process] — the amortization. *)
let do_order_entry t s ~sender ~local_id ~size ~user =
  let e =
    { e_seq = s.next_seq; e_sender = sender; e_local = local_id;
      e_size = size; e_user = user }
  in
  s.next_seq <- s.next_seq + 1;
  Id_tbl.replace s.history e.e_seq e;
  Flip.Ordered_ids.replace s.ordered_ids ~sender ~local:local_id e.e_seq;
  t.n_ordered <- t.n_ordered + 1;
  e

let rec do_order_batch t s =
  s.sq_batch_scheduled <- false;
  let entries = ref [] and k = ref 0 in
  while !k < t.cfg.seq_batch_max && not (Queue.is_empty s.sq_pending) do
    let sender, local_id, size, user = Queue.pop s.sq_pending in
    entries := do_order_entry t s ~sender ~local_id ~size ~user :: !entries;
    incr k
  done;
  (match List.rev !entries with
   | [] -> ()
   | [ e ] ->
     seq_multicast ~hdr:(grp_hdr t) t s ~size:(data_size t e.e_size) (Ordered e)
   | entries ->
     let sz =
       List.fold_left (fun a e -> a + 8 + e.e_size) t.cfg.header_bytes entries
     in
     seq_multicast ~hdr:(grp_hdr t) t s ~size:sz (Ordered_batch entries));
  maybe_status_exchange t s;
  arm_idle_check t s;
  if not (Queue.is_empty s.sq_pending) then begin
    s.sq_batch_scheduled <- true;
    Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp ~name:"grp.sequencer"
      ~cost:t.cfg.seq_process (fun () -> do_order_batch t s)
  end

let schedule_order t s ~sender ~local_id ~size ~user =
  Flip.Ordered_ids.replace s.ordered_ids ~sender ~local:local_id queued_mark;
  if
    t.cfg.seq_batch_max > 1 && sender <> system_sender
    && size <= t.cfg.bb_threshold
  then begin
    Queue.push (sender, local_id, size, user) s.sq_pending;
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
  else schedule_order_now t s ~sender ~local_id ~size ~user

let resend_ordered t s ~seq ~to_member =
  match (Id_tbl.find_opt s.history seq, Hashtbl.find_opt s.sq_members to_member) with
  | Some e, Some addr ->
    t.n_retrans <- t.n_retrans + 1;
    seq_unicast ~hdr:(grp_hdr t) t s ~dst:addr ~size:(data_size t e.e_size)
      (Ordered e)
  | _ -> () (* trimmed, or the member is gone *)

let trim_history t s =
  let min_delivered = Hashtbl.fold (fun _ v acc -> min v acc) s.sq_delivered max_int in
  if min_delivered >= 0 && min_delivered < max_int then begin
    while s.hist_lo <= min_delivered do
      Id_tbl.remove s.history s.hist_lo;
      s.hist_lo <- s.hist_lo + 1
    done;
    if Id_tbl.length s.history < t.cfg.history_high && all_caught_up s then
      s.status_outstanding <- false
  end

let max_retrans_burst = 32

(* A sender retransmitted a message that was already ordered: the ordering
   multicast was lost on the wire, i.e. lost for every member at once, so
   re-multicast it (an answer to the sender alone would leave the other
   members with an invisible hole at the end of the sequence). *)
let re_announce t s ~seq =
  match Id_tbl.find_opt s.history seq with
  | None -> () (* trimmed: every member already delivered it *)
  | Some e ->
    t.n_retrans <- t.n_retrans + 1;
    if e.e_size <= t.cfg.bb_threshold then
      seq_multicast ~hdr:(grp_hdr t) t s ~size:(data_size t e.e_size) (Ordered e)
    else
      seq_multicast t s ~size:t.cfg.accept_bytes
        (Accept { a_seq = e.e_seq; a_sender = e.e_sender; a_local = e.e_local })

let handle_join_req t s ~addr =
  match Hashtbl.find_opt s.joining addr with
  | Some index -> (
      (* Duplicate join: ack again if the announcement is already out. *)
      match Hashtbl.find_opt s.join_seq index with
      | Some seq ->
        seq_unicast t s ~dst:addr ~size:t.cfg.accept_bytes
          (Join_ack { j_index = index; j_seq = seq })
      | None -> ())
  | None ->
    let index = s.sq_next_index in
    s.sq_next_index <- s.sq_next_index + 1;
    Hashtbl.replace s.joining addr index;
    Hashtbl.replace s.sq_members index addr;
    s.sq_sys_local <- s.sq_sys_local + 1;
    schedule_order t s ~sender:system_sender ~local_id:s.sq_sys_local
      ~size:t.cfg.accept_bytes ~user:(Member_joined (index, addr))

let handle_leave_req t s ~index =
  match Hashtbl.find_opt s.left_seq index with
  | Some seq -> re_announce t s ~seq
  | None ->
    if Hashtbl.mem s.sq_members index then begin
      s.sq_sys_local <- s.sq_sys_local + 1;
      schedule_order t s ~sender:system_sender ~local_id:s.sq_sys_local
        ~size:t.cfg.accept_bytes ~user:(Member_left index)
    end

let seq_handle t s payload =
  match payload with
  | Pb_req { sender; local_id; size; user } -> (
      match Flip.Ordered_ids.find_opt s.ordered_ids ~sender ~local:local_id with
      | Some seq when seq = queued_mark -> () (* already queued *)
      | Some seq -> re_announce t s ~seq
      | None -> schedule_order t s ~sender ~local_id ~size ~user)
  | Bb_data { sender; local_id; size; user } -> (
      match Flip.Ordered_ids.find_opt s.ordered_ids ~sender ~local:local_id with
      | Some seq when seq = queued_mark -> ()
      | Some seq -> re_announce t s ~seq
      | None -> schedule_order t s ~sender ~local_id ~size ~user)
  | Retrans_req { rq_member; rq_from } ->
    let upto = min (s.next_seq - 1) (rq_from + max_retrans_burst - 1) in
    Mach.interrupt (seq_mach s) ~layer:Obs.Layer.Amoeba_grp ~name:"grp.retrans"
      ~cost:(t.cfg.seq_process * max 1 (upto - rq_from + 1))
      (fun () ->
        for seq = rq_from to upto do
          resend_ordered t s ~seq ~to_member:rq_member
        done)
  | Status_rsp { st_member; st_delivered } ->
    if Hashtbl.mem s.sq_members st_member then begin
      let prev = try Hashtbl.find s.sq_delivered st_member with Not_found -> -1 in
      Hashtbl.replace s.sq_delivered st_member (max prev st_delivered);
      Hashtbl.replace s.last_status_rsp st_member s.status_round;
      trim_history t s;
      if all_caught_up s then s.status_outstanding <- false
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
  | Joined ix when ix = m.m_index -> (
      match m.join_waiter with
      | Some wake ->
        m.join_waiter <- None;
        wake ()
      | None -> ())
  | Left ix when ix = m.m_index -> (
      (* Out of the group (left or evicted): stop all recovery activity so
         a departed member cannot pester the sequencer forever. *)
      m.m_active <- false;
      (match m.gap_timer with
       | Some h ->
         Sim.Engine.cancel (m_eng m) h;
         m.gap_timer <- None
       | None -> ());
      Id_tbl.reset m.stash;
      Id_tbl.reset m.awaiting_data;
      Id_tbl.reset m.holding;
      match m.leave_waiter with
      | Some wake ->
        m.leave_waiter <- None;
        wake ()
      | None -> ())
  | Joined _ | Left _ -> ()

let deliver m e =
  m.n_delivered <- m.n_delivered + 1;
  if e.e_sender = system_sender then (
    match e.e_user with
    | Member_joined (ix, _) -> membership_event m (Joined ix)
    | Member_left ix -> membership_event m (Left ix)
    | _ -> ())
  else begin
    Queue.push (e.e_sender, e.e_size, e.e_user) m.deliver_q;
    wake_receiver m;
    if e.e_sender = m.m_index then
      match Id_tbl.find_opt m.sends e.e_local with
      | Some sw ->
        Id_tbl.remove m.sends e.e_local;
        sw.sw_done <- true;
        (match sw.sw_timer with Some h -> Sim.Engine.cancel (m_eng m) h | None -> ());
        (match sw.sw_resume with
         | Some resume ->
           sw.sw_resume <- None;
           resume ()
         | None -> ())
      | None -> ()
  end

let send_retrans_req m =
  if m.m_active then begin
    m.grp.n_retrans <- m.grp.n_retrans + 1;
    Flip.Flip_iface.unicast m.m_flip ~src:m.m_addr ~dst:m.grp.saddr
      ~size:m.grp.cfg.accept_bytes
      (Retrans_req { rq_member = m.m_index; rq_from = m.expected })
  end

(* Re-request while a gap persists. *)
let rec arm_gap_timer m =
  if m.gap_timer = None && Id_tbl.length m.stash > 0 then
    m.gap_timer <-
      Some
        (Sim.Engine.after (m_eng m) m.grp.cfg.retrans_timeout (fun () ->
             m.gap_timer <- None;
             if Id_tbl.length m.stash > 0 then begin
               send_retrans_req m;
               arm_gap_timer m
             end))

let rec drain m =
  match Id_tbl.find_opt m.stash m.expected with
  | Some (Full e) ->
    Id_tbl.remove m.stash m.expected;
    m.expected <- m.expected + 1;
    deliver m e;
    drain m
  | Some (Awaiting _) | None -> ()

let handle_ordered m e =
  if m.m_active && m.expected >= 0 && e.e_seq >= m.expected then begin
    (match Id_tbl.find_opt m.stash e.e_seq with
     | Some (Full _) -> () (* duplicate *)
     | Some (Awaiting _) | None -> Id_tbl.replace m.stash e.e_seq (Full e));
    Id_tbl.remove m.awaiting_data (pair e.e_sender e.e_local);
    let had_gap = e.e_seq > m.expected in
    drain m;
    if had_gap && Id_tbl.length m.stash > 0 then begin
      send_retrans_req m;
      arm_gap_timer m
    end
  end

let handle_accept m ~a_seq ~a_sender ~a_local =
  if m.expected >= 0 && a_seq >= m.expected then
    match Id_tbl.find_opt m.holding (pair a_sender a_local) with
    | Some (size, user) ->
      Id_tbl.remove m.holding (pair a_sender a_local);
      handle_ordered m
        { e_seq = a_seq; e_sender = a_sender; e_local = a_local; e_size = size; e_user = user }
    | None ->
      (* Accept outran (or lost) the data: remember and fetch it. *)
      (match Id_tbl.find_opt m.stash a_seq with
       | Some (Full _) -> ()
       | Some (Awaiting _) | None ->
         Id_tbl.replace m.stash a_seq (Awaiting { aw_sender = a_sender; aw_local = a_local });
         Id_tbl.replace m.awaiting_data (pair a_sender a_local) a_seq;
         send_retrans_req m;
         arm_gap_timer m)

let member_handle m payload =
  match payload with
  | Ordered e -> handle_ordered m e
  | Ordered_batch entries -> List.iter (fun e -> handle_ordered m e) entries
  | Accept { a_seq; a_sender; a_local } -> handle_accept m ~a_seq ~a_sender ~a_local
  | Bb_data { sender; local_id; size; user } -> (
      match Id_tbl.find_opt m.awaiting_data (pair sender local_id) with
      | Some seq ->
        Id_tbl.remove m.awaiting_data (pair sender local_id);
        handle_ordered m
          { e_seq = seq; e_sender = sender; e_local = local_id; e_size = size; e_user = user }
      | None ->
        if not (Id_tbl.mem m.holding (pair sender local_id)) then
          Id_tbl.replace m.holding (pair sender local_id) (size, user))
  | Status_req { sr_next } ->
    if m.m_index >= 0 && m.m_active then begin
      (* A silent tail: the sequencer has ordered messages we never saw
         and nothing later arrived to reveal the hole — fetch them. *)
      if m.expected < sr_next then send_retrans_req m;
      Flip.Flip_iface.unicast m.m_flip ~src:m.m_addr ~dst:m.grp.saddr
        ~size:m.grp.cfg.accept_bytes
        (Status_rsp { st_member = m.m_index; st_delivered = m.expected - 1 })
    end
  | Join_ack { j_index; j_seq } ->
    if m.m_index < 0 then begin
      m.m_index <- j_index;
      m.expected <- j_seq;
      (* Pull the announcement (and anything since) from the history. *)
      send_retrans_req m
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
  if m.m_index < 0 || not m.m_active then
    raise (Group_failure "send from a member that has not joined (or has left)");
  Thread.call_frames ~layer:Obs.Layer.Amoeba_grp t.cfg.call_depth;
  m.next_local <- m.next_local + 1;
  let sw =
    {
      sw_local = m.next_local;
      sw_size = size;
      sw_user = payload;
      sw_done = false;
      sw_failed = false;
      sw_resume = None;
      sw_timer = None;
      sw_tries = 0;
    }
  in
  Id_tbl.replace m.sends sw.sw_local sw;
  let msg_size = data_size t size in
  let msg_id = Flip.Flip_iface.alloc_msg_id m.m_flip in
  let transmit () =
    if size <= t.cfg.bb_threshold then
      Flip.Flip_iface.unicast ~msg_id ~hdr:(grp_hdr t) m.m_flip ~src:m.m_addr
        ~dst:t.saddr ~size:msg_size
        (Pb_req { sender = m.m_index; local_id = sw.sw_local; size; user = payload })
    else
      Flip.Flip_iface.multicast ~msg_id ~hdr:(grp_hdr t) m.m_flip ~src:m.m_addr
        ~group:t.gaddr ~size:msg_size
        (Bb_data { sender = m.m_index; local_id = sw.sw_local; size; user = payload })
  in
  let rec arm () =
    sw.sw_timer <-
      Some
        (Sim.Engine.after (m_eng m) t.cfg.retrans_timeout (fun () ->
             if not sw.sw_done then
               if sw.sw_tries >= t.cfg.max_retries then begin
                 sw.sw_failed <- true;
                 Id_tbl.remove m.sends sw.sw_local;
                 match sw.sw_resume with
                 | Some resume ->
                   sw.sw_resume <- None;
                   resume ()
                 | None -> ()
               end
               else begin
                 sw.sw_tries <- sw.sw_tries + 1;
                 t.n_retrans <- t.n_retrans + 1;
                 let cost = Flip.Flip_iface.send_cost m.m_flip ~size:msg_size in
                 Mach.interrupt (m_mach m) ~layer:Obs.Layer.Amoeba_grp
                   ~charges:[ (Obs.Layer.Flip, Obs.Cause.Proto_proc, cost) ]
                   ~name:"grp.resend" ~cost transmit;
                 arm ()
               end))
  in
  (* Transmission overlaps the system call's copy work, as in the RPC. *)
  transmit ();
  arm ();
  let copy = size * t.cfg.copy_byte in
  let out = Flip.Flip_iface.send_cost m.m_flip ~size:msg_size in
  Thread.syscall ~layer:Obs.Layer.Amoeba_grp ~kernel_work:(copy + out)
    ~charges:
      [ (Obs.Layer.Amoeba_grp, Obs.Cause.Copy, copy);
        (Obs.Layer.Flip, Obs.Cause.Proto_proc, out) ]
    ();
  if not sw.sw_done then Thread.suspend (fun _ resume -> sw.sw_resume <- Some resume);
  Thread.ret_frames ~layer:Obs.Layer.Amoeba_grp t.cfg.call_depth;
  if sw.sw_failed then raise (Group_failure "broadcast not ordered after retries")

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

let make_member t flip ~index ~active =
  {
    grp = t;
    m_flip = flip;
    m_index = index;
    m_addr = Flip.Address.fresh_point (Mach.engine (Flip.Flip_iface.machine flip));
    m_reasm = Flip.Reassembly.create ();
    m_active = active;
    expected = (if active then 0 else -1);
    stash = Id_tbl.create 32;
    awaiting_data = Id_tbl.create 8;
    holding = Id_tbl.create 8;
    deliver_q = Queue.create ();
    recv_waiters = Queue.create ();
    sends = Id_tbl.create 4;
    next_local = 0;
    gap_timer = None;
    n_delivered = 0;
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
  let n = Array.length flips in
  assert (n > 0 && sequencer >= 0 && sequencer < n);
  let eng = Mach.engine (Flip.Flip_iface.machine flips.(0)) in
  let t =
    {
      cfg = config;
      gname = name;
      gaddr = Flip.Address.fresh_group eng;
      saddr = Flip.Address.fresh_point eng;
      seqst = None;
      n_ordered = 0;
      n_retrans = 0;
    }
  in
  let members =
    Array.mapi (fun i flip -> make_member t flip ~index:i ~active:true) flips
  in
  Array.iter
    (fun m -> Array.iteri (fun i _ -> Hashtbl.replace m.view i ()) members)
    members;
  let s =
    {
      sq_flip = flips.(sequencer);
      sq_members = Hashtbl.create 16;
      sq_delivered = Hashtbl.create 16;
      sq_next_index = n;
      next_seq = 0;
      history = Id_tbl.create 1024;
      hist_lo = 0;
      ordered_ids = Flip.Ordered_ids.create ();
      sq_reasm = Flip.Reassembly.create ();
      sq_sys_local = 0;
      joining = Hashtbl.create 4;
      join_seq = Hashtbl.create 4;
      left_seq = Hashtbl.create 4;
      status_outstanding = false;
      status_round = 0;
      last_status_rsp = Hashtbl.create 16;
      idle_timer = None;
      sq_pending = Queue.create ();
      sq_batch_scheduled = false;
    }
  in
  Array.iteri
    (fun i m ->
      Hashtbl.replace s.sq_members i m.m_addr;
      Hashtbl.replace s.sq_delivered i (-1))
    members;
  t.seqst <- Some s;
  (* The sequencer's point address lives on its machine. *)
  Flip.Flip_iface.register s.sq_flip t.saddr (fun frag -> seq_input t s frag);
  (* Each member listens on the group address and on its own point address
     (for retransmissions unicast by the sequencer).  On the sequencer's
     machine the group-address traffic also feeds the sequencer, which
     needs to see BB data messages to assign them sequence numbers. *)
  Array.iter
    (fun m ->
      let seq_tap = if m.m_index = sequencer then Some s else None in
      register_member t ?seq_tap m)
    members;
  (t, members)

let join t flip =
  let m = make_member t flip ~index:(-1) ~active:true in
  register_member t m;
  (* Ask the sequencer for a slot, retransmitting until the join
     announcement comes back through the total order. *)
  let cancelled = ref false in
  let send_join () =
    Flip.Flip_iface.unicast m.m_flip ~src:m.m_addr ~dst:t.saddr
      ~size:t.cfg.accept_bytes (Join_req { j_addr = m.m_addr })
  in
  let rec arm tries =
    ignore
      (Sim.Engine.after (m_eng m) t.cfg.retrans_timeout (fun () ->
           if not !cancelled then
             if tries >= t.cfg.max_retries then ()
             else begin
               send_join ();
               arm (tries + 1)
             end))
  in
  let out = Flip.Flip_iface.send_cost m.m_flip ~size:t.cfg.accept_bytes in
  Thread.syscall ~layer:Obs.Layer.Amoeba_grp ~kernel_work:out
    ~charges:[ (Obs.Layer.Flip, Obs.Cause.Proto_proc, out) ]
    ();
  send_join ();
  arm 0;
  Thread.suspend (fun _ resume -> m.join_waiter <- Some resume);
  cancelled := true;
  if m.m_index < 0 then raise (Group_failure "join did not complete");
  m

let leave m =
  let t = m.grp in
  if m.m_index < 0 || not m.m_active then ()
  else begin
    let cancelled = ref false in
    let send_leave () =
      Flip.Flip_iface.unicast m.m_flip ~src:m.m_addr ~dst:t.saddr
        ~size:t.cfg.accept_bytes (Leave_req { l_index = m.m_index })
    in
    let rec arm tries =
      ignore
        (Sim.Engine.after (m_eng m) t.cfg.retrans_timeout (fun () ->
             if not !cancelled then
               if tries >= t.cfg.max_retries then ()
               else begin
                 send_leave ();
                 arm (tries + 1)
               end))
    in
    let out = Flip.Flip_iface.send_cost m.m_flip ~size:t.cfg.accept_bytes in
    Thread.syscall ~layer:Obs.Layer.Amoeba_grp ~kernel_work:out
      ~charges:[ (Obs.Layer.Flip, Obs.Cause.Proto_proc, out) ]
      ();
    send_leave ();
    arm 0;
    Thread.suspend (fun _ resume -> m.leave_waiter <- Some resume);
    cancelled := true
  end
