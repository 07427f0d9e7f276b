module Thread = Machine.Thread
module Mach = Machine.Mach
module Id_tbl = Flip.Address.Id_tbl

type config = {
  header_bytes : int;
  accept_bytes : int;
  order_fixed : Sim.Time.span;
  deliver_cost : Sim.Time.span;
  copy_byte : Sim.Time.span;
  bb_threshold : int;
  retrans_timeout : Sim.Time.span;
  max_retries : int;
  history_high : int;
}

let default_config =
  {
    header_bytes = 40;
    accept_bytes = 24;
    order_fixed = Sim.Time.us 20;
    deliver_cost = Sim.Time.us 30;
    copy_byte = Sim.Time.ns 50;
    bb_threshold = 1300;
    retrans_timeout = Sim.Time.ms 200;
    max_retries = 30;
    history_high = 512;
  }

type sequencer_placement = On_member of int | Dedicated of System_layer.t

type entry = {
  e_seq : int;
  e_sender : int;
  e_local : int;
  e_size : int;
  e_user : Sim.Payload.t;
}

type Sim.Payload.t +=
  | Gpb of { sender : int; local : int; size : int; user : Sim.Payload.t }
  | Gbb of { sender : int; local : int; size : int; user : Sim.Payload.t }
  | Gord of { g_seq : int; g_sender : int; g_local : int; g_size : int; g_user : Sim.Payload.t }
  | Gacc of { g_seq : int; g_sender : int; g_local : int }
  | Gret of { g_member : int; g_from : int }
  | Gstat_req of { gsr_next : int }
  | Gstat_rsp of { g_member : int; g_delivered : int }
  | Gordb of { gb_entries : entry list; gb_lo : int }
  | Gtok of { tk_holder : int; tk_gen : int }
  | Gdead of { gd_from : int }
  | Ghist_req of { hq_epoch : int }
  | Ghist_rsp of { hr_member : int; hr_delivered : int; hr_entries : entry list }
  | Gshard of { sh_core : int; sh_inner : Sim.Payload.t }

exception Group_failure of string

type order_req = {
  o_bb : bool;
  o_sender : int;
  o_local : int;
  o_size : int;
  o_user : Sim.Payload.t;
}

type sq_item =
  | It_order of order_req
  | It_retrans of { r_member : int; r_from : int }
  | It_status of { st_member : int; st_delivered : int }
  | It_catch_up
  | It_recover
  | It_hist of { h_member : int; h_delivered : int; h_entries : entry list }

type sequencer = {
  mutable sq_sys : System_layer.t;
  sq_q : sq_item Queue.t;
  mutable sq_waiter : (unit -> unit) option;
  mutable sq_dead : bool;
  mutable next_seq : int;
  history : entry Id_tbl.t;
  mutable hist_lo : int;
  ordered_ids : Flip.Ordered_ids.t;
  member_delivered : int array;
  mutable status_outstanding : bool;
  mutable idle_timer : Sim.Engine.handle option;
  mutable catch_up_rounds : int;
}

(* Rotating-token state, shared by the per-member sequencer threads.  The
   ordering data structures themselves live in the shared [sequencer]
   record — modeling the protocol's state transfer piggybacked on the
   token — but all ordering *work* is charged on whichever machine holds
   the token. *)
type rot = {
  rot_period : int;
  mutable rot_holder : int;
  mutable rot_gen : int;
  mutable rot_fresh : int;
  rot_waiters : (unit -> unit) option array;
  mutable rot_dead : int;  (* crashed member index, -1 = none *)
}

(* Crash-failover state: a standby sequencer on a designated successor
   machine, pre-wired with its own point address, that rebuilds ordering
   state from the members' bounded history buffers. *)
type failover = {
  fo_successor : int;
  fo_saddr2 : Flip.Address.t;
  fo_s2 : sequencer;
  mutable fo_epoch : int;  (* 0 = primary ordering, 1 = failed over *)
  mutable fo_taking : bool;
  fo_resp : bool array;
  mutable fo_timer : Sim.Engine.handle option;
}

type slot = Full of entry | Awaiting of int * int

type send_wait = {
  sw_local : int;
  sw_size : int;
  sw_user : Sim.Payload.t;
  sw_bb : bool;
  mutable sw_done : bool;
  mutable sw_failed : bool;
  mutable sw_resume : (unit -> unit) option;
  mutable sw_thread : Machine.Thread.t option;
  mutable sw_timer : Sim.Engine.handle option;
  mutable sw_tries : int;
}

(* One ordering domain: a group address, a sequencer, and the per-member
   delivery state.  [Single] groups are exactly one core; [Sharded n]
   groups run [n] cores side by side, discriminated on the wire by the
   [Gshard] wrapper ([c_tag] >= 0). *)
type core = {
  cfg : config;
  gname : string;
  c_tag : int;  (* shard tag; -1 = sole core, wire payloads unwrapped *)
  gaddr : Flip.Address.t;
  saddr : Flip.Address.t;
  n_members : int;
  mutable member_sys_addrs : Flip.Address.t array;
  mutable member_sys : System_layer.t array;
  mutable seqst : sequencer option;
  mutable n_ordered : int;
  mutable n_retrans : int;
  c_batch : int;  (* max orderings coalesced per wakeup; 1 = off *)
  c_rot : rot option;
  mutable c_fo : failover option;
  mutable c_crashed : bool;
}

type cmember = {
  grp : core;
  m_sys : System_layer.t;
  m_index : int;
  mutable expected : int;
  stash : slot Id_tbl.t;
  (* Keyed by [Flip.Ordered_ids.key] of (sender, local). *)
  awaiting : int Id_tbl.t;
  holding : (int * Sim.Payload.t) Id_tbl.t;
  sends : send_wait Id_tbl.t;
  mutable next_local : int;
  mutable gap_timer : Sim.Engine.handle option;
  mutable handler : (sender:int -> size:int -> Sim.Payload.t -> unit) option;
  (* Bounded history of delivered entries, kept only when failover is
     enabled: the successor rebuilds the sequencer's history from these. *)
  m_hist : entry Id_tbl.t;
  mutable m_hist_lo : int;
}

type t = { p_policy : Seq_policy.t; p_cores : core array }
type member = { pm_grp : t; pm_index : int; pm_ms : cmember array }

let m_eng m = Mach.engine (System_layer.machine m.m_sys)
let s_eng s = Mach.engine (System_layer.machine s.sq_sys)
let data_size t size = t.cfg.header_bytes + size
let pair sender local = Flip.Ordered_ids.key ~sender ~local

(* Only data-bearing messages (Gpb/Gbb/Gord/Gordb) carry the group
   protocol header inside [data_size]; accepts and control traffic are
   sized independently and stay unattributed. *)
let grp_hdr t = (Obs.Layer.Panda_grp, t.cfg.header_bytes)

let wrap t p =
  if t.c_tag < 0 then p else Gshard { sh_core = t.c_tag; sh_inner = p }

let unwrap_core t p =
  if t.c_tag < 0 then Some p
  else
    match p with
    | Gshard { sh_core; sh_inner } when sh_core = t.c_tag -> Some sh_inner
    | _ -> None

(* Large messages use the BB method except under rotation, where the
   sequencer address moves and fragment-level tapping can't follow it. *)
let uses_bb t size = size > t.cfg.bb_threshold && t.c_rot = None

let active_seq t =
  match t.c_fo with
  | Some fo when fo.fo_epoch > 0 -> Some fo.fo_s2
  | _ -> t.seqst

(* Where members address sequencer traffic: the primary's point address
   until failover, the standby's afterwards (modeling FLIP's address
   re-resolution after the port moves). *)
let seq_dst t =
  match t.c_fo with
  | Some fo when fo.fo_epoch > 0 -> fo.fo_saddr2
  | _ -> t.saddr

(* ------------------------------------------------------------------ *)
(* Sequencer thread *)

let seq_enqueue s item =
  Queue.push item s.sq_q;
  if not s.sq_dead then
    match s.sq_waiter with
    | Some wake ->
      s.sq_waiter <- None;
      wake ()
    | None -> ()

let all_caught_up s =
  Array.fold_left min max_int s.member_delivered >= s.next_seq - 1

let maybe_status t s =
  if Id_tbl.length s.history > t.cfg.history_high && not s.status_outstanding then begin
    s.status_outstanding <- true;
    System_layer.mcast s.sq_sys ~group:t.gaddr ~size:t.cfg.accept_bytes
      (wrap t (Gstat_req { gsr_next = s.next_seq }))
  end

(* After each ordering, check a while later that every member confirmed
   the tail of the sequence: a lost *last* message leaves no later traffic
   to expose the hole, so the sequencer must ask.  Rounds repeat (bounded)
   until everyone caught up. *)
let max_catch_up_rounds = 32

let rec arm_idle_check t s =
  let eng = s_eng s in
  (match s.idle_timer with Some h -> Sim.Engine.cancel eng h | None -> ());
  s.idle_timer <-
    Some
      (Sim.Engine.after eng (2 * t.cfg.retrans_timeout) (fun () ->
           s.idle_timer <- None;
           if
             (not s.sq_dead)
             && (not (all_caught_up s))
             && s.catch_up_rounds < max_catch_up_rounds
           then begin
             s.catch_up_rounds <- s.catch_up_rounds + 1;
             seq_enqueue s It_catch_up;
             arm_idle_check t s
           end))

let trim_history t s =
  let min_delivered = Array.fold_left min max_int s.member_delivered in
  if min_delivered >= 0 then begin
    while s.hist_lo <= min_delivered do
      Id_tbl.remove s.history s.hist_lo;
      s.hist_lo <- s.hist_lo + 1
    done;
    if Id_tbl.length s.history < t.cfg.history_high then s.status_outstanding <- false
  end

let seq_resend t s ~seq ~to_member =
  match Id_tbl.find_opt s.history seq with
  | None -> ()
  | Some e ->
    t.n_retrans <- t.n_retrans + 1;
    System_layer.send ~hdr:(grp_hdr t) s.sq_sys ~dst:t.member_sys_addrs.(to_member)
      ~size:(data_size t e.e_size)
      (wrap t
         (Gord { g_seq = e.e_seq; g_sender = e.e_sender; g_local = e.e_local;
                 g_size = e.e_size; g_user = e.e_user }))

(* Re-multicast an already-ordered message whose announcement was lost on
   the wire for everyone at once (a duplicate ordering request proves it). *)
let re_announce t s e =
  t.n_retrans <- t.n_retrans + 1;
  if uses_bb t e.e_size then
    System_layer.mcast s.sq_sys ~group:t.gaddr ~size:t.cfg.accept_bytes
      (wrap t (Gacc { g_seq = e.e_seq; g_sender = e.e_sender; g_local = e.e_local }))
  else
    System_layer.mcast ~hdr:(grp_hdr t) s.sq_sys ~group:t.gaddr
      ~size:(data_size t e.e_size)
      (wrap t
         (Gord { g_seq = e.e_seq; g_sender = e.e_sender; g_local = e.e_local;
                 g_size = e.e_size; g_user = e.e_user }))

let max_retrans_burst = 32

(* Token pass: after [rot_period] fresh orderings the holder hands the
   ordering role to the next member.  The holder keeps processing until
   the token is *delivered* (rot_holder flips at the receiver), so there
   is no ordering stall; a timer re-sends the token if it is lost. *)
let rec arm_token_retry t s r ~gen =
  ignore
    (Sim.Engine.after (s_eng s) t.cfg.retrans_timeout (fun () ->
         if r.rot_gen < gen && r.rot_dead < 0 then begin
           let next = (r.rot_holder + 1) mod t.n_members in
           t.n_retrans <- t.n_retrans + 1;
           System_layer.send_from_interrupt s.sq_sys
             ~dst:t.member_sys_addrs.(next) ~size:t.cfg.accept_bytes
             (wrap t (Gtok { tk_holder = next; tk_gen = gen }));
           arm_token_retry t s r ~gen
         end))

let maybe_rotate t s ~fresh =
  match t.c_rot with
  | None -> ()
  | Some r ->
    if t.n_members > 1 && r.rot_dead < 0 then begin
      r.rot_fresh <- r.rot_fresh + fresh;
      if r.rot_fresh >= r.rot_period then begin
        r.rot_fresh <- 0;
        let next = (r.rot_holder + 1) mod t.n_members in
        let gen = r.rot_gen + 1 in
        System_layer.send s.sq_sys ~dst:t.member_sys_addrs.(next)
          ~size:t.cfg.accept_bytes
          (wrap t (Gtok { tk_holder = next; tk_gen = gen }));
        arm_token_retry t s r ~gen
      end
    end

(* Recovery retry: re-ask for member histories until every member has
   reported and the standby promotes itself. *)
let arm_recover_retry t s fo =
  (match fo.fo_timer with
   | Some h -> Sim.Engine.cancel (s_eng s) h
   | None -> ());
  fo.fo_timer <-
    Some
      (Sim.Engine.after (s_eng s) t.cfg.retrans_timeout (fun () ->
           fo.fo_timer <- None;
           if fo.fo_epoch = 0 then seq_enqueue s It_recover))

let seq_fetch_syscall s =
  let sys_cfg = System_layer.config s.sq_sys in
  Thread.syscall ~layer:Obs.Layer.Panda_grp
    ~kernel_work:sys_cfg.System_layer.user_flip_extra
    ~charges:
      [ (Obs.Layer.Flip, Obs.Cause.Uk_crossing,
         sys_cfg.System_layer.user_flip_extra) ]
    ()

let order_fresh t s ~(o : order_req) =
  let e =
    { e_seq = s.next_seq; e_sender = o.o_sender; e_local = o.o_local;
      e_size = o.o_size; e_user = o.o_user }
  in
  s.next_seq <- s.next_seq + 1;
  Id_tbl.replace s.history e.e_seq e;
  Flip.Ordered_ids.replace s.ordered_ids ~sender:o.o_sender ~local:o.o_local e.e_seq;
  t.n_ordered <- t.n_ordered + 1;
  e

let seq_handle_item t s item =
  Obs.Recorder.with_span (s_eng s) Obs.Layer.Panda_grp "sequence" @@ fun () ->
  (* First system call: fetch the message from the network into user
     space. *)
  seq_fetch_syscall s;
  match item with
  | It_order o -> (
      (* Fragment-level ordering: BB data is never copied up into the
         sequencer, only its ordering information. *)
      let copied = if o.o_bb then 0 else o.o_size in
      Thread.compute_parts ~layer:Obs.Layer.Panda_grp
        [ (Obs.Cause.Proto_proc, t.cfg.order_fixed);
          (Obs.Cause.Copy, copied * t.cfg.copy_byte) ];
      match Flip.Ordered_ids.find_opt s.ordered_ids ~sender:o.o_sender ~local:o.o_local with
      | Some seq -> (
          match Id_tbl.find_opt s.history seq with
          | None -> ()
          | Some e -> re_announce t s e)
      | None ->
        let e = order_fresh t s ~o in
        (* Second system call (inside mcast): multicast the ordered
           message, or the small accept for BB data. *)
        if o.o_bb then
          System_layer.mcast s.sq_sys ~group:t.gaddr ~size:t.cfg.accept_bytes
            (wrap t (Gacc { g_seq = e.e_seq; g_sender = o.o_sender; g_local = o.o_local }))
        else
          System_layer.mcast ~hdr:(grp_hdr t) s.sq_sys ~group:t.gaddr
            ~size:(data_size t o.o_size)
            (wrap t
               (Gord { g_seq = e.e_seq; g_sender = o.o_sender; g_local = o.o_local;
                       g_size = o.o_size; g_user = o.o_user }));
        maybe_status t s;
        arm_idle_check t s;
        maybe_rotate t s ~fresh:1)
  | It_retrans { r_member; r_from } ->
    let upto = min (s.next_seq - 1) (r_from + max_retrans_burst - 1) in
    for seq = r_from to upto do
      seq_resend t s ~seq ~to_member:r_member
    done
  | It_status { st_member; st_delivered } ->
    s.member_delivered.(st_member) <- max s.member_delivered.(st_member) st_delivered;
    trim_history t s;
    if all_caught_up s then s.catch_up_rounds <- 0
  | It_catch_up ->
    Thread.compute ~layer:Obs.Layer.Panda_grp t.cfg.order_fixed;
    System_layer.mcast s.sq_sys ~group:t.gaddr ~size:t.cfg.accept_bytes
      (wrap t (Gstat_req { gsr_next = s.next_seq }))
  | It_recover -> (
      match t.c_fo with
      | None -> ()
      | Some fo ->
        if fo.fo_epoch = 0 then begin
          Thread.compute ~layer:Obs.Layer.Panda_grp t.cfg.order_fixed;
          System_layer.mcast s.sq_sys ~group:t.gaddr ~size:t.cfg.accept_bytes
            (wrap t (Ghist_req { hq_epoch = 1 }));
          arm_recover_retry t s fo
        end)
  | It_hist { h_member; h_delivered; h_entries } -> (
      match t.c_fo with
      | None -> ()
      | Some fo ->
        if fo.fo_epoch = 0 then begin
          let bytes =
            List.fold_left (fun a e -> a + 8 + e.e_size) 0 h_entries
          in
          Thread.compute_parts ~layer:Obs.Layer.Panda_grp
            [ (Obs.Cause.Proto_proc, t.cfg.order_fixed);
              (Obs.Cause.Copy, bytes * t.cfg.copy_byte) ];
          if not fo.fo_resp.(h_member) then begin
            fo.fo_resp.(h_member) <- true;
            s.member_delivered.(h_member) <-
              max s.member_delivered.(h_member) h_delivered;
            List.iter
              (fun e ->
                if not (Id_tbl.mem s.history e.e_seq) then begin
                  Id_tbl.replace s.history e.e_seq e;
                  Flip.Ordered_ids.replace s.ordered_ids ~sender:e.e_sender
                    ~local:e.e_local e.e_seq
                end)
              h_entries
          end;
          if Array.for_all (fun b -> b) fo.fo_resp then begin
            (* Everyone reported: adopt the rebuilt state and promote.
               [next_seq] restarts above the highest delivered sequence
               number anywhere; orderings the dead primary assigned but
               nobody received are reassigned when their senders
               retransmit. *)
            let maxd = Array.fold_left max (-1) s.member_delivered in
            if maxd + 1 > s.next_seq then s.next_seq <- maxd + 1;
            s.hist_lo <-
              Id_tbl.fold (fun k _ lo -> min k lo) s.history s.next_seq;
            fo.fo_epoch <- 1;
            (match fo.fo_timer with
             | Some h ->
               Sim.Engine.cancel (s_eng s) h;
               fo.fo_timer <- None
             | None -> ());
            s.catch_up_rounds <- 0;
            seq_enqueue s It_catch_up;
            arm_idle_check t s
          end
        end)

let seq_handle_batch t s (reqs : order_req list) =
  Obs.Recorder.with_span (s_eng s) Obs.Layer.Panda_grp "sequence" @@ fun () ->
  (* One fetch system call drains the whole batch from the network — the
     amortization batching exists to buy. *)
  seq_fetch_syscall s;
  let fresh = ref [] in
  List.iter
    (fun (o : order_req) ->
      Thread.compute_parts ~layer:Obs.Layer.Panda_grp
        [ (Obs.Cause.Proto_proc, t.cfg.order_fixed);
          (Obs.Cause.Copy, o.o_size * t.cfg.copy_byte) ];
      match Flip.Ordered_ids.find_opt s.ordered_ids ~sender:o.o_sender ~local:o.o_local with
      | Some seq -> (
          match Id_tbl.find_opt s.history seq with
          | None -> ()
          | Some e -> re_announce t s e)
      | None -> fresh := order_fresh t s ~o :: !fresh)
    reqs;
  (match List.rev !fresh with
   | [] -> ()
   | entries ->
     (* One multicast announces the whole range; the history-trim
        watermark rides along as a piggybacked ack. *)
     let sz =
       List.fold_left (fun a e -> a + 8 + e.e_size) t.cfg.header_bytes entries
     in
     System_layer.mcast ~hdr:(grp_hdr t) s.sq_sys ~group:t.gaddr ~size:sz
       (wrap t (Gordb { gb_entries = entries; gb_lo = s.hist_lo }));
     maybe_status t s;
     arm_idle_check t s;
     maybe_rotate t s ~fresh:(List.length entries))

(* [me] is the member index whose machine runs this sequencer thread
   (-1 when the placement is fixed); only meaningful under rotation. *)
let rec seq_loop t s ~me =
  (if s.sq_dead then Thread.suspend (fun _ _ -> ())
   else
     match t.c_rot with
     | Some r when r.rot_dead = me -> Thread.suspend (fun _ _ -> ())
     | Some r when r.rot_holder <> me ->
       Thread.suspend (fun _ resume -> r.rot_waiters.(me) <- Some resume)
     | _ -> (
         match Queue.take_opt s.sq_q with
         | None -> Thread.suspend (fun _ resume -> s.sq_waiter <- Some resume)
         | Some (It_order ({ o_bb = false; _ } as o)) when t.c_batch > 1 ->
           let batch = ref [ o ] and nb = ref 1 in
           let continue = ref true in
           while !continue && !nb < t.c_batch do
             match Queue.peek_opt s.sq_q with
             | Some (It_order ({ o_bb = false; _ } as o2)) ->
               ignore (Queue.pop s.sq_q);
               batch := o2 :: !batch;
               incr nb
             | _ -> continue := false
           done;
           seq_handle_batch t s (List.rev !batch)
         | Some item -> seq_handle_item t s item));
  seq_loop t s ~me

(* Interrupt-context feed of a sequencer's queue (its point address). *)
let seq_input t s flip_frag =
  match System_layer.unwrap flip_frag with
  | None -> ()
  | Some pan -> (
      match unwrap_core t pan.Flip.Fragment.payload with
      | None -> ()
      | Some (Gpb { sender; local; size; user }) ->
        seq_enqueue s
          (It_order { o_bb = false; o_sender = sender; o_local = local;
                      o_size = size; o_user = user })
      | Some (Gret { g_member; g_from }) ->
        seq_enqueue s (It_retrans { r_member = g_member; r_from = g_from })
      | Some (Gstat_rsp { g_member; g_delivered }) ->
        seq_enqueue s (It_status { st_member = g_member; st_delivered = g_delivered })
      | Some (Ghist_rsp { hr_member; hr_delivered; hr_entries }) ->
        seq_enqueue s
          (It_hist { h_member = hr_member; h_delivered = hr_delivered;
                     h_entries = hr_entries })
      | Some _ -> ())

(* BB data tap: the sequencer orders large messages on sight of their first
   fragment (fragment-level ordering; no reassembly in the sequencer). *)
let seq_tap_bb t s pan =
  match unwrap_core t pan.Flip.Fragment.payload with
  | Some (Gbb { sender; local; size; user })
    when pan.Flip.Fragment.index = pan.Flip.Fragment.count - 1 ->
    seq_enqueue s
      (It_order { o_bb = true; o_sender = sender; o_local = local;
                  o_size = size; o_user = user })
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Member: ordered delivery (runs as upcalls in the member's daemon) *)

let send_retrans_req_from_daemon m =
  m.grp.n_retrans <- m.grp.n_retrans + 1;
  System_layer.send_from_daemon m.m_sys ~dst:(seq_dst m.grp)
    ~size:m.grp.cfg.accept_bytes
    (wrap m.grp (Gret { g_member = m.m_index; g_from = m.expected }))

let send_retrans_req_from_timer m =
  m.grp.n_retrans <- m.grp.n_retrans + 1;
  System_layer.send_from_interrupt m.m_sys ~dst:(seq_dst m.grp)
    ~size:m.grp.cfg.accept_bytes
    (wrap m.grp (Gret { g_member = m.m_index; g_from = m.expected }))

(* Failure detection: once the (crashed) sequencer has ignored repeated
   retransmissions, notify the successor so it starts recovery.  The
   [c_crashed] test models a perfect failure detector — declaring the
   primary dead while it lives would split the ordering domain, which the
   real protocol prevents with membership agreement this simulation
   doesn't need to re-derive. *)
let start_takeover t =
  match t.c_fo with
  | Some fo when fo.fo_epoch = 0 && not fo.fo_taking ->
    fo.fo_taking <- true;
    seq_enqueue fo.fo_s2 It_recover
  | _ -> ()

let maybe_report_dead m =
  let t = m.grp in
  match t.c_fo with
  | Some fo when fo.fo_epoch = 0 && t.c_crashed && not fo.fo_taking ->
    if m.m_index = fo.fo_successor then start_takeover t
    else
      System_layer.send_from_interrupt m.m_sys
        ~dst:t.member_sys_addrs.(fo.fo_successor) ~size:t.cfg.accept_bytes
        (wrap t (Gdead { gd_from = m.m_index }))
  | _ -> ()

(* Rotation's crash recovery is a token reclaim: there is no history to
   rebuild (the token carries the state), the members just agree the
   next-alive member now holds it.  Triggered from sender retransmission
   timers, idempotent. *)
let rot_reclaim t =
  match t.c_rot, t.seqst with
  | Some r, Some s when r.rot_dead >= 0 && r.rot_holder = r.rot_dead ->
    let next = (r.rot_dead + 1) mod t.n_members in
    r.rot_gen <- r.rot_gen + 2;  (* outrank any token still in flight *)
    r.rot_holder <- next;
    r.rot_fresh <- 0;
    s.sq_sys <- t.member_sys.(next);
    (match r.rot_waiters.(next) with
     | Some w ->
       r.rot_waiters.(next) <- None;
       w ()
     | None -> ())
  | _ -> ()

let rec arm_gap_timer m =
  if m.gap_timer = None && Id_tbl.length m.stash > 0 then
    m.gap_timer <-
      Some
        (Sim.Engine.after (m_eng m) m.grp.cfg.retrans_timeout (fun () ->
             m.gap_timer <- None;
             if Id_tbl.length m.stash > 0 then begin
               if m.grp.c_crashed then begin
                 maybe_report_dead m;
                 rot_reclaim m.grp
               end;
               send_retrans_req_from_timer m;
               arm_gap_timer m
             end))

let record_hist m e =
  match m.grp.c_fo with
  | None -> ()
  | Some _ ->
    Id_tbl.replace m.m_hist e.e_seq e;
    let lo_min = e.e_seq - m.grp.cfg.history_high in
    while m.m_hist_lo <= lo_min do
      Id_tbl.remove m.m_hist m.m_hist_lo;
      m.m_hist_lo <- m.m_hist_lo + 1
    done

(* Piggybacked trim watermark from batched announcements: entries below it
   are stable everywhere and the successor will never need them. *)
let trim_hist_below m lo =
  if m.grp.c_fo <> None then
    while m.m_hist_lo < lo do
      Id_tbl.remove m.m_hist m.m_hist_lo;
      m.m_hist_lo <- m.m_hist_lo + 1
    done

let deliver m e =
  Obs.Recorder.with_span (m_eng m) Obs.Layer.Panda_grp "deliver" @@ fun () ->
  (* Ordering/delivery bookkeeping runs in the daemon thread. *)
  if Thread.self_opt () <> None then
    Thread.compute ~layer:Obs.Layer.Panda_grp m.grp.cfg.deliver_cost;
  record_hist m e;
  (match m.handler with
   | Some f -> f ~sender:e.e_sender ~size:e.e_size e.e_user
   | None -> ());
  if e.e_sender = m.m_index then
    match Id_tbl.find_opt m.sends e.e_local with
    | Some sw ->
      Id_tbl.remove m.sends e.e_local;
      sw.sw_done <- true;
      (match sw.sw_timer with Some h -> Sim.Engine.cancel (m_eng m) h | None -> ());
      (match sw.sw_resume with
       | Some resume ->
         sw.sw_resume <- None;
         System_layer.wake_blocked ?thread:sw.sw_thread m.m_sys resume
       | None -> ())
    | None -> ()

let rec drain m =
  match Id_tbl.find_opt m.stash m.expected with
  | Some (Full e) ->
    Id_tbl.remove m.stash m.expected;
    m.expected <- m.expected + 1;
    deliver m e;
    drain m
  | Some (Awaiting _) | None -> ()

let handle_ordered m e =
  if e.e_seq >= m.expected then begin
    (match Id_tbl.find_opt m.stash e.e_seq with
     | Some (Full _) -> ()
     | Some (Awaiting _) | None -> Id_tbl.replace m.stash e.e_seq (Full e));
    Id_tbl.remove m.awaiting (pair e.e_sender e.e_local);
    let had_gap = e.e_seq > m.expected in
    drain m;
    if had_gap && Id_tbl.length m.stash > 0 then begin
      send_retrans_req_from_daemon m;
      arm_gap_timer m
    end
  end

let handle_accept m ~g_seq ~g_sender ~g_local =
  if g_seq >= m.expected then
    match Id_tbl.find_opt m.holding (pair g_sender g_local) with
    | Some (size, user) ->
      Id_tbl.remove m.holding (pair g_sender g_local);
      handle_ordered m
        { e_seq = g_seq; e_sender = g_sender; e_local = g_local; e_size = size; e_user = user }
    | None -> (
        match Id_tbl.find_opt m.stash g_seq with
        | Some (Full _) -> ()
        | Some (Awaiting _) | None ->
          Id_tbl.replace m.stash g_seq (Awaiting (g_sender, g_local));
          Id_tbl.replace m.awaiting (pair g_sender g_local) g_seq;
          send_retrans_req_from_daemon m;
          arm_gap_timer m)

(* Under rotation every member can receive sequencer traffic: the holder
   enqueues it, anyone else forwards it to the current holder (a stale
   FLIP location cache in the sender). *)
let rot_seq_traffic m inner =
  match m.grp.c_rot, m.grp.seqst with
  | Some r, Some s ->
    if r.rot_holder = m.m_index then begin
      (match inner with
       | Gpb { sender; local; size; user } ->
         seq_enqueue s
           (It_order { o_bb = false; o_sender = sender; o_local = local;
                       o_size = size; o_user = user })
       | Gret { g_member; g_from } ->
         seq_enqueue s (It_retrans { r_member = g_member; r_from = g_from })
       | Gstat_rsp { g_member; g_delivered } ->
         seq_enqueue s (It_status { st_member = g_member; st_delivered = g_delivered })
       | _ -> ());
      true
    end
    else begin
      m.grp.n_retrans <- m.grp.n_retrans + 1;
      System_layer.send_from_daemon m.m_sys
        ~dst:m.grp.member_sys_addrs.(r.rot_holder)
        ~size:m.grp.cfg.accept_bytes (wrap m.grp inner);
      true
    end
  | _ -> true (* fixed sequencer: its point address got it; not for members *)

let accept_token m ~tk_holder ~tk_gen =
  match m.grp.c_rot, m.grp.seqst with
  | Some r, Some s when tk_gen > r.rot_gen && tk_holder = m.m_index ->
    r.rot_gen <- tk_gen;
    r.rot_holder <- m.m_index;
    r.rot_fresh <- 0;
    s.sq_sys <- m.m_sys;
    (* The displaced holder may be parked waiting for queue input; wake it
       so it re-checks holdership and yields the waiter slot. *)
    (match s.sq_waiter with
     | Some w ->
       s.sq_waiter <- None;
       w ()
     | None -> ());
    (match r.rot_waiters.(m.m_index) with
     | Some w ->
       r.rot_waiters.(m.m_index) <- None;
       w ()
     | None -> ())
  | _ -> ()

let hist_entries m =
  let entries = ref [] in
  for seq = m.expected - 1 downto m.m_hist_lo do
    match Id_tbl.find_opt m.m_hist seq with
    | Some e -> entries := e :: !entries
    | None -> ()
  done;
  !entries

let on_member_msg m payload =
  match unwrap_core m.grp payload with
  | None -> false
  | Some inner -> (
      match inner with
      | Gord { g_seq; g_sender; g_local; g_size; g_user } ->
        handle_ordered m
          { e_seq = g_seq; e_sender = g_sender; e_local = g_local; e_size = g_size;
            e_user = g_user };
        true
      | Gordb { gb_entries; gb_lo } ->
        List.iter (fun e -> handle_ordered m e) gb_entries;
        trim_hist_below m gb_lo;
        true
      | Gacc { g_seq; g_sender; g_local } ->
        handle_accept m ~g_seq ~g_sender ~g_local;
        true
      | Gbb { sender; local; size; user } ->
        (match Id_tbl.find_opt m.awaiting (pair sender local) with
         | Some seq ->
           Id_tbl.remove m.awaiting (pair sender local);
           handle_ordered m
             { e_seq = seq; e_sender = sender; e_local = local; e_size = size; e_user = user }
         | None ->
           if not (Id_tbl.mem m.holding (pair sender local)) then
             Id_tbl.replace m.holding (pair sender local) (size, user));
        true
      | Gstat_req { gsr_next } ->
        if m.expected < gsr_next then send_retrans_req_from_daemon m;
        System_layer.send_from_daemon m.m_sys ~dst:(seq_dst m.grp)
          ~size:m.grp.cfg.accept_bytes
          (wrap m.grp (Gstat_rsp { g_member = m.m_index; g_delivered = m.expected - 1 }));
        true
      | Gtok { tk_holder; tk_gen } ->
        accept_token m ~tk_holder ~tk_gen;
        true
      | Gdead _ ->
        (match m.grp.c_fo with
         | Some fo when m.m_index = fo.fo_successor && m.grp.c_crashed ->
           start_takeover m.grp
         | _ -> ());
        true
      | Ghist_req _ ->
        (match m.grp.c_fo with
         | None -> ()
         | Some fo ->
           let entries = hist_entries m in
           let sz =
             List.fold_left (fun a e -> a + 8 + e.e_size)
               m.grp.cfg.header_bytes entries
           in
           System_layer.send_from_daemon m.m_sys ~dst:fo.fo_saddr2 ~size:sz
             (wrap m.grp
                (Ghist_rsp { hr_member = m.m_index; hr_delivered = m.expected - 1;
                             hr_entries = entries })));
        true
      | Gpb _ | Gret _ | Gstat_rsp _ -> rot_seq_traffic m inner
      | Ghist_rsp _ -> true (* standby sequencer traffic; not for members *)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Member API *)

let send_impl ~blocking m ~size payload =
  Obs.Recorder.with_span (m_eng m) Obs.Layer.Panda_grp "send" @@ fun () ->
  let t = m.grp in
  m.next_local <- m.next_local + 1;
  let bb = uses_bb t size in
  let sw =
    {
      sw_local = m.next_local;
      sw_size = size;
      sw_user = payload;
      sw_bb = bb;
      sw_done = false;
      sw_failed = false;
      sw_resume = None;
      sw_thread = None;
      sw_timer = None;
      sw_tries = 0;
    }
  in
  Id_tbl.replace m.sends sw.sw_local sw;
  let msg_size = data_size t size in
  let tag = System_layer.alloc_tag m.m_sys in
  (* Ordering requests go to the current sequencer: the primary's point
     address, the standby's after failover, or the token holder's machine
     under rotation — re-read at every (re)transmission. *)
  let pb_dst () =
    match t.c_rot with
    | Some r -> t.member_sys_addrs.(r.rot_holder)
    | None -> seq_dst t
  in
  let first_transmit () =
    if bb then
      System_layer.mcast ~tag ~hdr:(grp_hdr t) m.m_sys ~group:t.gaddr ~size:msg_size
        (wrap t (Gbb { sender = m.m_index; local = sw.sw_local; size; user = payload }))
    else
      System_layer.send ~tag ~hdr:(grp_hdr t) m.m_sys ~dst:(pb_dst ()) ~size:msg_size
        (wrap t (Gpb { sender = m.m_index; local = sw.sw_local; size; user = payload }))
  in
  let retransmit () =
    if bb then
      System_layer.mcast_from_interrupt ~tag ~hdr:(grp_hdr t) m.m_sys
        ~group:t.gaddr ~size:msg_size
        (wrap t (Gbb { sender = m.m_index; local = sw.sw_local; size; user = payload }))
    else
      System_layer.send_from_interrupt ~tag ~hdr:(grp_hdr t) m.m_sys
        ~dst:(pb_dst ()) ~size:msg_size
        (wrap t (Gpb { sender = m.m_index; local = sw.sw_local; size; user = payload }))
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
                 if sw.sw_tries >= 2 && t.c_crashed then begin
                   maybe_report_dead m;
                   rot_reclaim t
                 end;
                 retransmit ();
                 arm ()
               end))
  in
  (* The sender already has its own BB data: store it for the accept
     directly instead of processing the looped-back multicast. *)
  if bb then Id_tbl.replace m.holding (pair m.m_index sw.sw_local) (size, payload);
  (* Arm before transmitting: the send path's system calls suspend the
     caller, and on a sequencer-local send the whole ordering round trip
     can complete during those suspensions. *)
  arm ();
  first_transmit ();
  if blocking then begin
    if not sw.sw_done then
      Thread.suspend (fun th resume ->
          sw.sw_thread <- Some th;
          sw.sw_resume <- Some resume);
    if sw.sw_failed then raise (Group_failure "broadcast not ordered after retries")
  end

let core_member m key =
  let nc = Array.length m.pm_ms in
  if nc = 1 then m.pm_ms.(0)
  else m.pm_ms.(Seq_policy.shard_of_key ~shards:nc key)

let send ?(key = 0) m ~size payload =
  send_impl ~blocking:true (core_member m key) ~size payload

let send_nonblocking ?(key = 0) m ~size payload =
  send_impl ~blocking:false (core_member m key) ~size payload

(* ------------------------------------------------------------------ *)
(* Construction *)

let mk_sequencer sys n =
  {
    sq_sys = sys;
    sq_q = Queue.create ();
    sq_waiter = None;
    sq_dead = false;
    next_seq = 0;
    history = Id_tbl.create 1024;
    hist_lo = 0;
    ordered_ids = Flip.Ordered_ids.create ();
    member_delivered = Array.make n (-1);
    status_outstanding = false;
    idle_timer = None;
    catch_up_rounds = 0;
  }

let create_core ~config ~name ~tag ~batch ~rot_period ~failover ~sequencer
    sys_layers =
  let n = Array.length sys_layers in
  assert (n > 0);
  let eng = Machine.Mach.engine (System_layer.machine sys_layers.(0)) in
  let seq_member =
    match sequencer with On_member i -> i | Dedicated _ -> -1
  in
  let rot =
    match rot_period with
    | None -> None
    | Some p ->
      Some
        {
          rot_period = max 1 p;
          rot_holder = (if seq_member >= 0 then seq_member else 0);
          rot_gen = 0;
          rot_fresh = 0;
          rot_waiters = Array.make n None;
          rot_dead = -1;
        }
  in
  let t =
    {
      cfg = config;
      gname = name;
      c_tag = tag;
      gaddr = Flip.Address.fresh_group eng;
      saddr = Flip.Address.fresh_point eng;
      n_members = n;
      member_sys_addrs = [||];
      member_sys = sys_layers;
      seqst = None;
      n_ordered = 0;
      n_retrans = 0;
      c_batch = max 1 batch;
      c_rot = rot;
      c_fo = None;
      c_crashed = false;
    }
  in
  let members =
    Array.mapi
      (fun i sys ->
        (* Gpb must fit one Panda fragment: the sequencer never
           reassembles. *)
        assert (config.bb_threshold + config.header_bytes
                <= System_layer.frag_payload sys);
        {
          grp = t;
          m_sys = sys;
          m_index = i;
          expected = 0;
          stash = Id_tbl.create 32;
          awaiting = Id_tbl.create 8;
          holding = Id_tbl.create 8;
          sends = Id_tbl.create 4;
          next_local = 0;
          gap_timer = None;
          handler = None;
          m_hist = Id_tbl.create 64;
          m_hist_lo = 0;
        })
      sys_layers
  in
  t.member_sys_addrs <- Array.map (fun m -> System_layer.address m.m_sys) members;
  let seq_sys =
    match sequencer with
    | On_member i -> sys_layers.(i)
    | Dedicated sys -> sys
  in
  let s = mk_sequencer seq_sys n in
  t.seqst <- Some s;
  (* Failover wiring (never on the default/Single path: no extra
     addresses, threads or registrations there). *)
  let fo =
    if not failover then None
    else begin
      let successor = if seq_member >= 0 then (seq_member + 1) mod n else 0 in
      let s2 = mk_sequencer sys_layers.(successor) n in
      Some
        {
          fo_successor = successor;
          fo_saddr2 = Flip.Address.fresh_point eng;
          fo_s2 = s2;
          fo_epoch = 0;
          fo_taking = false;
          fo_resp = Array.make n false;
          fo_timer = None;
        }
    end
  in
  t.c_fo <- fo;
  let seq_flip = System_layer.flip seq_sys in
  let seq_mach = System_layer.machine seq_sys in
  Flip.Flip_iface.register seq_flip t.saddr (fun frag -> seq_input t s frag);
  (match rot with
   | None ->
     ignore
       (Thread.spawn seq_mach ~prio:Thread.Daemon (name ^ ".sequencer") (fun () ->
            seq_loop t s ~me:(-1)))
   | Some r ->
     (* One sequencer thread per member machine; only the token holder's
        processes the shared queue. *)
     ignore r;
     Array.iteri
       (fun i sys ->
         ignore
           (Thread.spawn (System_layer.machine sys) ~prio:Thread.Daemon
              (Printf.sprintf "%s.sequencer%d" name i)
              (fun () -> seq_loop t s ~me:i)))
       sys_layers);
  (match fo with
   | None -> ()
   | Some fo ->
     Flip.Flip_iface.register
       (System_layer.flip sys_layers.(fo.fo_successor))
       fo.fo_saddr2
       (fun frag -> seq_input t fo.fo_s2 frag);
     ignore
       (Thread.spawn
          (System_layer.machine sys_layers.(fo.fo_successor))
          ~prio:Thread.Daemon (name ^ ".standby")
          (fun () -> seq_loop t fo.fo_s2 ~me:(-1))));
  (* Group-address registration, per machine: members inject the traffic
     into their daemon; the sequencer's machine additionally taps BB data
     fragments (the standby's machine takes over the tap after failover). *)
  let seq_machine_id = Mach.id seq_mach in
  Array.iter
    (fun m ->
      let mach_id = Mach.id (System_layer.machine m.m_sys) in
      let tap = if mach_id = seq_machine_id then Some s else None in
      let standby_tap =
        match fo with
        | Some f when f.fo_successor = m.m_index -> Some f
        | _ -> None
      in
      let own_addr = System_layer.address m.m_sys in
      Flip.Flip_iface.register (System_layer.flip m.m_sys) t.gaddr (fun flip_frag ->
          match System_layer.unwrap flip_frag with
          | None -> ()
          | Some pan ->
            (match tap with
             | Some s when not s.sq_dead -> seq_tap_bb t s pan
             | _ -> ());
            (match standby_tap with
             | Some f when f.fo_epoch > 0 -> seq_tap_bb t f.fo_s2 pan
             | _ -> ());
            let own_bb =
              Flip.Address.equal pan.Flip.Fragment.src own_addr
              &&
              match unwrap_core t pan.Flip.Fragment.payload with
              | Some (Gbb _) -> true
              | _ -> false
            in
            if not own_bb then System_layer.inject m.m_sys pan))
    members;
  (match sequencer with
   | Dedicated sys ->
     (* No member lives there: only the BB tap listens on the group
        address. *)
     Flip.Flip_iface.register (System_layer.flip sys) t.gaddr (fun flip_frag ->
         match System_layer.unwrap flip_frag with
         | None -> ()
         | Some pan -> if not s.sq_dead then seq_tap_bb t s pan)
   | On_member _ -> ());
  Array.iter
    (fun m ->
      System_layer.add_handler m.m_sys (fun ~src ~size payload ->
          ignore src;
          ignore size;
          on_member_msg m payload))
    members;
  (t, members)

let create_static ?(config = default_config) ?(policy = Seq_policy.Single)
    ~name ~sequencer sys_layers =
  let n = Array.length sys_layers in
  assert (n > 0);
  let cores_members =
    match policy with
    | Seq_policy.Single ->
      [| create_core ~config ~name ~tag:(-1) ~batch:1 ~rot_period:None
           ~failover:false ~sequencer sys_layers |]
    | Seq_policy.Batching b ->
      [| create_core ~config ~name ~tag:(-1) ~batch:b ~rot_period:None
           ~failover:true ~sequencer sys_layers |]
    | Seq_policy.Rotating p ->
      [| create_core ~config ~name ~tag:(-1) ~batch:1 ~rot_period:(Some p)
           ~failover:false ~sequencer sys_layers |]
    | Seq_policy.Failover ->
      [| create_core ~config ~name ~tag:(-1) ~batch:1 ~rot_period:None
           ~failover:true ~sequencer sys_layers |]
    | Seq_policy.Sharded sh ->
      let sh = max 1 sh in
      Array.init sh (fun k ->
          let seq_k =
            match sequencer with
            | On_member i -> On_member ((i + k) mod n)
            | Dedicated sys -> if k = 0 then Dedicated sys else On_member ((k - 1) mod n)
          in
          create_core ~config
            ~name:(Printf.sprintf "%s.sh%d" name k)
            ~tag:k ~batch:1 ~rot_period:None ~failover:true ~sequencer:seq_k
            sys_layers)
  in
  let t = { p_policy = policy; p_cores = Array.map fst cores_members } in
  let members =
    Array.init n (fun i ->
        { pm_grp = t; pm_index = i;
          pm_ms = Array.map (fun (_, ms) -> ms.(i)) cores_members })
  in
  (t, members)

(* ------------------------------------------------------------------ *)
(* Crash injection and accessors *)

let crash_core c =
  if not c.c_crashed then begin
    c.c_crashed <- true;
    match c.c_rot with
    | Some r -> if r.rot_dead < 0 then r.rot_dead <- r.rot_holder
    | None -> (
        match c.seqst with
        | None -> ()
        | Some s ->
          s.sq_dead <- true;
          (match s.idle_timer with
           | Some h ->
             Sim.Engine.cancel (s_eng s) h;
             s.idle_timer <- None
           | None -> ()))
  end

let crash_sequencer t =
  if t.p_policy = Seq_policy.Single then
    invalid_arg "Group.crash_sequencer: the single policy has no failover";
  crash_core t.p_cores.(0)

let sum f t = Array.fold_left (fun a c -> a + f c) 0 t.p_cores
let policy t = t.p_policy
let shard_count t = Array.length t.p_cores
let config t = t.p_cores.(0).cfg
let member_index m = m.pm_index
let member_count t = t.p_cores.(0).n_members
let messages_ordered t = sum (fun c -> c.n_ordered) t
let retransmissions t = sum (fun c -> c.n_retrans) t

let delivered_seq m =
  Array.fold_left (fun a cm -> a + cm.expected) 0 m.pm_ms - 1

let delivered_in_shard m ~shard = m.pm_ms.(shard).expected - 1
let set_handler m f = Array.iter (fun cm -> cm.handler <- Some f) m.pm_ms

let history_length t =
  sum
    (fun c ->
      match active_seq c with
      | Some s -> Id_tbl.length s.history
      | None -> 0)
    t

let sequencer_epoch t =
  Array.fold_left
    (fun a c -> max a (match c.c_fo with Some fo -> fo.fo_epoch | None -> 0))
    0 t.p_cores
