module Thread = Machine.Thread
module Mach = Machine.Mach
module Id_tbl = Flip.Address.Id_tbl
module T = Flip.Total_order
module History = T.History
module Window = T.Window

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

type Sim.Payload.t +=
  | Gdead of { gd_from : int }
  | Ghist_req of { hq_epoch : int }
  | Ghist_rsp of { hr_member : int; hr_delivered : int; hr_entries : T.entry list }
  | Gshard of { sh_core : int; sh_inner : Sim.Payload.t }

(* The sequencer thread's work: the messages its interrupt handlers queue
   (PB requests, BB data, repair requests, status and history replies),
   and its own catch-up and recovery rounds. *)
type sq_item = It_msg of Sim.Payload.t | It_catch_up | It_recover

type sequencer = {
  sq_sys : System_layer.t;
  h : History.t;
  sq_q : sq_item Queue.t;
  mutable sq_waiter : (unit -> unit) option;
  mutable sq_dead : bool;
  mutable catch_up_rounds : int;
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

(* One ordering domain: a group address, a sequencer, and the per-member
   delivery state.  [Single] groups are exactly one core; [Sharded n]
   groups run [n] cores side by side, discriminated on the wire by the
   [Gshard] wrapper ([c_tag] >= 0). *)
type core = {
  cfg : config;
  wire : T.wire;
  stats : T.stats;
  c_tag : int;  (* shard tag; -1 = sole core, wire payloads unwrapped *)
  gaddr : Flip.Address.t;
  saddr : Flip.Address.t;
  n_members : int;
  mutable member_sys_addrs : Flip.Address.t array;
  mutable seqst : sequencer option;
  c_batch : int;  (* max orderings coalesced per wakeup; 1 = off *)
  mutable c_fo : failover option;
  mutable c_crashed : bool;
}

type cmember = {
  grp : core;
  m_sys : System_layer.t;
  win : Window.t;
  mutable handler : (sender:int -> size:int -> Sim.Payload.t -> unit) option;
  (* Bounded history of delivered entries, kept only when failover is
     enabled: the successor rebuilds the sequencer's history from these. *)
  m_hist : T.entry Id_tbl.t;
  mutable m_hist_lo : int;
}

type t = { p_policy : Seq_policy.t; p_cores : core array }
type member = { pm_grp : t; pm_index : int; pm_ms : cmember array }

let m_eng m = Mach.engine (System_layer.machine m.m_sys)
let s_eng s = Mach.engine (System_layer.machine s.sq_sys)

(* Only data-bearing messages carry the group protocol header inside their
   size; accepts and control traffic are sized independently and stay
   unattributed. *)
let grp_hdr t = (Obs.Layer.Panda_grp, t.cfg.header_bytes)

let wrap t p =
  if t.c_tag < 0 then p else Gshard { sh_core = t.c_tag; sh_inner = p }

let unwrap_core t p =
  if t.c_tag < 0 then Some p
  else
    match p with
    | Gshard { sh_core; sh_inner } when sh_core = t.c_tag -> Some sh_inner
    | _ -> None

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

let maybe_status s = if History.overflowing s.h then History.status_req s.h

(* The idle check's catch-up is a status request from the sequencer
   thread; rounds repeat, at most 32 of them, until everyone caught up. *)
let max_catch_up_rounds = 32

let arm_idle_check s =
  History.arm_idle s.h ~catch_up:(fun () ->
      if (not s.sq_dead) && s.catch_up_rounds < max_catch_up_rounds then begin
        s.catch_up_rounds <- s.catch_up_rounds + 1;
        seq_enqueue s It_catch_up;
        true
      end
      else false)

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

let order t s ~copied ~sender ~local ~size ~user =
  Thread.compute_parts ~layer:Obs.Layer.Panda_grp
    [ (Obs.Cause.Proto_proc, t.cfg.order_fixed);
      (Obs.Cause.Copy, copied * t.cfg.copy_byte) ];
  if not (History.duplicate s.h ~sender ~local) then begin
    (* Second system call (inside mcast): multicast the ordered message,
       or the small accept for BB data. *)
    History.announce s.h (History.number s.h ~sender ~local ~size ~user);
    maybe_status s;
    arm_idle_check s
  end

let seq_handle_item t s item =
  Obs.Recorder.with_span (s_eng s) Obs.Layer.Panda_grp "sequence" @@ fun () ->
  (* First system call: fetch the message from the network into user
     space. *)
  seq_fetch_syscall s;
  match item with
  | It_msg (T.Pb { sender; local; size; user }) ->
    order t s ~copied:size ~sender ~local ~size ~user
  | It_msg (T.Bb { sender; local; size; user }) ->
    (* Fragment-level ordering: BB data is never copied up into the
       sequencer, only its ordering information. *)
    order t s ~copied:0 ~sender ~local ~size ~user
  | It_msg (T.Retrans_req { member; from }) ->
    History.resend s.h ~from ~upto:(History.burst_end s.h ~from)
      (fun ~hdr ~size payload ->
        System_layer.send ?hdr s.sq_sys ~dst:t.member_sys_addrs.(member) ~size
          (wrap t payload))
  | It_msg (T.Status_rsp { member; delivered }) ->
    History.report s.h ~member ~delivered;
    History.settle s.h;
    if History.all_caught_up s.h then s.catch_up_rounds <- 0
  | It_catch_up ->
    Thread.compute ~layer:Obs.Layer.Panda_grp t.cfg.order_fixed;
    History.status_req s.h
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
  | It_msg (Ghist_rsp { hr_member; hr_delivered; hr_entries }) -> (
      match t.c_fo with
      | None -> ()
      | Some fo ->
        if fo.fo_epoch = 0 then begin
          let bytes =
            List.fold_left (fun a e -> a + 8 + e.T.e_size) 0 hr_entries
          in
          Thread.compute_parts ~layer:Obs.Layer.Panda_grp
            [ (Obs.Cause.Proto_proc, t.cfg.order_fixed);
              (Obs.Cause.Copy, bytes * t.cfg.copy_byte) ];
          if not fo.fo_resp.(hr_member) then begin
            fo.fo_resp.(hr_member) <- true;
            History.report s.h ~member:hr_member ~delivered:hr_delivered;
            List.iter (History.adopt s.h) hr_entries
          end;
          if Array.for_all (fun b -> b) fo.fo_resp then begin
            (* Everyone reported: adopt the rebuilt state and promote.
               Orderings the dead primary assigned but nobody received
               are reassigned when their senders retransmit. *)
            History.rebuilt s.h;
            fo.fo_epoch <- 1;
            (match fo.fo_timer with
             | Some h ->
               Sim.Engine.cancel (s_eng s) h;
               fo.fo_timer <- None
             | None -> ());
            s.catch_up_rounds <- 0;
            seq_enqueue s It_catch_up;
            arm_idle_check s
          end
        end)
  | It_msg _ -> ()

let seq_handle_batch t s reqs =
  Obs.Recorder.with_span (s_eng s) Obs.Layer.Panda_grp "sequence" @@ fun () ->
  (* One fetch system call drains the whole batch from the network — the
     amortization batching exists to buy. *)
  seq_fetch_syscall s;
  let fresh = ref [] in
  List.iter
    (function
      | T.Pb { sender; local; size; user } ->
        Thread.compute_parts ~layer:Obs.Layer.Panda_grp
          [ (Obs.Cause.Proto_proc, t.cfg.order_fixed);
            (Obs.Cause.Copy, size * t.cfg.copy_byte) ];
        if not (History.duplicate s.h ~sender ~local) then
          fresh := History.number s.h ~sender ~local ~size ~user :: !fresh
      | _ -> ())
    reqs;
  match List.rev !fresh with
  | [] -> ()
  | entries ->
    History.announce_batch s.h entries;
    maybe_status s;
    arm_idle_check s

let rec seq_loop t s =
  (if s.sq_dead then Thread.suspend (fun _ _ -> ())
   else
     match Queue.take_opt s.sq_q with
     | None -> Thread.suspend (fun _ resume -> s.sq_waiter <- Some resume)
     | Some (It_msg (T.Pb _ as p)) when t.c_batch > 1 ->
       let batch = ref [ p ] and nb = ref 1 in
       let continue = ref true in
       while !continue && !nb < t.c_batch do
         match Queue.peek_opt s.sq_q with
         | Some (It_msg (T.Pb _ as p2)) ->
           ignore (Queue.pop s.sq_q);
           batch := p2 :: !batch;
           incr nb
         | _ -> continue := false
       done;
       seq_handle_batch t s (List.rev !batch)
     | Some item -> seq_handle_item t s item);
  seq_loop t s

(* Interrupt-context feed of a sequencer's queue (its point address). *)
let seq_input t s flip_frag =
  match System_layer.unwrap flip_frag with
  | None -> ()
  | Some pan -> (
      match unwrap_core t pan.Flip.Fragment.payload with
      | Some ((T.Pb _ | T.Retrans_req _ | T.Status_rsp _ | Ghist_rsp _) as p) ->
        seq_enqueue s (It_msg p)
      | _ -> ())

(* BB data tap: the sequencer orders large messages on sight of their first
   fragment (fragment-level ordering; no reassembly in the sequencer). *)
let seq_tap_bb t s pan =
  match unwrap_core t pan.Flip.Fragment.payload with
  | Some (T.Bb _ as p) when pan.Flip.Fragment.index = pan.Flip.Fragment.count - 1 ->
    seq_enqueue s (It_msg p)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Member: ordered delivery (runs as upcalls in the member's daemon) *)

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
    let me = Window.me m.win in
    if me = fo.fo_successor then start_takeover t
    else
      System_layer.send_from_interrupt m.m_sys
        ~dst:t.member_sys_addrs.(fo.fo_successor) ~size:t.cfg.accept_bytes
        (wrap t (Gdead { gd_from = me }))
  | _ -> ()

let record_hist m (e : T.entry) =
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

module W = Window.Make (struct
  type member = cmember

  let window m = m.win

  let to_sequencer m ~from_timer payload =
    let t = m.grp in
    if from_timer then
      System_layer.send_from_interrupt m.m_sys ~dst:(seq_dst t) ~size:t.cfg.accept_bytes
        (wrap t payload)
    else
      System_layer.send_from_daemon m.m_sys ~dst:(seq_dst t) ~size:t.cfg.accept_bytes
        (wrap t payload)

  let on_gap_timer m = if m.grp.c_crashed then maybe_report_dead m

  let deliver m (e : T.entry) =
    Obs.Recorder.with_span (m_eng m) Obs.Layer.Panda_grp "deliver" @@ fun () ->
    (* Ordering/delivery bookkeeping runs in the daemon thread. *)
    if Thread.self_opt () <> None then
      Thread.compute ~layer:Obs.Layer.Panda_grp m.grp.cfg.deliver_cost;
    record_hist m e;
    (match m.handler with
     | Some f -> f ~sender:e.e_sender ~size:e.e_size e.e_user
     | None -> ());
    Window.complete m.win e ~wake:(fun thread resume ->
        System_layer.wake_blocked ?thread m.m_sys resume)
end)

let hist_entries m =
  let entries = ref [] in
  for seq = Window.expected m.win - 1 downto m.m_hist_lo do
    match Id_tbl.find_opt m.m_hist seq with
    | Some e -> entries := e :: !entries
    | None -> ()
  done;
  !entries

let on_member_msg m payload =
  match unwrap_core m.grp payload with
  | None -> false
  | Some inner -> (
      if W.input m inner then begin
        (match inner with
         | T.Ordered_batch { lo; _ } -> trim_hist_below m lo
         | _ -> ());
        true
      end
      else
        match inner with
        | Gdead _ ->
          (match m.grp.c_fo with
           | Some fo when Window.me m.win = fo.fo_successor && m.grp.c_crashed ->
             start_takeover m.grp
           | _ -> ());
          true
        | Ghist_req _ ->
          (match m.grp.c_fo with
           | None -> ()
           | Some fo ->
             let entries = hist_entries m in
             System_layer.send_from_daemon m.m_sys ~dst:fo.fo_saddr2
               ~size:(T.batch_bytes m.grp.wire entries)
               (wrap m.grp
                  (Ghist_rsp { hr_member = Window.me m.win;
                               hr_delivered = Window.expected m.win - 1;
                               hr_entries = entries })));
          true
        | T.Pb _ | T.Retrans_req _ | T.Status_rsp _ | Ghist_rsp _ ->
          true (* sequencer traffic, addressed to its point address *)
        | _ -> false)

(* ------------------------------------------------------------------ *)
(* Member API *)

let send_impl ~blocking m ~size payload =
  Obs.Recorder.with_span (m_eng m) Obs.Layer.Panda_grp "send" @@ fun () ->
  let t = m.grp in
  let sw = Window.start_send m.win in
  let bb = T.uses_bb t.wire size in
  let msg_size = T.data_size t.wire size in
  let tag = System_layer.alloc_tag m.m_sys in
  let hdr = grp_hdr t in
  let sender = Window.me m.win and local = Window.local sw in
  let msg =
    wrap t
      (if bb then T.Bb { sender; local; size; user = payload }
       else T.Pb { sender; local; size; user = payload })
  in
  (* Ordering requests go to the current sequencer: the primary's point
     address, or the standby's after failover — re-read at every
     (re)transmission. *)
  let first_transmit () =
    if bb then System_layer.mcast ~tag ~hdr m.m_sys ~group:t.gaddr ~size:msg_size msg
    else System_layer.send ~tag ~hdr m.m_sys ~dst:(seq_dst t) ~size:msg_size msg
  in
  let retransmit () =
    if Window.tries sw >= 2 && t.c_crashed then maybe_report_dead m;
    if bb then
      System_layer.mcast_from_interrupt ~tag ~hdr m.m_sys ~group:t.gaddr ~size:msg_size msg
    else
      System_layer.send_from_interrupt ~tag ~hdr m.m_sys ~dst:(seq_dst t) ~size:msg_size msg
  in
  (* The sender already has its own BB data: store it for the accept
     directly instead of processing the looped-back multicast. *)
  if bb then Window.hold m.win sw ~size ~user:payload;
  (* Arm before transmitting: the send path's system calls suspend the
     caller, and on a sequencer-local send the whole ordering round trip
     can complete during those suspensions. *)
  Window.arm_retry m.win sw ~retransmit;
  first_transmit ();
  if blocking then begin
    Window.await sw;
    Window.check sw
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

let mk_sequencer t sys =
  {
    sq_sys = sys;
    h =
      History.create (Mach.engine (System_layer.machine sys)) ~wire:t.wire ~stats:t.stats
        ~high:t.cfg.history_high ~idle_period:(2 * t.cfg.retrans_timeout)
        ~settle:History.History_below_watermark ~members:t.n_members
        ~mcast:(fun ~hdr ~size payload ->
          System_layer.mcast ?hdr sys ~group:t.gaddr ~size (wrap t payload));
    sq_q = Queue.create ();
    sq_waiter = None;
    sq_dead = false;
    catch_up_rounds = 0;
  }

let create_core ~config ~name ~tag ~batch ~failover ~sequencer sys_layers =
  let n = Array.length sys_layers in
  assert (n > 0);
  let eng = Machine.Mach.engine (System_layer.machine sys_layers.(0)) in
  let seq_member =
    match sequencer with On_member i -> i | Dedicated _ -> -1
  in
  let t =
    {
      cfg = config;
      wire =
        { T.layer = Obs.Layer.Panda_grp; header_bytes = config.header_bytes;
          accept_bytes = config.accept_bytes; bb_threshold = config.bb_threshold };
      stats = T.stats ();
      c_tag = tag;
      gaddr = Flip.Address.fresh_group eng;
      saddr = Flip.Address.fresh_point eng;
      n_members = n;
      member_sys_addrs = [||];
      seqst = None;
      c_batch = max 1 batch;
      c_fo = None;
      c_crashed = false;
    }
  in
  let members =
    Array.mapi
      (fun i sys ->
        (* A PB message must fit one Panda fragment: the sequencer never
           reassembles. *)
        assert (config.bb_threshold + config.header_bytes
                <= System_layer.frag_payload sys);
        {
          grp = t;
          m_sys = sys;
          win =
            Window.create (Mach.engine (System_layer.machine sys)) ~stats:t.stats
              ~timeout:config.retrans_timeout
              ~max_retries:config.max_retries ~me:i;
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
  let s = mk_sequencer t seq_sys in
  t.seqst <- Some s;
  (* Failover wiring (never on the default/Single path: no extra
     addresses, threads or registrations there). *)
  let fo =
    if not failover then None
    else begin
      let successor = if seq_member >= 0 then (seq_member + 1) mod n else 0 in
      let s2 = mk_sequencer t sys_layers.(successor) in
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
  ignore
    (Thread.spawn seq_mach ~prio:Thread.Daemon (name ^ ".sequencer") (fun () ->
         seq_loop t s));
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
          (fun () -> seq_loop t fo.fo_s2)));
  (* Group-address registration, per machine: members inject the traffic
     into their daemon; the sequencer's machine additionally taps BB data
     fragments (the standby's machine takes over the tap after failover). *)
  let seq_machine_id = Mach.id seq_mach in
  Array.iteri
    (fun i m ->
      let mach_id = Mach.id (System_layer.machine m.m_sys) in
      let tap = if mach_id = seq_machine_id then Some s else None in
      let standby_tap =
        match fo with
        | Some f when f.fo_successor = i -> Some f
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
              | Some (T.Bb _) -> true
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
  let sole ~batch ~failover =
    [| create_core ~config ~name ~tag:(-1) ~batch ~failover ~sequencer sys_layers |]
  in
  let cores_members =
    match policy with
    | Seq_policy.Single -> sole ~batch:1 ~failover:false
    | Seq_policy.Batching b -> sole ~batch:b ~failover:true
    | Seq_policy.Failover -> sole ~batch:1 ~failover:true
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
            ~tag:k ~batch:1 ~failover:true ~sequencer:seq_k
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
    match c.seqst with
    | None -> ()
    | Some s ->
      s.sq_dead <- true;
      History.cancel_idle s.h
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
let messages_ordered t = sum (fun c -> c.stats.T.ordered) t
let retransmissions t = sum (fun c -> c.stats.T.retrans) t

let delivered_seq m =
  Array.fold_left (fun a cm -> a + Window.expected cm.win) 0 m.pm_ms - 1

let delivered_in_shard m ~shard = Window.expected m.pm_ms.(shard).win - 1
let set_handler m f = Array.iter (fun cm -> cm.handler <- Some f) m.pm_ms

let history_length t =
  sum
    (fun c ->
      match active_seq c with
      | Some s -> History.length s.h
      | None -> 0)
    t

let sequencer_epoch t =
  Array.fold_left
    (fun a c -> max a (match c.c_fo with Some fo -> fo.fo_epoch | None -> 0))
    0 t.p_cores
