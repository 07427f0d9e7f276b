module Id_tbl = Address.Id_tbl

type entry = {
  e_seq : int;
  e_sender : int;
  e_local : int;
  e_size : int;
  e_user : Sim.Payload.t;
}

type Sim.Payload.t +=
  | Pb of { sender : int; local : int; size : int; user : Sim.Payload.t }
  | Bb of { sender : int; local : int; size : int; user : Sim.Payload.t }
  | Ordered of entry
  | Ordered_batch of { entries : entry list; lo : int }
  | Accept of { seq : int; sender : int; local : int }
  | Retrans_req of { member : int; from : int }
  | Status_req of { next : int }
  | Status_rsp of { member : int; delivered : int }

exception Group_failure of string

type wire = {
  layer : Obs.Layer.t;
  header_bytes : int;
  accept_bytes : int;
  bb_threshold : int;
}

let data_size w size = w.header_bytes + size
let data_hdr w = Some (w.layer, w.header_bytes)
let uses_bb w size = size > w.bb_threshold
let batch_bytes w entries = List.fold_left (fun a e -> a + 8 + e.e_size) w.header_bytes entries
let pair sender local = Ordered_ids.key ~sender ~local

type stats = { mutable ordered : int; mutable retrans : int }

let stats () = { ordered = 0; retrans = 0 }

type transmit = hdr:(Obs.Layer.t * int) option -> size:int -> Sim.Payload.t -> unit

(* ------------------------------------------------------------------ *)
(* The member's delivery window *)

module Window = struct
  type slot = Full of entry | Awaiting

  type send = unit Request.call

  type t = {
    eng : Sim.Engine.t;
    stats : stats;
    timeout : Sim.Time.span;
    mutable me : int;
    mutable active : bool;
    mutable expected : int;
    stash : slot Id_tbl.t;
    (* Keyed by [pair] of (sender, local). *)
    awaiting : int Id_tbl.t;
    holding : (int * Sim.Payload.t) Id_tbl.t;
    sends : unit Request.calls;  (* by local id *)
    mutable gap_timer : Sim.Engine.handle option;
  }

  let create eng ~stats ~timeout ~max_retries ~me =
    {
      eng;
      stats;
      timeout;
      me;
      active = true;
      expected = 0;
      stash = Id_tbl.create 32;
      awaiting = Id_tbl.create 8;
      holding = Id_tbl.create 8;
      sends = Request.create eng ~timeout ~max_retries;
      gap_timer = None;
    }

  let me w = w.me
  let active w = w.active
  let expected w = w.expected

  (* Only a member that has joined and not left takes part: one still
     joining cannot know where its delivery starts. *)
  let member w = w.active && w.me >= 0

  let joined w ~index ~first =
    w.me <- index;
    w.expected <- first

  let leave w =
    w.active <- false;
    (match w.gap_timer with
     | Some h ->
       Sim.Engine.cancel w.eng h;
       w.gap_timer <- None
     | None -> ());
    Id_tbl.reset w.stash;
    Id_tbl.reset w.awaiting;
    Id_tbl.reset w.holding

  let start_send w = Request.start w.sends
  let hold w s ~size ~user = Id_tbl.replace w.holding (pair w.me (Request.id s)) (size, user)

  let arm_send w s ~retransmit =
    Request.arm s ~retransmit:(fun () ->
        w.stats.retrans <- w.stats.retrans + 1;
        retransmit ())

  let check = function
    | Some () -> ()
    | None -> raise (Group_failure "broadcast not ordered after retries")

  let complete w e ~wake =
    if e.e_sender = w.me then
      match Request.find w.sends e.e_local with
      | Some s -> Request.complete s () ~wake
      | None -> ()

  let outstanding w = Request.outstanding w.sends

  module type PLACEMENT = sig
    type member

    val window : member -> t
    val to_sequencer : member -> from_timer:bool -> Sim.Payload.t -> unit
    val on_gap_timer : member -> unit
    val deliver : member -> entry -> unit
  end

  module Make (P : PLACEMENT) = struct
    let request m ~from_timer =
      let w = P.window m in
      if w.active then begin
        w.stats.retrans <- w.stats.retrans + 1;
        P.to_sequencer m ~from_timer (Retrans_req { member = w.me; from = w.expected })
      end

    (* Re-request while a gap persists. *)
    let rec arm_gap_timer m w =
      if w.gap_timer = None && Id_tbl.length w.stash > 0 then
        w.gap_timer <-
          Some
            (Sim.Engine.after w.eng w.timeout (fun () ->
                 w.gap_timer <- None;
                 if Id_tbl.length w.stash > 0 then begin
                   P.on_gap_timer m;
                   request m ~from_timer:true;
                   arm_gap_timer m w
                 end))

    let rec drain m w =
      match Id_tbl.find_opt w.stash w.expected with
      | Some (Full e) ->
        Id_tbl.remove w.stash w.expected;
        w.expected <- w.expected + 1;
        P.deliver m e;
        drain m w
      | Some Awaiting | None -> ()

    let ordered m w e =
      if member w && e.e_seq >= w.expected then begin
        (match Id_tbl.find_opt w.stash e.e_seq with
         | Some (Full _) -> () (* duplicate *)
         | Some Awaiting | None -> Id_tbl.replace w.stash e.e_seq (Full e));
        Id_tbl.remove w.awaiting (pair e.e_sender e.e_local);
        let had_gap = e.e_seq > w.expected in
        drain m w;
        if had_gap && Id_tbl.length w.stash > 0 then begin
          request m ~from_timer:false;
          arm_gap_timer m w
        end
      end

    let accept m w ~seq ~sender ~local =
      if member w && seq >= w.expected then
        match Id_tbl.find_opt w.holding (pair sender local) with
        | Some (size, user) ->
          Id_tbl.remove w.holding (pair sender local);
          ordered m w
            { e_seq = seq; e_sender = sender; e_local = local; e_size = size; e_user = user }
        | None -> (
            (* The accept outran (or lost) the data: remember and fetch it. *)
            match Id_tbl.find_opt w.stash seq with
            | Some (Full _) -> ()
            | Some Awaiting | None ->
              Id_tbl.replace w.stash seq Awaiting;
              Id_tbl.replace w.awaiting (pair sender local) seq;
              request m ~from_timer:false;
              arm_gap_timer m w)

    let bb_data m w ~sender ~local ~size ~user =
      if member w then
        match Id_tbl.find_opt w.awaiting (pair sender local) with
        | Some seq ->
          Id_tbl.remove w.awaiting (pair sender local);
          ordered m w
            { e_seq = seq; e_sender = sender; e_local = local; e_size = size; e_user = user }
        | None ->
          if not (Id_tbl.mem w.holding (pair sender local)) then
            Id_tbl.replace w.holding (pair sender local) (size, user)

    (* A silent tail: the sequencer has ordered messages this member never
       saw, and nothing later arrived to reveal the hole, so fetch them. *)
    let status_req m w ~next =
      if member w then begin
        if w.expected < next then request m ~from_timer:false;
        P.to_sequencer m ~from_timer:false
          (Status_rsp { member = w.me; delivered = w.expected - 1 })
      end

    let input m payload =
      let w = P.window m in
      match payload with
      | Ordered e ->
        ordered m w e;
        true
      | Ordered_batch { entries; _ } ->
        List.iter (fun e -> ordered m w e) entries;
        true
      | Accept { seq; sender; local } ->
        accept m w ~seq ~sender ~local;
        true
      | Bb { sender; local; size; user } ->
        bb_data m w ~sender ~local ~size ~user;
        true
      | Status_req { next } ->
        status_req m w ~next;
        true
      | _ -> false
  end
end

(* ------------------------------------------------------------------ *)
(* The sequencer's history *)

module History = struct
  type settle = Every_member_caught_up | History_below_watermark

  type t = {
    eng : Sim.Engine.t;
    wire : wire;
    stats : stats;
    high : int;
    idle_period : Sim.Time.span;
    settle : settle;
    mcast : transmit;
    mutable next_seq : int;
    entries : entry Id_tbl.t;
    mutable lo : int;
    ids : Ordered_ids.t;
    (* Highest contiguous sequence number each member index reported;
       [absent] for an index that is not a member. *)
    mutable delivered : int array;
    mutable exchanging : bool;
    mutable idle_timer : Sim.Engine.handle option;
  }

  let absent = max_int

  (* Marks a request queued for ordering but not yet numbered. *)
  let queued = -1

  let create eng ~wire ~stats ~high ~idle_period ~settle ~members ~mcast =
    {
      eng;
      wire;
      stats;
      high;
      idle_period;
      settle;
      mcast;
      next_seq = 0;
      entries = Id_tbl.create 1024;
      lo = 0;
      ids = Ordered_ids.create ();
      delivered = Array.make members (-1);
      exchanging = false;
      idle_timer = None;
    }

  let length h = Id_tbl.length h.entries

  let number h ~sender ~local ~size ~user =
    let e =
      { e_seq = h.next_seq; e_sender = sender; e_local = local; e_size = size; e_user = user }
    in
    h.next_seq <- h.next_seq + 1;
    Id_tbl.replace h.entries e.e_seq e;
    Ordered_ids.replace h.ids ~sender ~local e.e_seq;
    h.stats.ordered <- h.stats.ordered + 1;
    e

  let mark_queued h ~sender ~local = Ordered_ids.replace h.ids ~sender ~local queued

  (* PB: the sequencer multicasts the full message.  BB: the data was
     multicast by the sender; a small accept orders it. *)
  let announce h e =
    if uses_bb h.wire e.e_size then
      h.mcast ~hdr:None ~size:h.wire.accept_bytes
        (Accept { seq = e.e_seq; sender = e.e_sender; local = e.e_local })
    else
      h.mcast ~hdr:(data_hdr h.wire) ~size:(data_size h.wire e.e_size)
        (Ordered e)

  (* One multicast announces a consecutive range; the history-trim
     watermark rides along. *)
  let announce_batch h entries =
    h.mcast ~hdr:(data_hdr h.wire) ~size:(batch_bytes h.wire entries)
      (Ordered_batch { entries; lo = h.lo })

  (* A request for a message that was already ordered: the announcement
     was lost on the wire, i.e. for every member at once, so multicast it
     again (an answer to the sender alone would leave the others with an
     invisible hole at the end of the sequence). *)
  let re_announce h seq =
    match Id_tbl.find_opt h.entries seq with
    | None -> () (* trimmed: every member already delivered it *)
    | Some e ->
      h.stats.retrans <- h.stats.retrans + 1;
      announce h e

  let duplicate h ~sender ~local =
    match Ordered_ids.find_opt h.ids ~sender ~local with
    | None -> false
    | Some seq ->
      if seq <> queued then re_announce h seq;
      true

  let max_burst = 32
  let burst_end h ~from = min (h.next_seq - 1) (from + max_burst - 1)

  let resend h ~from ~upto (unicast : transmit) =
    for seq = from to upto do
      match Id_tbl.find_opt h.entries seq with
      | Some e ->
        h.stats.retrans <- h.stats.retrans + 1;
        unicast ~hdr:(data_hdr h.wire) ~size:(data_size h.wire e.e_size)
          (Ordered e)
      | None -> ()
    done

  let status_req h =
    h.mcast ~hdr:None ~size:h.wire.accept_bytes (Status_req { next = h.next_seq })

  let begin_exchange h =
    if h.exchanging then false
    else begin
      h.exchanging <- true;
      true
    end

  let overflowing h = Id_tbl.length h.entries > h.high && begin_exchange h
  let exchanging h = h.exchanging
  let min_delivered h = Array.fold_left min max_int h.delivered
  let all_caught_up h = min_delivered h >= h.next_seq - 1

  let set_delivered h member v =
    let n = Array.length h.delivered in
    if member >= n then begin
      let a = Array.make (max (member + 1) (2 * n)) absent in
      Array.blit h.delivered 0 a 0 n;
      h.delivered <- a
    end;
    h.delivered.(member) <- v

  let forget h member =
    if member < Array.length h.delivered then h.delivered.(member) <- absent

  let report h ~member ~delivered =
    let prev = if member < Array.length h.delivered then h.delivered.(member) else absent in
    set_delivered h member (max (if prev = absent then -1 else prev) delivered)

  let trim h =
    let lowest = min_delivered h in
    if lowest >= 0 && lowest < max_int then begin
      while h.lo <= lowest do
        Id_tbl.remove h.entries h.lo;
        h.lo <- h.lo + 1
      done;
      true
    end
    else false

  let settle h =
    let trimmed = trim h in
    match h.settle with
    | Every_member_caught_up -> if all_caught_up h then h.exchanging <- false
    | History_below_watermark ->
      if trimmed && Id_tbl.length h.entries < h.high then h.exchanging <- false

  let rec arm_idle h ~catch_up =
    (match h.idle_timer with Some hd -> Sim.Engine.cancel h.eng hd | None -> ());
    h.idle_timer <-
      Some
        (Sim.Engine.after h.eng h.idle_period (fun () ->
             h.idle_timer <- None;
             if (not (all_caught_up h)) && catch_up () then arm_idle h ~catch_up))

  let cancel_idle h =
    match h.idle_timer with
    | Some hd ->
      Sim.Engine.cancel h.eng hd;
      h.idle_timer <- None
    | None -> ()

  let adopt h e =
    if not (Id_tbl.mem h.entries e.e_seq) then begin
      Id_tbl.replace h.entries e.e_seq e;
      Ordered_ids.replace h.ids ~sender:e.e_sender ~local:e.e_local e.e_seq
    end

  let rebuilt h =
    let maxd = Array.fold_left max (-1) h.delivered in
    if maxd + 1 > h.next_seq then h.next_seq <- maxd + 1;
    h.lo <- Id_tbl.fold (fun k _ lo -> min k lo) h.entries h.next_seq
end
