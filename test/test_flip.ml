open Sim
open Machine
open Net
open Flip

let machine_config =
  {
    Mach.ctx_warm = Time.us 60;
    ctx_cold_idle = Time.us 70;
    ctx_cold_preempt = Time.us 110;
    interrupt_entry = Time.us 10;
    syscall_base = Time.us 25;
    trap_cost = Time.us 6;
    lock_cost = Time.us 1;
    reg_windows = 6;
  }

(* A pool of n machines with one FLIP instance each. *)
let pool n =
  let e = Engine.create () in
  let machines =
    Array.init n (fun i -> Mach.create e ~id:i ~name:(Printf.sprintf "m%d" i) machine_config)
  in
  let topo = Topology.build e ~machines () in
  let flips = Array.mapi (fun i _ -> Flip_iface.create machines.(i) topo.Topology.nics.(i)) machines in
  (e, machines, topo, flips)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type Payload.t += Probe of int

(* ------------------------------------------------------------------ *)
(* Fragment *)

let test_split_sizes () =
  let split size =
    Fragment.split ~src:(Address.point 1) ~dst:(Address.point 2) ~msg_id:1 ~mtu:1460
      ~size Payload.Empty
  in
  check_int "0 bytes -> 1 frag" 1 (List.length (split 0));
  check_int "1460 -> 1" 1 (List.length (split 1460));
  check_int "1461 -> 2" 2 (List.length (split 1461));
  check_int "4096 -> 3" 3 (List.length (split 4096))

let prop_split_conserves_bytes =
  QCheck.Test.make ~name:"split conserves bytes and indexes" ~count:300
    QCheck.(int_bound 20_000)
    (fun size ->
      let frags =
        Fragment.split ~src:(Address.point 1) ~dst:(Address.point 2) ~msg_id:7
          ~mtu:1460 ~size Payload.Empty
      in
      let total = List.fold_left (fun acc f -> acc + f.Fragment.bytes) 0 frags in
      let indexes = List.map (fun f -> f.Fragment.index) frags in
      let count = List.length frags in
      total = size
      && indexes = List.init count Fun.id
      && List.for_all (fun f -> f.Fragment.count = count && f.Fragment.total = size) frags
      && List.for_all (fun f -> f.Fragment.bytes <= 1460) frags)

(* ------------------------------------------------------------------ *)
(* Address keys *)

(* Distinct addresses are distinct table keys (a point and a group of the
   same number too), distinct (address, id) pairs get distinct int keys,
   up to the edges of the fields, and a pair that does not fit raises
   rather than colliding. *)
let test_address_keys () =
  let max_n = (1 lsl 29) - 1 and max_id = (1 lsl 32) - 1 in
  let addrs =
    List.concat_map (fun n -> [ Address.point n; Address.group n ]) [ 0; 1; 2; max_n ]
  in
  let tbl = Address.Tbl.create 4 in
  List.iteri (fun i a -> Address.Tbl.replace tbl a i) addrs;
  check_int "one entry per address" (List.length addrs) (Address.Tbl.length tbl);
  List.iteri
    (fun i a -> check_bool "found" true (Address.Tbl.find_opt tbl a = Some i))
    addrs;
  let distinct keys = List.length (List.sort_uniq compare keys) = List.length keys in
  check_bool "pair keys distinct" true
    (distinct
       (List.concat_map
          (fun a -> List.map (Address.pair_key a) [ 0; 1; 2; max_id ])
          addrs));
  let raises a id =
    match Address.pair_key a id with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "id past 32 bits" true (raises (Address.point 1) (max_id + 1));
  check_bool "negative id" true (raises (Address.point 1) (-1));
  check_bool "address past 29 bits" true (raises (Address.group (max_n + 1)) 0);
  check_bool "negative address" true (raises (Address.point (-1)) 0)

(* ------------------------------------------------------------------ *)
(* Reassembly *)

let frags_for ?(msg_id = 1) size =
  Fragment.split ~src:(Address.point 1) ~dst:(Address.point 2) ~msg_id ~mtu:1460 ~size
    (Probe size)

let test_reassembly_out_of_order () =
  let r = Reassembly.create () in
  let frags = frags_for 4096 in
  match frags with
  | [ a; b; c ] ->
    check_bool "first" true (Reassembly.add r c = None);
    check_bool "second" true (Reassembly.add r a = None);
    (match Reassembly.add r b with
     | Some (_, total, Probe 4096) -> check_int "total" 4096 total
     | Some _ | None -> Alcotest.fail "expected completion with probe payload")
  | _ -> Alcotest.fail "expected 3 fragments"

let test_reassembly_duplicates () =
  let r = Reassembly.create () in
  match frags_for 2000 with
  | [ a; b ] ->
    check_bool "a" true (Reassembly.add r a = None);
    check_bool "dup a ignored" true (Reassembly.add r a = None);
    check_int "one dup" 1 (Reassembly.duplicates r);
    check_bool "b completes" true (Reassembly.add r b <> None);
    check_bool "late dup ignored" true (Reassembly.add r b = None);
    check_int "two dups" 2 (Reassembly.duplicates r)
  | _ -> Alcotest.fail "expected 2 fragments"

(* A one-fragment message completes on arrival and leaves no partial
   state; a second copy is surfaced again (protocols answer
   retransmissions) and counted as a duplicate.  The same message id from
   another source is another message. *)
let test_reassembly_single_fragment () =
  let r = Reassembly.create () in
  let one ~src =
    List.hd
      (Fragment.split ~src ~dst:(Address.point 9) ~msg_id:5 ~mtu:1460 ~size:100 (Probe 100))
  in
  let from1 = one ~src:(Address.point 1) and from2 = one ~src:(Address.point 2) in
  check_bool "completes on arrival" true (Reassembly.add r from1 <> None);
  check_int "nothing pending" 0 (Reassembly.pending r);
  check_bool "copy surfaced again" true (Reassembly.add r from1 <> None);
  check_int "copy counted" 1 (Reassembly.duplicates r);
  check_bool "same id, other source" true (Reassembly.add r from2 <> None);
  check_int "not a duplicate" 1 (Reassembly.duplicates r)

let test_reassembly_interleaved_messages () =
  let r = Reassembly.create () in
  let m1 = frags_for ~msg_id:1 2000 in
  let m2 = frags_for ~msg_id:2 2000 in
  let completions = ref 0 in
  List.iter
    (fun f -> if Reassembly.add r f <> None then incr completions)
    (List.concat [ [ List.nth m1 0 ]; [ List.nth m2 0 ]; [ List.nth m1 1 ]; [ List.nth m2 1 ] ]);
  check_int "both complete" 2 !completions;
  check_int "no pending" 0 (Reassembly.pending r)

let test_reassembly_purge () =
  let r = Reassembly.create () in
  ignore (Reassembly.add r (List.hd (frags_for 3000)));
  check_int "pending" 1 (Reassembly.pending r);
  Reassembly.purge r;
  check_int "purged" 0 (Reassembly.pending r)

let prop_reassembly_identity =
  QCheck.Test.make ~name:"split+reassemble = identity" ~count:200
    QCheck.(pair (int_bound 30_000) (int_range 1 30))
    (fun (size, shuffle_seed) ->
      let r = Reassembly.create () in
      let frags = Array.of_list (frags_for size) in
      let rng = Rng.create ~seed:shuffle_seed in
      for i = Array.length frags - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let tmp = frags.(i) in
        frags.(i) <- frags.(j);
        frags.(j) <- tmp
      done;
      let completions = ref [] in
      Array.iter
        (fun f ->
          match Reassembly.add r f with
          | Some (_, total, _) -> completions := total :: !completions
          | None -> ())
        frags;
      !completions = [ size ])

(* ------------------------------------------------------------------ *)
(* The completed window against a model of the table it replaced *)

(* The reference: every completed (source, message id) in one table,
   emptied when a completion finds more than 65 536 already in it. *)
module Ref_reassembly = struct
  type t = {
    slots : (Address.t * int, bool array * int ref) Hashtbl.t;
    completed : (Address.t * int, unit) Hashtbl.t;
    mutable dups : int;
    mutable resets : int;
  }

  let create () =
    { slots = Hashtbl.create 32; completed = Hashtbl.create 32; dups = 0; resets = 0 }
  let surfaced (f : Fragment.t) = Some (f.Fragment.src, f.Fragment.total, f.Fragment.payload)

  let complete t key f =
    if Hashtbl.length t.completed > 65_536 then begin
      Hashtbl.reset t.completed;
      t.resets <- t.resets + 1
    end;
    Hashtbl.replace t.completed key ();
    surfaced f

  let add t (f : Fragment.t) =
    let key = (f.Fragment.src, f.Fragment.msg_id) in
    if Hashtbl.mem t.completed key then begin
      t.dups <- t.dups + 1;
      if f.Fragment.index = 0 then surfaced f else None
    end
    else if f.Fragment.count = 1 then complete t key f
    else begin
      let got, missing =
        match Hashtbl.find_opt t.slots key with
        | Some s -> s
        | None ->
          let s = (Array.make f.Fragment.count false, ref f.Fragment.count) in
          Hashtbl.add t.slots key s;
          s
      in
      if got.(f.Fragment.index) then begin
        t.dups <- t.dups + 1;
        None
      end
      else begin
        got.(f.Fragment.index) <- true;
        decr missing;
        if !missing = 0 then begin
          Hashtbl.remove t.slots key;
          complete t key f
        end
        else None
      end
    end

  let pending t = Hashtbl.length t.slots
end

let window_sources =
  [| Address.point 1; Address.point 2; Address.group 2; Address.point ((1 lsl 29) - 1) |]

let message ~src ~id ~count =
  List.init count (fun index ->
      { Fragment.src; dst = Address.point 7; msg_id = id; index; count; bytes = 100;
        total = 100 * count; payload = Probe id })

let single ~src id = List.hd (message ~src ~id ~count:1)

(* [n] messages from [sources] senders: runs of consecutive ids, short
   strides and jumps past a whole chunk; one to three fragments each.
   Each fragment is lost, delivered or duplicated, neighbours swap places,
   and now and then every fragment of an earlier message arrives again
   (a retransmission). *)
let fragment_stream ~seed ~sources ~n =
  let rng = Rng.create ~seed in
  let next = Array.init sources (fun _ -> Rng.int rng 200) in
  let sent = Array.make n [] in
  let out = ref [] in
  let deliver m =
    List.iter
      (fun f ->
        match Rng.int rng 100 with
        | p when p < 10 -> ()
        | p when p < 25 -> out := f :: f :: !out
        | _ -> out := f :: !out)
      m
  in
  for i = 0 to n - 1 do
    let s = Rng.int rng sources in
    let stride =
      match Rng.int rng 100 with
      | p when p < 60 -> 1
      | p when p < 85 -> 2 + Rng.int rng 9
      | _ -> 60 + Rng.int rng 140
    in
    next.(s) <- next.(s) + stride;
    let count = match Rng.int rng 10 with 0 -> 3 | 1 | 2 -> 2 | _ -> 1 in
    sent.(i) <- message ~src:window_sources.(s) ~id:next.(s) ~count;
    deliver sent.(i);
    if Rng.int rng 100 < 5 then deliver sent.(Rng.int rng (i + 1))
  done;
  let arr = Array.of_list (List.rev !out) in
  for i = 0 to Array.length arr - 2 do
    if Rng.int rng 4 = 0 then begin
      let j = i + 1 + Rng.int rng (min 8 (Array.length arr - i - 1)) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    end
  done;
  arr

(* Step by step, the window answers every fragment as the reference table
   does: the same completion or surfaced copy, the same duplicate count,
   the same partial messages.  Also returns how often the reference
   emptied its table. *)
let same_as_reference frags =
  let r = Reassembly.create () and m = Ref_reassembly.create () in
  let same =
    Array.for_all
      (fun f ->
        Reassembly.add r f = Ref_reassembly.add m f
        && Reassembly.duplicates r = m.Ref_reassembly.dups
        && Reassembly.pending r = Ref_reassembly.pending m)
      frags
  in
  (same, m.Ref_reassembly.resets)

let prop_window_matches_reference =
  QCheck.Test.make ~name:"matches the reference table" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, sources) -> fst (same_as_reference (fragment_stream ~seed ~sources ~n:400)))

(* Enough messages to complete over twice the 65 536 the window
   remembers, so it is emptied twice, and copies of messages completed
   before each reset arrive after it: they must be re-assembled as fresh
   messages, as the reference does, not counted as duplicates. *)
let test_window_crosses_reset () =
  let same, resets = same_as_reference (fragment_stream ~seed:26 ~sources:4 ~n:180_000) in
  check_int "resets of the reference" 2 resets;
  check_bool "the window matches it across both" true same

(* The exact edge: 65 537 completions are all remembered, and the next
   completion empties the window before it is recorded. *)
let test_window_edge () =
  let r = Reassembly.create () in
  let one = single ~src:(Address.point 1) in
  for id = 1 to 65_537 do
    ignore (Reassembly.add r (one id))
  done;
  ignore (Reassembly.add r (one 1));
  check_int "65 537 completions remembered" 1 (Reassembly.duplicates r);
  ignore (Reassembly.add r (one 65_538));
  ignore (Reassembly.add r (one 2));
  check_int "forgotten at the next completion" 1 (Reassembly.duplicates r);
  ignore (Reassembly.add r (one 65_538));
  check_int "which is remembered" 2 (Reassembly.duplicates r)

let words x = Obj.reachable_words (Obj.repr x)

(* 65 536 one-fragment completions from 8 sources, each numbering its
   messages 1, 2, 3, ...: one table entry per chunk of ids, not per
   message.  A table entry per completed message costs ~4.5 words each. *)
let test_window_memory_dense () =
  let r = Reassembly.create () in
  for id = 1 to 8192 do
    for s = 0 to 7 do
      ignore (Reassembly.add r (single ~src:(Address.point s) id))
    done
  done;
  let w = words r in
  check_bool (Printf.sprintf "%d words for 65 536 completions" w) true (w <= 65_536 / 8)

(* The worst case: every completed id isolated in its own chunk.  It costs
   no more per completion than a table of completed messages. *)
let test_window_memory_isolated () =
  let r = Reassembly.create () and table = Address.Id_tbl.create 32 in
  let empty_r = words r and empty_table = words table in
  for k = 1 to 8192 do
    for s = 0 to 7 do
      let id = k * 2 * 63 in
      ignore (Reassembly.add r (single ~src:(Address.point s) id));
      Address.Id_tbl.replace table (Address.pair_key (Address.point s) id) ()
    done
  done;
  let grown = words r - empty_r and table_grown = words table - empty_table in
  check_bool
    (Printf.sprintf "window %d words <= table %d words" grown table_grown)
    true (grown <= table_grown)

let test_window_rejects_bad_ids () =
  let raises id =
    match Reassembly.add (Reassembly.create ()) (single ~src:(Address.point 1) id) with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "negative id" true (raises (-1));
  check_bool "id past 32 bits" true (raises (1 lsl 32));
  check_bool "largest id" false (raises ((1 lsl 32) - 1))

(* ------------------------------------------------------------------ *)
(* The sequencer's (sender, local) map against a Hashtbl *)

(* Random replaces and lookups over the system sender and six members,
   local ids mostly dense with occasional jumps; every lookup, and at the
   end every key in range, answers as a Hashtbl does. *)
let prop_ordered_ids_match_hashtbl =
  QCheck.Test.make ~name:"matches a Hashtbl" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let map = Ordered_ids.create () and ref_tbl = Hashtbl.create 64 in
      let next = Array.make 7 0 in
      let agree sender local =
        Ordered_ids.find_opt map ~sender ~local = Hashtbl.find_opt ref_tbl (sender, local)
      in
      let ok = ref true in
      for _ = 1 to 2_000 do
        let sender = Rng.int rng 7 - 1 in
        let local =
          match Rng.int rng 10 with
          | 0 -> Rng.int rng 400
          | 1 -> next.(sender + 1) + Rng.int rng 50
          | _ -> next.(sender + 1) + 1
        in
        next.(sender + 1) <- max next.(sender + 1) local;
        if Rng.bool rng then begin
          let v = Rng.int rng 1_000_000 - 1 in
          Ordered_ids.replace map ~sender ~local v;
          Hashtbl.replace ref_tbl (sender, local) v
        end;
        if not (agree sender local) then ok := false
      done;
      for sender = -1 to 6 do
        for local = 0 to 500 do
          if not (agree sender local) then ok := false
        done
      done;
      !ok && Ordered_ids.find_opt map ~sender:(-2) ~local:1 = None
      && Ordered_ids.find_opt map ~sender:0 ~local:(-1) = None)

let test_ordered_ids_keys () =
  let max_sender = (1 lsl 29) - 2 and max_local = (1 lsl 32) - 1 in
  let pairs =
    List.concat_map
      (fun sender -> List.map (fun local -> (sender, local)) [ 0; 1; max_local ])
      [ -1; 0; 1; max_sender ]
  in
  let keys = List.map (fun (sender, local) -> Ordered_ids.key ~sender ~local) pairs in
  check_int "distinct keys" (List.length pairs) (List.length (List.sort_uniq compare keys));
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "sender below -1" true (raises (fun () -> Ordered_ids.key ~sender:(-2) ~local:0));
  check_bool "sender past 29 bits" true
    (raises (fun () -> Ordered_ids.key ~sender:(max_sender + 1) ~local:0));
  check_bool "negative local" true (raises (fun () -> Ordered_ids.key ~sender:0 ~local:(-1)));
  check_bool "local past 32 bits" true
    (raises (fun () -> Ordered_ids.key ~sender:0 ~local:(max_local + 1)));
  let map = Ordered_ids.create () in
  check_bool "replace: sender below -1" true
    (raises (fun () -> Ordered_ids.replace map ~sender:(-2) ~local:1 0));
  check_bool "replace: negative local" true
    (raises (fun () -> Ordered_ids.replace map ~sender:0 ~local:(-1) 0));
  check_bool "replace: min_int" true
    (raises (fun () -> Ordered_ids.replace map ~sender:0 ~local:1 min_int))

(* 9 999 ordered broadcasts, 1 111 from each of eight members and the
   system sender: about a word each, against ~9 for a Hashtbl with a boxed
   (sender, local) key per broadcast. *)
let test_ordered_ids_memory () =
  let map = Ordered_ids.create () and tbl = Hashtbl.create 1024 in
  let seq = ref 0 in
  for local = 1 to 1_111 do
    for sender = -1 to 7 do
      Ordered_ids.replace map ~sender ~local !seq;
      Hashtbl.replace tbl (sender, local) !seq;
      incr seq
    done
  done;
  let w = words map and tw = words tbl in
  check_bool (Printf.sprintf "%d words for %d broadcasts" w !seq) true (w <= 2 * !seq);
  check_bool (Printf.sprintf "%d words against a Hashtbl's %d" w tw) true (4 * w <= tw)

(* ------------------------------------------------------------------ *)
(* Flip_iface end-to-end *)

let test_unicast_with_locate () =
  let e, _machines, _topo, flips = pool 2 in
  let addr = Address.fresh_point e in
  let got = ref [] in
  Flip_iface.register flips.(1) addr (fun frag -> got := frag :: !got);
  Flip_iface.unicast flips.(0) ~src:(Address.fresh_point e) ~dst:addr ~size:4096
    (Probe 42);
  Engine.run e;
  check_int "three fragments arrive" 3 (List.length !got);
  check_int "one locate" 1 (Flip_iface.locates_sent flips.(0));
  check_bool "payload intact" true
    (List.for_all (fun f -> f.Fragment.payload = Probe 42) !got);
  (* Second message reuses the cached route: no further locates. *)
  got := [];
  Flip_iface.unicast flips.(0) ~src:(Address.fresh_point e) ~dst:addr ~size:100
    (Probe 43);
  Engine.run e;
  check_int "cached route" 1 (Flip_iface.locates_sent flips.(0));
  check_int "one more fragment" 1 (List.length !got)

let test_unicast_loopback () =
  let e, _machines, topo, flips = pool 2 in
  let addr = Address.fresh_point e in
  let got = ref 0 in
  Flip_iface.register flips.(0) addr (fun _ -> incr got);
  Flip_iface.unicast flips.(0) ~src:(Address.fresh_point e) ~dst:addr ~size:3000
    Payload.Empty;
  Engine.run e;
  check_int "fragments looped back" 3 !got;
  check_int "nothing on the wire" 0 (Nic.frames_sent (Topology.nic topo 0))

let test_multicast_group_membership () =
  let e, _machines, _topo, flips = pool 3 in
  let grp = Address.fresh_group e in
  let got = Array.make 3 0 in
  Flip_iface.register flips.(0) grp (fun _ -> got.(0) <- got.(0) + 1);
  Flip_iface.register flips.(2) grp (fun _ -> got.(2) <- got.(2) + 1);
  Flip_iface.multicast flips.(0) ~src:(Address.fresh_point e) ~group:grp ~size:2000
    Payload.Empty;
  Engine.run e;
  check_int "sender loopback" 2 got.(0);
  check_int "non-member silent" 0 got.(1);
  check_int "member receives" 2 got.(2)

let test_locate_retries_after_loss () =
  let e, _machines, topo, flips = pool 2 in
  let addr = Address.fresh_point e in
  let got = ref 0 in
  Flip_iface.register flips.(1) addr (fun _ -> incr got);
  (* Drop the first broadcast (the locate request). *)
  let dropped = ref 0 in
  Segment.set_fault_injector topo.Topology.segments.(0)
    (Some
       (fun frame ->
         if frame.Frame.dest = Frame.Broadcast && !dropped = 0 then begin
           incr dropped;
           true
         end
         else false));
  Flip_iface.unicast flips.(0) ~src:(Address.fresh_point e) ~dst:addr ~size:10
    Payload.Empty;
  Engine.run e;
  check_int "one drop" 1 !dropped;
  check_int "retried locate" 2 (Flip_iface.locates_sent flips.(0));
  check_int "delivered after retry" 1 !got

let test_locate_gives_up () =
  let e, _machines, _topo, flips = pool 2 in
  (* Address registered nowhere: locate retries then drops the message. *)
  Flip_iface.unicast flips.(0) ~src:(Address.fresh_point e)
    ~dst:(Address.fresh_point e) ~size:10 Payload.Empty;
  Engine.run e;
  check_int "bounded retries" (Flip_iface.default_config.Flip_iface.locate_retries)
    (Flip_iface.locates_sent flips.(0))

let test_cross_segment_unicast () =
  let e, _machines, _topo, flips = pool 16 in
  let addr = Address.fresh_point e in
  let got = ref 0 in
  Flip_iface.register flips.(12) addr (fun _ -> incr got);
  Flip_iface.unicast flips.(0) ~src:(Address.fresh_point e) ~dst:addr ~size:100
    Payload.Empty;
  Engine.run e;
  check_int "delivered across switch" 1 !got

let test_wrong_address_kinds_rejected () =
  let _e, _machines, _topo, flips = pool 2 in
  Alcotest.check_raises "unicast to group"
    (Invalid_argument "Flip_iface.unicast: group address") (fun () ->
      Flip_iface.unicast flips.(0) ~src:(Address.point 1) ~dst:(Address.group 9)
        ~size:1 Payload.Empty);
  Alcotest.check_raises "multicast to point"
    (Invalid_argument "Flip_iface.multicast: point address") (fun () ->
      Flip_iface.multicast flips.(0) ~src:(Address.point 1) ~group:(Address.point 9)
        ~size:1 Payload.Empty)

let test_send_cost_scales_with_fragments () =
  let _e, _machines, _topo, flips = pool 2 in
  let f = flips.(0) in
  check_int "1 packet" 1 (Flip_iface.fragments_of f ~size:0);
  check_int "3 packets" 3 (Flip_iface.fragments_of f ~size:4096);
  check_bool "cost grows" true
    (Flip_iface.send_cost f ~size:4096 > Flip_iface.send_cost f ~size:0)

(* ------------------------------------------------------------------ *)
(* Total order: the shared delivery window on a bare engine *)

module Tot = Total_order

(* One member (index 0) whose placement only records: what it delivered,
   the repair requests it sent and how often each of its own broadcasts
   completed.  [answer] stands in for the sequencer. *)
type tmember = {
  tw : Tot.Window.t;
  delivered : int list ref;
  requests : int ref;
  completed : (int, int) Hashtbl.t;
  mutable answer : int -> unit;
}

module Tw = Tot.Window.Make (struct
  type member = tmember

  let window m = m.tw

  let to_sequencer m ~from_timer:_ = function
    | Tot.Retrans_req { from; _ } ->
      incr m.requests;
      m.answer from
    | _ -> ()

  let on_gap_timer _ = ()

  let deliver m e =
    m.delivered := e.Tot.e_seq :: !(m.delivered);
    let before = Tot.Window.outstanding m.tw in
    Tot.Window.complete m.tw e ~wake:(fun _ resume -> resume ());
    if Tot.Window.outstanding m.tw < before then
      Hashtbl.replace m.completed e.Tot.e_local
        (1 + Option.value ~default:0 (Hashtbl.find_opt m.completed e.Tot.e_local))
end)

let tot_wire =
  { Tot.layer = Obs.Layer.Flip; header_bytes = 40; accept_bytes = 24; bb_threshold = 1000 }

(* The known total order: sender (0 = the member itself) and whether the
   message is large enough for the BB method, per sequence number. *)
let known_order spec =
  let next_local = Array.make 3 0 in
  Array.of_list
    (List.mapi
       (fun seq (sender, big) ->
         let sender = sender mod 3 in
         next_local.(sender) <- next_local.(sender) + 1;
         { Tot.e_seq = seq; e_sender = sender; e_local = next_local.(sender);
           e_size = (if big then 2000 else 100); e_user = Probe seq })
       spec)

(* A message's wire form: PB entries arrive whole; BB entries as the
   sender's data and the sequencer's accept (the member already holds its
   own data). *)
let wire_messages (e : Tot.entry) =
  if not (Tot.uses_bb tot_wire e.e_size) then [ Tot.Ordered e ]
  else
    let accept = Tot.Accept { seq = e.e_seq; sender = e.e_sender; local = e.e_local } in
    if e.e_sender = 0 then [ accept ]
    else
      [ Tot.Bb { sender = e.e_sender; local = e.e_local; size = e.e_size; user = e.e_user };
        accept ]

(* Runs the window over [arrivals] (time, message) of [order]; repair
   requests are answered 1 ms later from the known order, 32 entries at a
   time, and a status request every 500 ms after the stream exposes a
   silent tail.  Returns the member once the engine drains. *)
let run_window order arrivals =
  let eng = Engine.create () in
  let n = Array.length order in
  let m =
    { tw =
        Tot.Window.create eng ~stats:(Tot.stats ()) ~timeout:(Time.ms 200)
          ~max_retries:1000 ~me:0;
      delivered = ref []; requests = ref 0; completed = Hashtbl.create 8;
      answer = ignore }
  in
  let input msg = ignore (Tw.input m msg) in
  m.answer <-
    (fun from ->
      ignore
        (Engine.after eng (Time.ms 1) (fun () ->
             for seq = from to min (n - 1) (from + 31) do
               input (Tot.Ordered order.(seq))
             done)));
  Array.iter
    (fun (e : Tot.entry) ->
      if e.e_sender = 0 then begin
        let s = Tot.Window.start_send m.tw in
        assert (Tot.Window.local s = e.e_local);
        if Tot.uses_bb tot_wire e.e_size then Tot.Window.hold m.tw s ~size:e.e_size ~user:e.e_user;
        Tot.Window.arm_retry m.tw s ~retransmit:ignore
      end)
    order;
  List.iter (fun (at, msg) -> ignore (Engine.at eng at (fun () -> input msg))) arrivals;
  let rec status_round k =
    ignore
      (Engine.after eng (Time.ms 500) (fun () ->
           if List.length !(m.delivered) < n && k < 100 then begin
             input (Tot.Status_req { next = n });
             status_round (k + 1)
           end))
  in
  status_round 0;
  Engine.run ~until:(Time.sec 300) eng;
  m

let delivered_once_in_order order m =
  let n = Array.length order in
  List.rev !(m.delivered) = List.init n Fun.id
  && Tot.Window.outstanding m.tw = 0
  && Array.for_all
       (fun (e : Tot.entry) ->
         e.e_sender <> 0 || Hashtbl.find_opt m.completed e.e_local = Some 1)
       order

let order_gen = QCheck.(list_of_size Gen.(int_range 1 30) (pair small_nat bool))

let prop_window_any_arrival =
  QCheck.Test.make ~name:"window: lossy arrival, exactly once" ~count:300
    QCheck.(pair order_gen (int_bound 1_000_000))
    (fun (spec, seed) ->
      let order = known_order spec in
      let rng = Random.State.make [| seed |] in
      let time () = Time.us (Random.State.int rng 50_000) in
      let arrivals =
        List.concat_map
          (fun e ->
            List.concat_map
              (fun msg ->
                let copies = if Random.State.int rng 10 = 0 then 2 else 1 in
                if Random.State.int rng 5 = 0 then []
                else List.init copies (fun _ -> (time (), msg)))
              (wire_messages e))
          (Array.to_list order)
      in
      delivered_once_in_order order (run_window order arrivals))

let prop_window_in_order =
  QCheck.Test.make ~name:"window: in-order stream, no repair" ~count:200 order_gen
    (fun spec ->
      let order = known_order spec in
      let arrivals =
        List.concat_map
          (fun (e : Tot.entry) ->
            List.mapi (fun i msg -> (Time.us ((100 * e.e_seq) + i), msg)) (wire_messages e))
          (Array.to_list order)
      in
      let m = run_window order arrivals in
      delivered_once_in_order order m && !(m.requests) = 0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "flip"
    [
      ( "fragment",
        [ Alcotest.test_case "split sizes" `Quick test_split_sizes ]
        @ qsuite [ prop_split_conserves_bytes ] );
      ("address", [ Alcotest.test_case "table keys" `Quick test_address_keys ]);
      ( "reassembly",
        [
          Alcotest.test_case "out of order" `Quick test_reassembly_out_of_order;
          Alcotest.test_case "duplicates" `Quick test_reassembly_duplicates;
          Alcotest.test_case "single fragment" `Quick test_reassembly_single_fragment;
          Alcotest.test_case "interleaved" `Quick test_reassembly_interleaved_messages;
          Alcotest.test_case "purge" `Quick test_reassembly_purge;
        ]
        @ qsuite [ prop_reassembly_identity ] );
      ( "window",
        [
          Alcotest.test_case "crosses the reset" `Quick test_window_crosses_reset;
          Alcotest.test_case "forgets at the edge" `Quick test_window_edge;
          Alcotest.test_case "memory, dense ids" `Quick test_window_memory_dense;
          Alcotest.test_case "memory, isolated ids" `Quick test_window_memory_isolated;
          Alcotest.test_case "bad ids" `Quick test_window_rejects_bad_ids;
        ]
        @ qsuite [ prop_window_matches_reference ] );
      ( "ordered ids",
        [
          Alcotest.test_case "keys" `Quick test_ordered_ids_keys;
          Alcotest.test_case "memory" `Quick test_ordered_ids_memory;
        ]
        @ qsuite [ prop_ordered_ids_match_hashtbl ] );
      ("total order", qsuite [ prop_window_any_arrival; prop_window_in_order ]);
      ( "iface",
        [
          Alcotest.test_case "unicast + locate" `Quick test_unicast_with_locate;
          Alcotest.test_case "loopback" `Quick test_unicast_loopback;
          Alcotest.test_case "multicast membership" `Quick test_multicast_group_membership;
          Alcotest.test_case "locate retry on loss" `Quick test_locate_retries_after_loss;
          Alcotest.test_case "locate gives up" `Quick test_locate_gives_up;
          Alcotest.test_case "cross-segment" `Quick test_cross_segment_unicast;
          Alcotest.test_case "address kinds" `Quick test_wrong_address_kinds_rejected;
          Alcotest.test_case "send cost" `Quick test_send_cost_scales_with_fragments;
        ] );
    ]
