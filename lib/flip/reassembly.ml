type slot = {
  count : int;
  mutable got : bool array;
  mutable missing : int;
}

(* Completed messages, to swallow late duplicate fragments: per source, a
   set of completed message ids, held as bit chunks of [chunk_ids]
   consecutive ids (every bit of a 63-bit int) keyed by
   [Address.pair_key src (id / chunk_ids)].  A chunk exists only once one
   of its ids has completed, so the window costs at most one table entry
   per completed message (an isolated id) and one per [chunk_ids] of them
   on a dense run. *)
let chunk_ids = 63

(* Completions remembered before the window forgets them all at once; a
   duplicate arriving after that is re-assembled as a fresh message, which
   upper layers discard by their own sequence numbers anyway. *)
let window = 65_536

type t = {
  (* Partial messages, keyed by [Address.pair_key src msg_id]. *)
  slots : slot Address.Id_tbl.t;
  chunks : int Address.Id_tbl.t;
  mutable n_completed : int;  (* completions since the window was last emptied *)
  mutable dups : int;
}

let create () =
  {
    slots = Address.Id_tbl.create 32;
    chunks = Address.Id_tbl.create 32;
    n_completed = 0;
    dups = 0;
  }

let chunk_key src id =
  if id < 0 || id lsr 32 <> 0 then
    invalid_arg (Printf.sprintf "Flip.Reassembly: message id %d does not fit" id);
  Address.pair_key src (id / chunk_ids)

let bit id = 1 lsl (id mod chunk_ids)
let chunk t key = try Address.Id_tbl.find t.chunks key with Not_found -> 0

(* [bits] is the message's chunk as [add] found it. *)
let complete t ckey bits (frag : Fragment.t) =
  let bits =
    if t.n_completed > window then begin
      Address.Id_tbl.reset t.chunks;
      t.n_completed <- 0;
      0
    end
    else bits
  in
  Address.Id_tbl.replace t.chunks ckey (bits lor bit frag.Fragment.msg_id);
  t.n_completed <- t.n_completed + 1;
  Some (frag.Fragment.src, frag.Fragment.total, frag.Fragment.payload)

let add t (frag : Fragment.t) =
  let ckey = chunk_key frag.Fragment.src frag.Fragment.msg_id in
  let bits = chunk t ckey in
  if bits land bit frag.Fragment.msg_id <> 0 then begin
    t.dups <- t.dups + 1;
    (* Surface retransmissions of completed messages (once per copy, on
       the first fragment) so protocols can answer them. *)
    if frag.Fragment.index = 0 then
      Some (frag.Fragment.src, frag.Fragment.total, frag.Fragment.payload)
    else None
  end
  (* A one-fragment message is complete on arrival: no slot to keep. *)
  else if frag.Fragment.count = 1 then complete t ckey bits frag
  else begin
    let key = Address.pair_key frag.Fragment.src frag.Fragment.msg_id in
    let slot =
      match Address.Id_tbl.find_opt t.slots key with
      | Some s -> s
      | None ->
        let s =
          {
            count = frag.Fragment.count;
            got = Array.make frag.Fragment.count false;
            missing = frag.Fragment.count;
          }
        in
        Address.Id_tbl.add t.slots key s;
        s
    in
    assert (slot.count = frag.Fragment.count);
    if slot.got.(frag.Fragment.index) then begin
      t.dups <- t.dups + 1;
      None
    end
    else begin
      slot.got.(frag.Fragment.index) <- true;
      slot.missing <- slot.missing - 1;
      if slot.missing = 0 then begin
        Address.Id_tbl.remove t.slots key;
        complete t ckey bits frag
      end
      else None
    end
  end

let pending t = Address.Id_tbl.length t.slots
let purge t = Address.Id_tbl.reset t.slots
let duplicates t = t.dups
