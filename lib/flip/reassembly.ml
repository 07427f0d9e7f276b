type slot = {
  count : int;
  mutable got : bool array;
  mutable missing : int;
}

(* Both tables are keyed by [Address.pair_key src msg_id]. *)
type t = {
  slots : slot Address.Id_tbl.t;
  (* Recently completed messages, to swallow late duplicate fragments. *)
  completed : unit Address.Id_tbl.t;
  mutable dups : int;
}

let create () =
  { slots = Address.Id_tbl.create 32; completed = Address.Id_tbl.create 32; dups = 0 }

let complete t key (frag : Fragment.t) =
  (* Bound the duplicate-suppression memory; a duplicate arriving after 64k
     completed messages would be re-assembled as a fresh single-fragment
     message, which upper layers discard by their own sequence numbers
     anyway. *)
  if Address.Id_tbl.length t.completed > 65_536 then Address.Id_tbl.reset t.completed;
  Address.Id_tbl.replace t.completed key ();
  Some (frag.Fragment.src, frag.Fragment.total, frag.Fragment.payload)

let add t (frag : Fragment.t) =
  let key = Address.pair_key frag.Fragment.src frag.Fragment.msg_id in
  if Address.Id_tbl.mem t.completed key then begin
    t.dups <- t.dups + 1;
    (* Surface retransmissions of completed messages (once per copy, on
       the first fragment) so protocols can answer them. *)
    if frag.Fragment.index = 0 then
      Some (frag.Fragment.src, frag.Fragment.total, frag.Fragment.payload)
    else None
  end
  (* A one-fragment message is complete on arrival: no slot to keep. *)
  else if frag.Fragment.count = 1 then complete t key frag
  else begin
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
        complete t key frag
      end
      else None
    end
  end

let pending t = Address.Id_tbl.length t.slots
let purge t = Address.Id_tbl.reset t.slots
let duplicates t = t.dups
