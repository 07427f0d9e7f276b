(* Unboxed array-of-slots event heap.

   Events live in parallel arrays indexed by *slot*: an int time, an int
   sequence number and the payload value.  The heap itself is an int array
   of slot indices ordered by (time, seq).  Pushing allocates nothing
   (amortised): a slot is taken from an intrusive free list and the handle
   returned is an immediate int packing the slot index with the slot's
   generation, so stale handles (cancel after the event fired) are
   harmless.  Cancellation marks the slot dead and the entry is skipped
   lazily; when dead entries outnumber live ones the heap is compacted in
   place with a bottom-up heapify. *)

type handle = int

(* Handle layout: [gen | slot] with [slot_bits] low bits of slot index.
   The packed handle fits in 54 bits so the engine can stamp a lane id and
   a scheduler-kind bit above it and still hand out an immediate int.
   Generations wrap within their field; a collision needs the same slot to
   be reused 2^28 times while an old handle is retained. *)
let slot_bits = 26
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl 28) - 1

let pack ~gen ~slot = (gen lsl slot_bits) lor slot
let handle_slot h = h land slot_mask
let handle_gen h = h lsr slot_bits

(* Slot states. *)
let st_free = '\000'
let st_live = '\001'
let st_dead = '\002'

type 'a t = {
  dummy : 'a;  (* fills vacated value cells so popped payloads can be GC'd *)
  mutable heap : int array;  (* slot indices, min-heap by (time, seq) *)
  mutable len : int;  (* heap entries, including lazily-cancelled ones *)
  mutable times : int array;  (* per-slot event time; free-list link when free *)
  mutable seqs : int array;
  mutable values : 'a array;
  mutable gens : int array;
  mutable states : Bytes.t;
  mutable free_head : int;  (* intrusive free list threaded through [times] *)
  mutable next_seq : int;
  mutable live : int;  (* maintained eagerly on push/pop/cancel *)
}

let link_free t lo hi =
  for i = lo to hi - 1 do
    t.times.(i) <- i + 1
  done;
  t.times.(hi) <- t.free_head;
  t.free_head <- lo

let create ~dummy () =
  let capacity = 64 in
  let t =
    {
      dummy;
      heap = Array.make capacity 0;
      len = 0;
      times = Array.make capacity 0;
      seqs = Array.make capacity 0;
      values = Array.make capacity dummy;
      gens = Array.make capacity 0;
      states = Bytes.make capacity st_free;
      free_head = -1;
      next_seq = 0;
      live = 0;
    }
  in
  link_free t 0 (capacity - 1);
  t

let capacity t = Array.length t.heap

let grow t =
  let old = capacity t in
  let cap = 2 * old in
  if cap > slot_mask + 1 then invalid_arg "Sim.Heap: too many pending events";
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.heap <- extend t.heap 0;
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.values <- extend t.values t.dummy;
  t.gens <- extend t.gens 0;
  let st = Bytes.make cap st_free in
  Bytes.blit t.states 0 st 0 old;
  t.states <- st;
  link_free t old (cap - 1)

(* Strict total order: ties in time break by push sequence (FIFO). *)
let slot_lt t s1 s2 =
  t.times.(s1) < t.times.(s2)
  || (t.times.(s1) = t.times.(s2) && t.seqs.(s1) < t.seqs.(s2))

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if slot_lt t t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && slot_lt t t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.len && slot_lt t t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let free_slot t s =
  Bytes.unsafe_set t.states s st_free;
  t.values.(s) <- t.dummy;
  t.gens.(s) <- (t.gens.(s) + 1) land gen_mask;
  t.times.(s) <- t.free_head;
  t.free_head <- s

let push_seq t ~time ~seq value =
  if t.free_head = -1 then grow t;
  let s = t.free_head in
  t.free_head <- t.times.(s);
  t.times.(s) <- time;
  t.seqs.(s) <- seq;
  if seq >= t.next_seq then t.next_seq <- seq + 1;
  t.values.(s) <- value;
  Bytes.unsafe_set t.states s st_live;
  t.heap.(t.len) <- s;
  t.len <- t.len + 1;
  t.live <- t.live + 1;
  sift_up t (t.len - 1);
  pack ~gen:t.gens.(s) ~slot:s

let push t ~time value = push_seq t ~time ~seq:t.next_seq value

(* Remove the root slot from the heap array (state untouched). *)
let pop_top t =
  let s = t.heap.(0) in
  t.len <- t.len - 1;
  t.heap.(0) <- t.heap.(t.len);
  if t.len > 0 then sift_down t 0;
  s

(* Discard cancelled entries sitting at the root. *)
let rec prune t =
  if t.len > 0 && Bytes.unsafe_get t.states t.heap.(0) = st_dead then begin
    free_slot t (pop_top t);
    prune t
  end

(* Pop the root, which the caller has just pruned to a live entry. *)
let pop_next t =
  let s = pop_top t in
  t.live <- t.live - 1;
  let v = t.values.(s) in
  free_slot t s;
  v

let pop t =
  prune t;
  if t.len = 0 then None
  else begin
    let time = t.times.(t.heap.(0)) in
    Some (time, pop_next t)
  end

let next_time t =
  prune t;
  if t.len = 0 then max_int else t.times.(t.heap.(0))

(* Drop every dead entry and rebuild the heap bottom-up (Floyd, O(n)). *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let s = t.heap.(i) in
    if Bytes.unsafe_get t.states s = st_dead then free_slot t s
    else begin
      t.heap.(!j) <- s;
      incr j
    end
  done;
  t.len <- !j;
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i
  done

let cancel t h =
  let s = handle_slot h in
  if
    s < capacity t
    && Bytes.unsafe_get t.states s = st_live
    && t.gens.(s) land gen_mask = handle_gen h
  then begin
    Bytes.unsafe_set t.states s st_dead;
    t.live <- t.live - 1;
    if t.len - t.live > t.live && t.len > 64 then compact t
  end

let cancelled t h =
  let s = handle_slot h in
  s < capacity t
  && Bytes.unsafe_get t.states s = st_dead
  && t.gens.(s) land gen_mask = handle_gen h

let live_size t = t.live
let size t = t.len
