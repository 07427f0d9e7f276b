(* Hierarchical timing wheel for far-future timers.

   Three levels of 256 buckets; level 0 buckets span 2^21 ns (~2.1 ms), so
   level 0 covers ~537 ms — the 200 ms retransmission timers, the 100 ms
   locate timeout and the 20 ms ack delay all land there — level 1 covers
   ~137 s and level 2 ~9.8 h.  Entries live in parallel arrays ("slots")
   doubly linked into their bucket, so insert and cancel are both O(1) and
   cancel reclaims the slot immediately: a cancelled timer costs nothing at
   pop time and is never heapified.  The wheel stores the original
   (time, seq) stamp of each entry; [advance] flushes due buckets (cascading
   upper levels) so the engine can spill them into its near-term heap before
   the clock reaches them, preserving the exact (time, seq) total order of a
   pure-heap scheduler.

   A per-level occupancy bitmap (one bit per bucket, set when the bucket
   becomes non-empty, cleared when a cancel or a flush empties it) lets
   [advance] and [rescan] visit only the buckets that hold timers rather
   than probing all 768 heads on every drain.

   Bucket membership is computed from absolute times, and the engine only
   inserts entries whose bucket lies strictly in the future at insert time
   and flushes every bucket before the clock passes it, so a bucket never
   mixes entries from different wrap-arounds of the index space.  That lets
   a bucket's absolute start time be reconstructed from any resident entry. *)

type handle = int

let levels = 3
let bucket_bits = 8
let buckets_per_level = 1 lsl bucket_bits
let bucket_mask = buckets_per_level - 1
let shift0 = 21

let level_shift l = shift0 + (bucket_bits * l)

(* Span of one bucket at level [l]. *)
let granule l = 1 lsl level_shift l

(* Handle layout mirrors Heap: [gen | slot], 54 bits total. *)
let slot_bits = 26
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl 28) - 1
let pack ~gen ~slot = (gen lsl slot_bits) lor slot
let handle_slot h = h land slot_mask
let handle_gen h = h lsr slot_bits

(* Occupancy words hold 32 bucket bits each, so the index of an isolated
   bit comes from a 32-bit de Bruijn multiply, exact in 63-bit ints. *)
let word_bits = 32
let words_per_level = buckets_per_level / word_bits

let debruijn_index =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let bit_index bit = debruijn_index.(((bit * 0x077CB531) land 0xFFFF_FFFF) lsr 27)

let st_free = '\000'
let st_live = '\001'

(* The entry migrated into the engine's heap when its bucket was flushed;
   the slot stays allocated as a forwarding stub (heap handle in [times])
   so the original wheel handle still cancels, and is reclaimed either by
   that cancel or by [release] when the migrated event pops. *)
let st_moved = '\002'

type 'a t = {
  dummy : 'a;
  mutable times : int array;  (* free-list link when free *)
  mutable seqs : int array;
  mutable values : 'a array;
  mutable gens : int array;
  mutable states : Bytes.t;
  mutable nexts : int array;  (* intra-bucket doubly-linked list, -1 ends *)
  mutable prevs : int array;  (* -1 = head of its bucket *)
  mutable buckets : int array;  (* per-slot bucket index = level*256 + idx *)
  heads : int array;  (* levels * buckets_per_level, -1 = empty *)
  occupied : int array;  (* bit (b mod 32) of word (b / 32): heads.(b) <> -1 *)
  mutable free_head : int;
  mutable live : int;
  mutable min_start : int;  (* cached earliest bucket start; max_int = dirty *)
}

let link_free t lo hi =
  for i = lo to hi - 1 do
    t.times.(i) <- i + 1
  done;
  t.times.(hi) <- t.free_head;
  t.free_head <- lo

let create ?(capacity = 64) ~dummy () =
  let capacity = max 8 capacity in
  let t =
    {
      dummy;
      times = Array.make capacity 0;
      seqs = Array.make capacity 0;
      values = Array.make capacity dummy;
      gens = Array.make capacity 0;
      states = Bytes.make capacity st_free;
      nexts = Array.make capacity (-1);
      prevs = Array.make capacity (-1);
      buckets = Array.make capacity 0;
      heads = Array.make (levels * buckets_per_level) (-1);
      occupied = Array.make (levels * words_per_level) 0;
      free_head = -1;
      live = 0;
      min_start = max_int;
    }
  in
  link_free t 0 (capacity - 1);
  t

let capacity t = Array.length t.times

let mark t b =
  let w = b lsr 5 in
  t.occupied.(w) <- t.occupied.(w) lor (1 lsl (b land 31))

let unmark t b =
  let w = b lsr 5 in
  t.occupied.(w) <- t.occupied.(w) land lnot (1 lsl (b land 31))

(* [f b] for every occupied bucket [b] of level [l], in ascending order.
   Each word is read once up front: [f] may empty the bucket it is given
   or fill buckets of lower levels, never another bucket of level [l]. *)
let iter_occupied t l f =
  for w = l * words_per_level to ((l + 1) * words_per_level) - 1 do
    let bits = ref t.occupied.(w) in
    while !bits <> 0 do
      let bit = !bits land - !bits in
      bits := !bits lxor bit;
      f ((w * word_bits) + bit_index bit)
    done
  done

let grow t =
  let old = capacity t in
  let cap = 2 * old in
  if cap > slot_mask + 1 then invalid_arg "Sim.Wheel: too many pending timers";
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.values <- extend t.values t.dummy;
  t.gens <- extend t.gens 0;
  t.nexts <- extend t.nexts (-1);
  t.prevs <- extend t.prevs (-1);
  t.buckets <- extend t.buckets 0;
  let st = Bytes.make cap st_free in
  Bytes.blit t.states 0 st 0 old;
  t.states <- st;
  link_free t old (cap - 1)

(* Level whose bucket for [time] is strictly ahead of [now]'s: the smallest
   l with distinct, future bucket indices and a distance under one wrap. *)
let level_for ~now ~time =
  let rec find l =
    if l >= levels then levels - 1
    else
      let sh = level_shift l in
      let d = (time lsr sh) - (now lsr sh) in
      if d >= 1 && d < buckets_per_level then l else find (l + 1)
  in
  find 0

(* The engine only routes to the wheel when the bucket is strictly future:
   at least one full level-0 granule past [now] guarantees that. *)
let fits ~now ~time = (time lsr shift0) - (now lsr shift0) >= 1

(* NB: lsr/lsl are right-associative, so the truncation needs parens. *)
let bucket_start ~level time = (time lsr level_shift level) lsl level_shift level

let insert t ~now ~time ~seq value =
  if t.free_head = -1 then grow t;
  let l = level_for ~now ~time in
  let b = (l lsl bucket_bits) lor ((time lsr level_shift l) land bucket_mask) in
  let s = t.free_head in
  t.free_head <- t.times.(s);
  t.times.(s) <- time;
  t.seqs.(s) <- seq;
  t.values.(s) <- value;
  Bytes.unsafe_set t.states s st_live;
  t.buckets.(s) <- b;
  let head = t.heads.(b) in
  t.nexts.(s) <- head;
  t.prevs.(s) <- -1;
  if head <> -1 then t.prevs.(head) <- s else mark t b;
  t.heads.(b) <- s;
  t.live <- t.live + 1;
  if t.min_start <> max_int then begin
    let start = bucket_start ~level:l time in
    if start < t.min_start then t.min_start <- start
  end;
  pack ~gen:t.gens.(s) ~slot:s

let unlink t s =
  let nx = t.nexts.(s) and pv = t.prevs.(s) in
  if pv = -1 then begin
    let b = t.buckets.(s) in
    t.heads.(b) <- nx;
    if nx = -1 then unmark t b
  end
  else t.nexts.(pv) <- nx;
  if nx <> -1 then t.prevs.(nx) <- pv

let free_slot t s =
  Bytes.unsafe_set t.states s st_free;
  t.values.(s) <- t.dummy;
  t.gens.(s) <- (t.gens.(s) + 1) land gen_mask;
  t.times.(s) <- t.free_head;
  t.free_head <- s

type cancel_result = Absent | Cancelled | Moved of int

let cancel t h =
  let s = handle_slot h in
  if s >= capacity t || t.gens.(s) land gen_mask <> handle_gen h then Absent
  else begin
    let st = Bytes.unsafe_get t.states s in
    if st = st_live then begin
      unlink t s;
      free_slot t s;
      t.live <- t.live - 1;
      (* min_start may now be stale-low; a too-early boundary only costs an
         empty flush, never a reorder, so leave it. *)
      Cancelled
    end
    else if st = st_moved then begin
      let heap_handle = t.times.(s) in
      free_slot t s;
      Moved heap_handle
    end
    else Absent
  end

let release t h =
  let s = handle_slot h in
  if
    s < capacity t
    && Bytes.unsafe_get t.states s = st_moved
    && t.gens.(s) land gen_mask = handle_gen h
  then free_slot t s

let live t = t.live

(* Earliest non-empty bucket's start time, over the occupied buckets only;
   runs when the cache was invalidated by a flush. *)
let rescan t =
  let m = ref max_int in
  for l = 0 to levels - 1 do
    iter_occupied t l (fun b ->
        let start = bucket_start ~level:l t.times.(t.heads.(b)) in
        if start < !m then m := start)
  done;
  t.min_start <- !m

let next_boundary t =
  if t.live = 0 then max_int
  else begin
    if t.min_start = max_int then rescan t;
    (* min_start can point at a bucket emptied purely by cancels. *)
    t.min_start
  end

(* Flush every bucket whose start is <= [upto].  Entries now within one
   level-0 granule of the boundary migrate to the engine's heap: [emit]
   pushes them with their original stamps and returns the heap handle,
   which the slot keeps as a forwarding stub (st_moved) so the wheel
   handle held by the scheduler still cancels them.  Farther entries
   cascade: the same slot relinks into its now-in-range finer bucket
   (always a strictly lower level), keeping its handle valid. *)
let advance t ~upto ~emit =
  for l = levels - 1 downto 0 do
    iter_occupied t l (fun b ->
        let head = t.heads.(b) in
        if bucket_start ~level:l t.times.(head) <= upto then begin
          t.heads.(b) <- -1;
          unmark t b;
          let s = ref head in
          while !s <> -1 do
            let cur = !s in
            let next = t.nexts.(cur) in
            let time = t.times.(cur) and seq = t.seqs.(cur) in
            if l = 0 || (time lsr shift0) - (upto lsr shift0) < 1 then begin
              let v = t.values.(cur) in
              let heap_handle =
                emit ~time ~seq ~handle:(pack ~gen:t.gens.(cur) ~slot:cur) v
              in
              Bytes.unsafe_set t.states cur st_moved;
              t.values.(cur) <- t.dummy;
              t.times.(cur) <- heap_handle;
              t.live <- t.live - 1
            end
            else begin
              let l' = level_for ~now:upto ~time in
              let b' =
                (l' lsl bucket_bits) lor ((time lsr level_shift l') land bucket_mask)
              in
              t.buckets.(cur) <- b';
              let h' = t.heads.(b') in
              t.nexts.(cur) <- h';
              t.prevs.(cur) <- -1;
              if h' <> -1 then t.prevs.(h') <- cur else mark t b';
              t.heads.(b') <- cur
            end;
            s := next
          done
        end)
  done;
  t.min_start <- max_int

(* Exposed for the model tests. *)
let granule0 = granule 0
