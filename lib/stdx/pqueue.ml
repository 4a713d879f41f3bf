(* A binary heap of immediates over slot rows. The heap rows, indexed by
   heap position, hold each entry's priority (unboxed, in a float
   array), its seq and its slot; heap position [i]'s children are
   [2i+1] and [2i+2]. The slot rows hold each entry's value and arg,
   written once by [push] and cleared once by [take], so a sift moves
   no value and pays no write barrier.

   [free.(size) .. free.(slots - 1)] is the stack of free slots, its top
   at [size]: [take] frees the minimum's slot into [free.(size)] once
   [size] has dropped, and [push] takes [free.(size)]. When the stack
   is empty ([size = slots]) every slot handed out is in use and [push]
   hands out slot [slots], so [slots] is the peak length. All rows
   start empty and double together; a free slot's value is [dummy], so
   the queue keeps nothing alive that was taken. *)
type 'a t = {
  dummy : 'a;
  (* heap rows *)
  mutable prio : float array;
  mutable seq : int array;
  mutable slot : int array;
  (* slot rows *)
  mutable value : 'a array;
  mutable arg : int array;
  mutable free : int array;
  mutable size : int;
  mutable slots : int; (* slots handed out so far: [0, slots) *)
}

let create ~dummy =
  { dummy;
    prio = [||];
    seq = [||];
    slot = [||];
    value = [||];
    arg = [||];
    free = [||];
    size = 0;
    slots = 0 }

let length t = t.size

let is_empty t = t.size = 0

let slot_capacity t = t.slots

(* runs only when every slot is in use: [size = slots = capacity] *)
let grow t =
  let cap = Array.length t.prio in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.prio <- extend t.prio 0.0;
  t.seq <- extend t.seq 0;
  t.slot <- extend t.slot 0;
  t.value <- extend t.value t.dummy;
  t.arg <- extend t.arg 0;
  t.free <- extend t.free 0

(* heap position [i] := the entry (p, s, sl) *)
let[@inline] set t i p s sl =
  Array.unsafe_set t.prio i p;
  Array.unsafe_set t.seq i s;
  Array.unsafe_set t.slot i sl

let[@inline] move t ~src ~dst =
  set t dst (Array.unsafe_get t.prio src) (Array.unsafe_get t.seq src)
    (Array.unsafe_get t.slot src)

(* is heap position [i] ordered before the entry (p, s)? *)
let[@inline] before t i p s =
  let pi = Array.unsafe_get t.prio i in
  pi < p || (pi = p && Array.unsafe_get t.seq i < s)

(* Both sifts move a hole instead of swapping, and place the entry once
   at the end. Every index they touch is below [size]. [push] stores the
   priority before it calls the sift, so no float crosses a call boxed. *)
let sift_up t ~seq ~slot =
  let priority = Array.unsafe_get t.prio t.size in
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t parent priority seq then continue := false
    else begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
  done;
  set t !i priority seq slot

let[@inline] push t ~priority ~seq ~arg value =
  if t.size = Array.length t.prio then grow t;
  let slot =
    if t.size < t.slots then Array.unsafe_get t.free t.size
    else begin
      t.slots <- t.size + 1;
      t.size
    end
  in
  Array.unsafe_set t.value slot value;
  Array.unsafe_set t.arg slot arg;
  Array.unsafe_set t.prio t.size priority;
  sift_up t ~seq ~slot

let[@inline] min_priority t =
  if t.size = 0 then invalid_arg "Pqueue.min_priority: empty queue";
  Array.unsafe_get t.prio 0

let[@inline] min_arg t =
  if t.size = 0 then invalid_arg "Pqueue.min_arg: empty queue";
  Array.unsafe_get t.arg (Array.unsafe_get t.slot 0)

let take t =
  if t.size = 0 then invalid_arg "Pqueue.take: empty queue";
  let top_slot = Array.unsafe_get t.slot 0 in
  let top = Array.unsafe_get t.value top_slot in
  Array.unsafe_set t.value top_slot t.dummy;
  let last = t.size - 1 in
  t.size <- last;
  Array.unsafe_set t.free last top_slot;
  if last > 0 then begin
    let p = Array.unsafe_get t.prio last
    and s = Array.unsafe_get t.seq last
    and sl = Array.unsafe_get t.slot last in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < last && before t r (Array.unsafe_get t.prio l)
               (Array.unsafe_get t.seq l)
          then r
          else l
        in
        if before t c p s then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    set t !i p s sl
  end;
  top

(* the queued entries' slots go back on the stack below the free ones *)
let clear t =
  for i = 0 to t.size - 1 do
    let sl = Array.unsafe_get t.slot i in
    Array.unsafe_set t.value sl t.dummy;
    Array.unsafe_set t.free i sl
  done;
  t.size <- 0
