(* A binary heap stored one array per field, so an entry is stored
   without a box (priorities sit unboxed in a float array) and sifting
   moves immediates. Slot [i]'s children are [2i+1] and [2i+2].
   The arrays start empty and double on demand; a slot past [size]
   holds [dummy], so the queue keeps nothing alive that was taken. *)
type 'a t = {
  dummy : 'a;
  mutable prio : float array;
  mutable seq : int array;
  mutable value : 'a array;
  mutable arg : int array;
  mutable size : int;
}

let create ~dummy =
  { dummy; prio = [||]; seq = [||]; value = [||]; arg = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.prio in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 t.size;
    a'
  in
  t.prio <- extend t.prio 0.0;
  t.seq <- extend t.seq 0;
  t.value <- extend t.value t.dummy;
  t.arg <- extend t.arg 0

(* slot [i] := the entry (p, s, v, a) *)
let[@inline] set t i p s v a =
  Array.unsafe_set t.prio i p;
  Array.unsafe_set t.seq i s;
  Array.unsafe_set t.value i v;
  Array.unsafe_set t.arg i a

let[@inline] move t ~src ~dst =
  set t dst (Array.unsafe_get t.prio src) (Array.unsafe_get t.seq src)
    (Array.unsafe_get t.value src) (Array.unsafe_get t.arg src)

(* is slot [i] ordered before the entry (p, s)? *)
let[@inline] before t i p s =
  let pi = Array.unsafe_get t.prio i in
  pi < p || (pi = p && Array.unsafe_get t.seq i < s)

(* Both sifts move a hole instead of swapping, and place the entry once
   at the end. Every index they touch is below [size]. [push] stores the
   priority before it calls the sift, so no float crosses a call boxed. *)
let sift_up t ~seq ~arg value =
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
  set t !i priority seq value arg

let[@inline] push t ~priority ~seq ~arg value =
  if t.size = Array.length t.prio then grow t;
  Array.unsafe_set t.prio t.size priority;
  sift_up t ~seq ~arg value

let[@inline] min_priority t =
  if t.size = 0 then invalid_arg "Pqueue.min_priority: empty queue";
  Array.unsafe_get t.prio 0

let[@inline] min_arg t =
  if t.size = 0 then invalid_arg "Pqueue.min_arg: empty queue";
  Array.unsafe_get t.arg 0

let take t =
  if t.size = 0 then invalid_arg "Pqueue.take: empty queue";
  let top = Array.unsafe_get t.value 0 in
  let last = t.size - 1 in
  t.size <- last;
  let p = Array.unsafe_get t.prio last
  and s = Array.unsafe_get t.seq last
  and v = Array.unsafe_get t.value last
  and a = Array.unsafe_get t.arg last in
  Array.unsafe_set t.value last t.dummy;
  if last > 0 then begin
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
    set t !i p s v a
  end;
  top

let clear t =
  Array.fill t.value 0 t.size t.dummy;
  t.size <- 0
