(* A calendar queue (Brown, CACM 1988) over slot rows. The slot rows hold
   each entry's priority (unboxed, in a float array), seq, value, arg and
   [next], the slot after it in its bucket's list; [push] writes them
   once and [take] clears the value once.

   Virtual time is cut into buckets [1 / inv_width] wide: an entry's
   virtual bucket is [vb = int_of_float (priority *. inv_width)]
   (clamped to [+-limit]), which never decreases as the priority grows.
   The first [nb] entries of [head], a power of two, are the bucket
   table: bucket [vb] lists its entries at [head.(vb land (nb - 1))],
   so one list holds the virtual buckets a "year" ([nb] buckets) apart.
   A list is threaded through [next] with [-1] at its end, so filing an
   entry allocates nothing.

   [front.(0) .. front.(flen - 1)] is the bucket being drained, sorted
   in descending [(priority, seq)] order, so the minimum is at
   [flen - 1] and [take] pops it. Invariant: whenever the queue holds an
   entry the front holds one, every front entry is ordered before every
   listed entry, and every listed entry's virtual bucket is at least
   [cur], the front's. So [min_priority] and [min_arg] are two reads.
   [push] lists an entry unless it belongs before the front's largest
   (possible only at or below [cur]); such an entry is inserted into the
   sorted front. When [take] empties the front it loads the lowest
   virtual bucket at or after [cur] that holds entries: it walks the
   lists from [cur] on, and if a whole year of them holds nothing for
   its bucket it jumps to the lowest virtual bucket the walk saw.

   [retune] estimates the width as [spread] mean gaps between the
   smallest [sample] priorities and relinks every entry into
   [pow2 >= max min_buckets size] buckets. It runs on the first push
   and when the population has doubled or halved since; a load that
   walks or brings more than [crowd] buckets or entries runs it too,
   but relinks only if the width is off by more than a factor of two.
   [head] and [front] keep their capacity, so a retune within the peak
   allocates nothing.

   [free.(size) .. free.(slots - 1)] is the stack of free slots, its top
   at [size]: [take] frees the minimum's slot into [free.(size)] once
   [size] has dropped, and [push] takes [free.(size)]. When the stack is
   empty ([size = slots]) every slot handed out is in use and [push]
   hands out slot [slots], so [slots] is the peak length. The slot rows
   start empty and double together; a free slot's value is [dummy], so
   the queue keeps nothing alive that was taken. *)

(* a float-only record stores its field unboxed: a retune allocates
   nothing *)
type scale = { mutable inv_width : float }

type 'a t = {
  dummy : 'a;
  (* slot rows *)
  mutable prio : float array;
  mutable seq : int array;
  mutable value : 'a array;
  mutable arg : int array;
  mutable next : int array;
  mutable free : int array;
  mutable size : int;
  mutable slots : int; (* slots handed out so far: [0, slots) *)
  (* buckets *)
  mutable head : int array; (* first slot of each bucket's list, or -1 *)
  mutable nb : int; (* buckets in use: a prefix of [head] *)
  scale : scale;
  mutable front : int array;
  mutable flen : int;
  mutable cur : int; (* the front's virtual bucket *)
}

let min_buckets = 16

(* the priorities the width is estimated from, and the width in mean
   gaps between them *)
let sample = 64

let spread = 3.0

(* a load that walks or brings more than this many buckets or entries
   has the width checked *)
let crowd = 12

(* virtual buckets past [+-2^61] are clamped to it, so [cur] plus a
   year stays far from [max_int] *)
let limit = 1 lsl 61

let create ~dummy =
  { dummy;
    prio = [||];
    seq = [||];
    value = [||];
    arg = [||];
    next = [||];
    free = [||];
    size = 0;
    slots = 0;
    head = [||];
    nb = 0;
    scale = { inv_width = 1.0 };
    front = [||];
    flen = 0;
    cur = 0 }

let length t = t.size

let is_empty t = t.size = 0

let slot_capacity t = t.slots

let buckets t = t.nb

let bucket_width t = 1.0 /. t.scale.inv_width

(* the virtual bucket of slot [s]'s priority *)
let[@inline] vb t s =
  let x = Array.unsafe_get t.prio s *. t.scale.inv_width in
  if x < 0x1p61 && x > -0x1p61 then int_of_float x
  else if x > 0.0 then limit
  else -limit

(* is slot [a] ordered before slot [b]? *)
let[@inline] before t a b =
  let pa = Array.unsafe_get t.prio a and pb = Array.unsafe_get t.prio b in
  pa < pb || (pa = pb && Array.unsafe_get t.seq a < Array.unsafe_get t.seq b)

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
  t.value <- extend t.value t.dummy;
  t.arg <- extend t.arg 0;
  t.next <- extend t.next 0;
  t.free <- extend t.free 0

let[@inline] append_front t s =
  if t.flen = Array.length t.front then begin
    let front = Array.make (max 64 (2 * t.flen)) 0 in
    Array.blit t.front 0 front 0 t.flen;
    t.front <- front
  end;
  Array.unsafe_set t.front t.flen s;
  t.flen <- t.flen + 1

(* move [front.(i)] down past the entries ordered before it, into the
   descending order of [front.(0) .. front.(i - 1)] *)
let[@inline] insert_front t i =
  let f = t.front in
  let s = Array.unsafe_get f i in
  let j = ref i in
  while !j > 0 && before t (Array.unsafe_get f (!j - 1)) s do
    Array.unsafe_set f !j (Array.unsafe_get f (!j - 1));
    decr j
  done;
  Array.unsafe_set f !j s

(* insertion sort into descending order; a bucket's list comes out
   newest first, so equal priorities are already in order *)
let sort_front t =
  for i = 1 to t.flen - 1 do
    insert_front t i
  done

(* Move the lowest nonempty virtual bucket at or after [cur] onto the
   empty front and sort it. Returns the number of buckets walked: more
   than a year if the year from [cur] was empty and the walk jumped to
   the lowest virtual bucket it saw. *)
let load t =
  let nb = t.nb in
  let mask = nb - 1 in
  let v = ref t.cur and walked = ref 0 and lowest = ref limit in
  while t.flen = 0 do
    (* a year walked: every list seen, [lowest] is the lowest bucket *)
    if !walked = nb then v := !lowest;
    let b = !v land mask in
    let prev = ref (-1) and s = ref (Array.unsafe_get t.head b) in
    while !s >= 0 do
      let nx = Array.unsafe_get t.next !s in
      let u = vb t !s in
      if u = !v then begin
        if !prev < 0 then Array.unsafe_set t.head b nx
        else Array.unsafe_set t.next !prev nx;
        append_front t !s
      end
      else begin
        if u < !lowest then lowest := u;
        prev := !s
      end;
      s := nx
    done;
    incr v;
    incr walked
  done;
  t.cur <- !v - 1;
  sort_front t;
  !walked

(* Relink every entry into [pow2 >= max min_buckets size] buckets of
   the current width, then load the lowest. Needs [size > 0]. *)
let relink t =
  let nb = ref min_buckets in
  while !nb < t.size do
    nb := 2 * !nb
  done;
  let nb = !nb in
  (* chain every entry through [next] *)
  let chain = ref (-1) in
  for i = 0 to t.flen - 1 do
    let s = Array.unsafe_get t.front i in
    Array.unsafe_set t.next s !chain;
    chain := s
  done;
  for b = 0 to t.nb - 1 do
    let s = ref (Array.unsafe_get t.head b) in
    while !s >= 0 do
      let nx = Array.unsafe_get t.next !s in
      Array.unsafe_set t.next !s !chain;
      chain := !s;
      s := nx
    done
  done;
  t.flen <- 0;
  if nb > Array.length t.head then t.head <- Array.make nb (-1)
  else Array.fill t.head 0 nb (-1);
  t.nb <- nb;
  let mask = nb - 1 and lowest = ref limit and s = ref !chain in
  while !s >= 0 do
    let nx = Array.unsafe_get t.next !s in
    let v = vb t !s in
    if v < !lowest then lowest := v;
    let b = v land mask in
    Array.unsafe_set t.next !s (Array.unsafe_get t.head b);
    Array.unsafe_set t.head b !s;
    s := nx
  done;
  t.cur <- !lowest;
  ignore (load t : int)

(* Estimate the width as [spread] mean gaps between the smallest
   [sample] priorities (the front, then the virtual buckets from [cur]
   on, at most a year of them), keeping the old width if they do not
   give a positive finite one. Relink if [always], or if the estimate is
   off by more than a factor of two. Needs [flen > 0]. *)
let retune ~always t =
  let nb = t.nb in
  let lo = Array.unsafe_get t.prio (Array.unsafe_get t.front (t.flen - 1)) in
  let hi = ref (Array.unsafe_get t.prio (Array.unsafe_get t.front 0)) in
  let count = ref t.flen and v = ref t.cur and walked = ref 0 in
  while !count < sample && !walked < nb do
    let s = ref (Array.unsafe_get t.head (!v land (nb - 1))) in
    while !s >= 0 do
      if vb t !s = !v then begin
        incr count;
        let p = Array.unsafe_get t.prio !s in
        if p > !hi then hi := p
      end;
      s := Array.unsafe_get t.next !s
    done;
    incr v;
    incr walked
  done;
  let old = 1.0 /. t.scale.inv_width in
  let w = spread *. (!hi -. lo) /. float_of_int (!count - 1) in
  let w =
    if !count > 1 && w > 0.0 && w < infinity && 1.0 /. w < infinity then w
    else old
  in
  if always || w < 0.5 *. old || w > 2.0 *. old then begin
    t.scale.inv_width <- 1.0 /. w;
    relink t
  end

(* Place the entry just written at [slot]. Into an empty queue it is the
   front; after the front's largest, or in a later virtual bucket, it is
   listed; otherwise it is inserted into the sorted front. *)
let file t slot =
  if t.flen = 0 then begin
    t.cur <- vb t slot;
    append_front t slot
  end
  else begin
    let v = vb t slot in
    if v > t.cur || (v = t.cur && before t (Array.unsafe_get t.front 0) slot)
    then begin
      let b = v land (t.nb - 1) in
      Array.unsafe_set t.next slot (Array.unsafe_get t.head b);
      Array.unsafe_set t.head b slot
    end
    else begin
      append_front t slot;
      insert_front t (t.flen - 1)
    end
  end;
  if t.size > 2 * t.nb then retune ~always:true t

(* Inlined, so the priority reaches the float row without a box. *)
let[@inline] push t ~priority ~seq ~arg value =
  if priority <> priority then invalid_arg "Pqueue.push: nan priority";
  if t.size = Array.length t.prio then grow t;
  let slot =
    if t.size < t.slots then Array.unsafe_get t.free t.size
    else begin
      t.slots <- t.size + 1;
      t.size
    end
  in
  Array.unsafe_set t.prio slot priority;
  Array.unsafe_set t.seq slot seq;
  Array.unsafe_set t.value slot value;
  Array.unsafe_set t.arg slot arg;
  t.size <- t.size + 1;
  file t slot

let[@inline] min_priority t =
  if t.size = 0 then invalid_arg "Pqueue.min_priority: empty queue";
  Array.unsafe_get t.prio (Array.unsafe_get t.front (t.flen - 1))

let[@inline] min_arg t =
  if t.size = 0 then invalid_arg "Pqueue.min_arg: empty queue";
  Array.unsafe_get t.arg (Array.unsafe_get t.front (t.flen - 1))

(* After a take: load the next bucket if the front ran out. Retune if
   the population has halved; check the width if that load walked or
   brought more than [crowd] buckets or entries. *)
let settle t =
  let walked = if t.flen = 0 then load t else 0 in
  let nb = t.nb in
  if nb > min_buckets && 2 * t.size < nb then retune ~always:true t
  else if walked > crowd || (walked > 0 && t.flen > crowd) then
    retune ~always:false t

let take t =
  if t.size = 0 then invalid_arg "Pqueue.take: empty queue";
  let i = t.flen - 1 in
  let slot = Array.unsafe_get t.front i in
  t.flen <- i;
  let top = Array.unsafe_get t.value slot in
  Array.unsafe_set t.value slot t.dummy;
  let size = t.size - 1 in
  t.size <- size;
  Array.unsafe_set t.free size slot;
  if size > 0 && (i = 0 || 2 * size < t.nb) then settle t;
  top

(* the queued entries' slots go back on the stack below the free ones;
   the next push retunes *)
let clear t =
  let k = ref 0 in
  let release s =
    Array.unsafe_set t.value s t.dummy;
    Array.unsafe_set t.free !k s;
    incr k
  in
  for i = 0 to t.flen - 1 do
    release (Array.unsafe_get t.front i)
  done;
  for b = 0 to t.nb - 1 do
    let s = ref (Array.unsafe_get t.head b) in
    while !s >= 0 do
      release !s;
      s := Array.unsafe_get t.next !s
    done
  done;
  t.size <- 0;
  t.flen <- 0;
  t.nb <- 0
