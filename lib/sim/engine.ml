(* a float-only record stores its field unboxed: advancing the clock
   allocates nothing *)
type clock = { mutable time : float }

(* An event is a callback and the int it is called with. A thunk is
   wrapped as a callback that ignores its argument. *)
type t = {
  queue : (int -> unit) Stdx.Pqueue.t;
  clock : clock;
  mutable seq : int;
  mutable executed : int;
}

let create () =
  { queue = Stdx.Pqueue.create ~dummy:ignore;
    clock = { time = 0.0 };
    seq = 0;
    executed = 0 }

let[@inline] now t = t.clock.time

let[@inline] push t ~time f arg =
  let time = if time < t.clock.time then t.clock.time else time in
  t.seq <- t.seq + 1;
  Stdx.Pqueue.push t.queue ~priority:time ~seq:t.seq ~arg f

let[@inline] check_delay name delay =
  if delay < 0.0 then invalid_arg ("Engine." ^ name ^ ": negative delay")

let schedule_at t ~time f = push t ~time (fun _ -> f ()) 0

let schedule t ~delay f =
  check_delay "schedule" delay;
  push t ~time:(t.clock.time +. delay) (fun _ -> f ()) 0

(* Inlined, so a delay computed by the caller reaches the queue's float
   array without a box. *)
let[@inline] schedule_call t ~delay f arg =
  check_delay "schedule_call" delay;
  push t ~time:(t.clock.time +. delay) f arg

let step t =
  (* the span covers the take and clock bookkeeping too, so profiled
     coverage charges the full per-event cost to the engine *)
  let sp = Prof.enter "engine.dispatch" in
  let stepped =
    try
      let q = t.queue in
      if Stdx.Pqueue.is_empty q then false
      else begin
        t.clock.time <- Stdx.Pqueue.min_priority q;
        let arg = Stdx.Pqueue.min_arg q in
        let f = Stdx.Pqueue.take q in
        t.executed <- t.executed + 1;
        f arg;
        true
      end
    with e -> Prof.leave_reraise sp e
  in
  Prof.leave sp;
  stepped

let run t ?(max_events = max_int) ?(until = infinity) () =
  let count = ref 0 and stop = ref false in
  while not !stop do
    if !count >= max_events || Stdx.Pqueue.is_empty t.queue then stop := true
    else if Stdx.Pqueue.min_priority t.queue > until then begin
      t.clock.time <- until;
      stop := true
    end
    else begin
      ignore (step t);
      incr count
    end
  done;
  !count

let pending t = Stdx.Pqueue.length t.queue

let slot_capacity t = Stdx.Pqueue.slot_capacity t.queue

let events_executed t = t.executed

let set_sampler t ~interval f =
  if interval <= 0.0 then invalid_arg "Engine.set_sampler: interval must be positive";
  let rec tick () =
    (* [pending] here excludes the sampler event itself (already popped) *)
    f ~time:t.clock.time ~executed:t.executed ~pending:(pending t);
    (* re-arm only while other work remains, so [run] still terminates *)
    if pending t > 0 then schedule t ~delay:interval tick
  in
  schedule t ~delay:interval tick
