(* [last_kind]/[last_bits] cache the per-kind total of the last kind
   sent: callers pass string literals and broadcast one kind n times in
   a row, so the physical-equality check nearly always hits and a send
   hashes no string. Per-sender totals sit in an array indexed by
   process id. *)
type t = {
  by_kind : (string, int ref) Hashtbl.t;
  mutable last_kind : string;
  mutable last_bits : int ref;
  mutable by_sender : int array;
  mutable messages : int;
  mutable bits : int;
}

(* never a key of [by_kind]: no kind is physically this string *)
let no_kind = String.make 1 '\000'

let create () =
  { by_kind = Hashtbl.create 32;
    last_kind = no_kind;
    last_bits = ref 0;
    by_sender = Array.make 16 0;
    messages = 0;
    bits = 0 }

let kind_total t kind =
  if kind == t.last_kind then t.last_bits
  else begin
    let r =
      match Hashtbl.find_opt t.by_kind kind with
      | Some r -> r
      | None ->
        let r = ref 0 in
        Hashtbl.add t.by_kind kind r;
        r
    in
    t.last_kind <- kind;
    t.last_bits <- r;
    r
  end

let record_send t ~src ~kind ~bits =
  t.messages <- t.messages + 1;
  t.bits <- t.bits + bits;
  let r = kind_total t kind in
  r := !r + bits;
  if src >= Array.length t.by_sender then begin
    let a = Array.make (max (src + 1) (2 * Array.length t.by_sender)) 0 in
    Array.blit t.by_sender 0 a 0 (Array.length t.by_sender);
    t.by_sender <- a
  end;
  t.by_sender.(src) <- t.by_sender.(src) + bits

let total_bits t = t.bits

let total_bits_from t ~senders =
  let acc = ref 0 in
  (* only processes that sent: the predicate may reject other indices *)
  Array.iteri
    (fun src b -> if b <> 0 && senders src then acc := !acc + b)
    t.by_sender;
  !acc

let total_messages t = t.messages

let bits_by_kind t =
  let items =
    Hashtbl.fold (fun kind r acc -> (kind, !r) :: acc) t.by_kind []
  in
  List.sort (fun (_, a) (_, b) -> compare b a) items

let reset t =
  Hashtbl.reset t.by_kind;
  t.last_kind <- no_kind;
  Array.fill t.by_sender 0 (Array.length t.by_sender) 0;
  t.messages <- 0;
  t.bits <- 0
