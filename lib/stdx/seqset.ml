(* Every int below [floor] is a member; [above] holds the members above
   it, so [floor] itself is never one. [add floor] raises the floor past
   the run of members that follows it, taking them out of [above]. *)

module Ints = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* members come in runs of consecutive ints, which the identity
     spreads over distinct buckets *)
  let hash x = x
end)

type t = { mutable floor : int; mutable above : unit Ints.t option }

let create () = { floor = 0; above = None }

let mem t x =
  x < t.floor
  || match t.above with None -> false | Some above -> Ints.mem above x

let rec raise_floor above x =
  if Ints.mem above x then begin
    Ints.remove above x;
    raise_floor above (x + 1)
  end
  else x

let add t x =
  if x < t.floor then false
  else if x = t.floor then begin
    t.floor <-
      (match t.above with
      | None -> x + 1
      | Some above -> raise_floor above (x + 1));
    true
  end
  else
    let above =
      match t.above with
      | Some above -> above
      | None ->
        let above = Ints.create 16 in
        t.above <- Some above;
        above
    in
    if Ints.mem above x then false
    else begin
      Ints.add above x ();
      true
    end

let above_floor t =
  match t.above with None -> 0 | Some above -> Ints.length above
