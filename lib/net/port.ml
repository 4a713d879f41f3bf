type 'msg t = {
  n : int;
  send_fn : src:int -> dst:int -> kind:string -> bits:int -> 'msg -> unit;
  broadcast_fn : src:int -> kind:string -> bits:int -> 'msg -> unit;
  register_fn : int -> (src:int -> 'msg -> unit) -> unit;
  unregister_fn : int -> unit;
}

let n t = t.n

let send t = t.send_fn

let broadcast t ~src ~kind ~bits msg = t.broadcast_fn ~src ~kind ~bits msg

let register t i handler = t.register_fn i handler

let unregister t i = t.unregister_fn i

let of_network net =
  { n = Network.n net;
    send_fn = (fun ~src ~dst ~kind ~bits msg ->
        Network.send net ~src ~dst ~kind ~bits msg);
    broadcast_fn = (fun ~src ~kind ~bits msg ->
        Network.broadcast net ~src ~kind ~bits msg);
    register_fn = (fun i handler -> Network.register net i handler);
    unregister_fn = (fun i -> Network.unregister net i) }

let of_links links =
  if Array.length links = 0 then invalid_arg "Port.of_links: no endpoints";
  { n = Array.length links;
    send_fn = (fun ~src ~dst ~kind ~bits msg ->
        Link.send links.(src) ~dst ~kind ~bits msg);
    broadcast_fn = (fun ~src ~kind ~bits msg ->
        Link.broadcast links.(src) ~kind ~bits msg);
    register_fn = (fun i handler -> Link.set_handler links.(i) handler);
    unregister_fn = (fun i -> Link.clear_handler links.(i)) }
