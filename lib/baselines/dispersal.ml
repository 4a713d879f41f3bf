open Rbc.Rbc_intf

type msg =
  | Store of {
      id : string;
      root : string;
      data_len : int;
      frag_index : int;
      frag : string;
      proof : Crypto.Merkle.proof;
    }
  | Stored of { id : string; root : string; data_len : int }
  | Recast_request of { id : string; root : string; data_len : int }
  | Refrag of {
      id : string;
      root : string;
      data_len : int;
      frag_index : int;
      frag : string;
      proof : Crypto.Merkle.proof;
    }

type cert = { id : string; root : string; data_len : int; signers : int list }

let cert_to_string c =
  Printf.sprintf "%s|%s|%d|%s" (Crypto.Sha256.to_hex c.root) c.id c.data_len
    (String.concat "," (List.map string_of_int c.signers))

let cert_of_string s =
  match String.split_on_char '|' s with
  | [ root_hex; id; len; signers ] -> (
    try
      let root =
        if String.length root_hex <> 64 then raise Exit
        else
          String.init 32 (fun i ->
              Char.chr (int_of_string ("0x" ^ String.sub root_hex (2 * i) 2)))
      in
      let signers =
        if signers = "" then []
        else List.map int_of_string (String.split_on_char ',' signers)
      in
      Some { id; root; data_len = int_of_string len; signers }
    with _ -> None)
  | _ -> None

(* Wire size, charged per message: a tag byte, a u32 per integer field,
   a u32 length before each byte string (the id, the root, the fragment
   and every proof digest), and for [Stored] a 64-byte signature
   share. *)
let msg_bits msg =
  let bytes s = 4 + String.length s in
  let proof_bytes (proof : Crypto.Merkle.proof) =
    List.fold_left (fun acc d -> acc + bytes d) 8 proof.Crypto.Merkle.path
  in
  let len =
    match msg with
    | Store { id; root; frag; proof; _ } | Refrag { id; root; frag; proof; _ }
      ->
      1 + bytes id + bytes root + 4 + 4 + bytes frag + proof_bytes proof
    | Stored { id; root; _ } -> 1 + bytes id + bytes root + 4 + 64
    | Recast_request { id; root; _ } -> 1 + bytes id + bytes root + 4
  in
  8 * len

type dispersal_state = {
  mutable my_frag : (int * string * Crypto.Merkle.proof) option;
  mutable stored_acks : Iset.t; (* as the disperser: who confirmed *)
  mutable cert_cb : (cert -> unit) option;
  mutable refragged : bool;
  (* [Pending] until enough fragments; [Done payload] afterwards;
     [Unrecoverable] for non-codeword Byzantine dispersals *)
  mutable outcome : outcome;
  frags : (int, string) Hashtbl.t; (* collected refrags *)
}

and outcome = Pending | Done of string | Unrecoverable

(* keyed by (id, root, data_len) so conflicting Byzantine dispersals
   under one id cannot poison each other *)
type key = string * string * int

type t = {
  net : msg Net.Network.t;
  auth : Crypto.Auth.t;
  me : int;
  n : int;
  f : int;
  k : int;
  coder : Crypto.Reed_solomon.coder;
  on_reconstruct : id:string -> payload:string -> unit;
  states : (key, dispersal_state) Hashtbl.t;
}

let state t key =
  match Hashtbl.find_opt t.states key with
  | Some s -> s
  | None ->
    let s =
      { my_frag = None;
        stored_acks = Iset.empty;
        cert_cb = None;
        refragged = false;
        outcome = Pending;
        frags = Hashtbl.create 8 }
    in
    Hashtbl.add t.states key s;
    s

let valid_fragment t ~root ~data_len ~frag ~proof ~frag_index =
  frag_index = proof.Crypto.Merkle.leaf_index
  && String.length frag = Crypto.Reed_solomon.fragment_length t.coder ~data_len
  && Crypto.Merkle.verify ~root ~leaf_count:t.n ~leaf:frag proof

let send_refrag t st ~id ~root ~data_len =
  if not st.refragged then
    match st.my_frag with
    | Some (frag_index, frag, proof) ->
      st.refragged <- true;
      let msg = Refrag { id; root; data_len; frag_index; frag; proof } in
      Net.Network.broadcast t.net ~src:t.me ~kind:"dumbo-refrag"
        ~bits:(msg_bits msg) msg
    | None -> ()

let try_reconstruct t st ~id ~root ~data_len =
  if st.outcome = Pending && Hashtbl.length st.frags >= t.k then begin
    let pieces = Hashtbl.fold (fun i frag acc -> (i, frag) :: acc) st.frags [] in
    match Crypto.Reed_solomon.decode t.coder ~data_len pieces with
    | exception Invalid_argument _ -> ()
    | payload ->
      let re_frags = Crypto.Reed_solomon.encode t.coder payload in
      let tree = Crypto.Merkle.build re_frags in
      if String.equal (Crypto.Merkle.root tree) root then begin
        st.outcome <- Done payload;
        t.on_reconstruct ~id ~payload
      end
      else
        (* non-codeword dispersal: deterministically unrecoverable *)
        st.outcome <- Unrecoverable
  end

let handle t ~src msg =
  match msg with
  | Store { id; root; data_len; frag_index; frag; proof } ->
    if frag_index = t.me && valid_fragment t ~root ~data_len ~frag ~proof ~frag_index
    then begin
      let st = state t (id, root, data_len) in
      if st.my_frag = None then begin
        st.my_frag <- Some (frag_index, frag, proof);
        let msg = Stored { id; root; data_len } in
        Net.Network.send t.net ~src:t.me ~dst:src ~kind:"dumbo-stored"
          ~bits:(msg_bits msg) msg
      end
    end
  | Stored { id; root; data_len } ->
    let st = state t (id, root, data_len) in
    st.stored_acks <- Iset.add src st.stored_acks;
    if Iset.cardinal st.stored_acks >= (2 * t.f) + 1 then begin
      match st.cert_cb with
      | Some cb ->
        st.cert_cb <- None;
        cb { id; root; data_len; signers = Iset.elements st.stored_acks }
      | None -> ()
    end
  | Recast_request { id; root; data_len } ->
    let st = state t (id, root, data_len) in
    send_refrag t st ~id ~root ~data_len
  | Refrag { id; root; data_len; frag_index; frag; proof } ->
    if valid_fragment t ~root ~data_len ~frag ~proof ~frag_index then begin
      let st = state t (id, root, data_len) in
      if not (Hashtbl.mem st.frags frag_index) then
        Hashtbl.add st.frags frag_index frag;
      (* seeing a refrag implies someone requested: join the recast *)
      send_refrag t st ~id ~root ~data_len;
      try_reconstruct t st ~id ~root ~data_len
    end

let create ~net ~auth ~me ~f ~on_reconstruct =
  let n = Net.Network.n net in
  let t =
    { net;
      auth;
      me;
      n;
      f;
      k = f + 1;
      coder = Crypto.Reed_solomon.make ~k:(f + 1) ~n;
      on_reconstruct;
      states = Hashtbl.create 32 }
  in
  Net.Network.register net me (fun ~src msg -> handle t ~src msg);
  t

let disperse t ~id ~payload ~on_cert =
  let frags = Crypto.Reed_solomon.encode t.coder payload in
  let data_len = String.length payload in
  let tree = Crypto.Merkle.build frags in
  let root = Crypto.Merkle.root tree in
  let st = state t (id, root, data_len) in
  st.cert_cb <- Some on_cert;
  Array.iteri
    (fun i frag ->
      let proof = Crypto.Merkle.prove tree i in
      let msg = Store { id; root; data_len; frag_index = i; frag; proof } in
      Net.Network.send t.net ~src:t.me ~dst:i ~kind:"dumbo-store"
        ~bits:(msg_bits msg) msg)
    frags

let recast t (cert : cert) =
  let st = state t (cert.id, cert.root, cert.data_len) in
  match st.outcome with
  | Done payload ->
    (* already reconstructed (e.g. refrags raced ahead of the caller's
       own agreement output): deliver again for this caller *)
    t.on_reconstruct ~id:cert.id ~payload
  | Unrecoverable -> ()
  | Pending ->
    let msg =
      Recast_request { id = cert.id; root = cert.root; data_len = cert.data_len }
    in
    Net.Network.broadcast t.net ~src:t.me ~kind:"dumbo-recast"
      ~bits:(msg_bits msg) msg;
    send_refrag t st ~id:cert.id ~root:cert.root ~data_len:cert.data_len;
    try_reconstruct t st ~id:cert.id ~root:cert.root ~data_len:cert.data_len
