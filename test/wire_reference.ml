(* Test-only reference for the RBC wire encoders: the Buffer-based
   writers the codecs ran before each message was written once into a
   [Bytes] of its exact size. test_rbc.ml checks [encode_msg] of
   Bracha, Gossip and AVID byte for byte against these. *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let put_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let put_bytes buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let encode f =
  let buf = Buffer.create 64 in
  f buf;
  Buffer.contents buf

let bracha (msg : Rbc.Bracha.msg) =
  encode (fun buf ->
      match msg with
      | Init { round; payload } ->
        put_u8 buf 1;
        put_u32 buf round;
        put_bytes buf payload
      | Echo { origin; round; payload } ->
        put_u8 buf 2;
        put_u32 buf origin;
        put_u32 buf round;
        put_bytes buf payload
      | Ready { origin; round; payload } ->
        put_u8 buf 3;
        put_u32 buf origin;
        put_u32 buf round;
        put_bytes buf payload)

let gossip (msg : Rbc.Gossip.msg) =
  encode (fun buf ->
      match msg with
      | Gossip { origin; round; payload } ->
        put_u8 buf 1;
        put_u32 buf origin;
        put_u32 buf round;
        put_bytes buf payload
      | Echo { origin; round; digest } ->
        put_u8 buf 2;
        put_u32 buf origin;
        put_u32 buf round;
        put_bytes buf digest
      | Ready { origin; round; digest } ->
        put_u8 buf 3;
        put_u32 buf origin;
        put_u32 buf round;
        put_bytes buf digest)

let put_proof buf (proof : Crypto.Merkle.proof) =
  put_u32 buf proof.leaf_index;
  put_u32 buf (List.length proof.path);
  List.iter (put_bytes buf) proof.path

let avid (msg : Rbc.Avid.msg) =
  encode (fun buf ->
      match msg with
      | Disperse { round; root; data_len; frag_index; frag; proof } ->
        put_u8 buf 1;
        put_u32 buf round;
        put_bytes buf root;
        put_u32 buf data_len;
        put_u32 buf frag_index;
        put_bytes buf frag;
        put_proof buf proof
      | Echo { origin; round; root; data_len; frag_index; frag; proof } ->
        put_u8 buf 2;
        put_u32 buf origin;
        put_u32 buf round;
        put_bytes buf root;
        put_u32 buf data_len;
        put_u32 buf frag_index;
        put_bytes buf frag;
        put_proof buf proof
      | Ready { origin; round; root; data_len } ->
        put_u8 buf 3;
        put_u32 buf origin;
        put_u32 buf round;
        put_bytes buf root;
        put_u32 buf data_len)
