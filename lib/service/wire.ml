open Sb_storage
module D = Sb_sim.Rmwdesc
module Sch = Sb_schema.Schema

let version = 4
let min_version = 1
let max_frame_bytes = 64 * 1024 * 1024

type nature = [ `Mutating | `Readonly | `Merge ]

type request = {
  rq_key : string;
  rq_client : int;
  rq_ticket : int;
  rq_op : int;
  rq_nature : nature;
  rq_payload : Block.t list;
  rq_desc : D.t;
}

type response = {
  rs_key : string;
  rs_ticket : int;
  rs_op : int;
  rs_server : int;
  rs_incarnation : int;
  rs_dedup : bool;
  rs_resp : D.resp;
}

type shard_stat = {
  ss_shard : int;
  ss_incarnation : int;
  ss_keys : int;
  ss_storage_bits : int;
  ss_max_bits : int;
  ss_max_key_bits : int;
}

type stats = {
  st_server : int;
  st_incarnation : int;
  st_storage_bits : int;
  st_max_bits : int;
  st_dedup_hits : int;
  st_applied : int;
  st_keys : int;
  st_shards : shard_stat list;
}

type peer_schema = { ps_version : int; ps_hash : string }
type reject_code = Unsupported_version | Incompatible_schema

type msg =
  | Hello of { client : int; schema : peer_schema option }
  | Welcome of { server : int; incarnation : int; schema : peer_schema option }
  | Request of request
  | Response of response
  | Stats_query
  | Stats of stats
  | Reject of { rj_code : reject_code; rj_detail : string }
  | Req_batch of request list
  | Resp_batch of response list

exception Decode of string

(* ------------------------------------------------------------------ *)
(* Primitive writers (big-endian) over a Buffer                        *)
(* ------------------------------------------------------------------ *)

let w_u8 b v = Buffer.add_uint8 b (v land 0xff)
let w_u32 b v = Buffer.add_int32_be b (Int32.of_int v)
let w_int b v = Buffer.add_int64_be b (Int64.of_int v)
let w_bool b v = w_u8 b (if v then 1 else 0)

let w_bytes b s =
  w_u32 b (Bytes.length s);
  Buffer.add_bytes b s

(* Same framing as [w_bytes] without the intermediate copy — used on
   the per-request key, which rides in every batched frame entry. *)
let w_string b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_list w b xs =
  w_u32 b (List.length xs);
  List.iter (w b) xs

let w_ts b (ts : Timestamp.t) =
  w_int b ts.num;
  w_int b ts.client

let w_block b (blk : Block.t) =
  w_int b blk.source;
  w_int b blk.index;
  w_bytes b blk.data

let w_chunk b (c : Chunk.t) =
  w_ts b c.ts;
  w_block b c.block

let w_objstate b (st : Objstate.t) =
  w_ts b st.stored_ts;
  w_list w_chunk b st.vp;
  w_list w_chunk b st.vf

let w_nature b = function
  | `Mutating -> w_u8 b 0
  | `Readonly -> w_u8 b 1
  | `Merge -> w_u8 b 2

let w_resp b = function
  | D.Ack -> w_u8 b 0
  | D.Snap st ->
    w_u8 b 1;
    w_objstate b st

let w_desc ~v b (d : D.t) =
  match d with
  | D.Snapshot -> w_u8 b 0
  | D.Abd_store c ->
    w_u8 b 1;
    w_chunk b c
  | D.Lww_store c ->
    w_u8 b 2;
    w_chunk b c
  | D.Safe_update c ->
    w_u8 b 3;
    w_chunk b c
  | D.Adaptive_update { replicate; eviction; trim; k; piece; replica_pieces; ts; stored_ts }
    ->
    w_u8 b 4;
    w_bool b replicate;
    w_u8 b (match eviction with D.Barrier -> 0 | D.Own_ts -> 1);
    (match trim with
    | D.Keep_all -> w_u8 b 0
    | D.Keep_newest delta ->
      w_u8 b 1;
      w_int b delta);
    w_int b k;
    w_block b piece;
    w_list w_block b replica_pieces;
    w_ts b ts;
    w_ts b stored_ts
  | D.Adaptive_gc { piece; ts } ->
    w_u8 b 5;
    w_block b piece;
    w_ts b ts
  | D.Rateless_update { pieces; ts; stored_ts } ->
    w_u8 b 6;
    w_list w_block b pieces;
    w_ts b ts;
    w_ts b stored_ts
  | D.Rateless_gc { pieces; ts } ->
    w_u8 b 7;
    w_list w_block b pieces;
    w_ts b ts
  | D.Rw_write { chunks; ts } ->
    (* A blind overwrite has no pre-v4 encoding; narrowing it would
       change its meaning, so refuse like the keyed-request precedent. *)
    if v < 4 then invalid_arg "Wire: rw-write requires wire version >= 4";
    w_u8 b 8;
    w_list w_chunk b chunks;
    w_ts b ts

(* ------------------------------------------------------------------ *)
(* Primitive readers                                                   *)
(* ------------------------------------------------------------------ *)

type cursor = { buf : bytes; mutable pos : int; stop : int }

let need c n =
  if c.pos + n > c.stop then raise (Decode "truncated frame")

let r_u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.buf c.pos in
  c.pos <- c.pos + 1;
  v

let r_u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_be c.buf c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then raise (Decode "negative length");
  v

let r_int c =
  need c 8;
  let v = Int64.to_int (Bytes.get_int64_be c.buf c.pos) in
  c.pos <- c.pos + 8;
  v

let r_bool c = match r_u8 c with 0 -> false | 1 -> true | _ -> raise (Decode "bad bool")

let r_bytes c =
  let n = r_u32 c in
  need c n;
  let s = Bytes.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

(* The read side of [w_string]: one copy, straight into the string.
   The empty key, the single register's, is shared, not allocated. *)
let r_string c =
  let n = r_u32 c in
  need c n;
  let s = if n = 0 then "" else Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let r_list r c =
  let n = r_u32 c in
  if n > c.stop - c.pos then raise (Decode "list longer than frame");
  List.init n (fun _ -> r c)

let r_ts c =
  let num = r_int c in
  let client = r_int c in
  Timestamp.make ~num ~client

let r_block c =
  let source = r_int c in
  let index = r_int c in
  let data = r_bytes c in
  (* [Block.v] raises [Invalid_argument] on negative coordinates; an
     adversarial frame must surface as a decode error, not a crash
     (found by the Reader partial-delivery fuzz). *)
  if source < 0 || index < 0 then
    raise (Decode (Printf.sprintf "negative block coordinate %d/%d" source index));
  Block.v ~source ~index data

let r_chunk c =
  let ts = r_ts c in
  let block = r_block c in
  Chunk.v ~ts block

let r_objstate c =
  let stored_ts = r_ts c in
  let vp = r_list r_chunk c in
  let vf = r_list r_chunk c in
  Objstate.with_stored_ts (Objstate.init ~vp ~vf ()) stored_ts

let r_nature c : nature =
  let tag = r_u8 c in
  match tag with
  | 0 -> `Mutating
  | 1 -> `Readonly
  | 2 -> `Merge
  | n -> raise (Decode (Printf.sprintf "bad nature tag %d" n))

let r_resp c =
  let tag = r_u8 c in
  match tag with
  | 0 -> D.Ack
  | 1 -> D.Snap (r_objstate c)
  | n -> raise (Decode (Printf.sprintf "bad resp tag %d" n))

let r_desc ~v c =
  let tag = r_u8 c in
  match tag with
  | 0 -> D.Snapshot
  | 1 -> D.Abd_store (r_chunk c)
  | 2 -> D.Lww_store (r_chunk c)
  | 3 -> D.Safe_update (r_chunk c)
  | 4 ->
    let replicate = r_bool c in
    let eviction =
      let tag = r_u8 c in
      match tag with
      | 0 -> D.Barrier
      | 1 -> D.Own_ts
      | n -> raise (Decode (Printf.sprintf "bad eviction tag %d" n))
    in
    let trim =
      let tag = r_u8 c in
      match tag with
      | 0 -> D.Keep_all
      | 1 -> D.Keep_newest (r_int c)
      | n -> raise (Decode (Printf.sprintf "bad trim tag %d" n))
    in
    let k = r_int c in
    let piece = r_block c in
    let replica_pieces = r_list r_block c in
    let ts = r_ts c in
    let stored_ts = r_ts c in
    D.Adaptive_update
      { replicate; eviction; trim; k; piece; replica_pieces; ts; stored_ts }
  | 5 ->
    let piece = r_block c in
    let ts = r_ts c in
    D.Adaptive_gc { piece; ts }
  | 6 ->
    let pieces = r_list r_block c in
    let ts = r_ts c in
    let stored_ts = r_ts c in
    D.Rateless_update { pieces; ts; stored_ts }
  | 7 ->
    let pieces = r_list r_block c in
    let ts = r_ts c in
    D.Rateless_gc { pieces; ts }
  | 8 when v >= 4 ->
    let chunks = r_list r_chunk c in
    let ts = r_ts c in
    D.Rw_write { chunks; ts }
  | n -> raise (Decode (Printf.sprintf "bad desc tag %d" n))

(* ------------------------------------------------------------------ *)
(* The programmatic schema                                              *)
(*                                                                      *)
(* Defined right beside the writers/readers it describes, and pinned to *)
(* them from three directions: the test suite decodes codec output with *)
(* the schema-driven interpreter and re-encodes it byte-for-byte, the   *)
(* golden schemas/v<N>.json files are diffed against [schema_v] on      *)
(* every runtest, and [spacebounds schema check --all] certifies each   *)
(* committed version pair.                                              *)
(* ------------------------------------------------------------------ *)

let fld f_name f_ty = { Sch.f_name; f_ty }
let earm a_tag a_name a_body = { Sch.a_tag; a_name; a_body }
let unit_ty = Sch.Record []

let ty_ts = Sch.Record [ fld "num" Sch.I64; fld "client" Sch.I64 ]

let ty_block =
  Sch.Record [ fld "source" Sch.I64; fld "index" Sch.I64; fld "data" Sch.Bytes ]

let ty_chunk = Sch.Record [ fld "ts" ty_ts; fld "block" ty_block ]

let ty_objstate =
  Sch.Record
    [
      fld "stored_ts" ty_ts;
      fld "vp" (Sch.List ty_chunk);
      fld "vf" (Sch.List ty_chunk);
    ]

let ty_nature =
  Sch.Enum
    [ earm 0 "Mutating" unit_ty; earm 1 "Readonly" unit_ty; earm 2 "Merge" unit_ty ]

let ty_resp = Sch.Enum [ earm 0 "Ack" unit_ty; earm 1 "Snap" ty_objstate ]

let ty_desc ~v =
  Sch.Enum
    ([
      earm 0 "Snapshot" unit_ty;
      earm 1 "Abd_store" ty_chunk;
      earm 2 "Lww_store" ty_chunk;
      earm 3 "Safe_update" ty_chunk;
      earm 4 "Adaptive_update"
        (Sch.Record
           [
             fld "replicate" Sch.Bool;
             fld "eviction"
               (Sch.Enum [ earm 0 "Barrier" unit_ty; earm 1 "Own_ts" unit_ty ]);
             fld "trim"
               (Sch.Enum
                  [
                    earm 0 "Keep_all" unit_ty;
                    earm 1 "Keep_newest" (Sch.Record [ fld "delta" Sch.I64 ]);
                  ]);
             fld "k" Sch.I64;
             fld "piece" ty_block;
             fld "replica_pieces" (Sch.List ty_block);
             fld "ts" ty_ts;
             fld "stored_ts" ty_ts;
           ]);
      earm 5 "Adaptive_gc" (Sch.Record [ fld "piece" ty_block; fld "ts" ty_ts ]);
      earm 6 "Rateless_update"
        (Sch.Record
           [
             fld "pieces" (Sch.List ty_block);
             fld "ts" ty_ts;
             fld "stored_ts" ty_ts;
           ]);
      earm 7 "Rateless_gc"
        (Sch.Record [ fld "pieces" (Sch.List ty_block); fld "ts" ty_ts ]);
    ]
    @
    (* v4 adds the read/write base-object overwrite — a new enum tag,
       the evolution class the compatibility certifier treats as a
       clean cross-version reject (the v3 batch-tag precedent). *)
    if v >= 4 then
      [
        earm 8 "Rw_write"
          (Sch.Record [ fld "chunks" (Sch.List ty_chunk); fld "ts" ty_ts ]);
      ]
    else [])

let ty_peer_schema = Sch.Record [ fld "version" Sch.U8; fld "hash" Sch.Bytes ]

(* v3 appends trailing fields only (the key tag on requests/responses,
   the per-shard aggregation on stats) and adds new enum tags — both
   evolutions the compatibility certifier classifies as clean cross-
   version rejects, never misinterpretations, exactly like the v2
   handshake-field precedent. *)

let ty_request ~v =
  Sch.Record
    ([
       fld "client" Sch.I64;
       fld "ticket" Sch.I64;
       fld "op" Sch.I64;
       fld "nature" ty_nature;
       fld "payload" (Sch.List ty_block);
       fld "desc" (ty_desc ~v);
     ]
    @ if v >= 3 then [ fld "key" Sch.Bytes ] else [])

let ty_response ~v =
  Sch.Record
    ([
       fld "ticket" Sch.I64;
       fld "op" Sch.I64;
       fld "server" Sch.I64;
       fld "incarnation" Sch.I64;
       fld "dedup" Sch.Bool;
       fld "resp" ty_resp;
     ]
    @ if v >= 3 then [ fld "key" Sch.Bytes ] else [])

let ty_shard_stat =
  Sch.Record
    [
      fld "shard" Sch.I64;
      fld "incarnation" Sch.I64;
      fld "keys" Sch.I64;
      fld "storage_bits" Sch.I64;
      fld "max_bits" Sch.I64;
      fld "max_key_bits" Sch.I64;
    ]

let ty_stats ~v =
  Sch.Record
    ([
       fld "server" Sch.I64;
       fld "incarnation" Sch.I64;
       fld "storage_bits" Sch.I64;
       fld "max_bits" Sch.I64;
       fld "dedup_hits" Sch.I64;
       fld "applied" Sch.I64;
     ]
    @ if v >= 3 then [ fld "keys" Sch.I64; fld "shards" (Sch.List ty_shard_stat) ]
      else [])

let ty_msg ~v =
  let handshake_fields =
    if v >= 2 then [ fld "schema" (Sch.Option ty_peer_schema) ] else []
  in
  Sch.Enum
    ([
       earm 1 "Hello" (Sch.Record (fld "client" Sch.I64 :: handshake_fields));
       earm 2 "Welcome"
         (Sch.Record
            ([ fld "server" Sch.I64; fld "incarnation" Sch.I64 ]
            @ handshake_fields));
       earm 3 "Request" (ty_request ~v);
       earm 4 "Response" (ty_response ~v);
       earm 5 "Stats_query" unit_ty;
       earm 6 "Stats" (ty_stats ~v);
     ]
    @ (if v >= 2 then
         [
           earm 8 "Reject"
             (Sch.Record
                [
                  fld "code"
                    (Sch.Enum
                       [
                         earm 0 "Unsupported_version" unit_ty;
                         earm 1 "Incompatible_schema" unit_ty;
                       ]);
                  fld "detail" Sch.Bytes;
                ]);
         ]
       else [])
    @
    if v >= 3 then
      [
        earm 9 "Req_batch"
          (Sch.Record [ fld "requests" (Sch.List (ty_request ~v)) ]);
        earm 10 "Resp_batch"
          (Sch.Record [ fld "responses" (Sch.List (ty_response ~v)) ]);
      ]
    else [])

let ty_persisted ~v =
  Sch.Enum
    [
      earm 7 "Persisted"
        (Sch.Record
           ([ fld "incarnation" Sch.I64; fld "state" ty_objstate ]
           @
           if v >= 3 then
             [
               fld "keyed"
                 (Sch.List
                    (Sch.Record [ fld "key" Sch.Bytes; fld "state" ty_objstate ]));
             ]
           else []));
    ]

let schema_v ~version:v =
  if v < min_version || v > version then
    invalid_arg (Printf.sprintf "Wire.schema_v: unknown version %d" v);
  {
    Sch.s_version = v;
    s_roots = [ ("msg", ty_msg ~v); ("persisted", ty_persisted ~v) ];
  }

let schema = schema_v ~version
let schema_hash = Sch.hash schema
let schema_hash_hex = Sch.hash_hex schema

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

let w_opt w b = function
  | None -> w_u8 b 0
  | Some x ->
    w_u8 b 1;
    w b x

let w_peer_schema b { ps_version; ps_hash } =
  w_u8 b ps_version;
  w_bytes b (Bytes.of_string ps_hash)

let w_request ~v b
    { rq_key; rq_client; rq_ticket; rq_op; rq_nature; rq_payload; rq_desc } =
  (* A keyed request cannot be narrowed to a pre-key frame: the peer
     would silently apply it to its only register.  Multi-key traffic
     therefore requires a v3 peer; "" is the pre-v3 single register. *)
  if v < 3 && rq_key <> "" then
    invalid_arg "Wire: keyed request requires wire version >= 3";
  w_int b rq_client;
  w_int b rq_ticket;
  w_int b rq_op;
  w_nature b rq_nature;
  w_list w_block b rq_payload;
  w_desc ~v b rq_desc;
  if v >= 3 then w_string b rq_key

let w_response ~v b
    { rs_key; rs_ticket; rs_op; rs_server; rs_incarnation; rs_dedup; rs_resp } =
  if v < 3 && rs_key <> "" then
    invalid_arg "Wire: keyed response requires wire version >= 3";
  w_int b rs_ticket;
  w_int b rs_op;
  w_int b rs_server;
  w_int b rs_incarnation;
  w_bool b rs_dedup;
  w_resp b rs_resp;
  if v >= 3 then w_string b rs_key

let w_shard_stat b
    { ss_shard; ss_incarnation; ss_keys; ss_storage_bits; ss_max_bits; ss_max_key_bits }
    =
  w_int b ss_shard;
  w_int b ss_incarnation;
  w_int b ss_keys;
  w_int b ss_storage_bits;
  w_int b ss_max_bits;
  w_int b ss_max_key_bits

let w_stats ~v b
    {
      st_server;
      st_incarnation;
      st_storage_bits;
      st_max_bits;
      st_dedup_hits;
      st_applied;
      st_keys;
      st_shards;
    } =
  w_int b st_server;
  w_int b st_incarnation;
  w_int b st_storage_bits;
  w_int b st_max_bits;
  w_int b st_dedup_hits;
  w_int b st_applied;
  (* The per-shard aggregation is a diagnostic refinement of the summary
     fields above: dropping it for a pre-v3 peer loses detail, never
     meaning. *)
  if v >= 3 then begin
    w_int b st_keys;
    w_list w_shard_stat b st_shards
  end

let w_msg ~v b = function
  | Hello { client; schema } ->
    w_u8 b 1;
    w_int b client;
    (* v1 framing has no handshake field: the schema info is dropped,
       which is exactly what speaking to a v1 peer means. *)
    if v >= 2 then w_opt w_peer_schema b schema
  | Welcome { server; incarnation; schema } ->
    w_u8 b 2;
    w_int b server;
    w_int b incarnation;
    if v >= 2 then w_opt w_peer_schema b schema
  | Request rq ->
    w_u8 b 3;
    w_request ~v b rq
  | Response rs ->
    w_u8 b 4;
    w_response ~v b rs
  | Stats_query -> w_u8 b 5
  | Stats st ->
    w_u8 b 6;
    w_stats ~v b st
  | Reject { rj_code; rj_detail } ->
    if v < 2 then invalid_arg "Wire: Reject requires wire version >= 2";
    w_u8 b 8;
    w_u8 b (match rj_code with Unsupported_version -> 0 | Incompatible_schema -> 1);
    w_bytes b (Bytes.of_string rj_detail)
  | Req_batch reqs ->
    if v < 3 then invalid_arg "Wire: Req_batch requires wire version >= 3";
    w_u8 b 9;
    w_list (w_request ~v) b reqs
  | Resp_batch resps ->
    if v < 3 then invalid_arg "Wire: Resp_batch requires wire version >= 3";
    w_u8 b 10;
    w_list (w_response ~v) b resps

let r_opt r c =
  let presence = r_u8 c in
  match presence with
  | 0 -> None
  | 1 -> Some (r c)
  | n -> raise (Decode (Printf.sprintf "bad presence byte %d" n))

let r_peer_schema c =
  let ps_version = r_u8 c in
  let ps_hash = r_string c in
  { ps_version; ps_hash }

let r_request ~v c =
  let rq_client = r_int c in
  let rq_ticket = r_int c in
  let rq_op = r_int c in
  let rq_nature = r_nature c in
  let rq_payload = r_list r_block c in
  let rq_desc = r_desc ~v c in
  let rq_key = if v >= 3 then r_string c else "" in
  { rq_key; rq_client; rq_ticket; rq_op; rq_nature; rq_payload; rq_desc }

let r_response ~v c =
  let rs_ticket = r_int c in
  let rs_op = r_int c in
  let rs_server = r_int c in
  let rs_incarnation = r_int c in
  let rs_dedup = r_bool c in
  let rs_resp = r_resp c in
  let rs_key = if v >= 3 then r_string c else "" in
  { rs_key; rs_ticket; rs_op; rs_server; rs_incarnation; rs_dedup; rs_resp }

let r_shard_stat c =
  let ss_shard = r_int c in
  let ss_incarnation = r_int c in
  let ss_keys = r_int c in
  let ss_storage_bits = r_int c in
  let ss_max_bits = r_int c in
  let ss_max_key_bits = r_int c in
  { ss_shard; ss_incarnation; ss_keys; ss_storage_bits; ss_max_bits; ss_max_key_bits }

let r_stats ~v c =
  let st_server = r_int c in
  let st_incarnation = r_int c in
  let st_storage_bits = r_int c in
  let st_max_bits = r_int c in
  let st_dedup_hits = r_int c in
  let st_applied = r_int c in
  let st_keys, st_shards =
    if v >= 3 then
      let keys = r_int c in
      (keys, r_list r_shard_stat c)
    else (0, [])
  in
  {
    st_server;
    st_incarnation;
    st_storage_bits;
    st_max_bits;
    st_dedup_hits;
    st_applied;
    st_keys;
    st_shards;
  }

let r_msg ~v c =
  let tag = r_u8 c in
  match tag with
  | 1 ->
    let client = r_int c in
    let schema = if v >= 2 then r_opt r_peer_schema c else None in
    Hello { client; schema }
  | 2 ->
    let server = r_int c in
    let incarnation = r_int c in
    let schema = if v >= 2 then r_opt r_peer_schema c else None in
    Welcome { server; incarnation; schema }
  | 3 -> Request (r_request ~v c)
  | 4 -> Response (r_response ~v c)
  | 5 -> Stats_query
  | 6 -> Stats (r_stats ~v c)
  | 9 when v >= 3 -> Req_batch (r_list (r_request ~v) c)
  | 10 when v >= 3 -> Resp_batch (r_list (r_response ~v) c)
  | 8 when v >= 2 ->
    let code =
      let tag = r_u8 c in
      match tag with
      | 0 -> Unsupported_version
      | 1 -> Incompatible_schema
      | n -> raise (Decode (Printf.sprintf "bad reject code %d" n))
    in
    let detail = r_string c in
    Reject { rj_code = code; rj_detail = detail }
  | n -> raise (Decode (Printf.sprintf "bad message tag %d for version %d" n v))

(* Every frame is built in one per-domain scratch buffer and copied out
   once at its exact size.  Batch and persisted frames are kilobytes,
   above the minor heap's object limit: a fresh buffer per frame is
   malloc'd, grown by repeated doublings and freed again every major
   cycle.  The scratch buffer keeps the capacity of the largest frame
   its domain has built, so a stream of frames allocates only the
   frames it returns.  One buffer per domain suffices: nothing here
   runs systhreads, and no writer encodes a frame inside a frame. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 4096)

let frame_body ~v w_payload payload =
  (* Length prefix written as a placeholder and patched in the copy. *)
  let b = Domain.DLS.get scratch in
  Buffer.clear b;
  w_u32 b 0;
  w_u8 b v;
  w_payload b payload;
  let framed = Buffer.to_bytes b in
  Bytes.set_int32_be framed 0 (Int32.of_int (Bytes.length framed - 4));
  framed

let decode_body ?(max_version = version) r_payload buf =
  let c = { buf; pos = 0; stop = Bytes.length buf } in
  match
    let v = r_u8 c in
    if v < min_version || v > max_version then
      raise
        (Decode
           (Printf.sprintf "unsupported wire version %d (supported %d..%d)" v
              min_version max_version));
    let m = r_payload v c in
    if c.pos <> c.stop then raise (Decode "trailing bytes in frame");
    m
  with
  | m -> Ok m
  | exception Decode e -> Error e
  | exception Invalid_argument e ->
    (* Constructor invariants (e.g. [Block.v] on a negative index) are a
       decode failure for wire data, never a crash. *)
    Error ("invalid value in frame: " ^ e)

let encode_msg ?version:(v = version) m = frame_body ~v (w_msg ~v) m

(* The limits the writers above enforce by raising, as one predicate. *)
let request_encodable ~version rq =
  (version >= 3 || rq.rq_key = "")
  && (match rq.rq_desc with D.Rw_write _ -> version >= 4 | _ -> true)

let encodable ~version = function
  | Hello _ | Welcome _ | Stats_query | Stats _ -> true
  | Reject _ -> version >= 2
  | Request rq -> request_encodable ~version rq
  | Response rs -> version >= 3 || rs.rs_key = ""
  | Req_batch rqs ->
    version >= 3 && List.for_all (request_encodable ~version) rqs
  | Resp_batch _ -> version >= 3

let decode_msg ?max_version buf =
  decode_body ?max_version (fun v c -> r_msg ~v c) buf

(* Frame layout: u32 length, then u8 version, u8 tag — the tags [w_msg]
   writes for Hello (1), Welcome (2) and Reject (8). *)
let is_handshake_frame frame =
  Bytes.length frame >= 6
  &&
  match Bytes.get_uint8 frame 5 with 1 | 2 | 8 -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

let hello =
  Hello
    { client = 0; schema = Some { ps_version = version; ps_hash = schema_hash } }

(* Both ends settle on the older of the two versions; a peer that sent no
   schema is a v1 peer. *)
let negotiate ~ours = function
  | None -> 1
  | Some ps -> max 1 (min ours ps.ps_version)

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

let answer_hello ~serving ~server ~incarnation peer =
  (* A refusal is framed at v2, the first version with [Reject]; a v1
     server never decodes a schema to refuse. *)
  let refuse rj_code rj_detail =
    (min serving.ps_version (max 2 min_version), Reject { rj_code; rj_detail })
  in
  match peer with
  | Some ps
    when ps.ps_version = serving.ps_version
         && not (String.equal ps.ps_hash serving.ps_hash) ->
    refuse Incompatible_schema
      (Printf.sprintf "schema v%d hash mismatch: ours %s, peer %s"
         serving.ps_version
         (Sch.hash_hex (schema_v ~version:serving.ps_version))
         (hex ps.ps_hash))
  | Some ps when ps.ps_version < min_version ->
    refuse Unsupported_version
      (Printf.sprintf "peer schema v%d below minimum %d" ps.ps_version
         min_version)
  | None | Some _ ->
    let v = negotiate ~ours:serving.ps_version peer in
    let schema = if v >= 2 then Some serving else None in
    (v, Welcome { server; incarnation; schema })

let accept_welcome = function
  | Some ps
    when ps.ps_version = version && not (String.equal ps.ps_hash schema_hash) ->
    Error
      (Printf.sprintf "welcome schema v%d hash differs from ours" ps.ps_version)
  | peer -> Ok (negotiate ~ours:version peer)

type persisted = {
  p_incarnation : int;
  p_state : Objstate.t;
  p_keyed : (string * Objstate.t) list;
}

let w_keyed_state b (key, st) =
  w_bytes b (Bytes.of_string key);
  w_objstate b st

let w_persisted ~v b { p_incarnation; p_state; p_keyed } =
  (* Pre-v3 state frames hold exactly one register; dropping keyed
     entries on downgrade would lose durable data, so refuse. *)
  if v < 3 && p_keyed <> [] then
    invalid_arg "Wire: keyed state requires wire version >= 3";
  w_u8 b 7;
  w_int b p_incarnation;
  w_objstate b p_state;
  if v >= 3 then w_list w_keyed_state b p_keyed

let r_keyed_state c =
  let key = r_string c in
  let st = r_objstate c in
  (key, st)

let r_persisted ~v c =
  let tag = r_u8 c in
  match tag with
  | 7 ->
    let p_incarnation = r_int c in
    let p_state = r_objstate c in
    let p_keyed = if v >= 3 then r_list r_keyed_state c else [] in
    { p_incarnation; p_state; p_keyed }
  | n -> raise (Decode (Printf.sprintf "bad state tag %d" n))

let encode_persisted ?version:(v = version) p =
  frame_body ~v (w_persisted ~v) p
let decode_persisted ?max_version buf =
  decode_body ?max_version (fun v c -> r_persisted ~v c) buf

(* The state-file container wraps the persisted frame in a 16-byte
   Hash128 checksum trailer.  The trailer sits outside the
   schema-described frame body on purpose: the golden schemas/v*.json
   files pin the [persisted] layout, and an integrity envelope is a
   property of the file, not of the wire vocabulary. *)

let checksum_bytes = 16

let seal_persisted ?version p =
  let frame = encode_persisted ?version p in
  let h = Sb_util.Hash128.create () in
  Sb_util.Hash128.add_bytes h frame;
  Bytes.cat frame (Bytes.of_string (Sb_util.Hash128.digest h))

let unseal_persisted ?max_version buf =
  let total = Bytes.length buf in
  if total < 4 + checksum_bytes then Error "state file too short"
  else
    let len = Int32.to_int (Bytes.get_int32_be buf 0) in
    if len < 1 || len > max_frame_bytes then
      Error (Printf.sprintf "bad state frame length %d" len)
    else if total <> 4 + len + checksum_bytes then
      Error
        (Printf.sprintf "state file length %d does not match frame %d" total
           len)
    else begin
      let h = Sb_util.Hash128.create () in
      Sb_util.Hash128.add_subbytes h buf 0 (4 + len);
      if
        not
          (String.equal (Sb_util.Hash128.digest h)
             (Bytes.sub_string buf (4 + len) checksum_bytes))
      then Error "state checksum mismatch"
      else decode_persisted ?max_version (Bytes.sub buf 4 len)
    end

(* ------------------------------------------------------------------ *)
(* Incremental frame reader                                            *)
(* ------------------------------------------------------------------ *)

module Reader = struct
  type t = { mutable acc : Bytes.t; mutable len : int; max_version : int }

  let create ?(max_version = version) () =
    { acc = Bytes.create 4096; len = 0; max_version }

  let feed t src off n =
    if n > 0 then begin
      let cap = Bytes.length t.acc in
      if t.len + n > cap then begin
        let cap' = max (t.len + n) (2 * cap) in
        let acc' = Bytes.create cap' in
        Bytes.blit t.acc 0 acc' 0 t.len;
        t.acc <- acc'
      end;
      Bytes.blit src off t.acc t.len n;
      t.len <- t.len + n
    end

  let next t =
    if t.len < 4 then Ok None
    else begin
      let frame = Int32.to_int (Bytes.get_int32_be t.acc 0) in
      if frame < 1 || frame > max_frame_bytes then
        Error (Printf.sprintf "bad frame length %d" frame)
      else if t.len < 4 + frame then Ok None
      else begin
        let body = Bytes.sub t.acc 4 frame in
        let rest = t.len - 4 - frame in
        Bytes.blit t.acc (4 + frame) t.acc 0 rest;
        t.len <- rest;
        match decode_msg ~max_version:t.max_version body with
        | Ok m -> Ok (Some m)
        | Error e -> Error e
      end
    end
end

let equal_msg (a : msg) (b : msg) = a = b

let pp_peer_schema ppf = function
  | None -> ()
  | Some { ps_version; ps_hash } ->
    Format.fprintf ppf " schema=v%d/%s" ps_version
      (hex (String.sub ps_hash 0 (min 4 (String.length ps_hash))))

let pp_msg ppf = function
  | Hello { client; schema } ->
    Format.fprintf ppf "hello(client=%d%a)" client pp_peer_schema schema
  | Welcome { server; incarnation; schema } ->
    Format.fprintf ppf "welcome(server=%d inc=%d%a)" server incarnation
      pp_peer_schema schema
  | Request r ->
    Format.fprintf ppf "request(key=%S client=%d ticket=%d op=%d %a)" r.rq_key
      r.rq_client r.rq_ticket r.rq_op D.pp r.rq_desc
  | Response r ->
    Format.fprintf ppf
      "response(key=%S ticket=%d op=%d server=%d inc=%d dedup=%b)" r.rs_key
      r.rs_ticket r.rs_op r.rs_server r.rs_incarnation r.rs_dedup
  | Stats_query -> Format.fprintf ppf "stats-query"
  | Stats s ->
    Format.fprintf ppf "stats(server=%d inc=%d bits=%d max=%d keys=%d shards=%d)"
      s.st_server s.st_incarnation s.st_storage_bits s.st_max_bits s.st_keys
      (List.length s.st_shards)
  | Req_batch reqs -> Format.fprintf ppf "req-batch(%d)" (List.length reqs)
  | Resp_batch resps -> Format.fprintf ppf "resp-batch(%d)" (List.length resps)
  | Reject { rj_code; rj_detail } ->
    Format.fprintf ppf "reject(%s: %s)"
      (match rj_code with
      | Unsupported_version -> "unsupported-version"
      | Incompatible_schema -> "incompatible-schema")
      rj_detail
