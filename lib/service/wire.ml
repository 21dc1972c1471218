open Sb_storage
module D = Sb_sim.Rmwdesc
module L = Sb_schema.Layout
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

type persisted = {
  p_incarnation : int;
  p_state : Objstate.t;
  p_keyed : (string * Objstate.t) list;
}

(* ------------------------------------------------------------------ *)
(* Layouts                                                             *)
(*                                                                      *)
(* Each layout is declared once: the writer, the reader, the schema at  *)
(* every version and the version rules all come from the declaration.  *)
(* A field or an arm names the version that introduced it.  Every      *)
(* evolution so far appends trailing fields or adds enum tags, which   *)
(* the compatibility certifier classifies as clean cross-version       *)
(* rejects, never misinterpretations.                                  *)
(* ------------------------------------------------------------------ *)

let timestamp =
  L.record
    L.[ field "num" int; field "client" int ]
    (fun num client -> Timestamp.make ~num ~client)
    (fun (ts : Timestamp.t) -> L.[ ts.num; ts.client ])

let block =
  L.record
    L.[ field "source" int; field "index" int; field "data" bytes ]
    (fun source index data ->
      (* [Block.v] raises [Invalid_argument] on negative coordinates; an
         adversarial frame must surface as a decode error, not a crash
         (found by the Reader partial-delivery fuzz). *)
      if source < 0 || index < 0 then
        raise
          (L.Decode (Printf.sprintf "negative block coordinate %d/%d" source index));
      Block.v ~source ~index data)
    (fun (blk : Block.t) -> L.[ blk.source; blk.index; blk.data ])

let chunk =
  L.record
    L.[ field "ts" timestamp; field "block" block ]
    (fun ts block -> Chunk.v ~ts block)
    (fun (c : Chunk.t) -> L.[ c.ts; c.block ])

let objstate =
  L.record
    L.[ field "stored_ts" timestamp; field "vp" (list chunk); field "vf" (list chunk) ]
    (fun stored_ts vp vf ->
      Objstate.with_stored_ts (Objstate.init ~vp ~vf ()) stored_ts)
    (fun (st : Objstate.t) -> L.[ st.stored_ts; st.vp; st.vf ])

let nature : nature L.t =
  L.constants "nature"
    [ (0, "Mutating", `Mutating); (1, "Readonly", `Readonly); (2, "Merge", `Merge) ]

let resp =
  let ack = L.arm 0 "Ack" L.[] D.Ack
  and snap = L.arm_of 1 "Snap" objstate (fun st -> D.Snap st) in
  L.enum "resp" [ L.Arm ack; L.Arm snap ] (function
    | D.Ack -> L.case ack L.[]
    | D.Snap st -> L.case snap st)

let trim =
  let keep_all = L.arm 0 "Keep_all" L.[] D.Keep_all
  and keep_newest =
    L.arm 1 "Keep_newest" L.[ field "delta" int ] (fun delta -> D.Keep_newest delta)
  in
  L.enum "trim" [ L.Arm keep_all; L.Arm keep_newest ] (function
    | D.Keep_all -> L.case keep_all L.[]
    | D.Keep_newest delta -> L.case keep_newest L.[ delta ])

let desc =
  let snapshot = L.arm 0 "Snapshot" L.[] D.Snapshot
  and abd = L.arm_of 1 "Abd_store" chunk (fun c -> D.Abd_store c)
  and lww = L.arm_of 2 "Lww_store" chunk (fun c -> D.Lww_store c)
  and safe = L.arm_of 3 "Safe_update" chunk (fun c -> D.Safe_update c)
  and adaptive =
    L.arm 4 "Adaptive_update"
      L.[
        field "replicate" bool;
        field "eviction"
          (constants "eviction" [ (0, "Barrier", D.Barrier); (1, "Own_ts", D.Own_ts) ]);
        field "trim" trim;
        field "k" int;
        field "piece" block;
        field "replica_pieces" (list block);
        field "ts" timestamp;
        field "stored_ts" timestamp;
      ]
      (fun replicate eviction trim k piece replica_pieces ts stored_ts ->
        D.Adaptive_update
          { replicate; eviction; trim; k; piece; replica_pieces; ts; stored_ts })
  and adaptive_gc =
    L.arm 5 "Adaptive_gc"
      L.[ field "piece" block; field "ts" timestamp ]
      (fun piece ts -> D.Adaptive_gc { piece; ts })
  and rateless =
    L.arm 6 "Rateless_update"
      L.[ field "pieces" (list block); field "ts" timestamp; field "stored_ts" timestamp ]
      (fun pieces ts stored_ts -> D.Rateless_update { pieces; ts; stored_ts })
  and rateless_gc =
    L.arm 7 "Rateless_gc"
      L.[ field "pieces" (list block); field "ts" timestamp ]
      (fun pieces ts -> D.Rateless_gc { pieces; ts })
  (* A blind overwrite has no pre-v4 encoding; narrowing it would change
     its meaning. *)
  and rw_write =
    L.arm ~since:4 8 "Rw_write"
      L.[ field "chunks" (list chunk); field "ts" timestamp ]
      (fun chunks ts -> D.Rw_write { chunks; ts })
  in
  L.enum "desc"
    [
      L.Arm snapshot; L.Arm abd; L.Arm lww; L.Arm safe; L.Arm adaptive;
      L.Arm adaptive_gc; L.Arm rateless; L.Arm rateless_gc; L.Arm rw_write;
    ]
    (function
      | D.Snapshot -> L.case snapshot L.[]
      | D.Abd_store c -> L.case abd c
      | D.Lww_store c -> L.case lww c
      | D.Safe_update c -> L.case safe c
      | D.Adaptive_update
          { replicate; eviction; trim; k; piece; replica_pieces; ts; stored_ts } ->
        L.case adaptive
          L.[ replicate; eviction; trim; k; piece; replica_pieces; ts; stored_ts ]
      | D.Adaptive_gc { piece; ts } -> L.case adaptive_gc L.[ piece; ts ]
      | D.Rateless_update { pieces; ts; stored_ts } ->
        L.case rateless L.[ pieces; ts; stored_ts ]
      | D.Rateless_gc { pieces; ts } -> L.case rateless_gc L.[ pieces; ts ]
      | D.Rw_write { chunks; ts } -> L.case rw_write L.[ chunks; ts ])

let peer_schema =
  L.record
    L.[ field "version" u8; field "hash" string ]
    (fun ps_version ps_hash -> { ps_version; ps_hash })
    (fun ps -> L.[ ps.ps_version; ps.ps_hash ])

(* A keyed request or response cannot be narrowed to a pre-key frame:
   the peer would silently apply it to its only register.  Multi-key
   traffic therefore requires a v3 peer; "" is the pre-v3 single
   register. *)
let key = L.since 3 "key" L.string (L.Absent "")

let request =
  L.record
    L.[
      field "client" int;
      field "ticket" int;
      field "op" int;
      field "nature" nature;
      field "payload" (list block);
      field "desc" desc;
      key;
    ]
    (fun rq_client rq_ticket rq_op rq_nature rq_payload rq_desc rq_key ->
      { rq_key; rq_client; rq_ticket; rq_op; rq_nature; rq_payload; rq_desc })
    (fun rq ->
      L.[ rq.rq_client; rq.rq_ticket; rq.rq_op; rq.rq_nature; rq.rq_payload;
          rq.rq_desc; rq.rq_key ])

let response =
  L.record
    L.[
      field "ticket" int;
      field "op" int;
      field "server" int;
      field "incarnation" int;
      field "dedup" bool;
      field "resp" resp;
      key;
    ]
    (fun rs_ticket rs_op rs_server rs_incarnation rs_dedup rs_resp rs_key ->
      { rs_key; rs_ticket; rs_op; rs_server; rs_incarnation; rs_dedup; rs_resp })
    (fun rs ->
      L.[ rs.rs_ticket; rs.rs_op; rs.rs_server; rs.rs_incarnation; rs.rs_dedup;
          rs.rs_resp; rs.rs_key ])

let shard_stat =
  L.record
    L.[
      field "shard" int;
      field "incarnation" int;
      field "keys" int;
      field "storage_bits" int;
      field "max_bits" int;
      field "max_key_bits" int;
    ]
    (fun ss_shard ss_incarnation ss_keys ss_storage_bits ss_max_bits ss_max_key_bits ->
      { ss_shard; ss_incarnation; ss_keys; ss_storage_bits; ss_max_bits; ss_max_key_bits })
    (fun ss ->
      L.[ ss.ss_shard; ss.ss_incarnation; ss.ss_keys; ss.ss_storage_bits;
          ss.ss_max_bits; ss.ss_max_key_bits ])

let stats =
  L.record
    L.[
      field "server" int;
      field "incarnation" int;
      field "storage_bits" int;
      field "max_bits" int;
      field "dedup_hits" int;
      field "applied" int;
      (* The per-shard aggregation is a diagnostic refinement of the
         summary fields above: dropping it for a pre-v3 peer loses
         detail, never meaning. *)
      since 3 "keys" int (Dropped 0);
      since 3 "shards" (list shard_stat) (Dropped []);
    ]
    (fun st_server st_incarnation st_storage_bits st_max_bits st_dedup_hits
         st_applied st_keys st_shards ->
      {
        st_server; st_incarnation; st_storage_bits; st_max_bits; st_dedup_hits;
        st_applied; st_keys; st_shards;
      })
    (fun st ->
      L.[ st.st_server; st.st_incarnation; st.st_storage_bits; st.st_max_bits;
          st.st_dedup_hits; st.st_applied; st.st_keys; st.st_shards ])

(* v1 framing has no handshake field: the schema info is dropped, which
   is exactly what speaking to a v1 peer means. *)
let handshake = L.since 2 "schema" (L.option peer_schema) (L.Dropped None)

let hello_arm =
  L.arm 1 "Hello"
    L.[ field "client" int; handshake ]
    (fun client schema -> Hello { client; schema })

let welcome_arm =
  L.arm 2 "Welcome"
    L.[ field "server" int; field "incarnation" int; handshake ]
    (fun server incarnation schema -> Welcome { server; incarnation; schema })

let reject_arm =
  L.arm ~since:2 8 "Reject"
    L.[
      field "code"
        (constants "reject code"
           [
             (0, "Unsupported_version", Unsupported_version);
             (1, "Incompatible_schema", Incompatible_schema);
           ]);
      field "detail" string;
    ]
    (fun rj_code rj_detail -> Reject { rj_code; rj_detail })

let msg =
  let request_arm = L.arm_of 3 "Request" request (fun rq -> Request rq)
  and response_arm = L.arm_of 4 "Response" response (fun rs -> Response rs)
  and stats_query_arm = L.arm 5 "Stats_query" L.[] Stats_query
  and stats_arm = L.arm_of 6 "Stats" stats (fun st -> Stats st)
  and req_batch_arm =
    L.arm ~since:3 9 "Req_batch"
      L.[ field "requests" (list request) ]
      (fun rqs -> Req_batch rqs)
  and resp_batch_arm =
    L.arm ~since:3 10 "Resp_batch"
      L.[ field "responses" (list response) ]
      (fun rss -> Resp_batch rss)
  in
  L.enum "message"
    [
      L.Arm hello_arm; L.Arm welcome_arm; L.Arm request_arm; L.Arm response_arm;
      L.Arm stats_query_arm; L.Arm stats_arm; L.Arm reject_arm;
      L.Arm req_batch_arm; L.Arm resp_batch_arm;
    ]
    (function
      | Hello { client; schema } -> L.case hello_arm L.[ client; schema ]
      | Welcome { server; incarnation; schema } ->
        L.case welcome_arm L.[ server; incarnation; schema ]
      | Request rq -> L.case request_arm rq
      | Response rs -> L.case response_arm rs
      | Stats_query -> L.case stats_query_arm L.[]
      | Stats st -> L.case stats_arm st
      | Reject { rj_code; rj_detail } -> L.case reject_arm L.[ rj_code; rj_detail ]
      | Req_batch rqs -> L.case req_batch_arm L.[ rqs ]
      | Resp_batch rss -> L.case resp_batch_arm L.[ rss ])

let keyed_state =
  L.record
    L.[ field "key" string; field "state" objstate ]
    (fun key st -> (key, st))
    (fun (key, st) -> L.[ key; st ])

let persisted =
  let persisted_arm =
    L.arm 7 "Persisted"
      L.[
        field "incarnation" int;
        field "state" objstate;
        (* Pre-v3 state frames hold exactly one register; dropping keyed
           entries on downgrade would lose durable data, so refuse. *)
        since 3 "keyed" (list keyed_state) (Absent []);
      ]
      (fun p_incarnation p_state p_keyed -> { p_incarnation; p_state; p_keyed })
  in
  L.enum "state" [ L.Arm persisted_arm ] (fun p ->
      L.case persisted_arm L.[ p.p_incarnation; p.p_state; p.p_keyed ])

let schema_v ~version:v =
  if v < min_version || v > version then
    invalid_arg (Printf.sprintf "Wire.schema_v: unknown version %d" v);
  {
    Sch.s_version = v;
    s_roots =
      [ ("msg", L.ty msg ~version:v); ("persisted", L.ty persisted ~version:v) ];
  }

let schema = schema_v ~version
let schema_hash = Sch.hash schema
let schema_hash_hex = Sch.hash_hex schema

(* Every frame is built in one per-domain scratch buffer and copied out
   once at its exact size: into a fresh frame, or straight into a
   connection's output buffer.  Batch and persisted frames are
   kilobytes, above the minor heap's object limit: a fresh buffer per
   frame is malloc'd, grown by repeated doublings and freed again every
   major cycle.  The scratch buffer keeps the capacity of the largest
   frame its domain has built, so a stream of frames allocates only the
   frames it returns.  One buffer per domain suffices: nothing here
   runs systhreads, and no writer encodes a frame inside a frame. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 4096)

(* The whole frame in the scratch buffer, its length prefix a
   placeholder that [blit_frame] patches in the copy. *)
let stage ~v layout payload =
  let b = Domain.DLS.get scratch in
  Buffer.clear b;
  Buffer.add_int32_be b 0l;
  Buffer.add_uint8 b v;
  L.write layout ~version:v b payload;
  b

let blit_frame b dst off =
  let n = Buffer.length b in
  Buffer.blit b 0 dst off n;
  Bytes.set_int32_be dst off (Int32.of_int (n - 4))

let frame_body ~v layout payload =
  let b = stage ~v layout payload in
  let framed = Bytes.create (Buffer.length b) in
  blit_frame b framed 0;
  framed

let decode_cursor ~max_version layout c =
  match
    let v = L.read L.u8 ~version:0 c in
    if v < min_version || v > max_version then
      raise
        (L.Decode
           (Printf.sprintf "unsupported wire version %d (supported %d..%d)" v
              min_version max_version));
    let m = L.read layout ~version:v c in
    if not (L.at_end c) then raise (L.Decode "trailing bytes in frame");
    m
  with
  | m -> Ok m
  | exception L.Decode e -> Error e
  | exception Invalid_argument e ->
    (* Constructor invariants (e.g. [Block.v] on a negative index) are a
       decode failure for wire data, never a crash. *)
    Error ("invalid value in frame: " ^ e)

let decode_body ?(max_version = version) layout buf =
  decode_cursor ~max_version layout (L.cursor buf)

let encode_msg ?version:(v = version) m = frame_body ~v msg m

let encode_msg_into ?version:(v = version) m room =
  let b = stage ~v msg m in
  let dst, off = room (Buffer.length b) in
  blit_frame b dst off

let encodable ~version m = L.fits msg ~version m
let decode_msg ?max_version buf = decode_body ?max_version msg buf

(* Frame layout: u32 length, then u8 version, u8 tag. *)
let handshake_tags = [ L.tag hello_arm; L.tag welcome_arm; L.tag reject_arm ]

let is_handshake_frame frame =
  Bytes.length frame >= 6 && List.mem (Bytes.get_uint8 frame 5) handshake_tags

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
         (Sb_util.Bytesx.hex (Bytes.of_string ps.ps_hash)))
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

let encode_persisted ?version:(v = version) p = frame_body ~v persisted p
let decode_persisted ?max_version buf = decode_body ?max_version persisted buf

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
  (* [acc.[pos, len)] is what has not been read yet.  Complete frames
     decode where they lie; [feed] and [read] move the unread tail to
     the front at most once, and only when the new bytes may not fit
     behind it. *)
  type t = {
    mutable acc : Bytes.t;
    mutable pos : int;
    mutable len : int;
    max_version : int;
  }

  let create ?(max_version = version) () =
    { acc = Bytes.create 4096; pos = 0; len = 0; max_version }

  let make_room t n =
    if t.len + n > Bytes.length t.acc then begin
      t.acc <- Sb_util.Bytesx.compact t.acc ~from:t.pos ~upto:t.len ~room:n;
      t.len <- t.len - t.pos;
      t.pos <- 0
    end

  let feed t src off n =
    if n > 0 then begin
      make_room t n;
      Bytes.blit src off t.acc t.len n;
      t.len <- t.len + n
    end

  let read_room = 65536

  let read t fill =
    make_room t read_room;
    let n = fill t.acc t.len read_room in
    if n > 0 then t.len <- t.len + n;
    n

  let next t =
    let avail = t.len - t.pos in
    if avail < 4 then Ok None
    else begin
      let frame = Int32.to_int (Bytes.get_int32_be t.acc t.pos) in
      if frame < 1 || frame > max_frame_bytes then
        Error (Printf.sprintf "bad frame length %d" frame)
      else if avail < 4 + frame then Ok None
      else begin
        let m =
          decode_cursor ~max_version:t.max_version msg
            (L.cursor ~off:(t.pos + 4) ~len:frame t.acc)
        in
        t.pos <- t.pos + 4 + frame;
        if t.pos = t.len then begin
          t.pos <- 0;
          t.len <- 0
        end;
        Result.map Option.some m
      end
    end
end

let equal_msg (a : msg) (b : msg) = a = b

let reject_code_name = function
  | Unsupported_version -> "unsupported-version"
  | Incompatible_schema -> "incompatible-schema"

let pp_peer_schema ppf = function
  | None -> ()
  | Some { ps_version; ps_hash } ->
    Format.fprintf ppf " schema=v%d/%s" ps_version
      (Sb_util.Bytesx.hex
         (Bytes.of_string (String.sub ps_hash 0 (min 4 (String.length ps_hash)))))

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
    Format.fprintf ppf "reject(%s: %s)" (reject_code_name rj_code) rj_detail
