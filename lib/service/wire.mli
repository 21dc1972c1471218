(** Versioned, length-prefixed binary wire codec for the register
    service.

    Every frame on a connection is [u32 length] (big endian) followed by
    [length] body bytes; the body starts with a one-byte protocol
    version and a one-byte message tag.  Integers are 8-byte big-endian
    two's complement; byte strings and lists are [u32]-counted.  The
    payload vocabulary is exactly the simulator's: requests carry an
    {!Sb_sim.Rmwdesc.t} (the RMW a register triggers, as in
    [Sb_msgnet.Mp_runtime]'s messages), responses carry an
    {!Sb_sim.Rmwdesc.resp}.  The property tests in
    [test_service.ml] round-trip all of these against randomly generated
    values.

    {2 Versions and schemas}

    Four body layouts are spoken today.  Version 1 is the original
    positional layout.  Version 2 appends an {e optional} [peer_schema]
    handshake field to [Hello]/[Welcome] (schema version + canonical
    hash, used by [Daemon]/[Sdk] to reject incompatible peers with a
    typed {!msg.Reject} instead of a decode crash) and adds the [Reject]
    message itself.
    Version 3 is the sharded-service layout: requests and responses gain
    a trailing key tag ([""] = the pre-v3 single register), [Stats]
    gains a per-shard aggregation tail, and two batch containers
    ({!msg.Req_batch}/{!msg.Resp_batch}) carry many keyed RMWs under one
    length prefix, amortising framing and syscalls.  Version 4 adds the
    read/write base objects' overwrite description.  Every evolution is
    append-only per record or a brand-new tag, which is what makes a
    mixed-version fleet work and is certified statically by
    [spacebounds schema check].

    Encoders default to the newest version; [?version] pins a frame to
    an older peer's negotiated version.  Decoders accept any version in
    [min_version..max_version] — a daemon pinned to [~max_version:1]
    behaves exactly like an old binary and cleanly rejects v2 frames.

    Each layout is declared once with {!Sb_schema.Layout}.  The codec,
    the first-class {!Sb_schema.Schema.t} of each version ({!schema_v}),
    {!encodable} and {!is_handshake_frame} all come from those
    declarations; the golden [schemas/v<N>.json] files pin each
    version's schema. *)

val version : int
(** The newest wire version this build speaks (4: adds the rw-write
    description tag for read/write base objects). *)

val min_version : int
(** The oldest version still decoded (1). *)

val max_frame_bytes : int

type nature = [ `Mutating | `Readonly | `Merge ]

type request = {
  rq_key : string;
      (** The target register.  [""] is the pre-v3 single register;
          travels only in v3+ framing, and encoding a non-empty key at an
          older version raises [Invalid_argument] (a keyed RMW must never
          silently collapse onto a peer's only register). *)
  rq_client : int;
  rq_ticket : int;
  rq_op : int;
  rq_nature : nature;
  rq_payload : Sb_storage.Block.t list;
      (** The declared code-block payload (Definition 2's channel
          contribution).  Every block it declares also travels in
          [rq_desc], and no daemon reads this field, so the SDK sends
          [[]]: each block crosses the wire once.  The field stays in
          the v1-v4 layouts because removing it changes the frame
          layout; a decoder of any version still accepts a non-empty
          list. *)
  rq_desc : Sb_sim.Rmwdesc.t;
}

type response = {
  rs_key : string;  (** Echo of the request's key (v3+ framing). *)
  rs_ticket : int;
  rs_op : int;
  rs_server : int;
  rs_incarnation : int;
      (** The serving incarnation — lets clients observe recoveries. *)
  rs_dedup : bool;
      (** The at-most-once table answered; the RMW was not re-applied. *)
  rs_resp : Sb_sim.Rmwdesc.resp;
}

(** Per-shard accounting (v3+): the Theorem 2 ceiling is a per-object
    bound, so the fleet check needs per-shard high-water marks, not just
    the process totals. *)
type shard_stat = {
  ss_shard : int;
  ss_incarnation : int;
  ss_keys : int;  (** Registers hosted by this shard. *)
  ss_storage_bits : int;  (** Bits stored across the shard's keys now. *)
  ss_max_bits : int;  (** Shard-total high-water mark. *)
  ss_max_key_bits : int;
      (** High-water mark of any {e single} key's bits — what the
          per-key Theorem 2 ceiling is checked against. *)
}

type stats = {
  st_server : int;
  st_incarnation : int;
  st_storage_bits : int;  (** Definition 2 block bits stored right now. *)
  st_max_bits : int;      (** High-water mark since this incarnation began. *)
  st_dedup_hits : int;
  st_applied : int;       (** RMWs applied (dedup hits excluded). *)
  st_keys : int;          (** Total keys hosted (v3+ framing, else 0). *)
  st_shards : shard_stat list;  (** Per-shard breakdown (v3+ framing). *)
}

type peer_schema = {
  ps_version : int;  (** The peer's schema (= wire) version. *)
  ps_hash : string;  (** 16-byte {!Sb_schema.Schema.hash} digest. *)
}

type reject_code = Unsupported_version | Incompatible_schema

type msg =
  | Hello of { client : int; schema : peer_schema option }
      (** [schema] travels only in v2 framing; encoding at v1 drops it
          (a v1 peer could not read it anyway). *)
  | Welcome of { server : int; incarnation : int; schema : peer_schema option }
  | Request of request
  | Response of response
  | Stats_query
  | Stats of stats
  | Reject of { rj_code : reject_code; rj_detail : string }
      (** Typed handshake refusal, v2-only: encoding at v1 raises
          [Invalid_argument] — v1 peers are refused by closing the
          connection, which they already handle. *)
  | Req_batch of request list
      (** Many key-tagged RMWs under one length prefix (v3-only;
          encoding at an older version raises [Invalid_argument]).  The
          server applies them in list order and answers with one
          {!msg.Resp_batch}. *)
  | Resp_batch of response list

val encode_msg : ?version:int -> msg -> bytes
(** The full frame, length prefix included — write it verbatim.
    [?version] (default {!version}) selects the body layout for the
    peer's negotiated version. *)

val encode_msg_into : ?version:int -> msg -> (int -> bytes * int) -> unit
(** [encode_msg_into msg room] writes the frame {!encode_msg} returns
    without allocating it: [room n] names a buffer and an offset with
    [n] free bytes there, and the frame is copied in once.  Raises
    [Invalid_argument] as {!encode_msg} does, before calling [room]. *)

val encodable : version:int -> msg -> bool
(** Whether a peer speaking [version] (one of [min_version..version])
    can carry the message: {!encode_msg} at that version raises
    [Invalid_argument] exactly when this is false.  [Reject] needs v2,
    a keyed request or response and the batch frames need v3, and a
    request carrying an [Rw_write] description needs v4. *)

val decode_msg : ?max_version:int -> bytes -> (msg, string) result
(** Decodes a frame {e body} (the bytes after the length prefix),
    accepting versions [min_version..max_version] (default
    {!version}). *)

val is_handshake_frame : bytes -> bool
(** True for an encoded [Hello], [Welcome] or [Reject] frame (the tag
    after the length prefix and the version byte).  Fault policies pass
    these through so campaigns exercise the data path, not the
    idempotent, retried-on-reconnect handshake. *)

(** {2 The handshake}

    Both ends negotiate min(ours, peer's), where a peer that sent no
    schema speaks v1.  A peer claiming the same schema version with a
    different layout hash is drifted. *)

val hello : msg
(** The client's [Hello]: this build's schema version and hash.  Encoded
    at v1 it carries no schema. *)

val answer_hello :
  serving:peer_schema -> server:int -> incarnation:int ->
  peer_schema option -> int * msg
(** A server's answer to a [Hello] carrying [peer], as the version to
    frame the connection at from now on and the reply.  The reply is a
    [Welcome] at the negotiated version (carrying [serving] from v2
    on), or a typed [Reject] framed at min(serving, 2): [Incompatible_schema]
    for a drifted hash, [Unsupported_version] for a version below
    {!min_version}.  The server closes after a [Reject]. *)

val accept_welcome : peer_schema option -> (int, string) result
(** A client's reading of a [Welcome] carrying [peer]: the negotiated
    version, or [Error] naming the drift. *)

(** Durable server state, persisted by [Daemon] across restarts — one
    record per shard.  [p_state] is the [""] key's register (the only
    one a pre-v3 frame can hold); [p_keyed] lists every other key's
    state and travels only in v3+ framing (encoding a non-empty list at
    an older version raises [Invalid_argument] — durable keys must never
    be silently dropped). *)
type persisted = {
  p_incarnation : int;
  p_state : Sb_storage.Objstate.t;
  p_keyed : (string * Sb_storage.Objstate.t) list;
}

val encode_persisted : ?version:int -> persisted -> bytes
val decode_persisted : ?max_version:int -> bytes -> (persisted, string) result

val seal_persisted : ?version:int -> persisted -> bytes
(** {!encode_persisted} wrapped in the state-file container: the
    framed record followed by a 16-byte Hash128 checksum of it.  The
    trailer lives outside the schema-described frame body, so the
    golden wire schemas are unaffected. *)

val unseal_persisted :
  ?max_version:int -> bytes -> (persisted, string) result
(** Verifies the container shape (length prefix consistent with the
    file size) and the checksum before decoding; any truncation,
    bit-flip, or garbage yields [Error] — never an exception, never a
    silently-misdecoded state. *)

(** Incremental frame extraction over a byte stream.  Complete frames
    are decoded where they lie in the reader's buffer; the unread tail
    moves to the front at most once per {!feed} or {!read}. *)
module Reader : sig
  type t

  val create : ?max_version:int -> unit -> t
  (** [max_version] (default {!version}) bounds accepted frame
      versions, like {!decode_msg}. *)

  val feed : t -> bytes -> int -> int -> unit
  (** [feed t buf off len] appends a copy of [len] bytes of [buf] at
      [off]. *)

  val read : t -> (bytes -> int -> int -> int) -> int
  (** [read t fill] appends bytes without copying them: it calls
      [fill buf off len] once, which writes at most [len] bytes into
      the reader's own buffer at [buf.[off]] and returns how many it
      wrote, e.g. [fun buf off len -> Unix.read fd buf off len].
      [len] is 64 KiB.  Returns [fill]'s result; an exception from
      [fill] passes through and appends nothing. *)

  val next : t -> (msg option, string) result
  (** The next complete frame, [Ok None] if more bytes are needed,
      [Error _] on a malformed frame (the connection should be
      dropped).  Never raises, whatever the bytes.  However the stream
      was cut into {!feed}s, the same frames come out. *)
end

val equal_msg : msg -> msg -> bool

val reject_code_name : reject_code -> string
(** ["unsupported-version"] or ["incompatible-schema"]. *)

val pp_msg : Format.formatter -> msg -> unit

(** {2 The programmatic schema} *)

val schema_v : version:int -> Sb_schema.Schema.t
(** The layout description of a supported wire version, with roots
    ["msg"] and ["persisted"].  Raises [Invalid_argument] outside
    [min_version..version]. *)

val schema : Sb_schema.Schema.t
(** [schema_v ~version]. *)

val schema_hash : string
(** 16-byte digest of {!schema} — what [Hello]/[Welcome] carry. *)

val schema_hash_hex : string
