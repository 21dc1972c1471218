(** First-class descriptions of the service's wire layouts.

    A {!ty} is an SBOR-style value-kind descriptor: every node carries a
    kind tag and (for scalars) a fixed byte width; records list their
    fields in wire order; enums list the closed tag vocabulary with one
    body per tag; [Option] is a presence byte.  [Sb_service.Wire]
    declares each layout once with {!Layout}, which gives both the
    codec and this description ([Wire.schema_v]), so the two cannot
    drift.  The test suite still decodes codec output with the
    schema-driven interpreter below, the reference, and re-encodes it
    byte-for-byte, and the golden [schemas/v<N>.json] files are diffed
    against [Wire.schema_v] on every [dune runtest].

    The generic interpreter ({!decode}/{!encode} over {!value}) is the
    foundation of the {!Compat} certifier: it lets us run one schema's
    bytes through another schema's reader and compare the decodings. *)

type ty =
  | Bool  (** kind 0x01, width 1; strict 0/1 *)
  | U8  (** kind 0x07, width 1 *)
  | U32  (** kind 0x09, width 4, big-endian, sign bit rejected *)
  | I64  (** kind 0x05, width 8, big-endian two's complement *)
  | Bytes  (** kind 0x0c: u32 count + raw bytes *)
  | Option of ty  (** kind 0x23: u8 presence (0|1) + body if present *)
  | List of ty  (** kind 0x20: u32 count + elements *)
  | Record of field list  (** kind 0x21: fields in wire order *)
  | Enum of arm list  (** kind 0x22: u8 tag + matching body *)

and field = { f_name : string; f_ty : ty }
and arm = { a_tag : int; a_name : string; a_body : ty }

type t = {
  s_version : int;  (** The wire version this schema describes. *)
  s_roots : (string * ty) list;  (** Independently-framed layouts, by name. *)
}

val max_depth : int
(** Nesting bound (64) enforced by {!validate}, {!decode} and
    {!encode} — adversarial frames cannot recurse deeper. *)

val kind_code : ty -> int
(** The SBOR-style value-kind byte for a node. *)

val scalar_width : ty -> int option
(** Fixed encoded width of a scalar kind ([Bool]/[U8]/[U32]/[I64]). *)

val byte_width : ty -> int option
(** Total encoded width when every value of [ty] occupies the same
    number of bytes (scalars, and records/enums of such); [None] as soon
    as a [Bytes]/[List]/[Option] (or width-divergent enum) appears.
    This is the width lattice the compatibility certifier reasons
    over. *)

val validate : t -> (unit, string) result
(** Structural sanity: depth bound, distinct field names per record,
    distinct tags per enum, u8 tag range, non-empty enums. *)

val equal_ty : ty -> ty -> bool
val equal : t -> t -> bool

val pp_ty : Format.formatter -> ty -> unit
(** Compact one-line rendering, e.g. [record{num: i64; client: i64}]. *)

val str_ty : ty -> string
(** {!pp_ty} to a string. *)

val diff : t -> t -> string list
(** Field-level differences, one line per divergence, each prefixed with
    the path (e.g. [msg.Welcome.incarnation: i64 vs u32]).  Empty iff
    {!equal}. *)

(** {1 Serialization} *)

val to_json : t -> string
(** Pretty-printed golden-file form, deterministic.  Includes the
    canonical hash as an informational field. *)

val of_json : string -> (t, string) result
(** Parses {!to_json} output (a small strict JSON subset).  Verifies the
    embedded hash when present. *)

val hash : t -> string
(** 16-byte binary digest over the canonical rendering — what the
    connect-time handshake exchanges. *)

val hash_hex : t -> string
(** 32-char hex of {!hash}, for reports and diagnostics. *)

(** {1 Generic values} *)

type value =
  | Vbool of bool
  | Vu8 of int
  | Vu32 of int
  | Vi64 of int64
  | Vbytes of string
  | Voption of value option
  | Vlist of value list
  | Vrecord of (string * value) list
  | Venum of int * string * value  (** tag, arm name, body *)

val pp_value : Format.formatter -> value -> unit

val encode : ty -> value -> bytes
(** Schema-driven encoding, byte-compatible with the {!Layout}
    writers.  Raises [Invalid_argument] if the value does
    not inhabit the type (a caller bug, not wire data). *)

val decode : ty -> bytes -> (value, string) result
(** Schema-driven decoding with exact consumption: trailing bytes,
    unknown tags, out-of-range scalars, over-long counts and over-deep
    nesting all return [Error].  Never raises on any input. *)

val samples : ty -> value list
(** Deterministic witness corpus: covers every enum arm (the tag
    lattice), list lengths 0/1/2, both option states and both booleans,
    and gives every scalar leaf a distinct, high-bit-bearing value so
    that transposed fields decode visibly differently.  Bounded size per
    node; the head sample is the all-base value. *)
