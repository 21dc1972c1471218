(** Typed wire layouts, declared once.

    A layout value describes one binary layout in the {!Schema}
    vocabulary (big-endian scalars, u32-counted byte strings and lists,
    a presence byte per option, records in wire order, u8-tagged enums)
    and gives, from that single declaration, its writer, its reader,
    its {!Schema.ty} at each wire version, and whether a value fits a
    version.  A record field or an enum arm may name the version that
    introduced it; below that version the field follows its {!below}
    rule and the arm cannot be encoded.

    Writers and readers work on OCaml values directly: a record decodes
    by calling its constructor once with every field, an enum finds its
    arm through a tag table, and no generic value tree is built.
    {!Schema.encode}/{!Schema.decode} are the reference interpreter
    the codec is tested against. *)

exception Decode of string
(** A malformed payload: truncation, a negative length, a list longer
    than the frame, a bad bool or presence byte, an unknown tag, an i64
    outside OCaml's [int] range. *)

type 'a t
(** The layout of values of type ['a]. *)

(** {1 Primitives} *)

val u8 : int t
(** One byte; writes the low 8 bits. *)

val bool : bool t
(** One byte, 0 or 1. *)

val int : int t
(** An 8-byte big-endian two's complement integer ([Schema.I64]).  A
    value outside [min_int..max_int] is a decode error. *)

val bytes : bytes t
val string : string t
(** Both are [Schema.Bytes]: a u32 count, then the raw bytes. *)

val list : 'a t -> 'a list t
val option : 'a t -> 'a option t

(** {1 Records} *)

type 'a field

(** What a field means below the version that introduced it. *)
type 'a below =
  | Dropped of 'a
      (** Not written, read as this value: the field is detail an older
          peer may lose. *)
  | Absent of 'a
      (** Read as this value, and only this value can be written: any
          other raises [Invalid_argument] (compared with structural
          equality).  For fields whose loss would change meaning. *)

val field : string -> 'a t -> 'a field
(** A field present at every version. *)

val since : int -> string -> 'a t -> 'a below -> 'a field
(** [since v name layout below] is a field introduced at version [v]. *)

(** Fields in wire order.  ['k] is the constructor's type, ['r] the
    record's and ['l] the nested tuple of the field types. *)
type ('k, 'r, 'l) fields =
  | [] : ('r, 'r, unit) fields
  | ( :: ) : 'a field * ('k, 'r, 'l) fields -> ('a -> 'k, 'r, 'a * 'l) fields

(** The field values of one record, in wire order. *)
type 'l values = [] : unit values | ( :: ) : 'a * 'l values -> ('a * 'l) values

val record : ('k, 'r, 'l) fields -> 'k -> ('r -> 'l values) -> 'r t
(** [record fields make dest]: [make] builds a record from every field
    at once, [dest] lists a record's field values. *)

(** {1 Enums} *)

type ('a, 'p) arm
(** An arm of an enum over ['a], written from a payload ['p]. *)

val arm : ?since:int -> int -> string -> ('k, 'a, 'l) fields -> 'k -> ('a, 'l values) arm
(** [arm tag name fields make]: an arm whose body is a record of
    [fields], decoded straight into the enum value by [make].  With
    [~since:v] the arm exists from version [v] on. *)

val arm_of : ?since:int -> int -> string -> 'b t -> ('b -> 'a) -> ('a, 'b) arm
(** An arm whose body is another layout, wrapped into the enum value. *)

val tag : ('a, 'p) arm -> int
(** The arm's u8 tag on the wire. *)

type 'a case

val case : ('a, 'p) arm -> 'p -> 'a case
(** What an enum's select function returns: a value's arm and payload. *)

type 'a any_arm = Arm : ('a, 'p) arm -> 'a any_arm

val enum : string -> 'a any_arm list -> ('a -> 'a case) -> 'a t
(** [enum name arms select]: [arms] in schema order, [select] picks a
    value's arm and payload.  [name] only labels errors.  Writing an
    arm below its version raises [Invalid_argument]; reading its tag
    there is a decode error. *)

val constants : string -> (int * string * 'a) list -> 'a t
(** An enum whose arms carry no body, one [(tag, name, value)] each.
    Values are matched physically, so they must be constant
    constructors. *)

(** {1 Using a layout} *)

val ty : 'a t -> version:int -> Schema.ty

val fits : 'a t -> version:int -> 'a -> bool
(** Whether {!write} at [version] accepts the value. *)

val write : 'a t -> version:int -> Buffer.t -> 'a -> unit
(** Raises [Invalid_argument] exactly when {!fits} is false. *)

type cursor

val cursor : ?off:int -> ?len:int -> bytes -> cursor
(** Reads [len] bytes of the buffer from [off] (default: all of it, from
    0), in place: the bytes are not copied, and a value read from them
    shares none of them.  Raises [Invalid_argument] for a range outside
    the buffer. *)

val at_end : cursor -> bool
(** The cursor has reached the end of its range. *)

val read : 'a t -> version:int -> cursor -> 'a
(** Raises {!Decode} on malformed bytes; a record constructor may raise
    [Invalid_argument] on a value it refuses. *)
