(** Byte-string helpers shared by the codecs and the simulator. *)

val xor_into : src:bytes -> dst:bytes -> unit
(** [xor_into ~src ~dst] xors [src] into [dst] in place.  Both buffers must
    have the same length. *)

val xor : bytes -> bytes -> bytes
(** [xor a b] is a fresh buffer holding the byte-wise xor of [a] and [b].
    Both must have the same length. *)

val of_int_le : int -> width:int -> bytes
(** [of_int_le v ~width] encodes the non-negative integer [v] as [width]
    little-endian bytes.  Raises [Invalid_argument] if [v] does not fit. *)

val to_int_le : bytes -> int
(** Inverse of {!of_int_le} for widths up to 7 bytes (fits in an OCaml
    [int] on 64-bit platforms). *)

val pad_to : bytes -> int -> bytes
(** [pad_to b n] is [b] zero-padded on the right to length [n] (identity if
    [b] is already at least [n] bytes long). *)

val chunks : bytes -> size:int -> count:int -> bytes array
(** [chunks b ~size ~count] splits [b] into [count] chunks of [size] bytes
    each, zero-padding the tail. *)

val concat_chunks : bytes array -> len:int -> bytes
(** [concat_chunks cs ~len] concatenates [cs] and truncates to [len]
    bytes; inverse of {!chunks}. *)

val compact : bytes -> from:int -> upto:int -> room:int -> bytes
(** [compact buf ~from ~upto ~room] moves the live bytes
    [buf.[from, upto)] to offset 0 of a buffer with at least [room]
    bytes free after them: [buf] itself when it is large enough, else a
    new buffer at least twice its size.  For a buffer consumed from the
    front and appended at the back. *)

val hex : bytes -> string
(** Lowercase hex rendering, for diagnostics. *)

val of_hex : string -> bytes
(** Inverse of {!hex}; raises [Invalid_argument] on odd length or
    non-hex characters. *)

val hamming_distance : bytes -> bytes -> int
(** Number of differing bits between two equal-length buffers. *)
