(** Fast 128-bit streaming hash (two independent murmur3-style 64-bit
    lanes).  Seedless and stable across runs and builds, so its output
    can be persisted: it checksums durable state files, places keys on
    shards, and fingerprints wire schemas.

    Not cryptographic: it guards against corruption and accidental
    collisions, not against an adversary. *)

type t
(** Mutable streaming state. *)

val create : unit -> t
(** Fresh hasher in the (fixed, seedless) initial state. *)

val add_bytes : t -> bytes -> unit
(** Absorbs contents and length ([add_bytes h b] differs from absorbing
    the same bytes split across two calls). *)

val add_string : t -> string -> unit
val add_subbytes : t -> bytes -> int -> int -> unit

val lanes : t -> int64 * int64
(** Finalized (avalanched) lanes.  Does not mutate. *)

val digest : t -> string
(** 16-byte binary digest of {!lanes}. *)

val to_hex : t -> string
(** 32-char hex rendering of {!lanes}. *)
