(** Shared plumbing for the register emulations.

    All four algorithms in this library follow the paper's round
    structure: each round triggers one RMW on every base object in
    parallel and awaits responses from at least [n - f] of them
    (Section 5).  This module provides the configuration record, the
    [readValue] round (Algorithm 3, lines 23–31), and chunk-set
    helpers. *)

type config = {
  n : int;      (** Number of base objects. *)
  f : int;      (** Base-object failures tolerated; [n >= 2f + k]. *)
  codec : Sb_codec.Codec.t;  (** The k-of-n coding scheme in use. *)
}

val validate : config -> unit
(** Raises [Invalid_argument] unless [0 <= f], [n >= 2f + k], and the
    codec is fixed-rate with at least [n] blocks. *)

val quorum : config -> int
(** [n - f]: the size of every round's response quorum. *)

val initial_value : config -> bytes
(** The all-zero initial value [v0]. *)

type read_set = {
  max_stored_ts : Sb_storage.Timestamp.t;
  (** Highest [storedTS] among the responding objects. *)
  chunks : Sb_storage.Chunk.t list;
  (** Union of the [Vp] and [Vf] fields of the responding objects. *)
}

val read_value : config -> Sb_sim.Runtime.ctx -> read_set
(** One [readValue] round: read-snapshot every object, await [n - f]
    responses, and merge.  Bumps the operation's round counter. *)

val max_num : read_set -> int
(** The largest timestamp round-number visible in the read set (among
    both chunk timestamps and [max_stored_ts]); the writer picks its new
    timestamp one above this (Algorithm 2, line 6). *)

val add_chunk : Sb_storage.Chunk.t -> Sb_storage.Chunk.t list -> Sb_storage.Chunk.t list
(** Inserts a chunk unless an equal one — same timestamp, block source
    and block index — is already present.  Store RMWs must insert
    through this to stay idempotent: the message-passing runtime's
    at-most-once table is volatile, so a retransmitted request can be
    re-applied after a server recovery, and a duplicate insertion would
    inflate measured storage. *)

val add_chunks :
  Sb_storage.Chunk.t list -> Sb_storage.Chunk.t list -> Sb_storage.Chunk.t list
(** [add_chunks cs chunks] folds {!add_chunk} over [cs]. *)

val distinct_pieces : Sb_storage.Chunk.t list -> ts:Sb_storage.Timestamp.t -> (int * bytes) list
(** The distinct-index pieces of value [ts] in a chunk list, as
    [(index, data)] pairs ready for decoding. *)

val decodable_ts :
  Sb_codec.Codec.t ->
  Sb_storage.Chunk.t list ->
  min_ts:Sb_storage.Timestamp.t ->
  Sb_storage.Timestamp.t option
(** The largest timestamp [>= min_ts] for which the chunk list holds at
    least [k] distinct pieces (Algorithm 2, lines 18–20), if any. *)

val decode_at : Sb_codec.Codec.t -> Sb_storage.Chunk.t list -> ts:Sb_storage.Timestamp.t -> bytes option
(** Decodes the value with timestamp [ts] from the pieces present in the
    chunk list, routing the blocks through a Definition-1 decoding
    oracle. *)
