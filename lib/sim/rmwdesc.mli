(** First-class descriptions of the register RMWs.

    An RMW takes exactly one form between protocol code and every
    transport: a serializable description.  The registers in
    [lib/registers] trigger descriptions; the shared-memory simulator
    applies them through the one interpreter, {!apply}; the
    message-passing simulator carries them inside its messages; the
    socket transport ([Sb_service.Wire]) serializes them.  All three
    therefore execute the same interpreter on the same data: the
    simulator and the real service make identical protocol decisions by
    construction.

    The vocabulary is closed on purpose.  A server needs no register
    code at all — it holds an {!Sb_storage.Objstate.t} and applies
    descriptions — and adding a register algorithm means extending this
    type, which forces the wire codec and the natures audit to keep
    up. *)

(** Response carried back to the triggering client. *)
type resp = Ack | Snap of Sb_storage.Objstate.t

type rmw = Sb_storage.Objstate.t -> Sb_storage.Objstate.t * resp

(** Eviction barrier for coded stores: [Barrier] keeps everything at or
    above the round-1 [storedTS] (the correct rule); [Own_ts] evicts
    below the incomplete write's own timestamp — the premature-GC
    seeded bug. *)
type eviction = Barrier | Own_ts

(** Vp trimming: [Keep_newest delta] keeps the [delta+1] newest
    versions' pieces, the bounded-version baseline. *)
type trim = Keep_all | Keep_newest of int

type t =
  | Snapshot  (** Read round: return the full object state, change nothing. *)
  | Abd_store of Sb_storage.Chunk.t
      (** Keep the lexicographically larger (timestamp, chunk) — a
          commuting, idempotent join. *)
  | Lww_store of Sb_storage.Chunk.t
      (** Last-writer-wins overwrite (non-commuting; the
          mis-declared-merge seeded bug). *)
  | Safe_update of Sb_storage.Chunk.t
      (** Algorithm 5: overwrite iff strictly higher timestamp. *)
  | Adaptive_update of {
      replicate : bool;
      eviction : eviction;
      trim : trim;
      k : int;
      piece : Sb_storage.Block.t;
      replica_pieces : Sb_storage.Block.t list;
      ts : Sb_storage.Timestamp.t;
      stored_ts : Sb_storage.Timestamp.t;
    }  (** Algorithm 3, lines 32-39. *)
  | Adaptive_gc of { piece : Sb_storage.Block.t; ts : Sb_storage.Timestamp.t }
      (** Algorithm 3, lines 40-45. *)
  | Rateless_update of {
      pieces : Sb_storage.Block.t list;
      ts : Sb_storage.Timestamp.t;
      stored_ts : Sb_storage.Timestamp.t;
    }
  | Rateless_gc of {
      pieces : Sb_storage.Block.t list;
      ts : Sb_storage.Timestamp.t;
    }
  | Rw_write of {
      chunks : Sb_storage.Chunk.t list;
      ts : Sb_storage.Timestamp.t;
    }
      (** Blind wholesale overwrite — the only mutator a [Read_write]
          base object offers.  The cell becomes exactly [chunks] (in
          [Vf]) with [storedTS = ts]; an empty list is a meta-data-only
          stub.  Non-commuting by construction: delivery order decides
          what survives. *)

val apply : t -> rmw
(** The one interpreter.  Every transport applies descriptions through
    this function, so protocol decisions cannot diverge between them. *)

val payload : t -> Sb_storage.Block.t list
(** The code blocks a description carries: every block {!apply} can
    store.  They count towards the in-flight storage cost and the
    per-operation contribution of Definition 6.  A store carries its
    chunk's block, [Rw_write] its chunks' blocks, the rateless RMWs
    their [pieces] and [Snapshot] nothing.  [Adaptive_update] carries
    [piece], plus [replica_pieces] when [replicate] is set; [piece] is
    listed once if a block with its (source, index) is already among
    the replica pieces. *)

val default_nature : t -> [ `Mutating | `Readonly | `Merge ]
(** The honest concurrency declaration for each description.  Callers
    may override it (the mis-declared-merge experiment declares
    [Lww_store] as [`Merge] on purpose). *)

val op_class : t -> Sb_baseobj.Model.op_class
(** The base-object operation class of a description: [Snapshot] is
    [Read], {!Rw_write} is [Overwrite], everything conditional or
    merging is [General] (RMW-only).  The runtimes gate triggers on
    this under restricted base-object models. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
