(** Encoding/decoding oracles (Definition 1).

    A [write(v)] invocation initialises an encoding oracle whose [get i]
    returns [E(v, i)] tagged with the write's operation id; a [read()]
    invocation initialises a decoding oracle whose [push]/[finish] realise
    the paper's [push(e, i)] / [done(i)] interface, where the second
    argument groups pushed blocks into candidate decode sets.

    Oracle-internal state (the value held by an encoder, the blocks it
    has computed, the blocks pushed into a decoder) is {e not} part of
    the storage cost (Section 3.1). *)

module Encoder : sig
  type t

  val create : Sb_codec.Codec.t -> op:int -> value:bytes -> t
  (** [create codec ~op ~value] is [oracleE(c, w)] for write [w = op]. *)

  val get : t -> int -> Block.t
  (** [get t i] is [E(v, i)] tagged with source [(op, i)].  The block is
      computed on the first [get] of index [i] and kept: later calls
      return the same block without calling the codec, so an adaptive
      write, which asks for each of its [n] blocks several times over
      its rounds, encodes each once. *)

  val get_all : t -> Block.t list
  (** All [n] blocks of a fixed-rate codec, [get t 0 .. get t (n-1)];
      raises [Invalid_argument] for a rateless codec. *)

  val calls : t -> int
  (** Number of [get] calls made so far, memoised ones included
      (diagnostics); the codec runs once per distinct index. *)
end

module Decoder : sig
  type t

  val create : Sb_codec.Codec.t -> t
  (** [oracleD(c, r)] for a read operation. *)

  val push : t -> group:int -> index:int -> bytes -> unit
  (** [push t ~group ~index e] records [push(e, group)]-style input: block
      number [index] with contents [e], in candidate set [group] (the
      paper indexes pushes by a number [i]; register implementations use
      the timestamp's hash as the group). *)

  val group_size : t -> group:int -> int
  (** Number of distinct block indices pushed into [group]. *)

  val finish : t -> group:int -> bytes option
  (** The paper's [done(i)]: decode the blocks pushed into [group]. *)
end
