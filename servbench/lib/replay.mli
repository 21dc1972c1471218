(** Offline replay of the daemon's request path on a run's exact
    traffic.

    Each server of the benchmark's daemon reads exactly one SDK
    connection at a time, so the frames the SDK handed to that server's
    socket, in capture order, are the server's whole input.  Replaying
    them through fresh shards of [Sb_service.Server_core] reproduces
    every state the daemon went through, and times each step of the
    daemon's request path separately: [Wire.decode_msg], routing with
    [Sb_kv.Shard.lookup], [Server_core.handle_key] (with
    [Rmwdesc.apply]), [Wire.encode_msg] of the response frame, and
    [Daemon.save_state] of each shard's final state, as a daemon with a
    state directory would persist it. *)

type capture

val create : n:int -> capture

val record : capture -> server:int -> bytes -> unit
(** One whole outbound frame (length prefix included) towards [server]. *)

val mark : capture -> unit
(** Frames recorded from now on form the timed portion; earlier frames
    are replayed untimed, to build the state the timed portion starts
    from. *)

type shard_state = {
  keys : int;
  storage_bits : int;
  max_bits : int;
  max_key_bits : int;
  applied : int;
  dedup_hits : int;
}

type result = {
  frames : int;  (** Frames decoded in the timed portion. *)
  requests : int;  (** Requests applied in the timed portion. *)
  request_frames : int;
      (** Decoded frames that carried requests — as many response frames
          were encoded. *)
  request_bytes : int;  (** Their bytes, length prefixes included. *)
  decode_s : float;
  route_s : float;
  apply_s : float;
  encode_s : float;
  saves : int;
  save_s : float;
  shards : shard_state array array;
      (** Per server, per shard, after the whole replay. *)
}

val run :
  ?save_dir:string ->
  shards:int ->
  init_obj:(int -> Sb_storage.Objstate.t) ->
  capture ->
  result
(** Replay every server's frames.  With [save_dir], each shard's final
    entries are also saved there with [Daemon.save_state] a few times,
    as the daemon's group commit saves them. *)

val mismatches : result -> Sb_service.Wire.stats list -> string list
(** Where the replayed shards differ from the daemon's own stats taken
    at the end of the captured traffic: key counts, storage and
    high-water bits, applied RMWs, dedup hits.  Empty when the replay
    reproduced the run. *)
