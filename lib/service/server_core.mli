(** Transport-agnostic server side of the register service.

    A server is a {e keyed family} of base objects behind one
    incarnation counter and one per-incarnation at-most-once table —
    the unit the sharded daemon calls a shard.  The pre-sharding
    single-register view is the [""] key: {!create}/{!handle}/{!state}
    keep exactly their historical meaning (and [Sb_msgnet.Mp_runtime]
    is still implemented on them), while {!handle_key} addresses any
    register, lazily materialising it from the initial state on first
    touch.

    Object states are durable across a crash; the at-most-once table is
    volatile — the dedup key is morally [(key, client, ticket,
    incarnation)] — so RMWs re-applied across a recovery must be
    idempotent, which the register protocols guarantee.

    Storage accounting is maintained incrementally: the current total
    over all keys, its high-water mark, and the high-water mark of any
    single key's bits ({!max_key_bits}) — the quantity the per-object
    Theorem 2 ceiling is checked against in a multi-key fleet. *)

type t

type outcome = {
  resp : Sb_sim.Rmwdesc.resp;
  before : Sb_storage.Objstate.t;
  after : Sb_storage.Objstate.t;   (** Equal to [before] on a dedup hit. *)
  dedup_hit : bool;
      (** The at-most-once table answered; the RMW was not re-applied. *)
}

val create :
  ?dedup:bool -> ?incarnation:int -> Sb_storage.Objstate.t -> t
(** A server whose [""] register holds the given initial state, which is
    also the initial state lazily given to every other key on first
    touch.  [dedup] (default true) arms the at-most-once table;
    [incarnation] defaults to 1 (a daemon restarting from a persisted
    state passes the stored incarnation + 1). *)

val load :
  ?incarnation:int ->
  initial:Sb_storage.Objstate.t ->
  (string * Sb_storage.Objstate.t) list ->
  t
(** {!create} then restore the given per-key states (a persisted shard);
    an entry for [""] overrides the initial register.  High-water marks
    restart at the restored footprint, as {!recover} would leave them. *)

val handle :
  t ->
  client:int ->
  ticket:int ->
  nature:[ `Mutating | `Readonly | `Merge ] ->
  Sb_sim.Rmwdesc.rmw ->
  outcome
(** [handle_key ~key:""] — the single-register view. *)

val handle_key :
  t ->
  key:string ->
  client:int ->
  ticket:int ->
  nature:[ `Mutating | `Readonly | `Merge ] ->
  Sb_sim.Rmwdesc.rmw ->
  outcome
(** Serve one keyed request: either replay the recorded response for
    this [(key, client, ticket)] (a retransmitted or duplicated request)
    or apply the RMW atomically to the key's register and record its
    response.  Read-only RMWs are never recorded — they are harmless to
    re-apply and would bloat the table. *)

val crash : t -> unit
(** Lose the volatile state (the at-most-once table); the object states
    survive. *)

val recover : t -> unit
(** Begin a fresh incarnation: bump the counter and restart the
    high-water storage marks.  {!crash} must have been observed first by
    the caller's bookkeeping; this module does not track liveness. *)

val state : t -> Sb_storage.Objstate.t
(** The [""] register's state. *)

val key_state : t -> string -> Sb_storage.Objstate.t option
(** A key's state, [None] if never touched. *)

val entries : t -> (string * Sb_storage.Objstate.t) list
(** Every key's state, sorted by key — what the daemon persists. *)

val incarnation : t -> int
val key_count : t -> int

val storage_bits : t -> int
(** Current total over all keys. *)

val max_bits : t -> int
(** High-water mark of the total. *)

val max_key_bits : t -> int
(** High-water mark of any single key's bits since this incarnation —
    the per-object quantity Theorem 2 bounds. *)

val dedup_hits : t -> int
val applied_count : t -> int
