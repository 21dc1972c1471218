(** The networked register server: [select] event loops hosting sharded
    {!Server_core} instances behind Unix-domain stream sockets.

    Each hosted server [i] listens on [sockdir/server-i.sock] and speaks
    the {!Wire} protocol: [Hello]/[Welcome] on connect, [Request] →
    [Response] and [Req_batch] → [Resp_batch] (each request's
    {!Sb_sim.Rmwdesc.t} is applied through the same interpreter the
    simulator uses), and [Stats_query] → [Stats] as a live counters
    endpoint with per-shard aggregation.

    {2 Shards}

    A server hosts [shards] keyed {!Server_core} instances; a request's
    key is routed by the consistent-hash ring ({!Sb_kv.Shard}), so every
    process — daemon, SDK, tests — computes the same key → shard mapping
    without coordination.  Each shard has its own state file, its own
    incarnation, and its own at-most-once table.  A batch frame is
    applied in list order.

    By default every server's shards share one event loop (the
    historical single-threaded daemon).  [?domains] spreads the hosted
    servers across that many event-loop domains ({!Sb_parallel.Pool}),
    partitioned by server id with stable affinity — object state is
    never shared across domains, so there is no locking on the request
    path.  (This box's 1-CPU perf trap applies: multicore speedup gates
    arm only at ≥2 cores.)

    With [statedir], each shard's object state and incarnation are
    persisted atomically (temp file, fsync, rename, directory fsync).
    The daemon group-commits: each shard an event-loop round dirtied is
    persisted once, before that round's responses are written.  A daemon
    restarted over a persisted state recovers into a fresh incarnation,
    exactly like [Recover_server] in the simulated transport.  Killing
    the process loses the at-most-once table — the fault model of the
    paper's crash-recoverable base objects.

    {2 Mixed-version clusters}

    [?wire_version] pins a daemon to an older wire version: its frames
    (and persisted state) are encoded at that version and its reader
    rejects newer frames, which makes the binary behave exactly like an
    old build — the mixed-version scenarios restart daemons one
    schema-version apart under live load.  Connect-time, the [Hello]
    handshake carries the peer's schema version + hash (v2+); a peer
    claiming the daemon's own schema version with a different layout
    hash gets a typed [Wire.Reject] and a clean close instead of decode
    crashes mid-stream.

    Every accepted connection is a {!Conn}: docs/SERVICE.md,
    "Connections", describes its ordered output, the slow close and the
    handshake functions ({!Wire.answer_hello}). *)

val sockpath : sockdir:string -> int -> string
(** [sockdir/server-<i>.sock] — where server [i] listens. *)

val statefile : statedir:string -> int -> string
(** [statedir/server-<i>.state] — where server [i] persists. *)

val statefile_shard : statedir:string -> shards:int -> int -> int -> string
(** [statefile_shard ~statedir ~shards i j] — where server [i]'s shard
    [j] persists.  With [shards = 1] this is {!statefile}, so
    pre-sharding state files restart unchanged. *)

val quarantine_path : string -> string
(** Where a corrupt state file is moved before the server recovers
    fresh ([<file>.corrupt]). *)

(** {2 Durable state}

    State files are {!Wire.seal_persisted} containers: the framed
    record plus a 16-byte checksum trailer.  [save_state] writes a
    temp file, [fsync]s it, renames it over the target, and [fsync]s
    the containing directory — a crash at any instant leaves either
    the old state or the new state on disk, never a torn mixture. *)

val save_state :
  ?before_rename:(unit -> unit) -> version:int -> string -> Wire.persisted ->
  unit
(** [before_rename] (default no-op) runs between the temp-file fsync
    and the rename — the hook crash points use to abort inside the
    publication window. *)

type load_result =
  | Loaded of Wire.persisted
  | Absent  (** No state file: a genuinely fresh server. *)
  | Corrupt of string
      (** The file exists but fails the container shape, checksum, or
          decode — truncations, bit-flips, and garbage all land here,
          deterministically and without raising. *)

val load_state : max_version:int -> string -> load_result

(** {2 Crash points}

    Deterministic aborts around the persist path, counted per process
    ([persist:<n>] fires on the [n]th persist, including each hosted
    server's boot-time persist).  The abort is [Unix._exit] — no
    cleanup, indistinguishable from SIGKILL. *)

type crash_stage =
  | Crash_before_write
      (** Before the temp file is touched ([persist-pre:<n>]). *)
  | Crash_before_rename
      (** Between the temp-file fsync and the rename — inside the
          torn-write window ([persist:<n>]): the old state must still
          load on restart. *)
  | Crash_after_rename
      (** After the rename, before the response is sent
          ([persist-post:<n>]): the new state is durable but the
          client retransmits into the fresh incarnation. *)

type crash_point = { cp_stage : crash_stage; cp_persist : int }

val crash_point_of_string : string -> (crash_point, string) result
(** Parses ["persist:<n>"], ["persist-pre:<n>"], ["persist-post:<n>"]. *)

val crash_point_to_string : crash_point -> string

val check_args :
  wire_version:int ->
  shards:int ->
  domains:int ->
  statedir:string option ->
  crash_at:crash_point option ->
  (unit, string) result
(** The rules {!run}'s arguments must obey, checked in one place:
    [wire_version] within [Wire.min_version..Wire.version], at least
    one shard and one domain, and a crash point only with a single
    domain (its persist counter is process-wide) and a [statedir]
    (without one nothing is persisted, so it would never fire).  The
    error names the first rule broken. *)

val run :
  ?wire_version:int ->
  ?shards:int ->
  ?domains:int ->
  ?statedir:string ->
  ?stop:(unit -> bool) ->
  ?hooks:Netfault.t ->
  ?crash_at:crash_point ->
  sockdir:string ->
  servers:int list ->
  init_obj:(int -> Sb_storage.Objstate.t) ->
  unit ->
  unit
(** Serve the given server ids until SIGTERM/SIGINT (or [stop] returns
    true, polled between select rounds).  [servers = [0; ...; n-1]]
    hosts a whole cluster in one process; [servers = [i]] is one daemon
    of a multi-process deployment.  [init_obj] supplies the initial
    object state when no persisted state exists (for every key of every
    shard).  [shards] (default 1) is the number of keyed
    {!Server_core}s per server; [domains] (default 1) the number of
    event-loop domains the servers are partitioned across (capped at
    the server count).  [wire_version] (default [Wire.version]) pins
    the daemon's protocol version.  [hooks] (default {!Netfault.none})
    inject socket-layer faults into accepts and outbound frames;
    [crash_at] arms one crash point.  Raises [Invalid_argument] on
    arguments {!check_args} rejects.  A shard whose state file is corrupt
    quarantines it ({!quarantine_path}) and rejoins fresh.  Sockets are
    unlinked on the way out. *)
