(** The socket client: runs the unmodified register protocols of
    [Sb_registers] against a live {!Daemon} cluster.

    Protocol code performs the same [Trigger]/[Await] effects it
    performs under the simulators, and the same interpreter runs it:
    {!Sb_sim.Engine}, with this module as its socket transport —
    [Trigger] encodes the RMW's {!Sb_sim.Rmwdesc.t} into a {!Wire}
    request and arms a retransmission timer ({!Client_core.Retransmit},
    shared with the simulated transport), [Await] parks the client
    fiber until a quorum of responses is in its {!Client_core.Mailbox}.
    Dead servers are ridden out by retransmission and reconnection;
    recoveries are observed through incarnation bumps in responses.

    [Sb_msgnet.Mp_runtime] runs on the same engine, with the same
    determinism: one root PRNG split per client in cid order, operation
    ids from 1 at invocation, tickets from 1 at trigger — so a
    single-client seeded run triggers the identical description
    sequence on both transports (checked by the parity test in
    [test_service.ml]).  Only the wire client id differs: it carries a
    per-engine session tag above the slot number, so two engines never
    share the daemon's at-most-once entries. *)

type config = {
  n : int;
  f : int;
  sockdir : string;
  rto_ms : int;            (** Initial retransmission timeout. *)
  max_attempts : int;      (** 0 = retry forever (rides out crashes). *)
  reconnect_ms : int;      (** Delay before re-dialling a dead server. *)
  sample_every_ms : int;   (** Storage-stats sampling period; 0 = off. *)
  deadline_ms : int;       (** Abort the run after this long. *)
  think_ms : int;          (** Closed-loop pacing: delay before each
                               client's next operation; 0 = back-to-back. *)
  batch_max : int;
      (** Per-connection request batching: triggered requests towards a
          v3+ peer are buffered and sent as one [Req_batch] frame of up
          to this many.  1 (the default) sends classic single-request
          frames; batching also disarms itself per server when the
          negotiated version is below 3.  Retransmissions are always
          single frames. *)
  flush_ms : int;
      (** A pending batch never waits longer than this for
          co-travellers (size may flush it sooner). *)
}

val default_config : n:int -> f:int -> sockdir:string -> config
(** [batch_max = 1], [flush_ms = 2]; see the field docs for the rest. *)

type sample = { at_ms : float; total_bits : int }
(** Total storage bits across all servers at one sampling instant
    (servers that missed the sampling round contribute their last
    reply; rounds with any server missing are skipped). *)

(** Why an operation was abandoned instead of completing. *)
type failure_reason =
  | Attempts_exhausted of int
      (** The retransmission budget ([max_attempts]) ran out on enough
          servers that the operation's quorum became unreachable; the
          payload is the deepest attempt count among its tickets. *)
  | Deadline_expired  (** Still in flight when [deadline_ms] struck. *)

type op_failure = {
  fl_op : int;
  fl_client : int;
  fl_kind : Sb_sim.Trace.op_kind;
  fl_at_ms : float;
  fl_reason : failure_reason;
}

type server_health = {
  sh_server : int;
  sh_connects : int;       (** Successful dials over the run. *)
  sh_dial_failures : int;  (** Refused/failed dials over the run. *)
  sh_fail_streak : int;
      (** Consecutive failures at end of run (0 = last contact was
          healthy).  While positive, reconnects back off exponentially
          (capped at 32x [reconnect_ms]) with seeded jitter. *)
}

exception Op_abandoned
(** {!Sb_sim.Engine.Abandoned}: raised into an abandoned operation's
    fiber at its await point so protocol-level cleanup can run; the
    engine absorbs it. *)

type report = {
  trace : Sb_sim.Trace.t;
      (** Invoke/Return/Rmw_trigger events on a logical clock, ready
          for [Sb_spec.History.of_trace] and the regularity checkers. *)
  ops_invoked : int;
  ops_completed : int;
  wall_ms : float;
  latencies_ms : float list;  (** Per completed operation, in completion order. *)
  samples : sample list;  (** Chronological. *)
  final_stats : Wire.stats list;
      (** A quiescent stats round after the run (fresh connections). *)
  desc_log : Sb_sim.Rmwdesc.t list;
      (** Every triggered description, in trigger order — the protocol
          decisions, comparable across transports. *)
  retransmissions : int;
  reconnects : int;
  recoveries_observed : int;  (** Server incarnation bumps seen. *)
  batches_sent : int;
      (** [Req_batch] frames put on the wire (each carried ≥ 2
          requests); 0 whenever [batch_max = 1] or every peer
          negotiated below v3. *)
  frames_sent : int;  (** Every frame handed to a socket buffer. *)
  downgrades : int;
      (** Servers renegotiated down to wire v1 after an old daemon
          closed on a v2 [Hello] — the expected path when new clients
          meet an un-upgraded fleet. *)
  schema_rejects : (int * string) list;
      (** Typed [Wire.Reject] refusals (or welcome-hash mismatches
          detected client-side), by server id, chronological.  A
          rejected server is never re-dialled; a healthy mixed-version
          run has none. *)
  peak_sampled_bits : int;
  timed_out : bool;  (** The deadline cut the run short. *)
  failures : op_failure list;
      (** Typed per-operation failures, chronological.  With
          [max_attempts = 0] and no deadline pressure this is empty;
          it is never possible for an operation to silently hang. *)
  health : server_health list;  (** Per server, at end of run. *)
}

val run_keyed :
  ?hooks:Netfault.t ->
  algorithm:Sb_sim.Runtime.algorithm ->
  seed:int ->
  workload:(string * Sb_sim.Trace.op_kind) list array ->
  config ->
  report
(** Drive the closed-loop workload (one fiber per array slot, next
    operation invoked as soon as the previous returns) to completion
    against the cluster reachable under [config.sockdir].  Each
    operation addresses the named register of the sharded daemon; [""]
    is the pre-sharding single object.  Non-[""] keys need a v3+ fleet
    — towards an older peer keyed frames are unencodable and are
    dropped (the operation fails by its retransmission/deadline budget
    rather than crashing the client).  [hooks] (default
    {!Netfault.none}) inject socket-layer faults into the client's
    dials and outbound frames — the client-side half of a
    {!Sb_faults.Live} fault plane. *)

(** {2 The open loop}

    Closed-loop clients measure a system that is never saturated by
    construction: each client waits for its previous operation, so a
    slow service throttles its own offered load and hides queueing
    delay (coordinated omission).  The open loop instead draws arrival
    times from a Poisson process at a target rate and starts each
    operation at its intended time — or queues it, with the intended
    time preserved, when all [ol_max_inflight] slots are busy — so
    reported latency includes every millisecond the service made an
    arrival wait. *)

type open_config = {
  ol_rate : float;  (** Target arrival rate, operations/second. *)
  ol_duration_ms : int;  (** Arrival-generation window. *)
  ol_keys : int;  (** Key-space size; keys are {!key_name}[ 0..K-1]. *)
  ol_zipf : float;
      (** 0 = uniform key popularity; otherwise the Zipfian exponent
          (rank-frequency skew; 0.99 is the YCSB-style default). *)
  ol_write_ratio : float;  (** Probability an arrival is a write. *)
  ol_max_inflight : int;
      (** Concurrent operation slots — the paper's concurrency [c] for
          the per-object Theorem 2 ceiling under this load. *)
  ol_value : int -> bytes;
      (** Payload for the [i]-th write (1-based, process-wide). *)
}

val default_open_config : open_config
(** 500 ops/s for 10 s over 100 uniform keys, half writes, 512 slots. *)

val key_name : int -> string
(** The wire key for rank [r] — shared with the loadgen's per-key
    accounting so external checks can address the same registers. *)

val run_open :
  ?hooks:Netfault.t ->
  algorithm:Sb_sim.Runtime.algorithm ->
  seed:int ->
  open_config ->
  config ->
  report
(** Drive the open-loop workload against the cluster under
    [config.sockdir] and drain it (arrival generation stops at
    [ol_duration_ms]; the run ends when every arrival has completed or
    failed, or at [deadline_ms]).  The report's [latencies_ms] are
    intended-start latencies (coordinated-omission-safe); its [trace]
    and [desc_log] are empty — an open-loop run's observables are
    counters, latencies and storage samples.  Batching applies as
    configured ([batch_max]/[flush_ms]). *)

val fetch_stats :
  ?timeout_ms:int -> sockdir:string -> servers:int list -> unit ->
  Wire.stats list
(** One stats round over fresh connections, retrying each server with
    select-bounded reads under its own [timeout_ms] budget (default
    5000; a slow server never starves the others); servers that never
    answer are omitted.  This is how the load generator checks the
    post-quiescence GC floor and how the CI smoke test asserts that
    killed servers were re-admitted. *)
