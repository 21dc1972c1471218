(** Online invariant sanitizers for simulator executions.

    A monitor subscribes to the fine-grained execution events of
    {!Sb_sim.Runtime} (or of the message-passing runtime in
    [Sb_msgnet]) and checks, on every event, invariants that the paper
    states but ordinary tests only probe at selected points:

    - {b Commutativity} — protocols annotate RMWs with
      {!Sb_sim.Runtime.rmw_nature}, and the model checker's independence
      relation trusts those annotations.  The monitor runs a
      vector-clock happens-before analysis over triggers, take-effects
      and awaits; whenever two causally {e concurrent} RMWs of a
      declared commuting class ([`Readonly]/[`Readonly] or
      [`Merge]/[`Merge]) take effect back-to-back on one object, it
      re-applies the two RMW descriptions in the swapped order and
      flags any difference in final state or responses.  This catches a
      mis-declared nature — an unsound DPOR reduction — in whatever
      schedule the test happens to run.
    - {b Storage accounting} (Definitions 2 and 6) — the runtime's
      reported storage cost must equal a block-level recomputation over
      live objects, and an object state's [bits] the sum of its blocks
      (metadata such as timestamps must stay excluded).
    - {b Oracle discipline} (Definition 1) — an encoding oracle is a
      function: a block for [(source, index)] has one size, always.
    - {b Quorum discipline} — a full-broadcast await must use a quorum
      reachable despite [f] crashes, and any two quorum sizes used must
      pairwise intersect in [k] objects; the configuration itself must
      satisfy [n >= 2f + k] (cross-checked against the combinatorial
      characterisation in [Sb_quorums] for small [n]).
    - {b Availability / premature GC} — for every [(n - f)]-subset of
      the live objects (a read's possible response set), some
      still-readable write — complete or in flight, but not superseded —
      must be decodable ([k] distinct block indices) from the blocks
      stored in that subset alone.  Catches premature garbage
      collection at the moment of eviction, in {e any} schedule, long
      before a read happens to draw the bad subset and fail regularity.
      Opt-in per algorithm ({!config}[~reg_avail]): safe registers and
      bounded-version registers violate it by design.
    - {b Crash discipline} — at most [f] objects concurrently crashed
      (a recovery frees the budget), no double crashes, no delivery on a
      crashed object, no recovery of a live object, incarnation numbers
      consistent with the recoveries seen.
    - {b Dedup / at-most-once} — a non-readonly RMW must not take
      effect twice on an object within one server incarnation (a
      duplicated or retransmitted request must be absorbed by the
      server's at-most-once table, not re-applied).
    - {b Adversary partition} (Definition 7) — optionally cross-checks
      [Sb_adversary.Ad.classify]'s [F(t)]/[C+]/[C-] sets against the
      monitor's own accounting.

    Violations carry structured rules plus prose; in [Raise] mode they
    abort the run as {!Violation_exn}, which the drivers below turn into
    a shrunk, replayable decision trace. *)

type rule =
  | Commutativity of { obj : int; first : int; second : int }
      (** Tickets [first] then [second] took effect adjacently on [obj];
          swapped application disagrees despite a commuting-class
          declaration. *)
  | Quorum_unsafe of { quorum : int; other : int; need : int }
      (** Two quorum sizes used on the register need not intersect in
          [need] objects. *)
  | Quorum_overdemand of { quorum : int; max_live : int }
      (** A quorum larger than [n - f] can block forever. *)
  | Quorum_short of { quorum : int; got : int }
      (** An await returned with fewer responders than its quorum. *)
  | Config_resilience of { n : int; f : int; k : int }
      (** No quorum system is both available after [f] crashes and
          [k]-intersecting: [n < 2f + k]. *)
  | Accounting_mismatch of { reported : int; recomputed : int }
  | Oracle_asymmetry of { source : int; index : int; bits : int; expected : int }
  | Premature_gc of { sources : int list; k : int }
      (** Some [(n - f)]-subset of the live objects can decode none of
          the still-readable writes [sources] ([k] distinct block
          indices needed). *)
  | Crash_discipline of { detail : string }
  | Adversary_partition of { detail : string }
  | Dedup of { obj : int; ticket : int }
      (** A non-readonly RMW took effect twice on [obj] within one
          server incarnation: the at-most-once table failed to absorb a
          duplicated or retransmitted request.  (Re-application in a
          {e later} incarnation is legal — the table is volatile — and
          is not flagged; idempotent RMWs make it harmless.) *)
  | Storage_floor of { copies : int; d_bits : int; live_full : int; need : int }
      (** The replication floor of the sibling lower bounds
          (arXiv:1705.07212 over read/write base objects,
          arXiv:1805.06265 over Byzantine ones): fewer than
          [copies - crashed] live objects hold a full copy ([>= d_bits]
          stored block bits) of the value.  An emulation below this
          floor has trimmed too eagerly — a crash set within the
          remaining budget can erase the latest value entirely. *)

type violation = { rule : rule; v_time : int; v_detail : string }

exception Violation_exn of violation

val rule_name : rule -> string
(** Stable kebab-case identifier, e.g. ["premature-gc"]. *)

val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string

type mode =
  | Collect  (** Accumulate violations; read them with {!violations}. *)
  | Raise    (** Abort at the first violation with {!Violation_exn}. *)

type config = {
  k : int;  (** Code dimension: blocks needed to decode a value. *)
  reg_avail : bool;  (** Enable the premature-GC/availability monitor. *)
  adversary : (int * int) option;
      (** [(ell_bits, d_bits)]: enable the Definition 7 partition
          cross-check (plain simulator worlds only). *)
  floor : (int * int) option;
      (** [(copies, d_bits)]: enable the replication-floor monitor — at
          every point of the run, live objects holding [>= d_bits]
          stored block bits must number at least [copies] minus the
          objects currently crashed.  Opt-in per algorithm: [(f+1, D)]
          for the read/write and Byzantine register emulations, whose
          sibling bounds prove exactly that floor; coded RMW-model
          algorithms sit below it by design. *)
  byz : (int -> bool) option;
      (** Which objects a Byzantine policy compromises.  Their
          deliveries are exempt from the commutativity and dedup
          monitors (fabricated responses neither mutate state nor
          respect at-most-once — flagging them would flag the lie, not a
          bug); storage accounting and the floor monitor still apply. *)
  mode : mode;
}

val config :
  ?mode:mode ->
  ?reg_avail:bool ->
  ?adversary:int * int ->
  ?floor:int * int ->
  ?byz:(int -> bool) ->
  k:int ->
  unit ->
  config
(** Defaults: [Collect], availability monitor off, no adversary check,
    no floor monitor, nobody compromised. *)

type t

val attach : config -> Sb_sim.Runtime.world -> t
(** Builds a monitor over the world and registers it as an observer.
    Attach before the first step — the monitor assumes it sees every
    event.  Configuration-level violations (resilience) are reported
    immediately.  The monitor never mutates the world; instrumented and
    bare executions of one decision trace stay byte-identical. *)

val attach_mp : config -> Sb_msgnet.Mp_runtime.world -> t
(** The same monitors over the message-passing runtime (servers play the
    object role).  The adversary cross-check is ignored here. *)

val violations : t -> violation list
(** Violations recorded so far, oldest first ([Collect] mode). *)

val events_seen : t -> int
(** Number of execution events dispatched to this monitor. *)

(** {1 Drivers}

    Sanitized execution that turns a violation into a {e shrunk}
    replayable schedule, via [Sb_modelcheck.Shrink]. *)

type report = {
  r_violation : violation;
  r_decisions : Sb_sim.Runtime.decision list;
      (** The decision prefix that produced the violation. *)
  r_shrunk : Sb_sim.Runtime.decision list;
      (** A locally-minimal sub-trace that still violates (possibly via
          a different rule) when replayed against a fresh monitored
          world. *)
}

val violates :
  mk_world:(unit -> Sb_sim.Runtime.world) ->
  config ->
  Sb_sim.Runtime.decision list ->
  bool
(** Replays the trace against a fresh monitored ([Collect]) world and
    reports whether any violation fired — the shrinking predicate. *)

val run :
  ?max_steps:int ->
  config ->
  mk_world:(unit -> Sb_sim.Runtime.world) ->
  Sb_sim.Runtime.policy ->
  (Sb_sim.Runtime.outcome * t, report) result
(** Runs a policy against a fresh monitored world ([Raise] mode),
    recording the decisions taken; on a violation, replays and shrinks.
    [mk_world] must be deterministic. *)

val instrument : config -> Sb_sim.Runtime.world -> unit
(** [Explore.config.instrument]-shaped hook: attaches a [Raise]-mode
    monitor and forgets the handle. *)

val explore_sanitized :
  config ->
  Sb_modelcheck.Explore.config ->
  (Sb_modelcheck.Explore.outcome, report) result
(** Runs the model checker with every world it creates monitored.  A
    monitor violation anywhere in the schedule tree surfaces as a shrunk
    [Error] report; [Ok] is the ordinary exploration outcome (which may
    still contain a consistency violation of its own). *)
