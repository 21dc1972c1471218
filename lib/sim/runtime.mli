(** Deterministic simulator of the paper's system model (Section 2).

    The system consists of [n] base objects supporting atomic
    read-modify-write (RMW) and a set of clients running register
    emulation protocols.  Everything is asynchronous: a protocol
    {e triggers} RMWs, which {e take effect} atomically at a later point
    chosen by the scheduling policy, and awaits responses.  Any [f] base
    objects and any number of clients may crash.

    Protocol code runs in direct style on OCaml effects: {!trigger}
    registers a pending RMW and returns a ticket immediately; {!await}
    suspends the client until a quorum of responses has been scheduled.
    A {e policy} — the environment/adversary of the paper — picks every
    step: which pending RMW takes effect next, which client gets to run,
    and which components crash.  The lower-bound adversary Ad
    (Definition 7) is one such policy, implemented in [Sb_adversary]. *)

(** {1 Protocol vocabulary}

    RMWs and their responses, operations, algorithms, the
    [Trigger]/[Await] effects protocol code performs and the execution
    events observers receive — defined once in {!Engine.Proto} and shared
    with every transport that interprets the effects.  This runtime is
    one of them: {!trigger} registers a pending RMW, which takes effect
    when the policy delivers it. *)

include module type of struct
  include Engine.Proto
end

val trigger :
  ?nature:rmw_nature ->
  ?desc:Rmwdesc.t ->
  obj:int -> payload:Sb_storage.Block.t list -> rmw -> int
(** Triggers an RMW on base object [obj] and returns its ticket without
    waiting.  [payload] declares the code blocks carried by the RMW's
    parameters, which count towards the in-flight storage cost and the
    per-operation contribution of Definition 6.  [nature] defaults to
    [`Mutating]; see {!rmw_nature}.  [desc], when given, must satisfy
    [Rmwdesc.apply desc ≡ rmw] — the registers guarantee this by
    constructing the closure from the description. *)

val await : tickets:int list -> quorum:int -> (int * resp) list
(** Suspends until at least [quorum] of [tickets] have responses, then
    returns the [(object, response)] pairs received so far.  Responses to
    tickets outside the list are ignored (stragglers from earlier rounds
    are never delivered twice).

    Contract: a ticket must not be awaited again after an await covering
    it has returned — its undelivered read-only RMWs are dropped at that
    point.  Raises [Invalid_argument] on such re-use. *)

val broadcast_rmw :
  ?nature:rmw_nature ->
  ?desc:(int -> Rmwdesc.t) ->
  n:int -> payload:(int -> Sb_storage.Block.t list) -> (int -> rmw) -> int list
(** [broadcast_rmw ~n ~payload f] triggers [f i] on every object
    [i < n]; the standard "invoke RMWs on all base objects in parallel"
    idiom of the paper's algorithms.  [nature] and [desc] as in
    {!trigger}. *)

val broadcast_desc :
  ?nature:rmw_nature ->
  n:int ->
  payload:(int -> Sb_storage.Block.t list) -> (int -> Rmwdesc.t) -> int list
(** [broadcast_desc ~n ~payload d] triggers [Rmwdesc.apply (d i)] on
    every object [i < n] with [d i] attached as the description —
    the transport-agnostic broadcast the registers use.  [nature]
    defaults per-object to [Rmwdesc.default_nature (d i)]. *)

(** {1 Worlds} *)

type world

type client_status =
  | Idle        (** No outstanding operation. *)
  | Parked      (** Awaiting a quorum that is not yet satisfied. *)
  | Runnable    (** Awaiting a quorum that is satisfied; a [Step] resumes it. *)
  | Crashed

type pending_info = {
  ticket : int;
  p_obj : int;
  p_client : int;
  p_op : op;
  payload_bits : int;
  p_desc : Rmwdesc.t option;
  p_nature : rmw_nature;
  triggered_at : int;
}

val create :
  ?seed:int ->
  ?metrics:bool ->
  ?base_model:Sb_baseobj.Model.t ->
  ?byz:Sb_baseobj.Model.byz_policy ->
  algorithm:algorithm ->
  n:int ->
  f:int ->
  workload:Trace.op_kind list array ->
  unit ->
  world
(** A fresh world with [n] base objects and one client per workload
    entry; client [i] will perform the operations of [workload.(i)] in
    order, each invoked when the policy steps an idle client.
    [metrics] (default [true]) controls the per-step storage-maxima
    accounting behind {!max_bits_objects}/{!max_bits_total}; the model
    checker re-executes hundreds of millions of steps and turns it off,
    leaving those maxima at [0].

    [base_model] (default [Rmw]) selects the base-object interface
    ({!Sb_baseobj.Model.t}).  Under [Read_write], triggers are gated on
    their operation class (snapshot and blind overwrite only — a
    merge-class description raises [Sb_baseobj.Model.Error]), and
    delivery is per-(client, object) FIFO: each cell behaves like an
    atomic register behind a sequential channel, the sibling papers'
    interface (arXiv:1705.07212).  Under [Byzantine], [byz] supplies the
    seeded lying policy; [create] checks the policy fits the model's
    budget ({!Sb_baseobj.Model.check_policy}) but deliberately does not
    check [budget <= f] — negative controls run over-budget adversaries
    mechanically. *)

val enqueue_op : world -> client:int -> Trace.op_kind -> unit
(** Appends an operation to a live client's queue.  Lets layered
    services (e.g. the key-value store in [Sb_kv]) feed work to a world
    incrementally instead of declaring it all up front.  Raises
    [Invalid_argument] if the client is crashed or unknown. *)

(** {2 Introspection (for policies, adversaries and accounting)} *)

val time : world -> int
val n_objects : world -> int
val f_tolerance : world -> int

val base_model : world -> Sb_baseobj.Model.t
(** The base-object model this world was created with. *)

val byz_compromised : world -> int -> bool
(** Whether the Byzantine policy (if any) compromises object [o] —
    [false] everywhere without a policy.  Monitors use this to scope
    honest-object invariants. *)

val obj_state : world -> int -> Sb_storage.Objstate.t
val obj_alive : world -> int -> bool
val obj_bits : world -> int -> int
(** Block bits currently stored at an object (0 if crashed). *)

val client_count : world -> int
val client_status : world -> int -> client_status
val client_has_work : world -> int -> bool
(** Idle with a non-empty operation queue. *)

val pending_rmws : world -> pending_info list
(** All triggered-but-not-yet-effective RMWs, oldest first, including
    those stuck on crashed objects. *)

val outstanding_ops : world -> op list
(** Operations invoked but not returned, by live clients. *)

val all_ops : world -> op list
(** Every operation invoked so far, in invocation order. *)

val max_read_rounds : world -> int
(** The largest protocol-reported round count over all read operations
    invoked so far (0 if none). *)

val storage_bits_objects : world -> int
(** Definition 2 restricted to live base objects. *)

val storage_bits_total : world -> int
(** Live base objects plus in-flight RMW payloads of live clients: the
    measure the lower bound is stated against (channels count,
    Section 3.2). *)

val op_contribution : world -> op -> int
(** [||S(t, w)||] (Definition 6): distinct-index block bits sourced from
    [w] in live object states and in pending payloads of clients other
    than [w]'s own. *)

val max_bits_objects : world -> int
val max_bits_total : world -> int
(** Running maxima of the two storage measures over the run so far — the
    paper's storage cost is the max over all times. *)

val trace : world -> Trace.t

val invoke_events : world -> int
val return_events : world -> int
(** Number of [Invoke] (resp. [Return]) events emitted so far.  The
    model checker compares these across a [Step] to classify the step's
    history visibility — none (a pure round transition), invocation,
    return, or both — which widens its independence relation: the
    consistency checkers consume histories only through the precedence
    relation ("return before invocation"), so swapping two adjacent
    invocations, or two adjacent returns, of distinct clients preserves
    every verdict. *)

val last_step_awaits : world -> int list
(** The tickets whose responses the most recent [Step] decision read or
    started awaiting (consumed awaits plus awaits entered).  A [Deliver]
    of any other ticket cannot change that step's behaviour, which is
    what lets the model checker treat a delivery and a same-client step
    as independent when the ticket is not among them. *)

(** {1 Execution observers (sanitizer hooks)}

    Monitors (e.g. [Sb_sanitize]) subscribe to the {!event} stream.
    With no observers registered the emission sites cost one list check
    and allocate nothing. *)

val add_observer : world -> (event -> unit) -> unit
(** Registers an event sink, called on every event in registration
    order.  Observers must not mutate the world.  Observers are not part
    of the {!fingerprint}/{!audit_key} state, so instrumented and bare
    replays of the same decision trace reach identical digests. *)

(** {1 Scheduling} *)

type decision =
  | Deliver of int      (** Let pending RMW [ticket] take effect and respond. *)
  | Step of int         (** Let client [c] act: invoke its next queued
                            operation, or resume from a satisfied await. *)
  | Crash_obj of int
  | Crash_client of int
  | Halt                (** Stop the run. *)

type policy = world -> decision
(** The environment: called once per step with the current world. *)

val deliverable : world -> pending_info list
(** Pending RMWs on live objects, oldest first. *)

val steppable : world -> int list
(** Clients that a [Step] would advance. *)

val step : world -> decision -> bool
(** Executes one decision; returns [false] if the decision was [Halt].
    Raises [Invalid_argument] on decisions that are not enabled (e.g.
    delivering an unknown ticket or stepping a parked client). *)

type outcome = {
  world : world;
  steps : int;
  halted : bool;  (** The policy said [Halt] (otherwise the run ended by
                      quiescence or by exhausting [max_steps]). *)
  quiescent : bool;  (** No enabled actions remained. *)
}

val run : ?max_steps:int -> world -> policy -> outcome
(** Drives the world with the policy until the policy halts, no action is
    enabled, or [max_steps] (default [1_000_000]) decisions have been
    executed. *)

(** {2 Built-in policies} *)

val random_policy : ?crash_objs:(int * int) list -> seed:int -> unit -> policy
(** Picks uniformly among enabled actions (fair with probability 1).
    [crash_objs] optionally schedules object crashes as [(time, obj)]
    pairs. *)

val fifo_policy : unit -> policy
(** Deterministic: always delivers the oldest deliverable RMW; otherwise
    steps the lowest-numbered steppable client.  Produces an almost
    synchronous, failure-free run. *)

(** {2 Systematic exploration support}

    The model checker in [Sb_modelcheck] drives a world through {e all}
    schedules instead of one policy-chosen schedule.  It needs to ask
    which decisions are enabled without trying them and to re-execute a
    recorded decision trace; its determinism lint and the independence
    audit in [Sb_sanitize] also compare the states two executions
    reach. *)

val decision_enabled : world -> decision -> bool
(** Would {!step} accept this decision right now?  Exactly the
    [Invalid_argument] conditions of {!step}, as a predicate: a [Deliver]
    needs a pending RMW on a live object, a [Step] a steppable client, a
    [Crash_obj] a live object with crash budget ([< f]) remaining, a
    [Crash_client] a live client.  [Halt] is always enabled. *)

val replay : world -> decision list -> int
(** Re-executes a decision trace against a (fresh) world: applies each
    decision in order, {e skipping} any that is not enabled, and returns
    the number applied.  Skipping rather than failing is what makes
    counterexample shrinking work: deleting one decision from a trace may
    orphan later ones (a [Deliver] whose trigger never happened), and
    those simply fall away.  [Halt] decisions are skipped too.  Replaying
    the unmodified trace of a run against a world created with the same
    arguments reproduces it exactly — all decisions apply. *)

val fingerprint : world -> string
(** A digest (hex) of the logical world state: object states, liveness,
    client statuses/queues/waits, pending RMWs, responses, and allocation
    counters — everything observable, excluding closures and the clock.
    Two runs of the same decision trace from equal initial worlds must
    produce equal fingerprints; the determinism lint in [Sb_modelcheck]
    enforces this for every shipped algorithm. *)

val audit_key : world -> string
(** A digest (hex) of the world's behavioural state up to renaming of
    tickets and ops, together with the operation events emitted so far
    in a verdict-preserving normal form.

    The state part is everything that determines future behaviour:
    object states and liveness, each client's status, queue, current op
    and awaited tickets, and the live RMWs and responses.  Live tickets
    are named canonically by (client, op, object, allocation rank), and
    the k-th op of client [c] is named ["c_k"], so allocation order
    does not leak into the key.  Each client's fiber-local state is
    captured by its consumed-response log and prng (a fiber is
    deterministic in the responses it has consumed).  Clocks, allocation
    counters and metrics such as round counters and storage maxima are
    deliberately left out.

    The history part is the operation-event word without timestamps,
    rewritten to the lexicographic normal form of its trace-equivalence
    class under the commutation the checkers justify: invoke/invoke and
    return/return adjacencies commute, crash markers commute with
    everything (no checker consumes them), and only an invoke/return
    adjacency is order-significant (swapping it flips a precedence
    edge).  Two worlds get equal audit keys exactly when they agree on
    behavioural state {e and} on every order-based consistency verdict —
    the ground truth the independence audit in [Sb_sanitize] compares
    against, since the explorer deliberately treats
    invocation/invocation and return/return swaps as independent. *)

(** {2 Decision serialisation}

    A stable one-line text form (["deliver 3"], ["step 1"],
    ["crash-obj 2"], ["crash-client 0"], ["halt"]) so shrunk
    counterexample traces can be printed, stored, and replayed through
    [spacebounds explore --replay]. *)

val decision_to_string : decision -> string
val decision_of_string : string -> (decision, string) result
val pp_decision : Format.formatter -> decision -> unit
