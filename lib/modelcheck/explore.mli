(** Systematic schedule exploration for [Sb_sim.Runtime] worlds.

    The paper's correctness claims are statements over {e every}
    asynchronous schedule.  This module enumerates all of them, for a
    bounded configuration, instead of sampling: a depth-first search over
    {e decision traces} (which pending RMW takes effect, which client
    steps, which component crashes), re-executing each prefix against a
    fresh deterministic world, and machine-checking every complete
    history with a [Sb_spec.Regularity] checker.

    {b Partial-order reduction.}  Most interleavings differ only in the
    order of commuting actions — above all, RMW deliveries on distinct
    base objects.  The search carries {e sleep sets} (Godefroid): after a
    subtree for action [a] is done, sibling subtrees do not re-explore
    schedules that merely reorder [a] past independent actions.  With the
    independence relation of {!section-independence} below, every
    Mazurkiewicz equivalence class of schedules is still explored at
    least once, and the class representative has the same history
    precedence relation — so no consistency verdict is lost.

    The search is stateless: it keeps only the current root-to-leaf
    path, so its memory is bounded by the schedule depth whatever the
    size of the space.

    {b Bounding.}  For configurations too large to exhaust, {!bound}
    offers delay bounding (explore schedules reachable from the
    deterministic fifo baseline with at most [d] deviations) and
    preemption bounding (at most [p] switches away from a still-runnable
    client), in the spirit of CHESS.  Bounded modes are heuristic
    coverage — only [Exhaustive] is a proof up to the configuration
    bound. *)

(** {2:independence Independence}

    Actions are independent iff they commute and their swap leaves the
    operation history's precedence relation intact:

    - deliveries on distinct objects always; on the same object when
      both RMWs are read-only, or both are declared merge-class
      ([Runtime.rmw_nature]);
    - a delivery and a client step, unless the step consumes or enters
      an await covering that very ticket ([Runtime.last_step_awaits]);
    - two steps of distinct clients, unless one emits a return and the
      other an invocation: the checkers consume histories only through
      the precedence relation "return before invocation", so only that
      pair of events must keep its relative order (invisible round
      transitions, invocation/invocation and return/return swaps all
      preserve every verdict);
    - an object crash against every step and other-object deliveries.

    A step that emits a return is dependent on a distinct client's step
    emitting an invocation (their order is a precedence edge), crashes
    are mutually dependent (shared crash budgets), and anything
    client-local is dependent on that client's crash. *)

type bound =
  | Exhaustive
  | Delay of int  (** ≤ d deviations from the fifo baseline schedule. *)
  | Preempt of int  (** ≤ p preemptions of a still-steppable client. *)

type config = {
  algorithm : Sb_sim.Runtime.algorithm;
  n : int;
  f : int;
  workload : Sb_sim.Trace.op_kind list array;
  base_model : Sb_baseobj.Model.t;
      (** Base-object model every explored world enforces.  Under
          [Read_write] the per-(client, object) FIFO discipline shapes
          enabledness, which the search sees through
          [Runtime.decision_enabled] like any other constraint; same-
          object deliveries are already dependent, so the independence
          relation needs no change. *)
  byz : Sb_baseobj.Model.byz_policy option;
      (** Byzantine behaviour for compromised objects.  Policies must be
          pure functions of stable inputs (see
          [Sb_baseobj.Model.byz_policy]) — replaying a decision prefix
          must reach the same world every time. *)
  seed : int;  (** World seed; replays always reuse it. *)
  initial : bytes;  (** The register's initial value [v0]. *)
  check : Sb_spec.History.t -> Sb_spec.Regularity.verdict;
      (** The property every explored history must satisfy. *)
  dpor : bool;  (** Sleep-set pruning on/off (off = naive enumeration). *)
  bound : bound;
  crash_objs : int;  (** Max object crashes the explorer may inject. *)
  crash_clients : int;  (** Max client crashes the explorer may inject. *)
  max_schedules : int;  (** Stop after this many schedules; 0 = no cap. *)
  stop_on_violation : bool;
  lint : bool;
      (** Re-execute every complete schedule from its decision trace and
          count divergences (trace bytes or state fingerprint) — catches
          hidden nondeterminism in protocol code. *)
  on_history : (Sb_sim.Runtime.decision list -> Sb_spec.History.t -> unit) option;
      (** Called on every complete schedule, e.g. to collect the set of
          values reads can return. *)
  instrument : (Sb_sim.Runtime.world -> unit) option;
      (** Called on every fresh world the search creates (the root, each
          backtracking replay, lint re-executions) — the hook point for
          attaching [Sb_sanitize] monitors via [Runtime.add_observer].
          When set, any exception a monitor raises while a decision
          executes is re-raised as {!Instrumented_failure} carrying the
          decision prefix that produced it. *)
}

exception Instrumented_failure of exn * Sb_sim.Runtime.decision list
(** A monitor attached through [instrument] raised during the search.
    Carries the monitor's exception and the decision trace up to and
    including the offending decision — replayable against a fresh
    instrumented world, and shrinkable like any failing trace. *)

val config :
  ?seed:int ->
  ?dpor:bool ->
  ?bound:bound ->
  ?crash_objs:int ->
  ?crash_clients:int ->
  ?max_schedules:int ->
  ?stop_on_violation:bool ->
  ?lint:bool ->
  ?base_model:Sb_baseobj.Model.t ->
  ?byz:Sb_baseobj.Model.byz_policy ->
  ?on_history:(Sb_sim.Runtime.decision list -> Sb_spec.History.t -> unit) ->
  ?instrument:(Sb_sim.Runtime.world -> unit) ->
  algorithm:Sb_sim.Runtime.algorithm ->
  n:int ->
  f:int ->
  workload:Sb_sim.Trace.op_kind list array ->
  initial:bytes ->
  check:(Sb_spec.History.t -> Sb_spec.Regularity.verdict) ->
  unit ->
  config
(** Defaults: [seed 1], [dpor true], [Exhaustive], no crashes, no
    schedule cap, stop on the first violation, no lint, [Rmw] base
    model, nobody Byzantine, no instrumentation. *)

(** {2 The independence relation, exposed}

    The soundness of the sleep-set reduction rests entirely on
    {!independent}.  It is exported — together with the action vocabulary
    it is stated over — so that [Sb_sanitize.Audit] can machine-check it:
    replay both orders of every pair the relation declares independent
    and flag state or enabledness divergence.  Treat these as read-only
    inspection hooks; the search itself constructs its own actions. *)

type kind = KDeliver | KStep | KCrashObj | KCrashClient

type action = {
  dec : Sb_sim.Runtime.decision;
  kind : kind;
  a_obj : int;  (** Object/server involved; [-1] for client-only actions. *)
  a_client : int;  (** Client involved; [-1] for object crashes. *)
  a_nature : Sb_sim.Runtime.rmw_nature;
      (** For a [KDeliver]: the pending RMW's declared nature. *)
  mutable a_inv : bool;  (** The step emitted an [Invoke] (observed). *)
  mutable a_ret : bool;  (** The step emitted a [Return] (observed). *)
  mutable a_awaited : int list;
      (** For a [KStep]: tickets the step read or started awaiting. *)
}

val independent : action -> action -> bool
(** The relation documented at {!section-independence}.  Step attributes
    ([a_inv]/[a_ret]/[a_awaited]) must have been observed by executing
    the action ({!execute_observing}) for the verdict to be meaningful. *)

val natures_commute :
  Sb_sim.Runtime.rmw_nature -> Sb_sim.Runtime.rmw_nature -> bool
(** The nature-level core of {!independent}'s same-object
    delivery/delivery case: two deliveries on the same object are
    treated as commuting exactly when this holds of their declared
    natures.  Exported so the static analyzer ([Sb_analyze.Certify])
    can discharge every commutation it claims against the enumerated
    RMW algebra — the declarations stop being trusted axioms. *)

val enabled_actions :
  config -> Sb_sim.Runtime.world -> obj_left:int -> cli_left:int -> action list
(** The enabled actions of [w] in deterministic baseline order, as the
    search would construct them ([obj_left]/[cli_left] are the remaining
    crash budgets; pass [0] to exclude crash actions). *)

val execute_observing : Sb_sim.Runtime.world -> action -> unit
(** Executes the action's decision on [w] and records the step-visibility
    attributes the independence relation consults, exactly as the search
    does when it first explores the action. *)

type stats = {
  schedules : int;  (** Complete schedules whose history was checked. *)
  transitions : int;  (** Decisions executed by the search itself. *)
  replayed_transitions : int;  (** Decisions re-executed for backtracking/lint. *)
  sleep_skips : int;  (** Branches pruned by sleep sets (DPOR). *)
  bound_skips : int;  (** Branches pruned by the delay/preemption bound. *)
  max_depth : int;
  violations : int;
  lint_failures : int;
}

type violation = {
  v_decisions : Sb_sim.Runtime.decision list;
      (** The failing schedule, replayable via [Runtime.replay] (and
          shrinkable via {!Shrink.shrink}). *)
  v_history : Sb_spec.History.t;
  v_counterexample : Sb_spec.Regularity.counterexample;
}

type outcome = {
  stats : stats;
  first_violation : violation option;
  complete : bool;
      (** The whole (bounded) schedule space was explored — [false] when
          stopped by a violation or by [max_schedules]. *)
}

val explore : config -> outcome
(** Runs the search.  Deterministic: same config, same outcome. *)

(** {2 Subtree tasks}

    The hooks the parallel driver ([Sb_parallel.Pexplore]) is built on.
    A {!task} is a node of the schedule tree packaged for independent
    exploration: the decision prefix reaching it, the sleep set it
    inherits from the actions its ancestors explored before it, and its
    scheduling context (remaining bound budget, crash budgets, last
    stepped client).  {!expand} splits a task into child tasks — one per
    explorable action of its node, each child's sleep set extended by
    the same propagation rule the sequential search uses — so the
    children's schedule sets partition the parent's.  Tasks can then be
    explored in any order, on any domain, and their outcomes merged in
    expansion order reproduce the sequential totals. *)

type task

val root_task : config -> task
(** The whole search as a single task: [explore cfg] is
    [explore_task cfg (root_task cfg)]. *)

val task_depth : task -> int
(** Length of the task's decision prefix (its node's depth). *)

type expansion = {
  x_tasks : task list;
      (** Children in the sequential exploration order.  Empty when the
          node is a leaf ([x_leaf]) or every action was pruned. *)
  x_leaf : bool;
      (** The node has no enabled actions at all: the task is a complete
          schedule and must still be explored (checked), not dropped. *)
  x_transitions : int;  (** Actions executed while expanding. *)
  x_replayed : int;  (** Prefix decisions re-executed while expanding. *)
  x_sleep_skips : int;
  x_bound_skips : int;
  x_depth_seen : int;
      (** Deepest node materialised; covers children whose own subtrees
          are empty when merging [max_depth]. *)
}

val expand : config -> task -> expansion
(** Expands the task's node one level, executing each explorable action
    on a fresh prefix replay to observe the attributes child sleep sets
    depend on.  Deterministic, and independent of how the resulting
    tasks are later scheduled. *)

val explore_task : ?abort:(unit -> bool) -> config -> task -> outcome
(** Runs the search over one task's subtree.  [stats] are the subtree's
    own (depths relative to the task's node, prefix replays included in
    [replayed_transitions]); violation decision lists are full paths
    including the task prefix.  [abort] is polled between schedules —
    when it returns [true] the search stops as if by [Stop] (used to
    cancel subtrees whose results a violation already supersedes; an
    aborted outcome must be discarded, not merged). *)

val pp_stats : Format.formatter -> stats -> unit

val pp_decisions : Format.formatter -> Sb_sim.Runtime.decision list -> unit
(** One numbered decision per line, in [Runtime.decision_to_string]
    syntax — paste-able into [spacebounds explore --replay]. *)
