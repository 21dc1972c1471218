(** Machine-checking the model checker's independence relation.

    The sleep-set reduction in [Sb_modelcheck.Explore] is sound only if
    {!Sb_modelcheck.Explore.independent} declares two actions
    independent exclusively when, from any state where both are enabled,
    executing them in either order (a) keeps both enabled and (b) reaches
    the same behavioural state up to verdict-preserving reordering of
    the operation history ([Runtime.audit_key], which names ops
    canonically and normalises the event word, because the relation
    deliberately permits invocation/invocation and return/return swaps
    that permute the word and renumber ops without changing any
    checker's verdict).  The relation in turn trusts the [rmw_nature]
    annotations protocols attach to their RMWs — a wrong [`Merge]
    declaration silently prunes real schedules.

    This module checks the definition directly: it enumerates reachable
    states of a configuration (depth-first over decision prefixes,
    deduplicated by audit key — depth-first, because conflicting pairs
    are often co-enabled only deep in a schedule, e.g. two ABD writers
    both reaching their round-2 stores), and for every co-enabled pair
    the relation declares independent, replays both orders from a fresh
    world and compares the resulting keys and enabledness.  Any
    divergence is reported with its replayable prefix.

    A clean audit over a configuration is evidence, not proof — it
    covers the reachable states of {e that} configuration up to
    [max_states]; the point is that the litmus configurations exercising
    every declared commuting class stay green in CI, and that seeded
    bugs (a mis-declared register, a deliberately weakened [relation])
    are caught. *)

type divergence = {
  d_prefix : Sb_sim.Runtime.decision list;
      (** Replayable decisions reaching the offending state. *)
  d_first : Sb_sim.Runtime.decision;
  d_second : Sb_sim.Runtime.decision;
  d_kind : [ `State  (** Both orders run, final keys differ. *)
           | `Disables  (** One order disables the other action. *)
           | `Error of string ];
}

type result = {
  a_states : int;  (** Distinct states expanded. *)
  a_pairs : int;  (** Declared-independent co-enabled pairs replayed. *)
  a_truncated : bool;  (** Stopped at [max_states] before exhausting. *)
  a_divergences : divergence list;
}

val ok : result -> bool
val pp_divergence : Format.formatter -> divergence -> unit

val audit :
  ?relation:(Sb_modelcheck.Explore.action -> Sb_modelcheck.Explore.action -> bool) ->
  ?max_states:int ->
  Sb_modelcheck.Explore.config ->
  result
(** Audits [relation] (default: the shipped
    {!Sb_modelcheck.Explore.independent}) over the configuration's
    reachable states.  [max_states] (default [500]) bounds the number of
    states expanded; the explorer itself ignores [cfg.bound] and
    [cfg.dpor] — the audit walks the raw state graph.  Passing a
    deliberately weakened [relation] is the mutation test that proves
    the audit has teeth. *)
