(** Consistency checkers for MWMR register histories.

    Three conditions from the paper (Appendix A, following Lamport [12]
    and Shao et al. [14]):

    - {b weak regularity} (MWRegWeak) — for every returned read there is
      a linearization of that read together with all writes.  This is the
      condition the lower bound is proved against.
    - {b strong regularity} (MWRegWO) — weak regularity, plus all reads
      agree on the order of the writes relevant to them; equivalently,
      there is a single linearization [sigma] of the writes such that
      every read is legal with respect to [sigma].  This is what the
      paper's adaptive algorithm guarantees.
    - {b strong safety} — there is a linearization of the writes into
      which every read {e with no concurrent writes} can be inserted
      legally; reads overlapping writes may return anything.  This is
      what the Appendix-E algorithm guarantees.

    A read returning value [v] is legal with respect to a write order
    [sigma] when [v]'s write [w] satisfies: [w] does not begin after the
    read returns, and every write that completes before the read is
    invoked is ordered no later than [w] in [sigma].  Reads returning the
    initial value [v0] are legal when no write completes before them.

    The checkers are exact: they search for the required write order by
    topologically sorting the constraint graph induced by real-time
    precedence and by each read's return value, and report a structured
    {!counterexample} on failure — machine-readable so that the model
    checker in [Sb_modelcheck] can shrink failing schedules and tests can
    assert the exact failure mode, not just its message. *)

(** Why a history fails a consistency condition.  Write operations are
    named by op id; [0] is the virtual initial write of [v0]. *)
type reason =
  | Bottom_read  (** A completed read returned ⊥. *)
  | Unwritten_value  (** The returned value matches no write and is not [v0]. *)
  | Ambiguous_value
      (** The returned value was written more than once, so attribution —
          and hence checking — is impossible; use distinct values. *)
  | Stale_initial of { completed_write : int }
      (** The read returned [v0] although [completed_write] finished
          before the read was invoked. *)
  | Future_write of { write : int }
      (** The read returned the value of a write invoked only after the
          read had already returned. *)
  | Intervening_write of { returned : int; between : int }
      (** The read returned [returned], but [between] begins after
          [returned] completes and completes before the read begins — no
          linearization can order the read after [returned]. *)
  | Order_cycle of int list
      (** No single write order serves all reads: the constraint graph
          (real-time precedence + per-read ordering demands) has this
          cycle, given as a node path [u; ...; u]. *)
  | Not_linearizable
      (** The complete Wing–Gong search found no linearization — a
          definitive refutation of atomicity (atomicity only). *)
  | Search_budget of { explored : int }
      (** The Wing–Gong search hit its state budget before completing —
          {e inconclusive}, not a refutation; [explored] is the number of
          search states visited (atomicity only). *)

type counterexample = {
  cx_read : int option;
      (** The offending read's op id, when the failure is tied to one read. *)
  cx_reason : reason;
  cx_order : int list;
      (** A candidate write order (op ids, [0] first) that the checker
          tried — invocation order, which extends real-time precedence —
          empty when no single order is even a candidate. *)
  cx_edge : (int * int) option;
      (** The violated constraint edge [(u, v)]: the history requires [u]
          to precede [v] in the common write order, but it cannot. *)
}

type verdict = Ok | Violation of counterexample

val ok : verdict -> bool

val check_weak : History.t -> verdict
(** MWRegWeak: each returned read is checked independently. *)

val check_strong : History.t -> verdict
(** MWRegWO: additionally requires one write order serving all reads. *)

val check_safe : History.t -> verdict
(** Strong safety: only reads without concurrent writes are constrained. *)

val check_atomic : ?budget:int -> History.t -> verdict
(** Linearizability of the whole history (reads and writes).  None of
    the paper's algorithms promise this — ABD without read write-back is
    regular but not atomic — but the checker is useful for documenting
    {e why} (new/old inversions show up as violations).

    [budget] (default [5_000_000]) caps the number of search states the
    (worst-case exponential) Wing–Gong search may visit.  When the cap
    is hit the verdict is a violation with reason {!Search_budget} —
    "gave up", never to be conflated with the definitive
    {!Not_linearizable} that only a completed search reports. *)

val to_string : counterexample -> string
(** One-line rendering: reason, candidate order, violated edge. *)

val pp_counterexample : Format.formatter -> counterexample -> unit
val pp_verdict : Format.formatter -> verdict -> unit
