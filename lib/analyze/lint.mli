(** Source-level determinism and protocol-hygiene lint.

    A [compiler-libs] [Ast_iterator] pass over the library sources that
    enforces, {e statically}, the hygiene rules the runtimes' determinism
    depends on.  The model checker's determinism lint ([explore --lint])
    catches nondeterminism {e per execution}; this pass catches the
    sources of it {e per call site}, before any execution runs:

    - {b nondet} — no process-global randomness ([Random.*]; protocol
      code must draw from the world's seeded [Sb_util.Prng]) and no
      wall-clock reads ([Unix.time]/[Unix.gettimeofday]/[Sys.time]) in
      protocol cores: both make replays diverge from recordings.
    - {b poly-compare} — no polymorphic [compare]/[Hashtbl.hash], and no
      [=]/[<>] on identifiers annotated with desc/state/timestamp types:
      structural comparison on types that later grow functional or
      cyclic fields fails at runtime, and polymorphic hashes are not
      stable keys across representations.
    - {b marshal} — no [Marshal.*]: its output depends on the in-memory
      representation, so it is no format to persist or to compare across
      builds.  The two legitimate uses are in-process digests whose
      compared sides always come from the same build:
      [Runtime.fingerprint] (the replay lint) and [Runtime.audit_key]
      (the independence audit).
    - {b hashtbl-order} — no [Hashtbl.iter]/[Hashtbl.fold] in protocol
      cores unless the accumulation is order-insensitive: iteration
      order is deterministic only for identical insertion histories, so
      order-sensitive folds feeding traces or state hashes make
      logically equal worlds diverge.
    - {b wire-catchall} — in [lib/service], no catch-all [_] arm in a
      [match] on a wire discriminant (an identifier mentioning "tag" or
      "version"): a codec that silently absorbs unknown tags turns the
      next schema bump into misdecoding instead of a typed reject.
      Decoders must bind the discriminant and raise/return on the
      unknown value.

    Findings at sites that are individually justified are suppressed
    in-source with a pragma comment on the same or the preceding line:

    {[ (* sb-lint: allow hashtbl-order — commutative sum *) ]}

    The pragma names one rule and must carry a reason; it is recorded in
    the report (and the JSON output) rather than discarded, so every
    exemption stays reviewable. *)

type rule = Nondet | Poly_compare | Marshal | Hashtbl_order | Wire_catchall

val all_rules : rule list
val rule_name : rule -> string
val rule_of_name : string -> rule option

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : rule;
  f_message : string;
  f_allowed : string option;
      (** [Some reason] when an [sb-lint: allow] pragma covers the site;
          such findings are reported but do not fail the build. *)
}

type report = {
  rp_files : int;  (** Files scanned. *)
  rp_findings : finding list;  (** All findings, pragma-suppressed included. *)
  rp_errors : (string * string) list;  (** [(file, error)] parse failures. *)
}

val active : finding -> bool
(** Not covered by a pragma — i.e. a build-failing finding. *)

val failures : report -> finding list
(** The active findings of a report. *)

val lint_source : ?rules:rule list -> filename:string -> string -> finding list
(** Lints one compilation unit given as a string.  [rules] defaults to
    {!all_rules}; pass the scoped subset to reproduce what {!lint_tree}
    applies to the file's path.  Raises nothing: unparseable input
    returns a single finding-free list and is reported by {!lint_tree}
    through [rp_errors] — use {!lint_file} for the error. *)

val lint_file : ?rules:rule list -> string -> (finding list, string) result

val rules_for : string -> rule list
(** The rules {!lint_tree} applies to a repo-relative path: the
    determinism and ordering rules on protocol cores ([lib/sim],
    [lib/registers], [lib/storage], [lib/quorums], [lib/msgnet],
    [lib/spec], [lib/kv], and the transport-agnostic service cores),
    [hashtbl-order] additionally on the sanitizers, [wire-catchall] on
    [lib/service], and [marshal] everywhere. *)

val lint_tree : root:string -> report
(** Scans every [*.ml] under [root] (skipping [_build] and dot
    directories), applying {!rules_for} per path. *)

val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit
