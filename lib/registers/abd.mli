(** ABD-style replicated register (Attiya, Bar-Noy, Dolev [4]).

    The classic replication baseline the paper compares against: every
    base object stores one full timestamped replica in its [Vf] field, so
    the storage cost is a constant [n * D] bits independent of
    concurrency — the O(fD) end of the paper's trade-off.

    Writes take two rounds (read timestamps, then store the replica under
    a higher timestamp); reads take one round and return the
    highest-timestamped replica seen, with no write-back, which yields a
    {e regular} (not atomic) MWMR register, matching the paper's setting.
    Both operations are wait-free. *)

val make : Common.config -> Sb_sim.Runtime.algorithm
(** The codec in the configuration must be {!Sb_codec.Codec.replication}
    (i.e. [k = 1]); raises [Invalid_argument] otherwise. *)

val make_broken : ?quorum_slack:int -> Common.config -> Sb_sim.Runtime.algorithm
(** Test-only: ABD with the {e write} quorum undersized by [quorum_slack]
    (default 1).  A write can then complete after reaching fewer than
    [n - f] objects, so a later read may miss it entirely and return a
    stale value — a seeded regularity violation for exercising the model
    checker's violation detection and counterexample shrinking.  Raises
    [Invalid_argument] if [quorum_slack < 1]. *)

val make_misdeclared_merge : Common.config -> Sb_sim.Runtime.algorithm
(** Test-only: ABD whose store round still {e declares} [`Merge] but
    applies a last-writer-wins overwrite that ignores timestamps, so two
    concurrent stores on one object do not commute.  The declared
    commutativity is exactly what the model checker's independence
    relation trusts, making this the seeded control for the
    [Sb_sanitize] commutativity monitor and independence audit. *)
