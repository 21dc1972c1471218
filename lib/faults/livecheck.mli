(** The judgement of a live run: the numbers and verdicts [loadgen] and
    [chaos --live] ({!Live}) report, computed from what the SDK
    returns and from the daemons' stats rounds.  Nothing here opens a
    socket, so every check is tested in tier-1. *)

type verdict = {
  label : string;    (** The report line's label, e.g. ["theorem 2"]. *)
  detail : string;   (** The claim, e.g. ["peak 5120 <= ... = 7680"]. *)
  ok : bool;
  failure : string;  (** The failure message when [not ok]. *)
}

(** {1 Latency} *)

type latency = { p50 : float; p95 : float; p99 : float; max : float }

val latency : float list -> latency
(** Nearest-rank percentiles ({!Sb_experiments.Stats.nearest_rank}) of
    the samples; all 0 for none. *)

(** {1 Storage from the stats rounds} *)

val sum_max_bits : Sb_service.Wire.stats list -> int
(** The sum of the servers' high-water marks ([st_max_bits]). *)

val peak_bits : sampled:int -> Sb_service.Wire.stats list -> int
(** [max sampled (sum_max_bits stats)].  The sampled total can miss the
    peak between samples; the sum of maxima adds up peaks the servers
    may have reached at different times, so it can overstate the peak
    they held at once. *)

val per_key_peak_bits : Sb_service.Wire.stats list -> int
(** An upper bound on any one key's fleet-wide peak: per server, the
    largest per-key high-water mark of its shards (its whole
    [st_max_bits] when it reports no shards), summed over servers. *)

val quiescent_bits : Sb_service.Wire.stats list -> int
(** The sum of the servers' current storage ([st_storage_bits]). *)

val fleet_keys : keys:int -> Sb_service.Wire.stats list -> int
(** Live registers across the fleet: [keys] plus one per shard, since
    every shard keeps the pre-sharding [""] register's base state.  An
    unsharded daemon counts as one shard. *)

(** {1 Theorem 2} *)

type bounds = {
  ceiling_bits : int;  (** min((c+1)(2f+k), (2f+k)^2)·D/k. *)
  floor_bits : int;    (** (2f+k)·D/k: the GC floor. *)
}

val bounds : f:int -> k:int -> c:int -> d_bits:int -> bounds
(** Per key, for write concurrency [c] and code dimension [k]. *)

val fleet : bounds -> keys:int -> bounds
(** Both bounds times [keys]. *)

val closed_verdicts : bounds -> peak:int -> quiescent:int -> verdict list
(** One register: the peak stays under the ceiling, and after
    quiescence the storage is back at the floor. *)

val open_verdicts :
  bounds -> keys:int -> per_key_peak:int -> peak:int -> quiescent:int ->
  verdict list
(** [keys] registers: the per-key peak stays under the ceiling, the
    fleet peak under [keys] ceilings, and after quiescence the fleet
    is within twice its floor.  On average that allows one stale
    generation per key: a key whose last operation raced a crash or
    another writer keeps one until its next operation. *)

(** {1 Consistency} *)

type regularity = {
  weak : Sb_spec.Regularity.verdict;
  level : Sb_spec.Regularity.verdict;  (** At the register's own level. *)
  level_name : string;
}

val regularity : Sb_experiments.Catalog.t -> Sb_spec.History.t -> regularity
(** Checks a run's history for weak regularity and for the level the
    register promises ({!Sb_experiments.Catalog.level}). *)

(** {1 Baseline gate} *)

val baseline_gate :
  current:string -> baseline:string -> throughput:float -> p99:float ->
  bool * verdict list
(** [loadgen --check]: whether [ms_per_op] and [p99_ms] in the metrics
    file [current] are within 1.25x of [baseline] (printing one line
    per key; a missing baseline passes), and the baseline's hard gates
    [gate_min_throughput_ops_s] and [gate_max_p99_ms], if it has
    them. *)
