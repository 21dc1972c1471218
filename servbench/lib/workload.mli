(** The benchmark's workloads and the inputs a seed generates for them.

    Every workload runs the paper's adaptive register over a forked
    daemon hosting all [n = 2f + k] servers with {!shards} shards each,
    driven by one SDK engine batching {!batch_max} requests per
    {!flush_ms}.  A run has two measured phases with fixed operation
    counts: [open], Poisson arrivals at a fixed rate, and [cap], a
    closed loop with a fixed in-flight count. *)

type t = {
  name : string;
  why : string;  (** One line: what the workload stresses. *)
  f : int;
  k : int;  (** [k = 1] is replication; otherwise Reed–Solomon. *)
  value_bytes : int;
  keys : int;
  zipf : float;  (** 0 = uniform key popularity. *)
  write_ratio : float;
  open_rate : float;  (** Fixed arrival rate of the [open] phase, ops/s. *)
  inflight : int;  (** Slots of both phases: the paper's concurrency [c]. *)
  cap_rate : float;
      (** Measured closed-loop capacity, ops/s: sizes the [cap] phase to
          about half a run.  A constant, never derived at run time. *)
}

val all : t list
val find : string -> t option

val shards : int
val batch_max : int
val flush_ms : int

val chunks : int
(** The [open] phase's completions are cut into this many consecutive
    runs, and its gated latencies are the runs' smallest percentiles:
    disturbed seconds do not move them. *)

val cap_runs : int
(** The [cap] phase runs each slot's op list in this many consecutive
    pieces, one SDK run per piece; [tput_ops_s] is the fastest run's
    rate. *)

val cap_trim : float
(** The share of a [cap] run's completions cut off at each end before
    its rate is timed. *)

val n : t -> int

val config : ?wrap:(Sb_codec.Codec.t -> Sb_codec.Codec.t) -> t -> Sb_registers.Common.config
(** The register configuration; [wrap] instruments the codec (the
    traced run wraps its [encode]/[decode] closures). *)

val open_ms : t -> seconds:int -> int
(** The [open] phase's arrival window: two fifths of the run. *)

val cap_per_slot : t -> seconds:int -> int
(** Operations each [cap] slot runs: about half a run at [cap_rate].
    They run in {!cap_runs} SDK runs, because every operation of an SDK
    run stays in its memory. *)

(** {1 Inputs} *)

type arrival = {
  at_ms : float;  (** Intended start. *)
  key : int;  (** Key rank. *)
  write : int option;  (** The written value's id; [None] for a read. *)
}

type inputs = {
  setup : (int * int) list array;
      (** Per slot: every key written once, as (key rank, value id). *)
  arrivals : arrival array;
      (** The [open] phase, generated as [Sb_service.Sdk.run_open]
          generates it from the same seed. *)
  readback : int list array;  (** Per slot: every key read once. *)
  cap : (int * int option) list array;
      (** Per slot: (key rank, [Some] value id for a write). *)
  value_key : int array;
      (** The key rank each value id was generated for.  Ids are dense:
          the set-up's, then the [open] phase's, then the [cap]
          phase's. *)
  digest : string;  (** Hex digest of all of the above. *)
}

val open_value_id : t -> int -> int
(** The id of the [i]-th (1-based) write of the [open] phase. *)

val inputs : t -> seed:int -> seconds:int -> inputs

val value : t -> int -> bytes
(** [Sb_experiments.Workloads.distinct_value] of an id. *)

val value_id : t -> bytes -> int option
(** The inverse of {!value}: [Some id] exactly when the bytes are the
    value of [id]. *)

