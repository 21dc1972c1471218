(** Chaos campaigns: fault-rate sweeps with sanitizers and accounting on.

    A campaign runs every algorithm spec against every drop rate, over a
    seed sweep, under a {!Plan} combining message loss, duplication,
    delay, and (optionally) one server crash + recovery — with
    retransmission armed, the [Sb_sanitize] monitors attached, and the
    {!Sb_spec.Regularity} checker judging the resulting history.  A run
    passes only if it goes quiescent with every operation completed,
    nothing flagged by the liveness watchdog, a clean consistency
    verdict, zero sanitizer violations, and channel-inclusive storage
    accounting that survives duplication and retransmission (the live
    channel-bit counter matches a recount of what is in flight, and the
    combined high-water mark never falls below the decodability floor
    [D] — faults inflate the measured bits, they never hide them). *)

type spec = {
  sp_name : string;
  sp_make : unit -> Sb_sim.Runtime.algorithm;
      (** Fresh algorithm per run (encoders may be stateful). *)
  sp_n : int;
  sp_f : int;
  sp_k : int;
  sp_value_bytes : int;
  sp_reg_avail : bool;  (** Arm the availability monitor (regular regs). *)
  sp_check : Sb_spec.History.t -> Sb_spec.Regularity.verdict;
      (** The consistency level this register promises. *)
  sp_base_model : Sb_baseobj.Model.t;
      (** Base-object model the runtime enforces ([Rmw] for the
          historical specs). *)
  sp_byz : Sb_adversary.Byz.behaviour option;
      (** Lying behaviour under a [Byzantine] base model; each run
          builds [Sb_adversary.Byz.policy] from its scheduler seed and
          the model's budget, so liar selection varies across the seed
          sweep and every run stays replayable from its seed. *)
  sp_floor : (int * int) option;
      (** [(copies, d_bits)]: arm the sanitizer's replication-floor
          monitor, e.g. [(f+1, D)] for the read/write and Byzantine
          emulations whose sibling bounds prove that floor. *)
  sp_workload : (value_bytes:int -> Sb_sim.Trace.op_kind list array) option;
      (** Workload override; [None] is the default
          two-writers-one-reader drive. *)
}

val swmr_workload : value_bytes:int -> Sb_sim.Trace.op_kind list array
(** One writer (two writes), two readers — the drive for single-writer
    emulations. *)

val catalog_spec :
  byz_behaviour:Sb_adversary.Byz.behaviour -> Sb_experiments.Catalog.t ->
  value_bytes:int -> f:int -> k:int -> spec
(** A register's spec, every field read from the catalogue: its level,
    monitors, floor and base model.  Single-writer registers get
    {!swmr_workload}; the others race two writers.  [byz_behaviour] is
    how a Byzantine register's liars lie. *)

type config = {
  seeds : int;            (** Runs per (algorithm, drop) cell. *)
  base_seed : int;
  drops : float list;     (** The fault-rate sweep. *)
  duplicate : float;
  delay : float;
  crash_recovery : bool;  (** Crash server 0 mid-run and recover it. *)
  sanitize : bool;
  rto : int;              (** Retransmission timeout (backoff doubles it). *)
  max_steps : int;
  watchdog_budget : int;  (** Fairness-bounded liveness deadline. *)
}

val default_config : config
(** 10 seeds x drops {0, 0.1, 0.3}, duplication 0.1, delay 0.05, one
    crash/recovery, sanitizers on. *)

val quick_config : config
(** A CI-sized campaign: 3 seeds x drops {0, 0.2}. *)

type run_result = {
  r_seed : int;
  r_steps : int;
  r_quiescent : bool;
  r_ops : int;
  r_completed : int;
  r_stuck : Inject.stuck list;
  r_verdict : Sb_spec.Regularity.verdict;
  r_violations : Sb_sanitize.Monitor.violation list;
  r_stats : Sb_msgnet.Mp_runtime.net_stats;
  r_requests : int;
  r_max_server_bits : int;
  r_max_channel_bits : int;
  r_max_combined_bits : int;
  r_accounting_ok : bool;
}

val run_ok : run_result -> bool

val run_one : config -> spec -> drop:float -> seed:int -> run_result

type cell = {
  cl_algo : string;
  cl_drop : float;
  cl_runs : run_result list;
  cl_ok : bool;
}

val cell : config -> spec -> drop:float -> cell

val campaign : config -> spec list -> cell list
(** Every spec x every drop rate, in order. *)

val all_ok : cell list -> bool

val report : cell list -> Sb_util.Table.t
(** Graceful-degradation table: per (algorithm, drop) mean steps,
    requests per op, retransmissions, duplicates, fenced deliveries,
    dedup hits, stuck ops, sanitizer violations, and storage high-water
    marks (server / channel / combined bits). *)

val explain_failures : Format.formatter -> cell list -> unit
(** Prints a diagnosis line for every failing run in failing cells. *)
