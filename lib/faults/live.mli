(** Chaos for the live stack: the seeded fault plane for real daemon
    processes.

    The same declarative {!Plan} that drives the simulator's fault
    injection is interpreted here at the socket layer ({!hooks}) and at
    the disk layer ({!disk_fault}), and {!campaign} sweeps fault plans
    x seeds x registers over forked clusters of {!Sb_service.Daemon}
    processes with an {!Sb_service.Sdk} load generator attached.

    Two gating modes:

    - {e green} scenarios (loss/duplication/delay/fragmentation,
      partitions with heals, deterministic crash points around the
      persist path) must stay fully green: every operation completes,
      regularity holds, and — for space-adaptive registers — the
      Theorem 2 ceiling and GC floor hold.  Crash points are sound
      here because the daemon persists before responding, so an abort
      at any persist stage loses no acknowledged data.
    - {e robustness} scenarios additionally corrupt a crashed server's
      state file (truncation, bit-flips).  A wiped server can
      legitimately perturb quorum-intersection math, so these gate on
      recovery behaviour instead: the corruption is detected and
      quarantined, the server rejoins fresh, all operations still
      complete, and nothing ever crashes on or serves garbage. *)

val hooks : ?seed:int -> Plan.t -> Sb_service.Netfault.t
(** Interpret a plan's message-fault rates and partitions as
    socket-layer faults, with all randomness drawn from one PRNG
    seeded by [seed] (default 1).  Partition windows are wall-clock
    milliseconds from the moment [hooks] is called.  Frames are
    dropped, duplicated, delayed, fragmented into staggered partial
    writes, or slow-closed mid-frame; dials/accepts are refused while
    a drop-partition isolates the server (and occasionally under
    loss).  Handshake frames always pass.  Each process builds its own
    hooks from the shared plan. *)

type disk_fault = Df_none | Df_truncate | Df_bitflip

val disk_fault_name : disk_fault -> string

val corrupt_file : seed:int -> disk_fault -> string -> bool
(** Seeded in-place corruption of a state file: truncate to a random
    prefix, or flip one random bit.  Returns false (and does nothing)
    for [Df_none] or a missing file. *)

type spec = {
  sp_algo : Sb_experiments.Catalog.t;
      (** Names the register, its consistency level, and whether the
          Theorem 2 ceiling and GC floor are asserted. *)
  sp_make : unit -> Sb_sim.Runtime.algorithm;
      (** Fresh algorithm per process (encoders may be stateful). *)
  sp_n : int;
  sp_f : int;
  sp_k : int;  (** The code dimension ({!Sb_experiments.Catalog.code_k}). *)
  sp_value_bytes : int;
}

val spec :
  Sb_experiments.Catalog.t -> value_bytes:int -> f:int -> k:int -> spec
(** A register's spec, read from the catalogue.  The live stack runs
    RMW base objects only ({!Sb_experiments.Catalog.check_live}). *)

type config = {
  lc_seeds : int;        (** Seeds per green scenario cell. *)
  lc_base_seed : int;
  lc_writers : int;      (** The paper's concurrency level [c]. *)
  lc_writes_each : int;
  lc_readers : int;
  lc_reads_each : int;
  lc_rto_ms : int;
  lc_think_ms : int;
  lc_deadline_ms : int;
  lc_settle_ms : int;    (** Quiescence settle before the floor check. *)
  lc_tmproot : string;   (** Where per-run sock/state dirs are created. *)
}

val default_config : config
(** 3 seeds, 2 writers x 10 + 2 readers x 10, rto 40 ms, think 15 ms. *)

val quick_config : config
(** CI-sized: 1 seed, 6 ops per client. *)

type scenario = {
  sc_name : string;
  sc_plan : Plan.t;  (** Partition times are wall-clock milliseconds. *)
  sc_crashes : (int * Sb_service.Daemon.crash_point) list;
      (** Per-server crash points armed on the initial daemon processes;
          a crashed daemon is restarted (without the crash point) after
          a short delay. *)
  sc_disk : disk_fault;
      (** Applied to a crashed server's state file before its restart. *)
  sc_green : bool;  (** Gate on consistency + bounds (see module doc). *)
}

val scenarios : spec -> scenario list
(** The green sweep: "lossy-frag" (loss + duplication + delay +
    fragmentation), "partition-heal" (one server held off and healed
    mid-run under light loss), "crash-torn" ([f] crash points inside
    the torn-write window). *)

val robustness_scenarios : scenario list
(** "corrupt-truncate" and "corrupt-bitflip": crash server 0 just after
    a persist, corrupt the state it left, and require quarantine +
    fresh recovery. *)

type run_result = {
  lr_seed : int;
  lr_ops : int;
  lr_completed : int;
  lr_wall_ms : float;
  lr_weak_ok : bool;
  lr_check_ok : bool;
  lr_peak_bits : int;
  lr_quiescent_bits : int;
  lr_ceiling_bits : int;
  lr_floor_bits : int;
  lr_recoveries : int;
      (** Crash-recoveries evidenced either in-band (incarnation bumps
          the engine saw) or by the final stats round (servers
          reporting incarnation >= 2); the green gate judges the
          latter, which is free of client-side reconnect timing. *)
  lr_reconnects : int;
  lr_retransmissions : int;
  lr_op_failures : int;
  lr_timed_out : bool;
  lr_stats_servers : int;
  lr_crash_exits : int;   (** Crash-point exits (code 70) observed. *)
  lr_quarantined : int;   (** Quarantine files present after the run. *)
  lr_ok : bool;
  lr_why : string;        (** Diagnosis when [not lr_ok]. *)
}

type cell = {
  cl_scenario : string;
  cl_algo : string;
  cl_green : bool;
  cl_runs : run_result list;
  cl_ok : bool;
}

val run_one : config -> spec -> scenario -> seed:int -> run_result
(** One forked cluster (one process per server, crash points armed as
    the scenario says) + one forked load generator, supervised to
    completion: crash-point exits are detected, disk faults applied,
    daemons restarted, and everything torn down afterwards. *)

val run_cell : config -> spec -> scenario -> cell
(** [lc_seeds] runs for a green scenario, one for a robustness one. *)

val campaign : config -> spec list -> cell list
(** Every spec x (green scenarios + robustness scenarios). *)

val all_ok : cell list -> bool
val report : cell list -> Sb_util.Table.t
val explain_failures : Format.formatter -> cell list -> unit

val write_report : string -> cell list -> unit
(** Flat-JSON campaign summary (CHAOS_live_report.json): overall
    verdict plus one object per cell. *)
