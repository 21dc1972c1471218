(** Measurement helpers of the service benchmark: nearest-rank
    percentiles, the [/proc] parsers that observe the daemon from
    outside, and the storage normalisation against the paper's bounds.
    Everything here is pure (or reads one file) so the self-tests can
    pin it down. *)

(** {1 Percentiles} *)

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted p] is the smallest sample [x] of the ascending
    array such that at least [p]% of the samples are [<= x] — the
    sample at rank [ceil (p * count / 100)].  Raises [Invalid_argument]
    on an empty array or [p] outside [(0, 100]]. *)

val beyond : float array -> float -> int
(** [beyond sorted p] is the number of samples ranked above the
    [p]-th percentile's sample — how many samples back a tail
    percentile. *)

val median : float list -> float
(** Nearest-rank median (the lower middle for an even count). *)

val by_chunk : float array -> chunks:int -> float -> float list
(** [by_chunk samples ~chunks p] cuts the samples, in the order given,
    into [chunks] consecutive runs of near-equal length and is each
    run's nearest-rank [p]-th percentile.  Raises [Invalid_argument]
    with fewer samples than chunks. *)

val fastest_chunk : float array -> chunks:int -> float -> float
(** The smallest of {!by_chunk}: the percentile of the run's least
    disturbed stretch.  Interference from outside the program only ever
    adds latency, so the fastest stretch is the closest reading of the
    program itself, as repeated timings report their minimum. *)

(** {1 Throughput} *)

val closed_loop_times : (int * float) list -> float array
(** [closed_loop_times completions] takes each completion of a closed
    loop without think time as [(slot, latency_ms)], in completion
    order, and gives every completion's time in ms since the loop
    started, ascending.  A slot invokes its next operation as its
    previous one returns, so its completions fall at the running sums
    of its latencies. *)

val middle_rate : float array -> trim:float -> float
(** [middle_rate times ~trim] is the rate, per second, of the ascending
    completion times (ms) with the first and last [trim] share of them
    cut off: the ramp while a loop fills its slots and the drain while
    they empty.  Raises [Invalid_argument] when fewer than two
    completions remain. *)

(** {1 The process, seen through [/proc]} *)

val cpu_ticks_of_stat : string -> int
(** [utime + stime], in clock ticks, from the one-line contents of
    [/proc/<pid>/stat].  The command name may hold spaces and
    parentheses; fields are counted after its closing parenthesis. *)

val field_of : string -> string -> int
(** [field_of text name] is the first integer on the line [name: ...] of
    a [/proc/<pid>/status] or [/proc/<pid>/io] text — [VmHWM] (kB),
    [voluntary_ctxt_switches], [write_bytes].  Raises [Not_found] when
    the line is absent. *)

val ticks_per_s : float
(** [USER_HZ], the unit of {!cpu_ticks_of_stat}: 100 on Linux. *)

val read_file : string -> string
(** The whole contents of a (possibly size-less [/proc]) file. *)

val cpu_line : string -> int list
(** The tick counters of the aggregate [cpu] line of a [/proc/stat]
    text, in file order (user, nice, system, idle, iowait, irq, softirq,
    steal, ...). *)

val host_cpu : unit -> int list
(** {!cpu_line} of this machine's [/proc/stat] now; empty if unreadable. *)

val steal_and_busy : before:int list -> after:int list -> float * float
(** Between two {!host_cpu} readings: the share of time the hypervisor
    stole from the vCPUs, and the share they were busy (neither idle,
    waiting for I/O nor stolen). *)

type proc = {
  cpu_s : float;  (** User + system CPU so far. *)
  hwm_kb : int;  (** Peak resident set ([VmHWM]). *)
  vol_switches : int;  (** Voluntary context switches so far. *)
}

val sample : int -> proc
(** Read [stat] and [status] of a live process. *)

(** {1 Storage, normalised to the paper's units} *)

val live_registers : keys:int -> Sb_service.Wire.stats list -> int
(** The live-register count the load generator normalises by: every
    key, plus the legacy [""] register each shard carries (a server
    that reports no shards counts as one). *)

val storage_x : bits:int -> live:int -> value_bytes:int -> float
(** [bits / (live * D)] with [D = 8 * value_bytes]: fleet storage in
    units of one value per live register.  Quiescent storage of a
    k-of-n coded register is [(2f+k)/k] of these. *)

val per_key_peak_bits : Sb_service.Wire.stats list -> int
(** The sum over servers of the largest per-key high-water mark among
    a server's shards — an upper bound on any one key's fleet-wide
    peak, which Theorem 2 bounds. *)

val ceiling_bits : f:int -> k:int -> c:int -> value_bytes:int -> int
(** Theorem 2's per-register ceiling under [c] concurrent writes:
    [min ((c+1)(2f+k), (2f+k)^2) * D / k]. *)

val floor_bits : f:int -> k:int -> value_bytes:int -> int
(** The quiescent per-register floor [(2f+k) * D / k]. *)
