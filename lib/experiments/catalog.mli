(** The register catalogue: every emulation the command line can name,
    and every per-register fact a front end needs to run and judge it.

    Each fact is stated here once.  [simulate], [explore], [audit],
    [lower-bound], [adversary-demo], [chaos], [serve] and [loadgen] all
    read this table, and [Sb_faults.Chaos] and [Sb_faults.Live] build
    their campaign specs from it. *)

type t =
  | Adaptive         (** Theorem 2's space-adaptive register. *)
  | Pure_ec          (** Erasure coding with no replication fallback. *)
  | Abd              (** ABD replication; also named [replication]. *)
  | Abd_atomic       (** ABD with the read write-back: atomic. *)
  | Abd_broken       (** Seeded bug: write quorums one object short. *)
  | Abd_misdeclared  (** Seeded bug: an overwrite declared a commuting merge. *)
  | Premature_gc     (** Seeded bug: garbage-collects before its write completes. *)
  | Safe             (** The safe register (Appendix E). *)
  | Versioned of int (** Bounded versions: [delta + 1], no replicas. *)
  | Rateless         (** Over a rateless (LT) code. *)
  | Rw_regular       (** Full replication over read/write objects. *)
  | Rw_fcopy         (** Seeded bug: [f] copies where [f+1] are needed. *)
  | Rw_safe          (** Coded single-writer safe register, read/write objects. *)
  | Byz_reg of int   (** Masking register tolerating [b] lying objects. *)

val of_string : string -> (t, string) result
(** Parses the names {!to_string} prints, plus the aliases
    [replication] ({!Abd}) and [byz-regular] ([Byz_reg 1]). *)

val to_string : t -> string
(** ["versioned:<delta>"] and ["byz-regular:<b>"] for the parameterised
    registers. *)

val coded_cfg : value_bytes:int -> f:int -> k:int -> Sb_registers.Common.config
(** [n = 2f + k] objects over a Reed–Solomon code: GF(2^8) up to 256
    objects, GF(2^16) beyond. *)

val build :
  writers:int -> t -> value_bytes:int -> f:int -> k:int ->
  Sb_sim.Runtime.algorithm * Sb_registers.Common.config
(** The register and its configuration.  The replication family
    (ABD, [rw-*] replicas, [byz-regular]) ignores [k].  [writers]
    matters only to [rw-regular] and [rw-fcopy], which provision one
    group of [2f+1] cells per writer. *)

val code_k : t -> k:int -> int
(** The code dimension the register really runs with: 1 for the
    replication family, whatever [k] says. *)

val base_model : t -> Sb_baseobj.Model.t
(** The base-object model the register is written against. *)

val check_live : t -> (unit, string) result
(** [Ok ()] when the base model is RMW.  The daemon and the SDK run
    RMW objects only, so [serve], [loadgen] and [chaos --live] refuse
    every other register. *)

val single_writer : t -> bool
(** Correct only with one writer ([rw-safe], [byz-regular]). *)

val check_writers : t -> writers:int -> (unit, string) result
(** Refuses more than one writer for a {!single_writer} register. *)

type level = [ `Weak | `Strong | `Safe | `Atomic ]

val level : t -> level
(** The consistency level the register promises: atomic for
    [abd-atomic], safe for [safe] and [rw-safe], strong regularity for
    every other register. *)

val level_name : level -> string
(** ["weak"], ["strong"], ["safe"] or ["atomic"]. *)

val checker : level -> Sb_spec.History.t -> Sb_spec.Regularity.verdict

val reg_avail : t -> bool
(** Whether to arm the availability (premature-GC) monitor: only for
    registers that promise a decodable readable frontier at all times.
    The safe and bounded-version registers break it by design;
    [premature-gc] is the seeded bug the monitor must catch. *)

val storage_floor :
  writers:int -> t -> value_bytes:int -> f:int -> (int * int) option
(** [(copies, d_bits)] for the storage-floor monitor: the (f+1)·D
    full-copy floor of Chockler–Dobre–Shraer–Spiegelman per writer
    group for [rw-regular] (and [rw-fcopy], which must trip it), and
    f+1 honest copies for [byz-regular]. *)

val bounded : t -> bool
(** Whether Theorem 2's ceiling and the (2f+k)·D/k GC floor apply: the
    adaptive register only. *)
