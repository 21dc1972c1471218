(** Base-object models — the interface the emulation rents from below.

    The source paper's bounds (Theorems 2–4) are proved over base objects
    supporting arbitrary atomic read-modify-write.  The sibling papers
    change that one assumption and the storage landscape changes
    qualitatively:

    - {e Space Complexity of Fault Tolerant Register Emulations}
      (Chockler–Spiegelman, arXiv:1705.07212): over plain {b read/write}
      base objects a regular register emulation must keep [f+1] full
      replicas alive — coding buys nothing, and adaptivity buys nothing.
    - {e Integrated Bounds for Disintegrated Storage}
      (Berger–Keidar–Spiegelman, arXiv:1805.06265): over
      {b non-authenticated Byzantine} objects, coded ("disintegrated")
      storage collapses to the same replication floor.

    This module makes the base-object model a scenario parameter shared
    by both runtimes ([Sb_sim.Runtime] and [Sb_msgnet.Mp_runtime]): which
    operation classes the base objects accept, what delivery discipline
    they provide, and how many of them may lie. *)

type t =
  | Rmw  (** Arbitrary atomic read-modify-write — the source paper's
             model and the historical default of this repository. *)
  | Read_write
      (** Base objects support only [read] and blind [overwrite] — no
          conditional or merge application.  Each (client, object) pair
          behaves like an atomic register accessed over a sequential
          channel, so operations by one client on one object take effect
          in issue order ({!fifo_writes}). *)
  | Byzantine of { budget : int }
      (** RMW base objects of which up to [budget] may return
          wrong-but-well-formed responses and equivocate between
          readers.  Faulty objects are non-authenticated: they cannot
          forge the provenance tags of code blocks (Definition 4's
          source function), but may replay stale states, drop writes,
          or fabricate states wholesale. *)

(** Operation classes the models discriminate on.  [Rmwdesc.op_class]
    maps every serializable RMW description to one of these. *)
type op_class =
  | Read       (** State snapshot; changes nothing. *)
  | Overwrite  (** Blind wholesale overwrite ([Rmwdesc.Rw_write]). *)
  | General    (** Anything conditional or merging — RMW-only. *)

type error =
  | Negative_budget of { budget : int }
  | Budget_exceeds_f of { budget : int; f : int }
      (** A Byzantine plan asked for more liars than the failure budget
          covers; rejected at validation, not mid-run. *)
  | Op_not_supported of { model : t; cls : op_class }
      (** A register triggered an operation class the base objects do
          not implement (e.g. a merge-class store over [Read_write]). *)
  | Policy_mismatch of { model : t; reason : string }
      (** A Byzantine policy was supplied for a non-Byzantine model, or
          compromises more objects than the model's budget. *)

exception Error of error

val error_to_string : error -> string

val allows : t -> op_class -> bool
(** [Rmw] and [Byzantine _] allow everything; [Read_write] allows only
    [Read] and [Overwrite]. *)

val check_op : t -> op_class -> unit
(** Gate applied by the runtimes at trigger time: raises {!Error}
    [Op_not_supported] when the model rejects the class. *)

val fifo_writes : t -> bool
(** Whether the model imposes per-(client, object) FIFO delivery —
    [true] exactly for [Read_write], where a base object is an atomic
    register reached over a sequential channel and a client's operations
    on it take effect in issue order.  Without this discipline a
    straggling blind overwrite could roll a cell backwards, which the
    sibling papers' model rules out by assumption. *)

val budget : t -> int
(** The lying-object budget: [b] for [Byzantine { budget = b }], [0]
    otherwise. *)

val validate : f:int -> t -> unit
(** Policy-level validation (CLI, fault plans): raises {!Error} when a
    Byzantine budget is negative or exceeds [f].  The runtimes
    deliberately do {e not} call this — negative controls need to run
    over-budget adversaries mechanically. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** ["rmw"], ["rw"], or ["byz:<b>"]. *)

val of_string : string -> (t, string) result
(** Parses the {!to_string} forms (also accepts ["read-write"] and
    ["byz"] as [byz:0]). *)

val class_name : op_class -> string

(** {1 Byzantine behaviour interface}

    A Byzantine policy decides, per delivery at a compromised object,
    what the object does instead of executing the operation honestly.
    Policies are pure functions of stable, canonically-named inputs —
    the object id, the issuing client, the operation class, the current
    and initial object states — and never of raw ticket or operation
    ids, so they compose soundly with the model checker's state caching
    (two worlds with equal exploration keys behave identically under
    the same policy). *)

type byz_action =
  | Honest  (** Execute the operation faithfully. *)
  | Drop_write
      (** Acknowledge without applying — the classic omission-style lie
          that lets a stale state survive behind a positive ack. *)
  | Fabricate of Sb_storage.Objstate.t
      (** Respond with a fabricated, well-formed state (and leave the
          real state untouched).  Equivocation falls out of fabricating
          differently for different clients. *)

type byz_policy = {
  bp_name : string;
  bp_budget : int;  (** Number of objects [bp_compromised] admits. *)
  bp_compromised : int -> bool;
      (** Which object ids are faulty; must hold for at most
          [bp_budget] ids in [0, n). *)
  bp_act :
    obj:int ->
    client:int ->
    cls:op_class ->
    before:Sb_storage.Objstate.t ->
    init:Sb_storage.Objstate.t ->
    byz_action;
      (** Decision at a delivery on a compromised object. *)
}

val honest_policy : byz_policy
(** The budget-0 policy: nobody lies. *)

val check_policy : t -> n:int -> byz_policy -> unit
(** Raises {!Error} ([Policy_mismatch]) unless the model is Byzantine
    and the policy compromises at most [budget] objects in [0, n). *)
