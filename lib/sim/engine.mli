(** The client engine: the one interpreter of the protocol effects.

    Register protocols are written once, in direct style, against the
    {!Proto.Trigger} and {!Proto.Await} effects.  This module runs them:
    it starts each operation in a fiber under a deep handler, turns a
    [Trigger] into a request through its caller's {!transport} and an
    [Await] into either an immediate continuation or a parked fiber, and
    writes the operation's [Invoke]/[Rmw_trigger]/[Return] trace events
    and observer events.  It numbers operations from 1, applies the
    base-object model's operation check ({!Sb_baseobj.Model.check_op})
    to every trigger, resumes parked fibers and abandons them.

    Three transports run on it: the shared-memory simulator
    ({!Runtime}), the message-passing simulator ([Sb_msgnet.Mp_runtime])
    and the socket client ([Sb_service.Sdk]).  Each builds one
    {!transport} record per world or engine and keeps only what belongs
    to its medium: tickets, channels, timers, sockets. *)

(** The vocabulary protocol code and transports share.  {!Runtime}
    re-exports it; protocol code names it through [Runtime]. *)
module Proto : sig
  (** {1 RMW interface} *)

  type resp = Rmwdesc.resp =
    | Ack  (** The RMW mutated the object and returns nothing. *)
    | Snap of Sb_storage.Objstate.t
        (** The RMW returns a snapshot of the object state (its value at
            the linearisation point of the RMW). *)

  (** {1 Operations} *)

  type op = {
    id : int;
    client : int;
    kind : Trace.op_kind;
    mutable rounds : int;  (** Protocol-reported round count (diagnostics). *)
  }

  type ctx = {
    self : int;  (** Client id running the operation. *)
    op : op;  (** The operation being executed. *)
    n_objects : int;  (** Number of base objects [n]. *)
    prng : Sb_util.Prng.t;  (** Client-local deterministic randomness. *)
  }

  type algorithm = {
    name : string;
    init_obj : int -> Sb_storage.Objstate.t;
        (** [init_obj i] is the initial state of base object [bo_i];
            algorithms seed it with blocks of the initial value [v0]
            (source op 0). *)
    write : ctx -> bytes -> unit;
    read : ctx -> bytes option;
        (** Protocol bodies, executed inside a client fiber; they may
            only interact with the world through the effects below. *)
  }

  (** {1 Effects} *)

  type rmw_nature = [ `Mutating | `Readonly | `Merge ]
  (** How an RMW interacts with concurrent deliveries on the same
      object.  [`Mutating] (the default) promises nothing.  [`Readonly]
      declares that the RMW never changes the object state (e.g. a
      snapshot read); the shared-memory runtime exploits this twice:
      once the response can no longer be observed — the await that
      covered the ticket has returned, the issuing operation has
      completed, or the issuing client has crashed — the in-flight RMW
      is a no-op and is dropped instead of remaining deliverable, and
      the model checker treats read-only RMWs on the same object as
      commuting.  [`Merge] declares a commutative update: applying it
      and any other [`Merge] RMW on the same object in either order
      yields the same final state and the same two responses (e.g. ABD's
      join-semilattice "keep the higher timestamp" overwrite); the model
      checker then treats merge/merge delivery pairs as commuting.  A
      wrong declaration is unsound — when in doubt use [`Mutating]. *)

  type _ Effect.t +=
    | Trigger : int * rmw_nature * Rmwdesc.t -> int Effect.t
    | Await : int list * int -> (int * resp) list Effect.t
        (** The raw protocol effects: [Trigger (obj, nature, desc)]
            returns a ticket, [Await (tickets, quorum)] the
            [(object, response)] pairs of at least [quorum] of them.  An
            RMW is its description: every transport applies
            [Rmwdesc.apply desc] where the object lives, and the blocks
            it carries are [Rmwdesc.payload desc]. *)

  (** {1 Execution events}

      Monitors (e.g. [Sb_sanitize]) subscribe to fine-grained execution
      events.  Events are deliberately richer than {!Trace.event}: a
      delivery exposes the RMW's description and the object states
      around it, an await its responder set — everything an online
      invariant checker needs and a post-hoc trace cannot
      reconstruct. *)

  type event =
    | E_invoke of { op : op }
    | E_return of { op : op; result : bytes option }
    | E_trigger of {
        ticket : int;
        obj : int;
        op : op;
        nature : rmw_nature;
        desc : Rmwdesc.t;
            (** The triggered RMW; lets observers compare protocol
                decisions across transports. *)
      }
    | E_deliver of {
        ticket : int;
        obj : int;
        client : int;
        op : int;
        nature : rmw_nature;
        desc : Rmwdesc.t;
            (** The applied RMW, re-appliable by monitors through
                [Rmwdesc.apply]: an RMW is a pure function of the object
                state. *)
        before : Sb_storage.Objstate.t;
        after : Sb_storage.Objstate.t;
        resp : resp;
        observable : bool;
            (** The response was recorded for a future await — [false]
                for stragglers of consumed awaits and crashed clients. *)
      }
    | E_await of {
        op : op;
        tickets : int list;
        quorum : int;
        responders : (int * resp) list;
            (** The [(object, response)] pairs the await returned. *)
      }
    | E_crash_obj of int
    | E_recover_obj of int * int
        (** [(obj, incarnation)]: a crashed base object rejoined with its
            durable state, now at the given incarnation number.  Only the
            message-passing runtime emits this; the shared-memory model
            is crash-stop. *)
    | E_crash_client of int
end

open Proto

(** {1 Fibers} *)

type resumption
(** A parked fiber's captured continuation. *)

(** One client slot: the operation it runs and, while that operation
    waits for a quorum, its parked continuation.  Only the engine
    changes these fields. *)
type fiber = private {
  cid : int;
  prng : Sb_util.Prng.t;
  mutable current : op option;  (** Invoked and neither returned nor abandoned. *)
  mutable waiting : wait option;
}

and wait = private {
  tickets : int list;
  quorum : int;  (** The await is waiting for [quorum] of [tickets]. *)
  k : resumption;
}

val fiber : cid:int -> prng:Sb_util.Prng.t -> fiber
(** An idle slot for client [cid]; [prng] becomes [ctx.prng]. *)

(** {1 Transports} *)

(** What a transport supplies, once per world or engine.  Every hook
    receives the transport's own state ['w], the value passed to
    {!start} and {!resume}. *)
type 'w transport = {
  send : 'w -> fiber -> op -> int -> rmw_nature -> Rmwdesc.t -> int;
      (** [send w fb op obj nature desc] issues the request of a
          [Trigger] towards object [obj] and returns its ticket. *)
  ready : 'w -> int list -> int -> bool;
      (** [ready w tickets quorum]: the fiber awaits [quorum] of
          [tickets]; have they answered already?  Called once per
          [Await]. *)
  collect : 'w -> fiber -> int list -> (int * resp) list;
      (** Hand a satisfied await its responses, in ticket order, and
          retire its tickets. *)
  started : 'w -> op -> unit;
      (** An operation was invoked; called before its [Invoke] event. *)
  retired : 'w -> op -> bytes option -> unit;
      (** An operation returned; called before its [Return] event. *)
  clock : 'w -> int;  (** The time stamped on the next trace event. *)
  traced : bool;  (** Keep the trace; without it [clock] is never read. *)
}

(** {1 Engines} *)

type 'w t

val create :
  n:int -> algorithm:algorithm -> base_model:Sb_baseobj.Model.t ->
  'w transport -> 'w t
(** An engine over [n] objects.  Every trigger passes
    [Sb_baseobj.Model.check_op base_model] before it is sent, so a
    description outside the model's vocabulary raises
    [Sb_baseobj.Model.Error] out of the operation. *)

val start : 'w t -> 'w -> fiber -> Trace.op_kind -> bool
(** Invoke the next operation on an idle slot and run its fiber until it
    returns ([true]) or parks ([false]). *)

val resume : 'w t -> 'w -> fiber -> bool
(** Hand a parked fiber its responses and run it until it returns
    ([true]) or parks again ([false]).  The caller has checked that the
    quorum is met; raises [Invalid_argument] if the fiber is not
    parked. *)

exception Abandoned
(** Raised into an abandoned fiber at its await point so protocol-level
    cleanup can run; the engine absorbs it. *)

val abandon : fiber -> op option
(** Give up the slot's operation: unwind its parked fiber with
    {!Abandoned} and leave the slot idle.  Returns the operation that was
    running, if any.  No [Return] event is written. *)

val crash : fiber -> unit
(** The client crashed: its parked continuation is dropped without
    running, and its operation stays outstanding. *)

val trace : 'w t -> Trace.t
(** Empty unless the transport keeps one ({!transport.traced}). *)

val invoked : 'w t -> int
(** Operations started so far; the next gets id [invoked + 1]. *)

val completed : 'w t -> int
(** Operations returned so far (abandoned ones are not counted). *)

(** {1 Observers} *)

val add_observer : 'w t -> (event -> unit) -> unit
(** Registers an event sink, called on every event in registration
    order.  Observers must not mutate the world. *)

val observed : 'w t -> bool
(** Whether any observer is registered: transports guard their own
    emissions with it so dormant observers cost one check and allocate
    nothing. *)

val emit : 'w t -> event -> unit
