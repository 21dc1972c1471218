(** Message-passing emulation of the fault-prone shared memory.

    The paper's base objects "typically reside at distinct storage nodes
    accessed over a network" (Section 1); this runtime makes that
    explicit.  Each base object is hosted by a {e server} node; a
    triggered RMW becomes a {e request} message, the RMW takes effect
    atomically when the server processes the request, and the result
    travels back as a {e response} message.  Channels are asynchronous
    and unordered; a scheduling policy picks every message delivery, so
    runs are deterministic and adversarial schedules are expressible.

    The register protocols of [Sb_registers] run {e unchanged} on this
    runtime: it is a transport of {!Sb_sim.Engine}, the one interpreter
    of the {!Sb_sim.Runtime.Trigger} and {!Sb_sim.Runtime.Await}
    effects.

    Storage accounting here includes {e channel} contents — request
    payloads and the object-state snapshots carried by responses — which
    is exactly the cost the paper charges to algorithms that "shift the
    cost from storage nodes to the network and keep unbounded
    information in channels" (Section 3.2, discussing [5, 8]).

    {2 Fault plane}

    Beyond the paper's crash-stop model, the scheduling decisions expose
    a deterministic fault plane (driven by [Sb_faults]): message loss
    ({!decision.Drop_msg}), network-level duplication
    ({!decision.Duplicate_msg}), and server crash-{e recovery}
    ({!decision.Recover_server}).  A server's object state is durable
    across a crash; its at-most-once table is volatile, and it rejoins
    under a fresh {e incarnation} number.  Messages are stamped with the
    incarnation of the server side of their connection; a delivery whose
    stamp is stale is {e fenced} (discarded by the transport).  Client
    liveness under loss comes from opt-in sim-time retransmission timers
    with exponential backoff ({!create}'s [retransmit]); duplicates of a
    non-readonly request hit the server's at-most-once table — keyed
    [(client, ticket)] per incarnation — and re-send the recorded
    response instead of re-applying the RMW.  Re-application {e across}
    incarnations is possible (the table is volatile), which is why the
    register protocols' RMWs are idempotent. *)

type world

type message_kind = Request | Response

type message_info = {
  msg_id : int;
  kind : message_kind;
  m_client : int;     (** The client end of the exchange. *)
  m_server : int;     (** The server (base object) end. *)
  m_ticket : int;
  m_op : int;         (** The operation the RMW belongs to. *)
  m_bits : int;       (** Code-block bits carried by the message. *)
  m_incarnation : int;
      (** The server incarnation this message's connection belongs to. *)
  sent_at : int;
}

type retransmit_config = Sb_service.Client_core.Retransmit.config = {
  rto : int;
      (** Initial retransmission timeout, in simulation steps ([> 0]). *)
  max_attempts : int;
      (** Give up after this many resends of one request; [0] retries
          forever (the op then stays outstanding until the run's step
          budget ends, and the liveness watchdog flags it). *)
}

type net_stats = {
  dropped : int;           (** [Drop_msg] losses. *)
  duplicated : int;        (** [Duplicate_msg] clones. *)
  retransmissions : int;   (** Timer-driven request resends. *)
  fenced : int;            (** Deliveries discarded for a stale incarnation. *)
  dedup_hits : int;        (** Duplicate requests answered from the
                               at-most-once table without re-applying. *)
  dropped_at_crash : int;  (** Requests lost in channels at server crashes. *)
  recoveries : int;        (** [Recover_server] events. *)
}

val create :
  ?seed:int ->
  ?fifo:bool ->
  ?dedup:bool ->
  ?retransmit:retransmit_config ->
  ?base_model:Sb_baseobj.Model.t ->
  ?byz:Sb_baseobj.Model.byz_policy ->
  algorithm:Sb_sim.Runtime.algorithm ->
  n:int ->
  f:int ->
  workload:Sb_sim.Trace.op_kind list array ->
  unit ->
  world
(** Same shape as {!Sb_sim.Runtime.create}: [n] servers each hosting one
    base object initialised by the algorithm, one client per workload
    entry.  [fifo] (default [false]) makes every client↔server channel
    deliver in sending order; the register algorithms are correct either
    way, which the test suite checks.  [dedup] (default [true]) arms the
    per-incarnation at-most-once table at servers; disabling it is a
    negative control that makes network duplicates re-apply RMWs (the
    [Sb_sanitize] monitors must object).  [retransmit] (default off)
    arms client-side retransmission timers; without it the runtime
    behaves exactly as the lossless crash-stop emulation unless a policy
    issues fault decisions.

    [base_model] (default [Rmw]) and [byz] mirror
    {!Sb_sim.Runtime.create}: under [Read_write] triggers are gated on
    operation class and request channels are forced FIFO (issue-order
    application per (client, server) pair, regardless of [fifo]); under
    [Byzantine] the policy decides per-request whether a compromised
    server answers honestly, acks without applying, or fabricates a
    state — bypassing the at-most-once table, since equivocation
    between retries is exactly what the model grants. *)

(** {1 Introspection} *)

val time : world -> int
val n_servers : world -> int
val f_tolerance : world -> int

val base_model : world -> Sb_baseobj.Model.t

val byz_compromised : world -> int -> bool
(** As {!Sb_sim.Runtime.byz_compromised}. *)

val server_state : world -> int -> Sb_storage.Objstate.t
val server_alive : world -> int -> bool

val server_incarnation : world -> int -> int
(** Starts at 1; incremented by every {!decision.Recover_server}. *)

val client_count : world -> int
val in_flight : world -> message_info list
(** Undelivered messages, oldest first. *)

val storage_bits_servers : world -> int
(** Block bits stored at live servers (Definition 2 on the nodes). *)

val storage_bits_channels : world -> int
(** Block bits currently travelling in channels — request payloads plus
    response snapshots.  Duplicates and retransmitted copies each count:
    the network cannot be used to hide storage (Section 3.2). *)

val max_bits_servers : world -> int
val max_bits_channels : world -> int

val max_bits_combined : world -> int
(** Running maximum of servers + channels at the same instant — the
    channel-inclusive storage cost a lower-bound check compares
    against. *)

val requests_sent : world -> int
val responses_sent : world -> int
(** Protocol messages sent over the whole run, retransmissions included,
    network-level duplicates excluded (communication-cost accounting:
    each protocol round costs [n] requests and up to [n] responses). *)

val net_stats : world -> net_stats
(** Fault-plane counters for this run so far. *)

val outstanding_ops : world -> Sb_sim.Runtime.op list
(** Operations invoked but not returned by live clients. *)

val op_contribution : world -> Sb_sim.Runtime.op -> int
(** [||S(t, w)||] (Definition 6) over the message-passing world: blocks
    at live servers, request payloads in flight from clients other than
    [w]'s own, and blocks inside snapshot responses travelling in
    channels. *)

val trace : world -> Sb_sim.Trace.t

val add_observer : world -> (Sb_sim.Runtime.event -> unit) -> unit
(** Registers an execution-event sink, exactly as
    {!Sb_sim.Runtime.add_observer}: the message-passing runtime emits the
    same event vocabulary (servers play the object role; a request
    delivery is the RMW's take-effect point), so the [Sb_sanitize]
    monitors run unchanged on both runtimes. *)

(** {1 Scheduling} *)

type decision =
  | Deliver_msg of int   (** Deliver message [msg_id] to its destination:
                             a request takes effect at the server, a
                             response lands at the client.  A delivery
                             with a stale incarnation stamp is fenced —
                             removed and counted, nothing applied. *)
  | Step of int          (** Advance client [c] (invoke or resume). *)
  | Drop_msg of int      (** The network loses message [msg_id]. *)
  | Duplicate_msg of int (** The network duplicates message [msg_id]. *)
  | Retransmit of int    (** Client resends the request for ticket [t];
                             enabled once its timer has expired. *)
  | Crash_server of int  (** Crash-stop until a matching
                             [Recover_server]; in-channel requests to the
                             server are lost, its at-most-once table is
                             cleared, its object state persists. *)
  | Recover_server of int(** The server rejoins with its durable object
                             state under a fresh incarnation. *)
  | Crash_client of int
  | Tick                 (** Let simulated time pass (e.g. towards a
                             retransmission deadline or a partition
                             heal).  Always enabled. *)
  | Halt

type policy = world -> decision

val deliverable : world -> message_info list
(** Messages whose destination is still alive, oldest first. *)

val steppable : world -> int list

val pending_retransmits : world -> int list
(** Tickets with a live retransmission timer: no response yet, owner
    alive and still executing its operation, retry budget remaining.
    The world is not {!quiescent} while any remain. *)

val due_retransmits : world -> int list
(** The subset of {!pending_retransmits} whose deadline has passed —
    the tickets a [Retransmit] decision would accept. *)

val step : world -> decision -> bool
(** Executes one decision; [false] on [Halt]; raises [Invalid_argument]
    on decisions that are not enabled.  In particular [Crash_server]
    raises once [f] servers are concurrently down (a recovery frees the
    budget). *)

type outcome = { world : world; steps : int; halted : bool; quiescent : bool }

val run : ?max_steps:int -> world -> policy -> outcome

val quiescent : world -> bool
(** Nothing deliverable, no client steppable, no retransmission
    pending. *)

val random_policy :
  ?crash_servers:(int * int) list ->
  ?recover_servers:(int * int) list ->
  seed:int ->
  unit ->
  policy
(** Uniform over enabled actions (including due retransmissions);
    optionally crashes servers at the given [(time, server)] points and
    recovers them at the given [(time, server)] points (a recovery fires
    at the first poll at or after its time at which the server is
    down).  Ticks when only future retransmission deadlines remain. *)

val fifo_policy : unit -> policy
(** Always delivers the oldest deliverable message first: a synchronous,
    failure-free network. *)
