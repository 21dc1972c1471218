module R = Sb_sim.Runtime
module Engine = Sb_sim.Engine
module Trace = Sb_sim.Trace
module D = Sb_sim.Rmwdesc
module Mailbox = Client_core.Mailbox
module Rt = Client_core.Retransmit

type config = {
  n : int;
  f : int;
  sockdir : string;
  rto_ms : int;
  max_attempts : int;
  reconnect_ms : int;
  sample_every_ms : int;
  deadline_ms : int;
  think_ms : int;
  batch_max : int;
  flush_ms : int;
}

let default_config ~n ~f ~sockdir =
  {
    n;
    f;
    sockdir;
    rto_ms = 100;
    max_attempts = 0;
    reconnect_ms = 50;
    sample_every_ms = 20;
    deadline_ms = 120_000;
    think_ms = 0;
    batch_max = 1;
    flush_ms = 2;
  }

type sample = { at_ms : float; total_bits : int }

type failure_reason =
  | Attempts_exhausted of int
  | Deadline_expired

type op_failure = {
  fl_op : int;
  fl_client : int;
  fl_kind : Trace.op_kind;
  fl_at_ms : float;
  fl_reason : failure_reason;
}

type server_health = {
  sh_server : int;
  sh_connects : int;
  sh_dial_failures : int;
  sh_fail_streak : int;
}

exception Op_abandoned = Engine.Abandoned

type report = {
  trace : Trace.t;
  ops_invoked : int;
  ops_completed : int;
  wall_ms : float;
  latencies_ms : float list;  (* completion order *)
  samples : sample list;  (* chronological *)
  final_stats : Wire.stats list;
  desc_log : D.t list;  (* trigger order *)
  retransmissions : int;
  reconnects : int;
  recoveries_observed : int;
  batches_sent : int;  (* Req_batch frames (2+ requests each) *)
  frames_sent : int;  (* every frame handed to a socket buffer *)
  downgrades : int;
      (* v2+ handshakes that fell back to v1 after an old daemon closed *)
  schema_rejects : (int * string) list;
      (* typed handshake refusals, by server; chronological *)
  peak_sampled_bits : int;
  timed_out : bool;
  failures : op_failure list;
      (* typed per-operation failures, chronological: an operation that
         can no longer reach its quorum within the retransmission
         budget fails with [Attempts_exhausted]; operations still in
         flight when [deadline_ms] expires fail with
         [Deadline_expired].  Never a hang, never a raw exception. *)
  health : server_health list;
      (* per-server connection health at the end of the run *)
}

(* ------------------------------------------------------------------ *)
(* Engine state                                                         *)
(* ------------------------------------------------------------------ *)

type client = {
  fb : Engine.fiber;
  mutable queue : (string * Trace.op_kind) list;
  mutable key : string;
      (* the register the in-flight operation addresses; "" is the
         pre-sharding single register, and the only key v1/v2 peers can
         be spoken to about *)
  mutable op_start : float;
  mutable ready_at : float;  (* closed-loop pacing: next invocation time *)
}

type conn = {
  io : Conn.t;
  mutable pending : Wire.request list;  (* reversed batch buffer *)
  mutable pending_n : int;
  mutable pending_since : float;  (* wall-ms of the oldest pending req *)
}

type connstate = Up of conn | Down of { mutable retry_at : float }

type engine = {
  cfg : config;
  core : engine Engine.t;  (* runs the client fibers *)
  session : int;
      (* high bits of every wire client id, drawn once per engine: the
         daemon's at-most-once table is keyed by (key, client, ticket)
         and every engine numbers its slots from 0 and its tickets from
         1, so without the tag a later engine's write could be answered
         from an earlier engine's entry and never applied.  Constant
         across reconnects, so retransmissions still dedup.  Trace
         client ids, [ctx.self] and descriptions keep the plain slot. *)
  clients : client array;
  conns : connstate array;
  responses : Mailbox.t;
  timers : (int * Wire.msg) Rt.t;
      (* server id, request message — re-encoded at the server's
         negotiated version on every (re)send, so a retransmission
         armed before a downgrade still reaches the v1 server *)
  rt_cfg : Rt.config;
  mutable next_ticket : int;
  mutable lstep : int;  (* logical trace clock: bumps per event *)
  start : float;
  mutable desc_log : D.t list;  (* reversed *)
  mutable latencies : float list;  (* reversed *)
  mutable samples : sample list;  (* reversed *)
  mutable next_sample_at : float;
  last_stats : Wire.stats option array;
  incarnation_seen : int option array;
  mutable retransmissions : int;
  mutable reconnects : int;
  connects : int array;
  mutable recoveries_observed : int;
  peer_version : int array;
      (* negotiated wire version per server; starts optimistic *)
  welcomed : bool array;  (* this connection completed its handshake *)
  rejected : bool array;  (* typed schema reject: do not reconnect *)
  mutable downgrades : int;
  mutable schema_rejects : (int * string) list;  (* reversed *)
  hooks : Netfault.t;
  j_prng : Sb_util.Prng.t;
      (* backoff jitter; split from the root seed *after* the client
         prngs so client randomness streams (and thus desc_log parity
         with the simulated transport) are unchanged *)
  dial_failures : int array;
  fail_streak : int array;
      (* consecutive dial failures / drops per server; reset on
         Welcome.  Drives the escalating reconnect backoff so a dead
         peer is not hammered at a fixed cadence. *)
  mutable op_failures : op_failure list;  (* reversed *)
  open_loop : bool;
      (* open loop: completed slots return to [free_slots] instead of
         invoking their next queued operation, and the per-event trace
         and desc log are not accumulated (an open-loop run is tens of
         thousands of operations; its observables are counters and
         latencies, not histories) *)
  mutable free_slots : int list;
  mutable batches_sent : int;  (* Req_batch frames (2+ requests) *)
  mutable frames_sent : int;  (* every frame handed to a socket buffer *)
}

let now_ms eng = (Unix.gettimeofday () -. eng.start) *. 1000.0
let now_ms_int eng = int_of_float (now_ms eng)

let tick eng =
  eng.lstep <- eng.lstep + 1;
  eng.lstep

(* ------------------------------------------------------------------ *)
(* Connections                                                          *)
(* ------------------------------------------------------------------ *)

(* Escalating jittered reconnect backoff: reconnect_ms * 2^streak,
   capped at 32x, plus seeded jitter so a fleet of clients does not
   retry a dead peer in lockstep. *)
let retry_delay eng s =
  let base = max 1 eng.cfg.reconnect_ms in
  let d = min (base * (1 lsl min eng.fail_streak.(s) 5)) (base * 32) in
  float_of_int (d + Sb_util.Prng.int eng.j_prng (max 1 (base / 2)))

let dial_failed eng s =
  eng.dial_failures.(s) <- eng.dial_failures.(s) + 1;
  eng.fail_streak.(s) <- eng.fail_streak.(s) + 1;
  eng.conns.(s) <- Down { retry_at = now_ms eng +. retry_delay eng s }

(* Frames go out at the server's negotiated version, and each is
   written as soon as it is framed (what the socket does not take waits
   for select): a full batch reaches its server while the engine is
   still working through the round's replies, so client and server
   overlap instead of taking turns.  A closing connection drops the
   frame; retransmission takes over once the close lands and the server
   is re-dialled. *)
let send_msg eng s c msg =
  if not (Conn.closing c.io) then eng.frames_sent <- eng.frames_sent + 1;
  Conn.send_msg c.io ~now:(now_ms eng) ~version:eng.peer_version.(s) msg;
  Conn.flush c.io

let try_connect eng s =
  if not (eng.hooks.Netfault.nf_connect ~server:s) then dial_failed eng s
  else
    let path = Daemon.sockpath ~sockdir:eng.cfg.sockdir s in
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX path) with
    | () ->
      Unix.set_nonblock fd;
      let c =
        {
          io = Conn.create ~hooks:eng.hooks ~server:s fd;
          pending = [];
          pending_n = 0;
          pending_since = 0.0;
        }
      in
      eng.welcomed.(s) <- false;
      (* Hello optimistically at the last version this server spoke
         (initially ours); v1 framing drops the schema field itself. *)
      send_msg eng s c Wire.hello;
      eng.conns.(s) <- Up c;
      eng.connects.(s) <- eng.connects.(s) + 1;
      if eng.connects.(s) > 1 then eng.reconnects <- eng.reconnects + 1
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      dial_failed eng s

let mark_down eng s =
  (match eng.conns.(s) with
   | Up c ->
     Conn.close c.io;
     (* A close before [Welcome] while we were speaking v2+ is how an
        old daemon refuses frames it cannot decode: fall back to v1 for
        this server (sticky) and let the reconnect retry the
        handshake. *)
     if (not eng.welcomed.(s)) && eng.peer_version.(s) > 1 then begin
       eng.peer_version.(s) <- 1;
       eng.downgrades <- eng.downgrades + 1
     end
   | Down _ -> ());
  eng.fail_streak.(s) <- eng.fail_streak.(s) + 1;
  eng.conns.(s) <- Down { retry_at = now_ms eng +. retry_delay eng s }

let schema_reject eng s detail =
  eng.schema_rejects <- (s, detail) :: eng.schema_rejects;
  eng.rejected.(s) <- true;
  eng.welcomed.(s) <- true;  (* a typed refusal is not a downgrade *)
  mark_down eng s

let ensure_conns eng =
  Array.iteri
    (fun s st ->
      match st with
      | Up _ -> ()
      | Down d ->
        if (not eng.rejected.(s)) && now_ms eng >= d.retry_at then
          try_connect eng s)
    eng.conns

(* Flush a connection's batch buffer: one request goes out as the plain
   [Request] frame (so a batch_max > 1 client is byte-identical to a
   classic one under low concurrency), two or more as a [Req_batch]. *)
let flush_batch eng s c =
  match c.pending with
  | [] -> ()
  | [ rq ] ->
    c.pending <- [];
    c.pending_n <- 0;
    send_msg eng s c (Wire.Request rq)
  | rqs ->
    c.pending <- [];
    c.pending_n <- 0;
    eng.batches_sent <- eng.batches_sent + 1;
    send_msg eng s c (Wire.Req_batch (List.rev rqs))

(* A frame the peer's negotiated version cannot carry (keyed traffic
   below v3, an rw write below v4) is dropped rather than raised on —
   the operation fails by its retransmission/deadline budget, never the
   process. *)
let encodable eng s msg = Wire.encodable ~version:eng.peer_version.(s) msg

(* A request towards a dead server waits in its retransmit timer;
   resends go out once the connection is back.  Frames are encoded at
   send time, at the server's negotiated version.  Any pending batch
   flushes first: a connection's frames stay in send order. *)
let send_to eng s msg =
  match eng.conns.(s) with
  | Up c when encodable eng s msg ->
    flush_batch eng s c;
    send_msg eng s c msg
  | Up _ | Down _ -> ()

(* Triggered requests route here: buffered while batching is armed for
   the peer (negotiated v3+, handshake done), immediate otherwise. *)
let enqueue_req eng s (rq : Wire.request) =
  match eng.conns.(s) with
  | Up _ when not (encodable eng s (Wire.Request rq)) -> ()
  | Up c
    when eng.cfg.batch_max > 1
         && eng.welcomed.(s)
         && eng.peer_version.(s) >= 3
         && not (Conn.closing c.io) ->
    if c.pending = [] then c.pending_since <- now_ms eng;
    c.pending <- rq :: c.pending;
    c.pending_n <- c.pending_n + 1;
    if c.pending_n >= eng.cfg.batch_max then flush_batch eng s c
  | _ -> send_to eng s (Wire.Request rq)

(* Age-based flush: a batch never waits longer than [flush_ms] for
   co-travellers, so light load degenerates to single frames with a
   bounded (milliseconds) latency tax instead of a stall. *)
let fire_flushes eng =
  if eng.cfg.batch_max > 1 then begin
    let now = now_ms eng in
    Array.iteri
      (fun s st ->
        match st with
        | Up c
          when c.pending_n > 0
               && now -. c.pending_since >= float_of_int eng.cfg.flush_ms ->
          flush_batch eng s c
        | _ -> ())
      eng.conns
  end

(* ------------------------------------------------------------------ *)
(* Fibers: the same Trigger/Await effects, interpreted over sockets     *)
(* ------------------------------------------------------------------ *)

let timer_live eng ticket (t : (int * Wire.msg) Rt.timer) =
  (not (Mailbox.has eng.responses ticket))
  && Rt.within_budget eng.rt_cfg t
  && Option.is_some eng.clients.(t.Rt.owner).fb.current

(* Sockets as a transport of the client engine: a trigger encodes its
   description into a request, batched per connection when batching is
   armed, and arms a retransmission timer; an await reads the
   mailbox.  The request's payload is empty: every block the
   description carries already travels in it, and no daemon reads the
   field. *)
let transport =
  {
    Engine.send =
      (fun eng fb op obj nature d ->
        let ticket = eng.next_ticket in
        eng.next_ticket <- ticket + 1;
        if not eng.open_loop then eng.desc_log <- d :: eng.desc_log;
        let rq =
          {
            Wire.rq_key = eng.clients.(fb.Engine.cid).key;
            rq_client = eng.session lor fb.cid;
            rq_ticket = ticket;
            rq_op = op.R.id;
            rq_nature = nature;
            rq_payload = [];
            rq_desc = d;
          }
        in
        enqueue_req eng obj rq;
        Rt.arm eng.timers ~ticket ~owner:fb.cid
          ~deadline:(now_ms_int eng + eng.cfg.rto_ms)
          (obj, Wire.Request rq);
        ticket);
    ready =
      (fun eng tickets quorum -> Mailbox.satisfied eng.responses ~tickets ~quorum);
    collect =
      (fun eng _ tickets ->
        let rs = Mailbox.consume eng.responses ~tickets in
        Rt.cancel_list eng.timers tickets;
        rs);
    started = (fun _ _ -> ());
    retired = (fun _ _ _ -> ());
    clock = tick;
    traced = true;
  }

(* [at] is the operation's start for latency purposes: invocation time
   in the closed loop, the Poisson {e intended} time in the open loop —
   the open-loop latency includes any backlog queueing delay, which is
   what makes it coordinated-omission-safe. *)
let rec start_op eng cl (key, kind) ~at =
  cl.key <- key;
  cl.op_start <- at;
  if Engine.start eng.core eng cl.fb kind then finish_op eng cl

and finish_op eng cl =
  eng.latencies <- (now_ms eng -. cl.op_start) :: eng.latencies;
  after_op eng cl

and invoke_next eng cl =
  match cl.queue with
  | [] -> ()
  | op :: rest ->
    cl.queue <- rest;
    start_op eng cl op ~at:(now_ms eng)

(* Closed loop: the next operation follows the completed one, either
   immediately or after the configured think time.  Open loop: the slot
   returns to the pool; the arrival process owns invocation. *)
and after_op eng cl =
  if eng.open_loop then eng.free_slots <- cl.fb.cid :: eng.free_slots
  else if eng.cfg.think_ms = 0 then invoke_next eng cl
  else cl.ready_at <- now_ms eng +. float_of_int eng.cfg.think_ms

let resume_runnable eng =
  (* A single response can unblock several logical clients, and a
     resumed fiber can itself satisfy others; iterate to fixpoint. *)
  let progressed = ref true in
  while !progressed do
    progressed := false;
    Array.iter
      (fun cl ->
        match cl.fb.Engine.waiting with
        | Some p
          when Mailbox.satisfied eng.responses ~tickets:p.tickets
                 ~quorum:p.quorum ->
          progressed := true;
          if Engine.resume eng.core eng cl.fb then finish_op eng cl
        | _ -> ())
      eng.clients
  done

(* ------------------------------------------------------------------ *)
(* Inbound frames                                                       *)
(* ------------------------------------------------------------------ *)

let note_incarnation eng s inc =
  (match eng.incarnation_seen.(s) with
   | Some prev when inc > prev -> eng.recoveries_observed <- eng.recoveries_observed + 1
   | _ -> ());
  match eng.incarnation_seen.(s) with
  | Some prev when prev >= inc -> ()
  | _ -> eng.incarnation_seen.(s) <- Some inc

let record_sample eng =
  let all = Array.for_all Option.is_some eng.last_stats in
  if all then begin
    let total =
      Array.fold_left
        (fun acc st ->
          match st with Some s -> acc + s.Wire.st_storage_bits | None -> acc)
        0 eng.last_stats
    in
    eng.samples <- { at_ms = now_ms eng; total_bits = total } :: eng.samples
  end

let rec handle_inbound eng s (msg : Wire.msg) =
  match msg with
  | Wire.Welcome { server; incarnation; schema } ->
    if server = s then begin
      match Wire.accept_welcome schema with
      | Error drift -> schema_reject eng s drift
      | Ok v ->
        eng.welcomed.(s) <- true;
        eng.peer_version.(s) <- v;
        eng.fail_streak.(s) <- 0;
        note_incarnation eng s incarnation
    end
  | Wire.Reject { rj_code; rj_detail } ->
    schema_reject eng s
      (Printf.sprintf "%s: %s" (Wire.reject_code_name rj_code) rj_detail)
  | Wire.Response rs -> handle_response eng s rs
  | Wire.Resp_batch rss -> List.iter (handle_response eng s) rss
  | Wire.Stats st ->
    eng.last_stats.(s) <- Some st;
    note_incarnation eng s st.Wire.st_incarnation;
    record_sample eng
  | Wire.Hello _ | Wire.Request _ | Wire.Req_batch _ | Wire.Stats_query ->
    (* Client-to-server traffic arriving at the client: drop the peer. *)
    mark_down eng s

(* Only a ticket whose retransmission timer is still armed is awaited: a
   late or duplicate reply, for a ticket already answered, collected or
   abandoned, is not stored. *)
and handle_response eng s (rs : Wire.response) =
  note_incarnation eng s rs.Wire.rs_incarnation;
  if Option.is_some (Rt.find eng.timers rs.Wire.rs_ticket) then begin
    Mailbox.record eng.responses ~ticket:rs.Wire.rs_ticket
      ~obj:rs.Wire.rs_server rs.Wire.rs_resp;
    Rt.cancel eng.timers rs.Wire.rs_ticket
  end

(* ------------------------------------------------------------------ *)
(* The driver loop                                                      *)
(* ------------------------------------------------------------------ *)

let all_done eng =
  Array.for_all
    (fun cl -> cl.queue = [] && Option.is_none cl.fb.current)
    eng.clients

(* ------------------------------------------------------------------ *)
(* Typed failure paths: never hang, never leak a suspended fiber        *)
(* ------------------------------------------------------------------ *)

(* Abandon the slot's operation — the engine unwinds its fiber with
   [Op_abandoned] — sweep every timer the slot still owns, and record
   the typed failure. *)
let fail_op eng cl reason =
  (match cl.fb.Engine.waiting with
   | Some w -> ignore (Mailbox.consume eng.responses ~tickets:w.tickets)
   | None -> ());
  match Engine.abandon cl.fb with
  | None -> ()
  | Some op ->
    Rt.cancel_list eng.timers (Rt.owned eng.timers ~owner:cl.fb.cid);
    eng.op_failures <-
      {
        fl_op = op.R.id;
        fl_client = cl.fb.cid;
        fl_kind = op.R.kind;
        fl_at_ms = now_ms eng;
        fl_reason = reason;
      }
      :: eng.op_failures

(* With a bounded retransmission budget, a waiting operation whose
   remaining reachable responses cannot meet its quorum is failed with
   a typed [Attempts_exhausted] instead of hanging forever.  A ticket
   still counts as reachable while its final attempt's RTO window is
   open — the last send gets its chance to land. *)
let sweep_exhausted eng =
  if eng.cfg.max_attempts > 0 then begin
    let now = now_ms_int eng in
    Array.iter
      (fun cl ->
        match cl.fb.Engine.waiting with
        | None -> ()
        | Some { tickets = w_tickets; quorum = w_quorum; _ } ->
          let reachable =
            List.fold_left
              (fun acc tk ->
                if Mailbox.has eng.responses tk then acc + 1
                else
                  match Rt.find eng.timers tk with
                  | Some t
                    when Rt.within_budget eng.rt_cfg t || now < t.Rt.deadline
                    -> acc + 1
                  | Some _ | None -> acc)
              0 w_tickets
          in
          if reachable < w_quorum then begin
            let attempts =
              List.fold_left
                (fun acc tk ->
                  match Rt.find eng.timers tk with
                  | Some t -> max acc t.Rt.attempt
                  | None -> acc)
                0 w_tickets
            in
            fail_op eng cl (Attempts_exhausted attempts);
            after_op eng cl
          end)
      eng.clients
  end

let fail_in_flight eng reason =
  Array.iter (fun cl -> fail_op eng cl reason) eng.clients

let fire_retransmits eng =
  List.iter
    (fun ticket ->
      match Rt.find eng.timers ticket with
      | None -> ()
      | Some t ->
        (* Cap the exponential term and add seeded jitter so retry
           storms against a recovering daemon de-synchronise. *)
        Rt.backoff
          ~cap:(eng.cfg.rto_ms * 64)
          ~jitter:(Sb_util.Prng.int eng.j_prng (max 1 (eng.cfg.rto_ms / 2)))
          eng.rt_cfg t ~now:(now_ms_int eng);
        eng.retransmissions <- eng.retransmissions + 1;
        let s, req = t.Rt.req in
        send_to eng s req)
    (Rt.due eng.timers ~now:(now_ms_int eng) ~live:(timer_live eng))

let fire_sampling eng =
  if eng.cfg.sample_every_ms > 0 && now_ms eng >= eng.next_sample_at then begin
    eng.next_sample_at <-
      now_ms eng +. float_of_int eng.cfg.sample_every_ms;
    Array.fill eng.last_stats 0 (Array.length eng.last_stats) None;
    Array.iteri (fun s _ -> send_to eng s Wire.Stats_query) eng.conns
  end

(* A connection that closed itself — end of file, a socket error, a
   malformed frame, a landed slow close — is marked down once. *)
let settle_conn eng s =
  match eng.conns.(s) with
  | Up c when Conn.closed c.io -> mark_down eng s
  | Up _ | Down _ -> ()

let select_round eng timeout =
  let now = now_ms eng in
  let rds = ref [] and wrs = ref [] in
  Array.iteri
    (fun s st ->
      match st with
      | Up c ->
        Conn.tick c.io ~now;
        settle_conn eng s;
        if not (Conn.closed c.io) then begin
          rds := Conn.fd c.io :: !rds;
          if Conn.pending c.io then wrs := Conn.fd c.io :: !wrs
        end
      | Down _ -> ())
    eng.conns;
  match Unix.select !rds !wrs [] timeout with
  | readable, writable, _ ->
    Array.iteri
      (fun s st ->
        match st with
        | Up c ->
          if List.memq (Conn.fd c.io) writable then Conn.flush c.io;
          (* The SDK keeps reading replies until its own close lands. *)
          if List.memq (Conn.fd c.io) readable then
            Conn.receive c.io ~while_closing:true (handle_inbound eng s);
          settle_conn eng s
        | Down _ -> ())
      eng.conns
  | exception Unix.Unix_error (EINTR, _, _) -> ()

(* A session tag with at least one bit set, fresh per engine and per
   process, shifted clear of every slot number. *)
let session_tag () =
  (Random.State.bits (Random.State.make_self_init ()) lor 1) lsl 32

let create ?(hooks = Netfault.none) ?(open_loop = false) ~algorithm ~seed
    ~workload cfg =
  let root = Sb_util.Prng.create seed in
  (* Clients split from the root first, in cid order — the same order
     the simulated transport uses, so desc_log parity holds.  The
     jitter prng splits strictly after them. *)
  let clients =
    Array.mapi
      (fun i ops ->
        {
          fb = Engine.fiber ~cid:i ~prng:(Sb_util.Prng.split root);
          queue = ops;
          key = "";
          op_start = 0.0;
          ready_at = 0.0;
        })
      workload
  in
  let j_prng = Sb_util.Prng.split root in
  {
    cfg;
    core =
      Engine.create ~n:cfg.n ~algorithm ~base_model:Sb_baseobj.Model.Rmw
        { transport with traced = not open_loop };
    session = session_tag ();
    clients;
    conns = Array.init cfg.n (fun _ -> Down { retry_at = 0.0 });
    responses = Mailbox.create ();
    timers = Rt.create ();
    rt_cfg = { Rt.rto = cfg.rto_ms; max_attempts = cfg.max_attempts };
    next_ticket = 1;
    lstep = 0;
    start = Unix.gettimeofday ();
    desc_log = [];
    latencies = [];
    samples = [];
    next_sample_at = 0.0;
    last_stats = Array.make cfg.n None;
    incarnation_seen = Array.make cfg.n None;
    retransmissions = 0;
    reconnects = 0;
    connects = Array.make cfg.n 0;
    recoveries_observed = 0;
    peer_version = Array.make cfg.n Wire.version;
    welcomed = Array.make cfg.n false;
    rejected = Array.make cfg.n false;
    downgrades = 0;
    schema_rejects = [];
    hooks;
    j_prng;
    dial_failures = Array.make cfg.n 0;
    fail_streak = Array.make cfg.n 0;
    op_failures = [];
    open_loop;
    free_slots = [];
    batches_sent = 0;
    frames_sent = 0;
  }

(* A quiescent stats round over fresh connections; used for the final
   report and exposed for post-run floor checks.

   Each connection handshakes first and queries at the negotiated
   version — min(ours, the Welcome's schema version) — so a v3 daemon
   answers with its per-shard aggregation tail while older daemons
   still answer with their own framing.  A daemon so old it closes the
   connection on a too-new [Hello] (instead of answering [Welcome]) is
   retried once pinned at v1, mirroring the engine's sticky
   downgrade. *)
let fetch_stats ?(timeout_ms = 5000) ~sockdir ~servers () =
  (* One attempt over a fresh connection: [`Stats], [`Rejected],
     [`Closed] (hung up before [Welcome] while we spoke v2+: an old
     daemon refusing frames it cannot decode), [`Failed] (a socket
     error) or [`Timeout] (the attempt's window passed, or the peer hung
     up later). *)
  let query c hello_v ~until =
    let send v msg =
      Conn.send_msg c ~now:(Unix.gettimeofday () *. 1000.0) ~version:v msg;
      Conn.flush c
    in
    let result = ref None and welcomed = ref false in
    let finish r =
      result := Some r;
      Conn.close c
    in
    let on_msg = function
      | Wire.Welcome { schema; _ } when not !welcomed -> (
        welcomed := true;
        match Wire.accept_welcome schema with
        | Ok v -> send v Wire.Stats_query
        | Error _ -> finish `Rejected)
      | Wire.Stats st -> finish (`Stats st)
      | Wire.Reject _ -> finish `Rejected
      | _ -> ()
    in
    (* v1 framing drops the schema field itself. *)
    send hello_v Wire.hello;
    let rec wait () =
      match !result with
      | Some r -> r
      | None when Conn.closed c ->
        if not (Conn.eof c) then `Failed
        else if (not !welcomed) && hello_v > 1 then `Closed
        else `Timeout
      | None -> (
        let remaining = until -. Unix.gettimeofday () in
        if remaining <= 0.0 then `Timeout
        else
          match Unix.select [ Conn.fd c ] [] [] remaining with
          | [], _, _ -> `Timeout
          | _ ->
            Conn.receive c ~while_closing:true on_msg;
            wait ())
    in
    wait ()
  in
  List.filter_map
    (fun s ->
      (* Budgeted per server: a slow or unreachable server exhausts its
         own window, never the remaining servers'. *)
      let deadline =
        Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.0)
      in
      let path = Daemon.sockpath ~sockdir s in
      let rec attempt hello_v =
        if Unix.gettimeofday () > deadline then None
        else
          let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
          let c = Conn.create ~hooks:Netfault.none ~server:s fd in
          (* Reads are select-bounded: a reply lost to a fault plane (or
             a wedged server) costs one short attempt, not a hang — the
             retry re-dials and re-queries from scratch. *)
          let until = min deadline (Unix.gettimeofday () +. 0.5) in
          match
            Fun.protect
              ~finally:(fun () -> Conn.close c)
              (fun () ->
                Unix.connect fd (ADDR_UNIX path);
                query c hello_v ~until)
          with
          | `Stats st -> Some st
          | `Rejected -> None
          | `Closed -> attempt 1
          | `Timeout -> attempt hello_v
          | `Failed | (exception Unix.Unix_error _) ->
            if Unix.gettimeofday () > deadline then None
            else begin
              Unix.sleepf 0.02;
              attempt hello_v
            end
      in
      attempt Wire.version)
    servers

let report_of eng ~wall_ms ~final_stats ~timed_out =
  let peak_sampled_bits =
    List.fold_left (fun acc s -> max acc s.total_bits) 0 eng.samples
  in
  {
    trace = Engine.trace eng.core;
    ops_invoked = Engine.invoked eng.core;
    ops_completed = Engine.completed eng.core;
    wall_ms;
    latencies_ms = List.rev eng.latencies;
    samples = List.rev eng.samples;
    final_stats;
    desc_log = List.rev eng.desc_log;
    retransmissions = eng.retransmissions;
    reconnects = eng.reconnects;
    recoveries_observed = eng.recoveries_observed;
    batches_sent = eng.batches_sent;
    frames_sent = eng.frames_sent;
    downgrades = eng.downgrades;
    schema_rejects = List.rev eng.schema_rejects;
    peak_sampled_bits;
    timed_out;
    failures = List.rev eng.op_failures;
    health =
      List.init eng.cfg.n (fun s ->
          {
            sh_server = s;
            sh_connects = eng.connects.(s);
            sh_dial_failures = eng.dial_failures.(s);
            sh_fail_streak = eng.fail_streak.(s);
          });
  }

let invoke_due eng =
  if eng.cfg.think_ms > 0 then
    Array.iter
      (fun cl ->
        if Option.is_none cl.fb.current && cl.queue <> []
           && now_ms eng >= cl.ready_at
        then invoke_next eng cl)
      eng.clients

(* A server closing mid-write (crash, slow-close fault) must surface
   as EPIPE on the socket, not kill the whole client process. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

(* One round of timers, batching and socket I/O, then every fiber the
   round's responses unblock. *)
let serve_round eng timeout =
  fire_retransmits eng;
  fire_sampling eng;
  sweep_exhausted eng;
  fire_flushes eng;
  select_round eng timeout;
  resume_runnable eng

(* The loop both drivers share: re-dial, then [step], until [finished]
   or the run deadline; then close the connections and report after a
   quiescent stats round. *)
let run_loop eng ~finished step =
  let timed_out = ref false in
  while (not (finished ())) && not !timed_out do
    if now_ms eng > float_of_int eng.cfg.deadline_ms then begin
      timed_out := true;
      (* The deadline is a typed failure, not a silent hang: every
         in-flight operation is unwound and recorded. *)
      fail_in_flight eng Deadline_expired
    end
    else begin
      ensure_conns eng;
      step ()
    end
  done;
  let wall_ms = now_ms eng in
  Array.iter
    (fun st ->
      match st with Up c -> Conn.close c.io | Down _ -> ())
    eng.conns;
  let final_stats =
    fetch_stats ~timeout_ms:5000 ~sockdir:eng.cfg.sockdir
      ~servers:(List.init eng.cfg.n Fun.id) ()
  in
  report_of eng ~wall_ms ~final_stats ~timed_out:!timed_out

let drive eng =
  ignore_sigpipe ();
  ensure_conns eng;
  (* Invoke every client's first operation, in cid order — the same
     deterministic start the simulated transports use. *)
  Array.iter (fun cl -> invoke_next eng cl) eng.clients;
  run_loop eng
    ~finished:(fun () -> all_done eng)
    (fun () ->
      invoke_due eng;
      serve_round eng 0.02)

let run_keyed ?hooks ~algorithm ~seed ~workload cfg =
  drive (create ?hooks ~algorithm ~seed ~workload cfg)

(* ------------------------------------------------------------------ *)
(* The open loop                                                        *)
(* ------------------------------------------------------------------ *)

type open_config = {
  ol_rate : float;
  ol_duration_ms : int;
  ol_keys : int;
  ol_zipf : float;
  ol_write_ratio : float;
  ol_max_inflight : int;
  ol_value : int -> bytes;
}

let default_open_config =
  {
    ol_rate = 500.0;
    ol_duration_ms = 10_000;
    ol_keys = 100;
    ol_zipf = 0.0;
    ol_write_ratio = 0.5;
    ol_max_inflight = 512;
    ol_value = (fun i -> Bytes.of_string (Printf.sprintf "v%08d" i));
  }

let key_name r = Printf.sprintf "k%05d" r

(* Key sampler over ranks [0, keys): [zipf = 0] is uniform, otherwise
   the Zipfian exponent (cdf inverted by binary search).  Rank-to-name
   mapping is dense; the consistent hash scatters hot ranks over
   shards. *)
let make_key_sampler ~keys ~zipf prng =
  if keys <= 1 then fun () -> 0
  else if zipf <= 0.0 then fun () -> Sb_util.Prng.int prng keys
  else begin
    let cdf = Array.make keys 0.0 in
    let acc = ref 0.0 in
    for r = 0 to keys - 1 do
      acc := !acc +. (1.0 /. (float_of_int (r + 1) ** zipf));
      cdf.(r) <- !acc
    done;
    let total = !acc in
    fun () ->
      let u = Sb_util.Prng.float prng total in
      let lo = ref 0 and hi = ref (keys - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) > u then hi := mid else lo := mid + 1
      done;
      !lo
  end

let run_open ?hooks ~algorithm ~seed ocfg cfg =
  if ocfg.ol_rate <= 0.0 then invalid_arg "Sdk.run_open: rate must be > 0";
  if ocfg.ol_keys < 1 then invalid_arg "Sdk.run_open: keys must be >= 1";
  if ocfg.ol_max_inflight < 1 then
    invalid_arg "Sdk.run_open: max_inflight must be >= 1";
  let eng =
    create ?hooks ~open_loop:true ~algorithm ~seed
      ~workload:(Array.make ocfg.ol_max_inflight [])
      cfg
  in
  eng.free_slots <- List.init ocfg.ol_max_inflight Fun.id;
  (* Arrival/key randomness is independent of the client prngs: the
     open loop has no simulator twin to keep desc parity with. *)
  let a_prng = Sb_util.Prng.create (seed lxor 0x5bd1e995) in
  let sample_key =
    make_key_sampler ~keys:ocfg.ol_keys ~zipf:ocfg.ol_zipf a_prng
  in
  let duration = float_of_int ocfg.ol_duration_ms in
  (* Poisson arrivals: exponential inter-arrival gaps, in ms. *)
  let interarrival () =
    let u = Sb_util.Prng.float a_prng 1.0 in
    -.log (1.0 -. u) /. ocfg.ol_rate *. 1000.0
  in
  let backlog = Queue.create () in
  let next_arrival = ref (interarrival ()) in
  let writes = ref 0 in
  (* Materialise every arrival whose intended time has passed, whether
     or not a slot is free: an arrival that must wait in the backlog
     keeps its intended start, so its queueing delay is measured —
     never omitted — by the latency it eventually reports. *)
  let gen_due () =
    let now = now_ms eng in
    while !next_arrival <= now && !next_arrival <= duration do
      let key = key_name (sample_key ()) in
      let kind =
        if Sb_util.Prng.float a_prng 1.0 < ocfg.ol_write_ratio then begin
          incr writes;
          Trace.Write (ocfg.ol_value !writes)
        end
        else Trace.Read
      in
      Queue.add (!next_arrival, key, kind) backlog;
      next_arrival := !next_arrival +. interarrival ()
    done
  in
  let rec assign () =
    match (eng.free_slots, Queue.peek_opt backlog) with
    | cid :: rest, Some (intended, key, kind) ->
      ignore (Queue.pop backlog);
      eng.free_slots <- rest;
      start_op eng eng.clients.(cid) (key, kind) ~at:intended;
      assign ()
    | _ -> ()
  in
  ignore_sigpipe ();
  ensure_conns eng;
  run_loop eng
    ~finished:(fun () ->
      !next_arrival > duration && Queue.is_empty backlog && all_done eng)
    (fun () ->
      gen_due ();
      assign ();
      (* Fine-grained while arrivals are still being injected (their
         timing is the experiment); relaxed once only the drain and
         its responses remain. *)
      serve_round eng (if now_ms eng <= duration then 0.002 else 0.02);
      assign ())
