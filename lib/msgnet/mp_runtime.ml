module R = Sb_sim.Runtime
module Engine = Sb_sim.Engine
module Trace = Sb_sim.Trace
module Objstate = Sb_storage.Objstate
module Score = Sb_service.Server_core
module Mailbox = Sb_service.Client_core.Mailbox
module Rt = Sb_service.Client_core.Retransmit

type message_kind = Request | Response

(* A request carries its RMW's description — exactly what
   [Sb_service.Wire] puts on a real wire, so the two transports ship
   identical requests — with the blocks it carries
   ([Rmwdesc.payload desc], kept from the send); a response carries the
   RMW's result. *)
type body =
  | Req of { desc : Sb_sim.Rmwdesc.t; payload : Sb_storage.Block.t list }
  | Resp of R.resp

type message = {
  msg_id : int;
  m_client : int;
  m_server : int;
  m_ticket : int;
  m_op : int;
  body : body;
  m_nature : R.rmw_nature;
  (* The destination server's incarnation when a request was (re)sent;
     the sending server's incarnation for a response.  Deliveries whose
     stamp no longer matches the server's current incarnation are
     fenced: the connection they travelled on died with the old
     incarnation. *)
  m_incarnation : int;
  sent_at : int;
}

type message_info = {
  msg_id : int;
  kind : message_kind;
  m_client : int;
  m_server : int;
  m_ticket : int;
  m_op : int;
  m_bits : int;
  m_incarnation : int;
  sent_at : int;
}

type client = {
  fb : Engine.fiber;
  mutable queue : Trace.op_kind list;
  mutable crashed : bool;
}

(* The timer wheel itself lives in [Sb_service.Client_core], shared
   with the socket client; the retained request lives in client memory
   (uncharged by Definition 2, which counts block bits at base objects
   and in channels) — each resend puts a fresh copy of the payload on
   the wire, where it does count. *)
type retransmit_config = Rt.config = {
  rto : int;  (* initial timeout, in simulation steps *)
  max_attempts : int;  (* 0 = unbounded *)
}

type net_stats = {
  dropped : int;
  duplicated : int;
  retransmissions : int;
  fenced : int;
  dedup_hits : int;
  dropped_at_crash : int;
  recoveries : int;
}

type world = {
  n : int;
  f : int;
  fifo : bool;
  base_model : Sb_baseobj.Model.t;
  byz : Sb_baseobj.Model.byz_policy option;
  init_states : Objstate.t array;
  (* Pristine [init_obj] states for Byzantine stale-echo policies. *)
  retransmit : retransmit_config option;
  (* Each server is a [Sb_service.Server_core]: durable objstate,
     incarnation counter, and the volatile per-incarnation at-most-once
     table ((client, ticket) -> recorded response; the dedup key is
     morally (client, ticket, incarnation)).  RMWs re-applied across a
     recovery must be idempotent, which the register protocols
     guarantee and [Sb_sanitize] spot-checks.  The very same module
     serves requests in the socket daemons. *)
  servers : Score.t array;
  server_live : bool array;
  clients : client array;
  channel : (int, message) Hashtbl.t;
  mutable channel_order : int list; (* newest first *)
  responses : Mailbox.t;
  timers : message Rt.t; (* keyed by ticket *)
  mutable next_msg : int;
  mutable next_ticket : int;
  mutable now : int;
  eng : world Engine.t;
  (* Runs the client fibers and keeps the trace and the observers, with
     the same contract as [Runtime.add_observer]: monitors consume the
     shared-memory event vocabulary, with servers in the object role. *)
  tr : Trace.t; (* [Engine.trace eng] *)
  mutable max_server_bits : int;
  mutable max_channel_bits : int;
  mutable max_combined_bits : int;
  mutable requests_sent : int;
  mutable responses_sent : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable retransmissions : int;
  mutable fenced : int;
  mutable dedup_hits : int;
  mutable dropped_at_crash : int;
  mutable recoveries : int;
}

let resp_bits = function
  | R.Ack -> 0
  | R.Snap st -> Objstate.bits st

let message_bits m =
  match m.body with
  | Req { payload; _ } -> Sb_storage.Accounting.bits_of_blocks payload
  | Resp resp -> resp_bits resp

let kind m = match m.body with Req _ -> Request | Resp _ -> Response

let info_of (m : message) : message_info =
  {
    msg_id = m.msg_id;
    kind = kind m;
    m_client = m.m_client;
    m_server = m.m_server;
    m_ticket = m.m_ticket;
    m_op = m.m_op;
    m_bits = message_bits m;
    m_incarnation = m.m_incarnation;
    sent_at = m.sent_at;
  }

let add_observer w f = Engine.add_observer w.eng f
let observed w = Engine.observed w.eng
let emit w ev = Engine.emit w.eng ev

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let time w = w.now
let n_servers w = w.n
let f_tolerance w = w.f
let base_model w = w.base_model

let byz_compromised w o =
  match w.byz with
  | Some bp -> bp.Sb_baseobj.Model.bp_compromised o
  | None -> false
let server_state w i = Score.state w.servers.(i)
let server_alive w i = w.server_live.(i)
let server_incarnation w i = Score.incarnation w.servers.(i)
let client_count w = Array.length w.clients

let in_flight w =
  List.rev_map (fun id -> info_of (Hashtbl.find w.channel id)) w.channel_order

let storage_bits_servers w =
  let acc = ref 0 in
  for i = 0 to w.n - 1 do
    if w.server_live.(i) then acc := !acc + Score.storage_bits w.servers.(i)
  done;
  !acc

let storage_bits_channels w =
  (* sb-lint: allow hashtbl-order — commutative sum of message bits *)
  Hashtbl.fold (fun _ m acc -> acc + message_bits m) w.channel 0

let max_bits_servers w = w.max_server_bits
let max_bits_channels w = w.max_channel_bits
let max_bits_combined w = w.max_combined_bits

let net_stats w =
  {
    dropped = w.dropped;
    duplicated = w.duplicated;
    retransmissions = w.retransmissions;
    fenced = w.fenced;
    dedup_hits = w.dedup_hits;
    dropped_at_crash = w.dropped_at_crash;
    recoveries = w.recoveries;
  }

let outstanding_ops w =
  Array.to_list w.clients
  |> List.filter_map (fun cl -> if cl.crashed then None else cl.fb.current)

(* ||S(t,w)|| over the message-passing world: blocks at live servers,
   request payloads in flight from clients other than w's own, and
   blocks inside snapshot responses travelling in channels. *)
let visible_blocks_excluding w ~client =
  let server_blocks =
    List.concat
      (List.init w.n (fun i ->
           if w.server_live.(i) then Objstate.blocks (Score.state w.servers.(i))
           else []))
  in
  (* sb-lint: allow hashtbl-order — feeds Accounting.contribution, an order-insensitive index-set sum *)
  Hashtbl.fold
    (fun _ (m : message) acc ->
      match m.body with
      | Req { payload; _ } ->
        if m.m_client = client || w.clients.(m.m_client).crashed then acc
        else payload @ acc
      | Resp (R.Snap st) -> Objstate.blocks st @ acc
      | Resp R.Ack -> acc)
    w.channel server_blocks

let op_contribution w (op : R.op) =
  Sb_storage.Accounting.contribution ~source:op.R.id
    (visible_blocks_excluding w ~client:op.R.client)
let requests_sent w = w.requests_sent
let responses_sent w = w.responses_sent
let trace w = w.tr

let update_maxima w =
  let s = storage_bits_servers w in
  let c = storage_bits_channels w in
  if s > w.max_server_bits then w.max_server_bits <- s;
  if c > w.max_channel_bits then w.max_channel_bits <- c;
  if s + c > w.max_combined_bits then w.max_combined_bits <- s + c

(* ------------------------------------------------------------------ *)
(* Retransmission timers                                               *)
(* ------------------------------------------------------------------ *)

let timer_live w ticket (t : message Rt.timer) =
  (not (Mailbox.has w.responses ticket))
  && (match w.retransmit with
     | None -> false
     | Some rc -> Rt.within_budget rc t)
  &&
  let cl = w.clients.(t.Rt.owner) in
  (not cl.crashed) && Option.is_some cl.fb.current

let pending_retransmits w = Rt.pending w.timers ~live:(timer_live w)
let due_retransmits w = Rt.due w.timers ~now:w.now ~live:(timer_live w)
let clear_timers w tickets = Rt.cancel_list w.timers tickets

(* ------------------------------------------------------------------ *)
(* Fibers: interpret the shared-memory effects over messages           *)
(* ------------------------------------------------------------------ *)

let responses_for w tickets = Mailbox.responses_for w.responses ~tickets
let await_satisfied w tickets quorum =
  Mailbox.satisfied w.responses ~tickets ~quorum

let fresh_msg_id w =
  let id = w.next_msg in
  w.next_msg <- id + 1;
  id

let send w (msg : message) =
  (match msg.body with
   | Req _ -> w.requests_sent <- w.requests_sent + 1
   | Resp _ -> w.responses_sent <- w.responses_sent + 1);
  Hashtbl.add w.channel msg.msg_id msg;
  w.channel_order <- msg.msg_id :: w.channel_order

(* Messages as a transport of the client engine: a trigger sends a
   request (and arms its retransmission timer), an await reads the
   responses that have come back. *)
let transport =
  {
    Engine.send =
      (fun w fb op obj nature desc ->
        let ticket = w.next_ticket in
        w.next_ticket <- ticket + 1;
        let msg =
          {
            msg_id = fresh_msg_id w;
            m_client = fb.Engine.cid;
            m_server = obj;
            m_ticket = ticket;
            m_op = op.R.id;
            body = Req { desc; payload = Sb_sim.Rmwdesc.payload desc };
            m_nature = nature;
            m_incarnation = Score.incarnation w.servers.(obj);
            sent_at = w.now;
          }
        in
        send w msg;
        (match w.retransmit with
         | Some rc ->
           Rt.arm w.timers ~ticket ~owner:fb.cid ~deadline:(w.now + rc.rto) msg
         | None -> ());
        ticket);
    ready = (fun w tickets quorum -> await_satisfied w tickets quorum);
    collect =
      (fun w _ tickets ->
        let rs = responses_for w tickets in
        clear_timers w tickets;
        rs);
    started = (fun _ _ -> ());
    retired = (fun _ _ _ -> ());
    clock = (fun w -> w.now);
    traced = true;
  }

let create ?(seed = 1) ?(fifo = false) ?(dedup = true) ?retransmit
    ?(base_model = Sb_baseobj.Model.Rmw) ?byz ~algorithm ~n ~f ~workload () =
  if f < 0 || 2 * f >= n then invalid_arg "Mp_runtime.create: need 0 <= f < n/2";
  (match byz with
  | Some policy -> Sb_baseobj.Model.check_policy base_model ~n policy
  | None -> ());
  (match retransmit with
   | Some { rto; _ } when rto <= 0 ->
     invalid_arg "Mp_runtime.create: retransmission timeout must be positive"
   | _ -> ());
  let root = Sb_util.Prng.create seed in
  let eng = Engine.create ~n ~algorithm ~base_model transport in
  {
    n;
    f;
    fifo;
    base_model;
    byz;
    init_states = Array.init n algorithm.R.init_obj;
    retransmit;
    servers = Array.init n (fun i -> Score.create ~dedup (algorithm.R.init_obj i));
    server_live = Array.make n true;
    clients =
      Array.mapi
        (fun i ops ->
          {
            fb = Engine.fiber ~cid:i ~prng:(Sb_util.Prng.split root);
            queue = ops;
            crashed = false;
          })
        workload;
    channel = Hashtbl.create 64;
    channel_order = [];
    responses = Mailbox.create ();
    timers = Rt.create ();
    next_msg = 1;
    next_ticket = 1;
    now = 0;
    eng;
    tr = Engine.trace eng;
    max_server_bits = 0;
    max_channel_bits = 0;
    max_combined_bits = 0;
    requests_sent = 0;
    responses_sent = 0;
    dropped = 0;
    duplicated = 0;
    retransmissions = 0;
    fenced = 0;
    dedup_hits = 0;
    dropped_at_crash = 0;
    recoveries = 0;
  }

let invoke_next w cl =
  match cl.queue with
  | [] -> invalid_arg "Mp_runtime.step: client has no queued operation"
  | kind :: rest ->
    cl.queue <- rest;
    ignore (Engine.start w.eng w cl.fb kind)

let resume w cl =
  match cl.fb.waiting with
  | None -> invalid_arg "Mp_runtime.step: client is not waiting"
  | Some p ->
    if not (await_satisfied w p.tickets p.quorum) then
      invalid_arg "Mp_runtime.step: client's quorum is not satisfied";
    ignore (Engine.resume w.eng w cl.fb)

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

type decision =
  | Deliver_msg of int
  | Step of int
  | Drop_msg of int
  | Duplicate_msg of int
  | Retransmit of int
  | Crash_server of int
  | Recover_server of int
  | Crash_client of int
  | Tick
  | Halt

type policy = world -> decision

let destination_alive w (m : message) =
  match m.body with
  | Req _ -> w.server_live.(m.m_server)
  | Resp _ -> not w.clients.(m.m_client).crashed

(* Channel identity: messages between the same (client, server) pair in
   the same direction share a channel; FIFO mode only exposes the oldest
   undelivered message on each channel. *)
let channel_key (m : message) = (kind m, m.m_client, m.m_server)

(* The read/write base-object model guarantees per-(client, object)
   issue-order application regardless of the configured transport mode:
   request channels are forced FIFO so a straggling blind overwrite can
   never roll a cell backwards past a newer write on the same channel.
   Response channels stay free to reorder. *)
let fifo_channel w (m : message) =
  w.fifo || (Sb_baseobj.Model.fifo_writes w.base_model && kind m = Request)

let head_of_channel w (m : message) =
  List.for_all
    (fun id ->
      let m' = Hashtbl.find w.channel id in
      channel_key m' <> channel_key m || m'.msg_id >= m.msg_id)
    w.channel_order

let deliverable w =
  List.rev
    (List.filter_map
       (fun id ->
         let m = Hashtbl.find w.channel id in
         if
           destination_alive w m
           && ((not (fifo_channel w m)) || head_of_channel w m)
         then Some (info_of m)
         else None)
       w.channel_order)

let steppable w =
  Array.to_list w.clients
  |> List.filter_map (fun cl ->
         if cl.crashed then None
         else
           match (cl.fb.current, cl.fb.waiting) with
           | None, _ when cl.queue <> [] -> Some cl.fb.cid
           | Some _, Some p when await_satisfied w p.tickets p.quorum ->
             Some cl.fb.cid
           | _ -> None)

let remove_msg w id =
  Hashtbl.remove w.channel id;
  w.channel_order <- List.filter (fun i -> i <> id) w.channel_order

let send_response w ~(to_request : message) resp =
  if not w.clients.(to_request.m_client).crashed then
    send w
      {
        msg_id = fresh_msg_id w;
        m_client = to_request.m_client;
        m_server = to_request.m_server;
        m_ticket = to_request.m_ticket;
        m_op = to_request.m_op;
        body = Resp resp;
        m_nature = to_request.m_nature;
        m_incarnation = Score.incarnation w.servers.(to_request.m_server);
        sent_at = w.now;
      }

(* A request took effect at its server (or a compromised server claims
   it did): trace and report the delivery, then answer. *)
let applied w (m : message) desc ~before ~after resp =
  Trace.add w.tr
    (Rmw_deliver { time = w.now; ticket = m.m_ticket; obj = m.m_server });
  if observed w then
    emit w
      (R.E_deliver
         {
           ticket = m.m_ticket;
           obj = m.m_server;
           client = m.m_client;
           op = m.m_op;
           nature = m.m_nature;
           desc;
           before;
           after;
           resp;
           observable = not w.clients.(m.m_client).crashed;
         });
  send_response w ~to_request:m resp

let deliver_msg w id =
  match Hashtbl.find_opt w.channel id with
  | None -> invalid_arg "Mp_runtime.step: unknown message"
  | Some m -> (
    if not (destination_alive w m) then
      invalid_arg "Mp_runtime.step: destination has crashed";
    if fifo_channel w m && not (head_of_channel w m) then
      invalid_arg "Mp_runtime.step: FIFO channel, an older message is pending";
    remove_msg w id;
    (* Incarnation fencing: the message travelled on a connection to (or
       from) a server incarnation that has since crashed; the transport
       of the new incarnation discards it.  Retransmission re-sends the
       request stamped with the live incarnation. *)
    if m.m_incarnation <> Score.incarnation w.servers.(m.m_server) then
      w.fenced <- w.fenced + 1
    else
      match m.body with
      | Req { desc; _ } -> (
        (* A compromised server lies instead of consulting the server
           core: it acknowledges without applying, or fabricates a
           well-formed state.  The lie bypasses the at-most-once table
           on purpose — equivocation between retries is exactly the
           behaviour the Byzantine model grants. *)
        let lie =
          match w.byz with
          | Some bp when bp.Sb_baseobj.Model.bp_compromised m.m_server ->
            bp.Sb_baseobj.Model.bp_act ~obj:m.m_server ~client:m.m_client
              ~cls:(Sb_sim.Rmwdesc.op_class desc)
              ~before:(Score.state w.servers.(m.m_server))
              ~init:w.init_states.(m.m_server)
          | _ -> Sb_baseobj.Model.Honest
        in
        match lie with
        | Sb_baseobj.Model.Drop_write | Sb_baseobj.Model.Fabricate _ ->
          let st = Score.state w.servers.(m.m_server) in
          let resp =
            match lie with
            | Sb_baseobj.Model.Fabricate fake -> R.Snap fake
            | _ -> R.Ack
          in
          applied w m desc ~before:st ~after:st resp
        | Sb_baseobj.Model.Honest ->
        (* The shared server core either answers from the at-most-once
           table (a duplicate within this incarnation: network
           duplication or retransmission; the RMW is not re-applied) or
           applies the RMW atomically now and records its response. *)
        let oc =
          Score.handle w.servers.(m.m_server) ~client:m.m_client
            ~ticket:m.m_ticket ~nature:m.m_nature (Sb_sim.Rmwdesc.apply desc)
        in
        if oc.Score.dedup_hit then begin
          w.dedup_hits <- w.dedup_hits + 1;
          send_response w ~to_request:m oc.Score.resp
        end
        else
          applied w m desc ~before:oc.Score.before ~after:oc.Score.after
            oc.Score.resp)
      | Resp resp ->
        Mailbox.record w.responses ~ticket:m.m_ticket ~obj:m.m_server resp;
        Rt.cancel w.timers m.m_ticket)

let step w decision =
  w.now <- w.now + 1;
  let continue_run =
    match decision with
    | Deliver_msg id ->
      deliver_msg w id;
      true
    | Step c ->
      let cl = w.clients.(c) in
      if cl.crashed then invalid_arg "Mp_runtime.step: client has crashed";
      (match (cl.fb.current, cl.fb.waiting) with
       | None, _ when cl.queue <> [] ->
         invoke_next w cl;
         true
       | Some _, Some _ ->
         resume w cl;
         true
       | _ -> invalid_arg "Mp_runtime.step: client has nothing to do")
    | Drop_msg id ->
      if not (Hashtbl.mem w.channel id) then
        invalid_arg "Mp_runtime.step: unknown message";
      remove_msg w id;
      w.dropped <- w.dropped + 1;
      true
    | Duplicate_msg id ->
      (match Hashtbl.find_opt w.channel id with
       | None -> invalid_arg "Mp_runtime.step: unknown message"
       | Some m ->
         (* A network-level duplicate: same ticket, payload and
            incarnation stamp under a fresh message identity.  Its
            payload bits count in the channel like any other copy, but
            it is not protocol traffic, so [requests_sent] and
            [responses_sent] are unchanged. *)
         let copy = { m with msg_id = fresh_msg_id w; sent_at = w.now } in
         Hashtbl.add w.channel copy.msg_id copy;
         w.channel_order <- copy.msg_id :: w.channel_order;
         w.duplicated <- w.duplicated + 1);
      true
    | Retransmit ticket ->
      (match (w.retransmit, Rt.find w.timers ticket) with
       | None, _ -> invalid_arg "Mp_runtime.step: retransmission is not armed"
       | _, None -> invalid_arg "Mp_runtime.step: no timer for this ticket"
       | Some rc, Some t ->
         if not (timer_live w ticket t) then
           invalid_arg "Mp_runtime.step: retransmission is not enabled";
         if w.now < t.Rt.deadline then
           invalid_arg "Mp_runtime.step: retransmission timer has not expired";
         Rt.backoff rc t ~now:w.now;
         w.retransmissions <- w.retransmissions + 1;
         let srv = t.Rt.req.m_server in
         (* A resend to a dead server fails fast (connection refused);
            the timer backs off and retries after a recovery. *)
         if w.server_live.(srv) then
           send w
             {
               t.Rt.req with
               msg_id = fresh_msg_id w;
               m_incarnation = Score.incarnation w.servers.(srv);
               sent_at = w.now;
             });
      true
    | Crash_server i ->
      if i < 0 || i >= w.n then invalid_arg "Mp_runtime.step: no such server";
      if not w.server_live.(i) then invalid_arg "Mp_runtime.step: server already crashed";
      let dead =
        Array.fold_left (fun acc a -> if a then acc else acc + 1) 0 w.server_live
      in
      if dead >= w.f then
        invalid_arg "Mp_runtime.step: cannot crash more than f servers";
      w.server_live.(i) <- false;
      (* Connections to the crashed server reset: requests still in its
         channels are lost (and stop counting as channel storage —
         undeliverable messages must not linger in the accounting). *)
      let doomed =
        List.filter
          (fun id ->
            let m = Hashtbl.find w.channel id in
            kind m = Request && m.m_server = i)
          w.channel_order
      in
      List.iter (fun id -> Hashtbl.remove w.channel id) doomed;
      w.channel_order <-
        List.filter (fun id -> Hashtbl.mem w.channel id) w.channel_order;
      w.dropped_at_crash <- w.dropped_at_crash + List.length doomed;
      (* The at-most-once table is volatile; objstate is durable. *)
      Score.crash w.servers.(i);
      Trace.add w.tr (Crash_object { time = w.now; obj = i });
      if observed w then emit w (R.E_crash_obj i);
      true
    | Recover_server i ->
      if i < 0 || i >= w.n then invalid_arg "Mp_runtime.step: no such server";
      if w.server_live.(i) then
        invalid_arg "Mp_runtime.step: server is not crashed";
      w.server_live.(i) <- true;
      Score.recover w.servers.(i);
      w.recoveries <- w.recoveries + 1;
      Trace.add w.tr (Recover_object { time = w.now; obj = i });
      if observed w then
        emit w (R.E_recover_obj (i, Score.incarnation w.servers.(i)));
      true
    | Crash_client c ->
      let cl = w.clients.(c) in
      if cl.crashed then invalid_arg "Mp_runtime.step: client already crashed";
      cl.crashed <- true;
      Engine.crash cl.fb;
      cl.queue <- [];
      clear_timers w (Rt.owned w.timers ~owner:c);
      Trace.add w.tr (Crash_client { time = w.now; client = c });
      if observed w then emit w (R.E_crash_client c);
      true
    | Tick -> true
    | Halt -> false
  in
  update_maxima w;
  continue_run

type outcome = { world : world; steps : int; halted : bool; quiescent : bool }

let quiescent w =
  deliverable w = [] && steppable w = [] && pending_retransmits w = []

let run ?(max_steps = 1_000_000) w policy =
  let rec go steps =
    if steps >= max_steps then { world = w; steps; halted = false; quiescent = false }
    else if quiescent w then { world = w; steps; halted = false; quiescent = true }
    else if step w (policy w) then go (steps + 1)
    else { world = w; steps = steps + 1; halted = true; quiescent = false }
  in
  update_maxima w;
  go 0

let random_policy ?(crash_servers = []) ?(recover_servers = []) ~seed () =
  let prng = Sb_util.Prng.create seed in
  let by_time_then_server (t1, s1) (t2, s2) =
    if t1 = t2 then Int.compare s1 s2 else Int.compare t1 t2
  in
  let crashes = ref (List.sort by_time_then_server crash_servers) in
  let recoveries = ref (List.sort by_time_then_server recover_servers) in
  fun w ->
    match !crashes with
    | (t, srv) :: rest when time w >= t && server_alive w srv ->
      crashes := rest;
      Crash_server srv
    | _ -> (
      match !recoveries with
      | (t, srv) :: rest when time w >= t && not (server_alive w srv) ->
        recoveries := rest;
        Recover_server srv
      | _ ->
        let delivers = List.map (fun m -> Deliver_msg m.msg_id) (deliverable w) in
        let steps = List.map (fun c -> Step c) (steppable w) in
        let retr = List.map (fun t -> Retransmit t) (due_retransmits w) in
        let choices = Array.of_list (delivers @ steps @ retr) in
        if Array.length choices > 0 then Sb_util.Prng.pick prng choices
        else if pending_retransmits w <> [] then Tick
        else Halt)

let fifo_policy () =
  fun w ->
    match deliverable w with
    | m :: _ -> Deliver_msg m.msg_id
    | [] -> (
      match steppable w with
      | c :: _ -> Step c
      | [] -> (
        match due_retransmits w with
        | t :: _ -> Retransmit t
        | [] -> if pending_retransmits w <> [] then Tick else Halt))
