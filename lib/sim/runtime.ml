open Effect
include Engine.Proto

let trigger ?(nature = `Mutating) ?desc ~obj ~payload rmw =
  perform (Trigger (obj, payload, rmw, nature, desc))

let await ~tickets ~quorum = perform (Await (tickets, quorum))

let broadcast_rmw ?(nature = `Mutating) ?desc ~n ~payload f =
  List.init n (fun i ->
      trigger ~nature
        ?desc:(Option.map (fun d -> d i) desc)
        ~obj:i ~payload:(payload i) (f i))

(* Trigger an RMW from its description alone: the closure is
   [Rmwdesc.apply] and the nature defaults to the description's honest
   declaration.  This is how the registers trigger everything, which is
   what lets the same protocol code run over the wire. *)
let broadcast_desc ?nature ~n ~payload d =
  List.init n (fun i ->
      let di = d i in
      let nature =
        match nature with Some x -> x | None -> Rmwdesc.default_nature di
      in
      trigger ~nature ~desc:di ~obj:i ~payload:(payload i) (Rmwdesc.apply di))

(* ------------------------------------------------------------------ *)
(* World state                                                         *)
(* ------------------------------------------------------------------ *)

type client_status = Idle | Parked | Runnable | Crashed

type pending = {
  ticket : int;
  p_obj : int;
  p_client : int;
  p_op : op;
  payload : Sb_storage.Block.t list;
  p_rmw : rmw;
  p_desc : Rmwdesc.t option;
  p_nature : rmw_nature;
  triggered_at : int;
}

type pending_info = {
  ticket : int;
  p_obj : int;
  p_client : int;
  p_op : op;
  payload_bits : int;
  p_desc : Rmwdesc.t option;
  p_nature : rmw_nature;
  triggered_at : int;
}

(* A delivered-but-not-yet-consumed response, tagged with the origin of
   its ticket so exploration can name it canonically. *)
type delivered = { d_obj : int; d_client : int; d_op : int; d_resp : resp }

type client = {
  fb : Engine.fiber;
  mutable queue : Trace.op_kind list;
  mutable crashed : bool;
  mutable consumed_log : (int * resp) list list;
  (* Response lists returned by this client's awaits, newest first.  A
     fiber is deterministic in (algorithm, op kinds, prng, this log), so
     the log stands in for the un-inspectable fiber-local state in
     [audit_key]. *)
}

type world = {
  n : int;
  f : int;
  base_model : Sb_baseobj.Model.t;
  byz : Sb_baseobj.Model.byz_policy option;
  init_objects : Sb_storage.Objstate.t array;
  (* The pristine [init_obj] states, kept for Byzantine policies that
     replay the initial value (stale echo): policies are pure functions
     of canonically-stable inputs, never of history. *)
  objects : Sb_storage.Objstate.t array;
  alive : bool array;
  clients : client array;
  pendings : (int, pending) Hashtbl.t;
  mutable pending_order : int list; (* tickets, newest first *)
  responses : (int, delivered) Hashtbl.t;
  consumed : (int, unit) Hashtbl.t;
  (* Tickets covered by an await that has already returned.  A straggler
     delivery of a consumed ticket still applies its RMW to the object
     but its response is discarded: no await may observe it again. *)
  mutable next_ticket : int;
  mutable now : int;
  eng : world Engine.t;
  (* Runs the client fibers and keeps the trace and the observers.
     Observers must not mutate the world; the list is empty in
     unsanitized runs, and every emission site is guarded so that
     dormant observers cost one list check and no allocation. *)
  tr : Trace.t; (* [Engine.trace eng] *)
  mutable step_awaits : int list;
  (* Tickets whose responses the most recent [Step] read or awaited *)
  mutable all_ops : op list;
  metrics : bool; (* track storage maxima (skipped during exploration) *)
  mutable max_obj_bits : int;
  mutable max_total_bits : int;
}

let status_code = function Idle -> 0 | Parked -> 1 | Runnable -> 2 | Crashed -> 3
let nature_code = function `Mutating -> 0 | `Readonly -> 1 | `Merge -> 2

let add_observer w f = Engine.add_observer w.eng f
let observed w = Engine.observed w.eng
let emit w ev = Engine.emit w.eng ev

let enqueue_op w ~client kind =
  if client < 0 || client >= Array.length w.clients then
    invalid_arg "Runtime.enqueue_op: no such client";
  let cl = w.clients.(client) in
  if cl.crashed then invalid_arg "Runtime.enqueue_op: client has crashed";
  cl.queue <- cl.queue @ [ kind ]

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let time w = w.now
let n_objects w = w.n
let f_tolerance w = w.f
let base_model w = w.base_model

let byz_compromised w o =
  match w.byz with
  | Some bp -> bp.Sb_baseobj.Model.bp_compromised o
  | None -> false

let obj_state w i = w.objects.(i)
let obj_alive w i = w.alive.(i)
let obj_bits w i = if w.alive.(i) then Sb_storage.Objstate.bits w.objects.(i) else 0
let client_count w = Array.length w.clients

let client_has_work w c =
  let cl = w.clients.(c) in
  (not cl.crashed) && Option.is_none cl.fb.waiting && cl.queue <> []

let info_of_pending (p : pending) =
  {
    ticket = p.ticket;
    p_obj = p.p_obj;
    p_client = p.p_client;
    p_op = p.p_op;
    payload_bits = Sb_storage.Accounting.bits_of_blocks p.payload;
    p_desc = p.p_desc;
    p_nature = p.p_nature;
    triggered_at = p.triggered_at;
  }

let pending_rmws w =
  List.rev_map (fun t -> info_of_pending (Hashtbl.find w.pendings t)) w.pending_order

let outstanding_ops w =
  Array.to_list w.clients
  |> List.filter_map (fun cl ->
         if cl.crashed then None else cl.fb.current)

let all_ops w = List.rev w.all_ops

let max_read_rounds w =
  List.fold_left
    (fun acc (op : op) ->
      match op.kind with Trace.Read -> max acc op.rounds | Trace.Write _ -> acc)
    0 w.all_ops

let storage_bits_objects w =
  let acc = ref 0 in
  for i = 0 to w.n - 1 do
    if w.alive.(i) then acc := !acc + Sb_storage.Objstate.bits w.objects.(i)
  done;
  !acc

let inflight_bits w =
  (* sb-lint: allow hashtbl-order — commutative sum of payload bits *)
  Hashtbl.fold
    (fun _ (p : pending) acc ->
      if w.clients.(p.p_client).crashed then acc
      else acc + Sb_storage.Accounting.bits_of_blocks p.payload)
    w.pendings 0

let storage_bits_total w = storage_bits_objects w + inflight_bits w

let visible_blocks_excluding w ~client =
  let obj_blocks =
    List.concat
      (List.init w.n (fun i ->
           if w.alive.(i) then Sb_storage.Objstate.blocks w.objects.(i) else []))
  in
  (* sb-lint: allow hashtbl-order — feeds Accounting.contribution, an order-insensitive index-set sum *)
  Hashtbl.fold
    (fun _ (p : pending) acc ->
      if p.p_client = client || w.clients.(p.p_client).crashed then acc
      else p.payload @ acc)
    w.pendings obj_blocks

let op_contribution w (op : op) =
  Sb_storage.Accounting.contribution ~source:op.id
    (visible_blocks_excluding w ~client:op.client)

let max_bits_objects w = w.max_obj_bits
let max_bits_total w = w.max_total_bits
let trace w = w.tr
let invoke_events w = Engine.invoked w.eng
let return_events w = Engine.completed w.eng
let last_step_awaits w = w.step_awaits

let update_maxima w =
  if w.metrics then begin
    let ob = storage_bits_objects w in
    let tb = ob + inflight_bits w in
    if ob > w.max_obj_bits then w.max_obj_bits <- ob;
    if tb > w.max_total_bits then w.max_total_bits <- tb
  end

(* ------------------------------------------------------------------ *)
(* Fiber machinery                                                     *)
(* ------------------------------------------------------------------ *)

let responses_for w tickets =
  List.filter_map
    (fun t ->
      match Hashtbl.find_opt w.responses t with
      | Some r -> Some (r.d_obj, r.d_resp)
      | None -> None)
    tickets

let await_satisfied w tickets quorum =
  let count =
    List.fold_left
      (fun acc t -> if Hashtbl.mem w.responses t then acc + 1 else acc)
      0 tickets
  in
  count >= quorum

(* Once an await returns, the responses of its still-in-flight read-only
   RMWs can never be observed again (awaits must not re-use consumed
   tickets, see the .mli contract), and a read-only RMW does not change
   its object — so those pendings are no-ops and are dropped on the spot.
   This is what keeps systematic exploration tractable: a dropped
   straggler is one less decision point at every later state. *)
let drop_readonly_orphans w tickets =
  let dropped =
    List.filter
      (fun t ->
        match Hashtbl.find_opt w.pendings t with
        | Some p when p.p_nature = `Readonly ->
          Hashtbl.remove w.pendings t;
          true
        | _ -> false)
      tickets
  in
  if dropped <> [] then
    w.pending_order <- List.filter (fun t -> not (List.mem t dropped)) w.pending_order

(* An await is returning to client [cl]: hand it the responses gathered
   so far and retire its tickets.  Their response slots are deleted (no
   later await may observe them, per the contract above), stragglers
   still in flight are marked consumed so their eventual delivery only
   mutates the object, and orphaned read-only RMWs are dropped
   outright. *)
let consume w cl tickets =
  let rs = responses_for w tickets in
  cl.consumed_log <- rs :: cl.consumed_log;
  List.iter
    (fun t ->
      Hashtbl.remove w.responses t;
      Hashtbl.replace w.consumed t ())
    tickets;
  drop_readonly_orphans w tickets;
  rs

(* Shared memory as a transport of the client engine: a trigger is a
   pending RMW the policy delivers later, an await consumes delivered
   responses. *)
let transport =
  {
    Engine.send =
      (fun w fb op obj payload rmw nature desc ->
        let ticket = w.next_ticket in
        w.next_ticket <- ticket + 1;
        Hashtbl.add w.pendings ticket
          {
            ticket;
            p_obj = obj;
            p_client = fb.Engine.cid;
            p_op = op;
            payload;
            p_rmw = rmw;
            p_desc = desc;
            p_nature = nature;
            triggered_at = w.now;
          };
        w.pending_order <- ticket :: w.pending_order;
        ticket);
    ready =
      (fun w tickets quorum ->
        List.iter
          (fun t ->
            if
              Hashtbl.mem w.consumed t
              || not (Hashtbl.mem w.pendings t || Hashtbl.mem w.responses t)
            then
              invalid_arg "Runtime.await: ticket was consumed by an earlier await")
          tickets;
        w.step_awaits <- tickets @ w.step_awaits;
        await_satisfied w tickets quorum);
    collect = (fun w fb tickets -> consume w w.clients.(fb.Engine.cid) tickets);
    started = (fun w op -> w.all_ops <- op :: w.all_ops);
    retired =
      (fun w op _result ->
        (* Read-only RMWs the op never awaited (or awaited without
           consuming) are dead once it returns. *)
        drop_readonly_orphans w
          (List.filter
             (fun t ->
               match Hashtbl.find_opt w.pendings t with
               | Some p -> p.p_op == op
               | None -> false)
             w.pending_order));
    clock = (fun w -> w.now);
    traced = true;
  }

let create ?(seed = 1) ?(metrics = true) ?(base_model = Sb_baseobj.Model.Rmw) ?byz ~algorithm ~n ~f ~workload () =
  if f < 0 || 2 * f >= n then
    invalid_arg "Runtime.create: need 0 <= f < n/2";
  (* The policy must fit the model: lying requires a Byzantine model and
     at most the model's budget of compromised objects.  The budget
     itself is NOT checked against [f] here — negative controls run
     over-budget adversaries mechanically; [Model.validate] is the
     policy-level gate (CLI, fault plans). *)
  (match byz with
  | Some policy -> Sb_baseobj.Model.check_policy base_model ~n policy
  | None -> ());
  let root_prng = Sb_util.Prng.create seed in
  let clients =
    Array.mapi
      (fun i ops ->
        {
          fb = Engine.fiber ~cid:i ~prng:(Sb_util.Prng.split root_prng);
          queue = ops;
          crashed = false;
          consumed_log = [];
        })
      workload
  in
  let eng = Engine.create ~n ~algorithm ~base_model transport in
  {
    n;
    f;
    base_model;
    byz;
    init_objects = Array.init n algorithm.init_obj;
    objects = Array.init n algorithm.init_obj;
    alive = Array.make n true;
    clients;
    pendings = Hashtbl.create 64;
    pending_order = [];
    responses = Hashtbl.create 64;
    consumed = Hashtbl.create 64;
    next_ticket = 1;
    now = 0;
    eng;
    tr = Engine.trace eng;
    step_awaits = [];
    all_ops = [];
    metrics;
    max_obj_bits = 0;
    max_total_bits = 0;
  }

(* A client's status follows from its fiber: a waiting fiber's quorum is
   either still open or already met. *)
let status w cl =
  if cl.crashed then Crashed
  else
    match cl.fb.Engine.waiting with
    | None -> Idle
    | Some p -> if await_satisfied w p.tickets p.quorum then Runnable else Parked

let client_status w c = status w w.clients.(c)

let invoke_next w cl =
  match cl.queue with
  | [] -> invalid_arg "Runtime.step: client has no queued operation"
  | kind :: rest ->
    cl.queue <- rest;
    ignore (Engine.start w.eng w cl.fb kind)

let resume w cl (p : Engine.wait) =
  if not (await_satisfied w p.tickets p.quorum) then
    invalid_arg "Runtime.step: client's quorum is not satisfied";
  w.step_awaits <- p.tickets @ w.step_awaits;
  ignore (Engine.resume w.eng w cl.fb)

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

type decision =
  | Deliver of int
  | Step of int
  | Crash_obj of int
  | Crash_client of int
  | Halt

type policy = world -> decision

(* Under the read/write model each (client, object) pair is an atomic
   register behind a sequential channel (the sibling papers' base-object
   interface): a client's operations on one cell take effect in issue
   order, so a pending RMW is deliverable only while it is the oldest
   pending for its pair.  Without this discipline a straggling blind
   overwrite could roll a cell backwards past a newer write. *)
let rw_head w (p : pending) =
  not
    (List.exists
       (fun t ->
         t < p.ticket
         &&
         match Hashtbl.find_opt w.pendings t with
         | Some q -> q.p_client = p.p_client && q.p_obj = p.p_obj
         | None -> false)
       w.pending_order)

let delivery_enabled w (p : pending) =
  w.alive.(p.p_obj)
  && ((not (Sb_baseobj.Model.fifo_writes w.base_model)) || rw_head w p)

let deliverable w =
  List.rev
    (List.filter_map
       (fun t ->
         let p = Hashtbl.find w.pendings t in
         if delivery_enabled w p then Some (info_of_pending p) else None)
       w.pending_order)

let client_steppable w cl =
  (not cl.crashed)
  &&
  match cl.fb.Engine.waiting with
  | None -> cl.queue <> []
  | Some p -> await_satisfied w p.tickets p.quorum

let steppable w =
  Array.to_list w.clients
  |> List.filter_map (fun cl ->
         if client_steppable w cl then Some cl.fb.Engine.cid else None)

let deliver w ticket =
  match Hashtbl.find_opt w.pendings ticket with
  | None -> invalid_arg "Runtime.step: unknown ticket"
  | Some p ->
    if not w.alive.(p.p_obj) then
      invalid_arg "Runtime.step: object has crashed; RMW cannot take effect";
    if
      Sb_baseobj.Model.fifo_writes w.base_model && not (rw_head w p)
    then
      invalid_arg
        "Runtime.step: read/write base objects deliver per-(client, object) \
         FIFO; an older operation on this pair is still pending";
    Hashtbl.remove w.pendings ticket;
    w.pending_order <- List.filter (fun t -> t <> ticket) w.pending_order;
    let before = w.objects.(p.p_obj) in
    let state, resp =
      (* A compromised object may lie about this delivery: acknowledge
         without applying, or respond with a fabricated well-formed
         state.  The lie is confined to the response/state pair — the
         trace and event stream record what the object actually did, so
         monitors stay grounded in the honest view. *)
      match w.byz with
      | Some bp when bp.Sb_baseobj.Model.bp_compromised p.p_obj -> (
        let cls =
          match p.p_desc with
          | Some d -> Rmwdesc.op_class d
          | None -> Sb_baseobj.Model.General
        in
        match
          bp.Sb_baseobj.Model.bp_act ~obj:p.p_obj ~client:p.p_client ~cls
            ~before ~init:w.init_objects.(p.p_obj)
        with
        | Sb_baseobj.Model.Honest -> p.p_rmw before
        | Sb_baseobj.Model.Drop_write -> (before, Ack)
        | Sb_baseobj.Model.Fabricate st -> (before, Snap st))
      | _ -> p.p_rmw before
    in
    w.objects.(p.p_obj) <- state;
    Trace.add w.tr (Rmw_deliver { time = w.now; ticket; obj = p.p_obj });
    let cl = w.clients.(p.p_client) in
    let observable = (not cl.crashed) && not (Hashtbl.mem w.consumed ticket) in
    if observed w then
      emit w
        (E_deliver
           {
             ticket;
             obj = p.p_obj;
             client = p.p_client;
             op = p.p_op.id;
             nature = p.p_nature;
             rmw = p.p_rmw;
             before;
             after = state;
             resp;
             observable;
           });
    if observable then
      Hashtbl.replace w.responses ticket
        { d_obj = p.p_obj; d_client = p.p_client; d_op = p.p_op.id; d_resp = resp }

let crash_obj w i =
  if i < 0 || i >= w.n then invalid_arg "Runtime.step: no such object";
  if not w.alive.(i) then invalid_arg "Runtime.step: object already crashed";
  let crashed = Array.fold_left (fun acc a -> if a then acc else acc + 1) 0 w.alive in
  if crashed >= w.f then
    invalid_arg "Runtime.step: cannot crash more than f base objects";
  w.alive.(i) <- false;
  Trace.add w.tr (Crash_object { time = w.now; obj = i });
  if observed w then emit w (E_crash_obj i)

let crash_client w c =
  if c < 0 || c >= Array.length w.clients then
    invalid_arg "Runtime.step: no such client";
  let cl = w.clients.(c) in
  if cl.crashed then invalid_arg "Runtime.step: client already crashed";
  cl.crashed <- true;
  Engine.crash cl.fb;
  cl.queue <- [];
  (* A crashed client never consumes responses, so its in-flight
     read-only RMWs are no-ops from here on. *)
  drop_readonly_orphans w
    (List.filter
       (fun t ->
         match Hashtbl.find_opt w.pendings t with
         | Some p -> p.p_client = c
         | None -> false)
       w.pending_order);
  Trace.add w.tr (Crash_client { time = w.now; client = c });
  if observed w then emit w (E_crash_client c)

let step w decision =
  w.now <- w.now + 1;
  let continue_run =
    match decision with
    | Deliver ticket ->
      deliver w ticket;
      true
    | Step c ->
      w.step_awaits <- [];
      let cl = w.clients.(c) in
      if cl.crashed then invalid_arg "Runtime.step: client has crashed";
      (match cl.fb.Engine.waiting with
       | Some p -> resume w cl p
       | None when cl.queue <> [] -> invoke_next w cl
       | None -> invalid_arg "Runtime.step: client has nothing to do");
      true
    | Crash_obj i ->
      crash_obj w i;
      true
    | Crash_client c ->
      crash_client w c;
      true
    | Halt -> false
  in
  update_maxima w;
  continue_run

type outcome = { world : world; steps : int; halted : bool; quiescent : bool }

let quiescent w = deliverable w = [] && steppable w = []

let run ?(max_steps = 1_000_000) w policy =
  let rec go steps =
    if steps >= max_steps then { world = w; steps; halted = false; quiescent = false }
    else if quiescent w then { world = w; steps; halted = false; quiescent = true }
    else begin
      let decision = policy w in
      if step w decision then go (steps + 1)
      else { world = w; steps = steps + 1; halted = true; quiescent = false }
    end
  in
  update_maxima w;
  go 0

(* ------------------------------------------------------------------ *)
(* Built-in policies                                                   *)
(* ------------------------------------------------------------------ *)

let random_policy ?(crash_objs = []) ~seed () =
  let prng = Sb_util.Prng.create seed in
  let by_time_then_obj (t1, o1) (t2, o2) =
    if t1 = t2 then Int.compare o1 o2 else Int.compare t1 t2
  in
  let remaining = ref (List.sort by_time_then_obj crash_objs) in
  fun w ->
    match !remaining with
    | (t, obj) :: rest when time w >= t && obj_alive w obj ->
      remaining := rest;
      Crash_obj obj
    | _ ->
      let delivers = List.map (fun p -> Deliver p.ticket) (deliverable w) in
      let steps = List.map (fun c -> Step c) (steppable w) in
      let choices = Array.of_list (delivers @ steps) in
      if Array.length choices = 0 then Halt else Sb_util.Prng.pick prng choices

let fifo_policy () =
  fun w ->
    match deliverable w with
    | p :: _ -> Deliver p.ticket
    | [] -> (
      match steppable w with
      | c :: _ -> Step c
      | [] -> Halt)

(* ------------------------------------------------------------------ *)
(* Systematic exploration support (decision points, replay)            *)
(* ------------------------------------------------------------------ *)

let crashed_objects w =
  Array.fold_left (fun acc a -> if a then acc else acc + 1) 0 w.alive

let decision_enabled w = function
  | Deliver t -> (
    match Hashtbl.find_opt w.pendings t with
    | Some p -> delivery_enabled w p
    | None -> false)
  | Step c ->
    c >= 0 && c < Array.length w.clients && client_steppable w w.clients.(c)
  | Crash_obj i -> i >= 0 && i < w.n && w.alive.(i) && crashed_objects w < w.f
  | Crash_client c ->
    c >= 0 && c < Array.length w.clients && not w.clients.(c).crashed
  | Halt -> true

let replay w decisions =
  List.fold_left
    (fun applied d ->
      if d <> Halt && decision_enabled w d then begin
        ignore (step w d);
        applied + 1
      end
      else applied)
    0 decisions

let fingerprint w =
  (* A digest of the logical state: everything a protocol or policy can
     observe, minus closures (RMW bodies, suspended continuations) and the
     clock.  Two replays of the same decision trace must agree on it. *)
  let clients =
    Array.to_list w.clients
    |> List.map (fun cl ->
           ( cl.fb.Engine.cid,
             status_code (status w cl),
             cl.queue,
             (match cl.fb.current with Some op -> op.id | None -> -1),
             match cl.fb.waiting with
             | Some p -> Some (p.tickets, p.quorum)
             | None -> None ))
  in
  let pendings =
    List.rev_map
      (fun t ->
        let p = Hashtbl.find w.pendings t in
        (t, p.p_obj, p.p_client, p.p_op.id, p.payload, p.triggered_at))
      w.pending_order
  in
  let responses =
    (* sb-lint: allow hashtbl-order — collected then sorted by ticket *)
    Hashtbl.fold (fun t r acc -> (t, r.d_obj, r.d_resp) :: acc) w.responses []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  let repr =
    ( Array.to_list w.objects,
      Array.to_list w.alive,
      clients,
      pendings,
      responses,
      w.next_ticket,
      Engine.invoked w.eng )
  in
  (* sb-lint: allow marshal — in-process replay digest; both sides of every comparison come from the same build, so the representation is shared *)
  Digest.to_hex (Digest.string (Marshal.to_string repr []))

(* ------------------------------------------------------------------ *)
(* The audit key                                                       *)
(* ------------------------------------------------------------------ *)

(* Ticket numbers depend on allocation order, so two interleavings that
   commute to the same logical state can name the same RMW differently.
   A live ticket (pending, or delivered-but-unconsumed) is canonically
   (client, op, object, rank), where rank orders same-key tickets by
   allocation — stable, because a fiber triggers its RMWs in program
   order.  [rename] gives the op's canonical name. *)
let canonical_ids ~rename w =
  let entries =
    List.rev_map
      (fun t ->
        let p = Hashtbl.find w.pendings t in
        ((p.p_client, rename p.p_op.id, p.p_obj), t))
      w.pending_order
  in
  let entries =
    (* sb-lint: allow hashtbl-order — sorted below before ranks are assigned *)
    Hashtbl.fold
      (fun t (r : delivered) acc -> ((r.d_client, rename r.d_op, r.d_obj), t) :: acc)
      w.responses entries
  in
  let tbl = Hashtbl.create 32 in
  let rec assign prev rank = function
    | [] -> ()
    | (key, t) :: rest ->
      let rank = if prev = Some key then rank + 1 else 0 in
      let c, o, ob = key in
      Hashtbl.replace tbl t (c, o, ob, rank);
      assign (Some key) rank rest
  in
  (* sb-lint: allow poly-compare — canonical-key int/string tuples; structural order is the intended total order *)
  assign None 0 (List.sort compare entries);
  tbl

let canonical_of tbl t =
  match Hashtbl.find_opt tbl t with
  | Some (c, o, ob, r) -> Printf.sprintf "%d.%s.%d.%d" c o ob r
  | None -> "dead." ^ string_of_int t (* not live: conservative raw name *)

(* Lexicographic normal form of the operation-event word under the
   commutation relation the checkers justify: two events commute unless
   one is an Invoke and the other a Return (swapping that adjacency
   flips a "return before invoke" precedence edge; invoke/invoke and
   return/return swaps preserve the relation, and crash markers are not
   consumed by the checkers at all).  Greedy selection of the least
   event whose earlier dependent events have all been emitted computes
   the unique lexicographically least word of the trace-equivalence
   class, so two histories canonicalize equally iff every order-based
   verdict agrees on them.  (A guarded bubble sort would not do: with
   crash markers commuting across both event kinds the swap relation
   has distinct local minima.) *)
let canonical_op_events evs =
  let dependent a b =
    match (a, b) with `I _, `R _ | `R _, `I _ -> true | _ -> false
  in
  let rec remove_first x = function
    | [] -> []
    | y :: rest -> if y = x then rest else y :: remove_first x rest
  in
  let rec emit acc word =
    match word with
    | [] -> List.rev acc
    | _ ->
      let best = ref None in
      let rec scan prefix = function
        | [] -> ()
        | x :: rest ->
          (if not (List.exists (dependent x) prefix) then
             match !best with
             (* sb-lint: allow poly-compare — structural order on first-order event variants is the lexicographic order defining the normal form *)
             | Some b when compare b x <= 0 -> ()
             | _ -> best := Some x);
          scan (x :: prefix) rest
      in
      scan [] word;
      (match !best with
       | None -> List.rev_append acc word (* unreachable: the head is available *)
       | Some x -> emit (x :: acc) (remove_first x word))
  in
  emit [] evs

(* Canonical, allocation-order-independent operation names.  Op ids are
   assigned globally at invocation, so two interleavings that merely
   reorder a pair of invocations number the same logical op differently
   — a renaming histories and verdicts never depend on.  The k-th op
   invoked by client [c] is canonically ["c_k"]: stable, because each
   client invokes its queue in program order. *)
let canonical_op_names w =
  let tbl = Hashtbl.create 16 and counts = Hashtbl.create 8 in
  List.iter
    (function
      | Trace.Invoke { op; client; _ } ->
        let k = Option.value ~default:0 (Hashtbl.find_opt counts client) in
        Hashtbl.replace counts client (k + 1);
        Hashtbl.replace tbl op (Printf.sprintf "%d_%d" client k)
      | _ -> ())
    (Trace.events w.tr);
  fun o ->
    match Hashtbl.find_opt tbl o with
    | Some name -> name
    | None -> "x" ^ string_of_int o (* never invoked: raw name is stable *)

(* A digest of everything that determines the world's future behaviour
   (up to ticket and op renaming) AND the verdict of any order-based
   history check on runs continuing from here:

   - object states, liveness bits, and per-client status / remaining
     queue / current op;
   - live RMWs and responses under canonical ticket names, with payloads
     and natures, plus whether a pending straggler is already consumed;
   - each client's consumed-response log and prng: a fiber is a
     deterministic function of (algorithm, op kinds, prng state,
     responses consumed), so these capture the fiber-local state —
     including its suspended continuation and the closures of RMWs it
     has yet to trigger — that cannot be inspected directly;
   - the operation events emitted so far, without times and in the
     normal form above.  All future events time-sort after all past
     ones.

   Deliberately excluded: the clock, ticket/op counters (renaming),
   round counters and byte maxima (metrics), and RMW delivery events
   (not part of the operation history). *)
let audit_key w =
  let rename = canonical_op_names w in
  let tbl = canonical_ids ~rename w in
  let clients =
    Array.to_list w.clients
    |> List.map (fun cl ->
           ( status_code (status w cl),
             cl.queue,
             (match cl.fb.Engine.current with
              | Some op -> Some (rename op.id, op.kind)
              | None -> None),
             (match cl.fb.waiting with
              | Some p -> Some (List.map (canonical_of tbl) p.tickets, p.quorum)
              | None -> None),
             cl.consumed_log,
             (cl.fb.prng : Sb_util.Prng.t) ))
  in
  let pendings =
    List.map
      (fun t ->
        let p = Hashtbl.find w.pendings t in
        ( canonical_of tbl t,
          p.payload,
          nature_code p.p_nature,
          Hashtbl.mem w.consumed t ))
      w.pending_order
    (* sb-lint: allow poly-compare — canonical-name tuples; structural order is the intended total order *)
    |> List.sort compare
  in
  let responses =
    (* sb-lint: allow hashtbl-order — collected then sorted *)
    Hashtbl.fold
      (fun t (r : delivered) acc -> (canonical_of tbl t, r.d_resp) :: acc)
      w.responses []
    (* sb-lint: allow poly-compare — canonical-name tuples; structural order is the intended total order *)
    |> List.sort compare
  in
  let history =
    List.filter_map
      (function
        | Trace.Invoke { op; client; kind; _ } -> Some (`I (rename op, client, kind))
        | Trace.Return { op; client; result; _ } -> Some (`R (rename op, client, result))
        | Trace.Crash_object { obj; _ } -> Some (`CO obj)
        | Trace.Recover_object { obj; _ } -> Some (`RO obj)
        | Trace.Crash_client { client; _ } -> Some (`CC client)
        | Trace.Rmw_trigger _ | Trace.Rmw_deliver _ -> None)
      (Trace.events w.tr)
    |> canonical_op_events
  in
  let repr =
    ( Array.to_list w.objects,
      Array.to_list w.alive,
      clients,
      pendings,
      responses,
      history )
  in
  (* sb-lint: allow marshal — in-process audit digest; both orders of every compared pair come from the same build, so the representation is shared *)
  Digest.to_hex (Digest.string (Marshal.to_string repr []))

let decision_to_string = function
  | Deliver t -> "deliver " ^ string_of_int t
  | Step c -> "step " ^ string_of_int c
  | Crash_obj i -> "crash-obj " ^ string_of_int i
  | Crash_client c -> "crash-client " ^ string_of_int c
  | Halt -> "halt"

let decision_of_string s =
  let fail () = Error (Printf.sprintf "unparseable decision %S" s) in
  match String.split_on_char ' ' (String.trim s) |> List.filter (( <> ) "") with
  | [ "halt" ] -> Stdlib.Ok Halt
  | [ verb; arg ] -> (
    match int_of_string_opt arg with
    | None -> fail ()
    | Some v -> (
      match verb with
      | "deliver" -> Stdlib.Ok (Deliver v)
      | "step" -> Stdlib.Ok (Step v)
      | "crash-obj" -> Stdlib.Ok (Crash_obj v)
      | "crash-client" -> Stdlib.Ok (Crash_client v)
      | _ -> fail ()))
  | _ -> fail ()

let pp_decision ppf d = Format.pp_print_string ppf (decision_to_string d)
