open Effect.Deep

module Proto = struct
  type resp = Rmwdesc.resp = Ack | Snap of Sb_storage.Objstate.t
  type rmw = Sb_storage.Objstate.t -> Sb_storage.Objstate.t * resp

  type op = {
    id : int;
    client : int;
    kind : Trace.op_kind;
    mutable rounds : int;
  }

  type ctx = {
    self : int;
    op : op;
    n_objects : int;
    prng : Sb_util.Prng.t;
  }

  type algorithm = {
    name : string;
    init_obj : int -> Sb_storage.Objstate.t;
    write : ctx -> bytes -> unit;
    read : ctx -> bytes option;
  }

  type rmw_nature = [ `Mutating | `Readonly | `Merge ]

  type _ Effect.t +=
    | Trigger :
        int * Sb_storage.Block.t list * rmw * rmw_nature * Rmwdesc.t option
        -> int Effect.t
    | Await : int list * int -> (int * resp) list Effect.t

  type event =
    | E_invoke of { op : op }
    | E_return of { op : op; result : bytes option }
    | E_trigger of {
        ticket : int;
        obj : int;
        op : op;
        nature : rmw_nature;
        payload : Sb_storage.Block.t list;
        desc : Rmwdesc.t option;
      }
    | E_deliver of {
        ticket : int;
        obj : int;
        client : int;
        op : int;
        nature : rmw_nature;
        rmw : rmw;
        before : Sb_storage.Objstate.t;
        after : Sb_storage.Objstate.t;
        resp : resp;
        observable : bool;
      }
    | E_await of {
        op : op;
        tickets : int list;
        quorum : int;
        responders : (int * resp) list;
      }
    | E_crash_obj of int
    | E_recover_obj of int * int
    | E_crash_client of int
end

include Proto

(* Result of running a fiber until it parks or returns. *)
type outcome = Done of bytes option | Blocked
type resumption = ((int * resp) list, outcome) continuation

type fiber = {
  cid : int;
  prng : Sb_util.Prng.t;
  mutable current : op option;
  mutable waiting : wait option;
}

and wait = { tickets : int list; quorum : int; k : resumption }

let fiber ~cid ~prng = { cid; prng; current = None; waiting = None }

type 'w transport = {
  send :
    'w -> fiber -> op -> int -> Sb_storage.Block.t list -> rmw ->
    rmw_nature -> Rmwdesc.t option -> int;
  ready : 'w -> int list -> int -> bool;
  collect : 'w -> fiber -> int list -> (int * resp) list;
  started : 'w -> op -> unit;
  retired : 'w -> op -> bytes option -> unit;
  clock : 'w -> int;
  traced : bool;
}

type 'w t = {
  n : int;
  algorithm : algorithm;
  base_model : Sb_baseobj.Model.t;
  tp : 'w transport;
  tr : Trace.t;
  mutable next_op : int;
  mutable completed : int;
  mutable observers : (event -> unit) list;
}

let create ~n ~algorithm ~base_model tp =
  {
    n;
    algorithm;
    base_model;
    tp;
    tr = Trace.create ();
    next_op = 1;
    completed = 0;
    observers = [];
  }

let trace eng = eng.tr
let invoked eng = eng.next_op - 1
let completed eng = eng.completed
let add_observer eng f = eng.observers <- eng.observers @ [ f ]
let observed eng = eng.observers <> []
let emit eng ev = List.iter (fun f -> f ev) eng.observers

(* The deep handler interpreting protocol effects for slot [fb] running
   operation [op] of world [w]. *)
let handler eng w fb op =
  {
    retc = (fun r -> Done r);
    exnc = raise;
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Trigger (obj, payload, rmw, nature, desc) ->
          Some
            (fun (k : (b, outcome) continuation) ->
              if obj < 0 || obj >= eng.n then
                invalid_arg "Engine: trigger on no such object";
              (* Restricted base-object models gate on the operation
                 class; [Rmw] and [Byzantine] accept everything. *)
              Sb_baseobj.Model.check_op eng.base_model
                (Option.map Rmwdesc.op_class desc);
              let ticket = eng.tp.send w fb op obj payload rmw nature desc in
              if eng.tp.traced then
                Trace.add eng.tr
                  (Rmw_trigger
                     {
                       time = eng.tp.clock w;
                       ticket;
                       op = op.id;
                       client = fb.cid;
                       obj;
                       payload_bits = Sb_storage.Accounting.bits_of_blocks payload;
                     });
              if observed eng then
                emit eng (E_trigger { ticket; obj; op; nature; payload; desc });
              continue k ticket)
        | Await (tickets, quorum) ->
          Some
            (fun (k : (b, outcome) continuation) ->
              if eng.tp.ready w tickets quorum then begin
                let rs = eng.tp.collect w fb tickets in
                if observed eng then
                  emit eng (E_await { op; tickets; quorum; responders = rs });
                continue k rs
              end
              else begin
                fb.waiting <- Some { tickets; quorum; k };
                Blocked
              end)
        | _ -> None);
  }

let settle eng w fb op = function
  | Blocked -> false
  | Done result ->
    fb.current <- None;
    eng.completed <- eng.completed + 1;
    eng.tp.retired w op result;
    if eng.tp.traced then
      Trace.add eng.tr
        (Return { time = eng.tp.clock w; op = op.id; client = fb.cid; result });
    if observed eng then emit eng (E_return { op; result });
    true

let start eng w fb kind =
  let op = { id = eng.next_op; client = fb.cid; kind; rounds = 0 } in
  eng.next_op <- eng.next_op + 1;
  fb.current <- Some op;
  eng.tp.started w op;
  if eng.tp.traced then
    Trace.add eng.tr
      (Invoke { time = eng.tp.clock w; op = op.id; client = fb.cid; kind });
  if observed eng then emit eng (E_invoke { op });
  let ctx = { self = fb.cid; op; n_objects = eng.n; prng = fb.prng } in
  let body () =
    match kind with
    | Trace.Write v ->
      eng.algorithm.write ctx v;
      None
    | Trace.Read -> eng.algorithm.read ctx
  in
  settle eng w fb op (match_with body () (handler eng w fb op))

let resume eng w fb =
  match (fb.waiting, fb.current) with
  | Some { tickets; quorum; k }, Some op ->
    fb.waiting <- None;
    let rs = eng.tp.collect w fb tickets in
    if observed eng then emit eng (E_await { op; tickets; quorum; responders = rs });
    settle eng w fb op (continue k rs)
  | _ -> invalid_arg "Engine.resume: the fiber is not parked"

exception Abandoned

let abandon fb =
  let op = fb.current in
  (match fb.waiting with
   | None -> ()
   | Some { k; _ } -> (
     fb.waiting <- None;
     match discontinue k Abandoned with
     | Done _ | Blocked -> ()
     | exception _ -> ()));
  (* A fiber that caught [Abandoned] and awaited again is dropped too. *)
  fb.waiting <- None;
  fb.current <- None;
  op

let crash fb = fb.waiting <- None
