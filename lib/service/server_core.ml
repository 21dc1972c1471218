module Objstate = Sb_storage.Objstate
module D = Sb_sim.Rmwdesc

type t = {
  objs : (string, Objstate.t) Hashtbl.t;
  init : Objstate.t;
  mutable incarnation : int;
  dedup : bool;
  applied : (string * int * int, D.resp) Hashtbl.t;
  mutable dedup_hits : int;
  mutable applied_count : int;
  mutable total_bits : int;
  mutable max_bits : int;
  mutable max_key_bits : int;
}

type outcome = {
  resp : D.resp;
  before : Objstate.t;
  after : Objstate.t;
  dedup_hit : bool;
}

let create ?(dedup = true) ?(incarnation = 1) initial =
  let objs = Hashtbl.create 16 in
  Hashtbl.replace objs "" initial;
  let bits = Objstate.bits initial in
  {
    objs;
    init = initial;
    incarnation;
    dedup;
    applied = Hashtbl.create 16;
    dedup_hits = 0;
    applied_count = 0;
    total_bits = bits;
    max_bits = bits;
    max_key_bits = bits;
  }

let load ?incarnation ~initial entries =
  let t = create ?incarnation initial in
  List.iter
    (fun (key, st) ->
      (match Hashtbl.find_opt t.objs key with
      | Some prev -> t.total_bits <- t.total_bits - Objstate.bits prev
      | None -> ());
      Hashtbl.replace t.objs key st;
      t.total_bits <- t.total_bits + Objstate.bits st)
    entries;
  t.max_bits <- t.total_bits;
  t.max_key_bits <-
    (* sb-lint: allow hashtbl-order — max is order-insensitive *)
    Hashtbl.fold (fun _ st acc -> max acc (Objstate.bits st)) t.objs 0;
  t

let state t = Hashtbl.find t.objs ""
let key_state t key = Hashtbl.find_opt t.objs key
let incarnation t = t.incarnation
let storage_bits t = t.total_bits
let max_bits t = t.max_bits
let max_key_bits t = t.max_key_bits
let dedup_hits t = t.dedup_hits
let applied_count t = t.applied_count
let key_count t = Hashtbl.length t.objs

let entries t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (* sb-lint: allow hashtbl-order — sorted by key before use *)
    (Hashtbl.fold (fun k st acc -> (k, st) :: acc) t.objs [])

let handle_key t ~key ~client ~ticket ~nature rmw =
  let dedupable = t.dedup && nature <> `Readonly in
  match
    if dedupable then Hashtbl.find_opt t.applied (key, client, ticket) else None
  with
  | Some resp ->
    let st = match Hashtbl.find_opt t.objs key with Some s -> s | None -> t.init in
    t.dedup_hits <- t.dedup_hits + 1;
    { resp; before = st; after = st; dedup_hit = true }
  | None ->
    let before, fresh =
      match Hashtbl.find_opt t.objs key with
      | Some st -> (st, false)
      | None -> (t.init, true)
    in
    let after, resp = rmw before in
    Hashtbl.replace t.objs key after;
    t.applied_count <- t.applied_count + 1;
    if dedupable then Hashtbl.replace t.applied (key, client, ticket) resp;
    let bits = Objstate.bits after in
    t.total_bits <-
      t.total_bits + bits - (if fresh then 0 else Objstate.bits before);
    if t.total_bits > t.max_bits then t.max_bits <- t.total_bits;
    if bits > t.max_key_bits then t.max_key_bits <- bits;
    { resp; before; after; dedup_hit = false }

let handle t ~client ~ticket ~nature rmw =
  handle_key t ~key:"" ~client ~ticket ~nature rmw

let crash t = Hashtbl.reset t.applied

let recover t =
  t.incarnation <- t.incarnation + 1;
  t.max_bits <- t.total_bits;
  t.max_key_bits <-
    (* sb-lint: allow hashtbl-order — max is order-insensitive *)
    Hashtbl.fold (fun _ st acc -> max acc (Objstate.bits st)) t.objs 0
