module R = Sb_sim.Runtime
module Block = Sb_storage.Block
module Objstate = Sb_storage.Objstate

(* ------------------------------------------------------------------ *)
(* Rules, violations, configuration                                    *)
(* ------------------------------------------------------------------ *)

type rule =
  | Commutativity of { obj : int; first : int; second : int }
  | Quorum_unsafe of { quorum : int; other : int; need : int }
  | Quorum_overdemand of { quorum : int; max_live : int }
  | Quorum_short of { quorum : int; got : int }
  | Config_resilience of { n : int; f : int; k : int }
  | Accounting_mismatch of { reported : int; recomputed : int }
  | Oracle_asymmetry of { source : int; index : int; bits : int; expected : int }
  | Premature_gc of { sources : int list; k : int }
  | Crash_discipline of { detail : string }
  | Adversary_partition of { detail : string }
  | Dedup of { obj : int; ticket : int }
  | Storage_floor of { copies : int; d_bits : int; live_full : int; need : int }

type violation = { rule : rule; v_time : int; v_detail : string }

exception Violation_exn of violation

type mode = Collect | Raise

type config = {
  k : int;
  reg_avail : bool;
  adversary : (int * int) option;
  floor : (int * int) option;
  byz : (int -> bool) option;
  mode : mode;
}

let config ?(mode = Collect) ?(reg_avail = false) ?adversary ?floor ?byz ~k () =
  { k; reg_avail; adversary; floor; byz; mode }

let rule_name = function
  | Commutativity _ -> "commutativity"
  | Quorum_unsafe _ -> "quorum-unsafe"
  | Quorum_overdemand _ -> "quorum-overdemand"
  | Quorum_short _ -> "quorum-short"
  | Config_resilience _ -> "config-resilience"
  | Accounting_mismatch _ -> "accounting-mismatch"
  | Oracle_asymmetry _ -> "oracle-asymmetry"
  | Premature_gc _ -> "premature-gc"
  | Crash_discipline _ -> "crash-discipline"
  | Adversary_partition _ -> "adversary-partition"
  | Dedup _ -> "dedup"
  | Storage_floor _ -> "storage-floor"

let pp_violation ppf v =
  Format.fprintf ppf "[%s] t=%d %s" (rule_name v.rule) v.v_time v.v_detail

let violation_to_string v = Format.asprintf "%a" pp_violation v

(* ------------------------------------------------------------------ *)
(* The world view: the few facts the monitors need, abstracted so the  *)
(* same monitors run on both runtimes.                                 *)
(* ------------------------------------------------------------------ *)

type view = {
  v_n : int;
  v_f : int;
  v_clients : int;
  v_alive : int -> bool;
  v_blocks : int -> Block.t list;
  v_reported_bits : unit -> int;
  v_time : unit -> int;
}

(* ------------------------------------------------------------------ *)
(* Monitor state                                                       *)
(* ------------------------------------------------------------------ *)

type tinfo = { ti_obj : int; ti_clk : Vclock.t }

type last_delivery = {
  ld_ticket : int;
  ld_nature : R.rmw_nature;
  ld_desc : Sb_sim.Rmwdesc.t;
  ld_before : Objstate.t;
  ld_after : Objstate.t;
  ld_resp : R.resp;
  ld_clk : Vclock.t;  (* the trigger's clock, not the delivery's *)
}

type wstate = {
  w_invoked_at : int;
  mutable w_returned_at : int option;
  mutable w_dead : bool;  (* superseded: another write returned entirely after *)
}

type t = {
  cfg : config;
  view : view;
  cclk : Vclock.t array;
  oclk : Vclock.t array;
  tickets : (int, tinfo) Hashtbl.t;
  dclk : (int, Vclock.t) Hashtbl.t;
  last_deliver : (int, last_delivery) Hashtbl.t;
  oracle : (int * int, int) Hashtbl.t;
  writes : (int, wstate) Hashtbl.t;
  quorums_seen : (int, unit) Hashtbl.t;
  obj_dead : bool array;
  obj_epoch : int array;
      (* Server incarnation numbers, mirroring the message-passing
         runtime's; always 1 on the crash-stop shared-memory runtime. *)
  applied_once : (int, int) Hashtbl.t;
      (* ticket -> object epoch at its first non-readonly application.
         A second application in the same epoch is a dedup failure;
         re-application in a later epoch is the legal
         retransmission-across-recovery path (volatile at-most-once
         table), which idempotent RMWs make harmless. *)
  cli_dead : bool array;
  acct : int array;
      (* Block-level bits per object, maintained incrementally: only the
         delivered object is re-summed per event, keeping the global
         accounting cross-check O(n) instead of O(total blocks). *)
  mutable crashed_objs : int;
  mutable seq : int;
  mutable violation_log : violation list;  (* newest first *)
  mutable adv_check : (unit -> string option) option;
}

let record m rule v_detail =
  let v = { rule; v_time = m.view.v_time (); v_detail } in
  match m.cfg.mode with
  | Raise -> raise (Violation_exn v)
  | Collect -> m.violation_log <- v :: m.violation_log

let violations m = List.rev m.violation_log
let events_seen m = m.seq

(* ------------------------------------------------------------------ *)
(* Individual monitors                                                 *)
(* ------------------------------------------------------------------ *)

(* Definition 1: an oracle is a function — the block it produced for
   (source, index) has one size, once and for all. *)
let check_oracle m (b : Block.t) =
  let key = (b.source, b.index) in
  let bits = Block.bits b in
  match Hashtbl.find_opt m.oracle key with
  | None -> Hashtbl.add m.oracle key bits
  | Some expected ->
    if bits <> expected then
      record m
        (Oracle_asymmetry { source = b.source; index = b.index; bits; expected })
        (Printf.sprintf
           "block (source %d, index %d) seen with %d bits, previously %d"
           b.source b.index bits expected)

let stored_bits m o =
  List.fold_left (fun acc b -> acc + Block.bits b) 0 (m.view.v_blocks o)

(* Definition 2: the reported storage cost must equal the sum of block
   bits over live objects — timestamps and other metadata excluded.
   Only the delivered object changed, so only its block-level sum is
   recomputed; the rest comes from the incrementally maintained [acct]
   array, which was itself block-level recomputed when those objects
   last changed. *)
let check_accounting m ~obj (after : Objstate.t) =
  let self = List.fold_left (fun a b -> a + Block.bits b) 0 (Objstate.blocks after) in
  if Objstate.bits after <> self then
    record m
      (Accounting_mismatch { reported = Objstate.bits after; recomputed = self })
      "object state reports bits different from the sum of its blocks";
  m.acct.(obj) <- self;
  let reported = m.view.v_reported_bits () in
  let recomputed = ref 0 in
  for o = 0 to m.view.v_n - 1 do
    if m.view.v_alive o then recomputed := !recomputed + m.acct.(o)
  done;
  if reported <> !recomputed then
    record m
      (Accounting_mismatch { reported; recomputed = !recomputed })
      "runtime storage accounting diverges from block-level recomputation"

(* Availability of the readable frontier: some write that a read is
   still allowed to return must be decodable from blocks stored in live
   objects, with enough slack to survive the crashes still to come.
   Catches premature garbage collection (the paper's E13 discussion) in
   any schedule, not just the one a test happens to drive. *)
let check_avail m =
  if m.cfg.reg_avail then begin
    (* A read collects n - f responses, and the adversary picks which:
       for {e every} (n - f)-subset of the live objects, some write a
       read may legally return — complete, or still in flight, but not
       superseded — must be decodable from the blocks stored in that
       subset alone.  Pending deliveries do not count: a read running
       now decodes only what is stored.  The quantifier order matters
       both ways.  Per subset, {e some} allowed source suffices:
       ABD's keep-the-newer overwrite leaves no single write covering a
       full quorum plus slack, yet every response set contains a newest
       value — jointly the frontier covers every subset.  And all
       subsets must pass: the premature [`Own_ts] eviction keeps every
       individual value at one or two objects once two writes race, so
       some subset mixes three undecodable fragments — caught at the
       moment of eviction, in any schedule, long before a read happens
       to draw that subset and fail regularity. *)
    let n = m.view.v_n in
    let live = List.filter m.view.v_alive (List.init n Fun.id) in
    let q = n - m.view.v_f in
    if List.length live >= q then begin
      let allowed =
        (* sb-lint: allow hashtbl-order — membership set; only List.mem consumes it *)
        Hashtbl.fold (fun id ws acc -> if ws.w_dead then acc else id :: acc) m.writes []
      in
      (* Per live object, a (source -> index bitmask) assoc computed
         once; judging a candidate subset is then a few integer [lor]s
         and popcounts rather than hashtable churn per subset — this
         check runs on every delivery. *)
      let masks = Array.make n [] in
      List.iter
        (fun o ->
          let tbl = Hashtbl.create 4 in
          List.iter
            (fun (b : Block.t) ->
              if b.index < Sys.int_size - 1 && List.mem b.source allowed then
                Hashtbl.replace tbl b.source
                  (Option.value ~default:0 (Hashtbl.find_opt tbl b.source)
                  lor (1 lsl b.index)))
            (m.view.v_blocks o);
          (* sb-lint: allow hashtbl-order — assoc consumed by commutative lor/popcount *)
          masks.(o) <- Hashtbl.fold (fun s msk acc -> (s, msk) :: acc) tbl [])
        live;
      let popcount x =
        let c = ref 0 and x = ref x in
        while !x <> 0 do
          incr c;
          x := !x land (!x - 1)
        done;
        !c
      in
      let decodable_from subset =
        List.exists
          (fun s ->
            let msk =
              List.fold_left
                (fun acc o ->
                  match List.assoc_opt s masks.(o) with
                  | Some v -> acc lor v
                  | None -> acc)
                0 subset
            in
            popcount msk >= m.cfg.k)
          allowed
      in
      (* First failing size-q subset of the live objects, if any. *)
      let rec bad_subset chosen need rest =
        match (need, rest) with
        | 0, _ -> if decodable_from chosen then None else Some chosen
        | _, [] -> None
        | _, o :: rest' ->
          if List.length rest < need then None
          else (
            match bad_subset (o :: chosen) (need - 1) rest' with
            | Some _ as bad -> bad
            | None -> bad_subset chosen need rest')
      in
      match bad_subset [] q live with
      | None -> ()
      | Some subset ->
        record m
          (Premature_gc { sources = List.sort compare allowed; k = m.cfg.k })
          (Printf.sprintf
             "a read served by live objects {%s} could decode no \
              still-readable write (k=%d distinct indices needed; candidate \
              sources: %s)"
             (String.concat ", "
                (List.map string_of_int (List.sort compare subset)))
             m.cfg.k
             (String.concat ", " (List.map string_of_int (List.sort compare allowed))))
    end
  end

(* The replication floor of the sibling lower bounds
   (Chockler-Spiegelman arXiv:1705.07212 over read/write base objects;
   Berger-Keidar-Spiegelman arXiv:1805.06265 over Byzantine ones): at
   least [copies] {e full} copies of the value must exist across the
   objects, of which only the live ones can be checked — an emulation
   that keeps fewer live full copies than [copies] minus the crashes so
   far has garbage-collected below the proven floor, and a crash set of
   the remaining budget can erase the value.  A "full copy" is an object
   whose stored block bits reach the value size [d_bits] (Definition 2
   accounting: metadata excluded, so a meta-data-only stub counts
   zero). *)
let check_floor m =
  match m.cfg.floor with
  | None -> ()
  | Some (copies, d_bits) ->
    let live_full = ref 0 in
    for o = 0 to m.view.v_n - 1 do
      if (not m.obj_dead.(o)) && m.acct.(o) >= d_bits then incr live_full
    done;
    let need = copies - m.crashed_objs in
    if !live_full < need then
      record m
        (Storage_floor { copies; d_bits; live_full = !live_full; need })
        (Printf.sprintf
           "only %d live objects hold a full copy (>= %d bits) but the \
            replication floor demands %d (%d copies minus %d crashed)"
           !live_full d_bits need copies m.crashed_objs)

(* Quorum discipline over full broadcasts: liveness demands the quorum
   be reachable with f crashes, safety demands any two quorums used on
   the same register intersect in k objects (Section 2; n >= 2f + k). *)
let check_quorum m ~tickets ~quorum ~got =
  if got < quorum then
    record m (Quorum_short { quorum; got })
      "await returned with fewer responders than its quorum";
  if List.length tickets = m.view.v_n then begin
    let max_live = m.view.v_n - m.view.v_f in
    if quorum > max_live then
      record m
        (Quorum_overdemand { quorum; max_live })
        (Printf.sprintf
           "quorum %d of a full broadcast can block forever: only %d objects \
            are guaranteed to survive" quorum max_live);
    let check_pair other =
      if quorum + other - m.view.v_n < m.cfg.k then
        record m
          (Quorum_unsafe { quorum; other; need = m.cfg.k })
          (Printf.sprintf
             "quorums of %d and %d over %d objects need not intersect in %d: \
              %d + %d - %d = %d" quorum other m.view.v_n m.cfg.k quorum other
             m.view.v_n
             (quorum + other - m.view.v_n))
    in
    check_pair quorum;
    (* sb-lint: allow hashtbl-order — every pair is checked regardless of order *)
    Hashtbl.iter (fun q () -> if q <> quorum then check_pair q) m.quorums_seen;
    Hashtbl.replace m.quorums_seen quorum ()
  end

let check_adversary m =
  match m.adv_check with
  | None -> ()
  | Some f -> (
    match f () with
    | None -> ()
    | Some detail -> record m (Adversary_partition { detail }) detail)

(* ------------------------------------------------------------------ *)
(* Event dispatch                                                      *)
(* ------------------------------------------------------------------ *)

let on_invoke m (op : R.op) =
  match op.kind with
  | Sb_sim.Trace.Write _ ->
    Hashtbl.replace m.writes op.id
      { w_invoked_at = m.seq; w_returned_at = None; w_dead = false }
  | Sb_sim.Trace.Read -> ()

let on_return m (op : R.op) =
  (match Hashtbl.find_opt m.writes op.id with
  | None -> ()
  | Some ws ->
    ws.w_returned_at <- Some m.seq;
    (* Every write that returned strictly before this one was invoked is
       now superseded: real-time precedence forces any later read past
       it.  Concurrent completed writes stay readable.  Only a newly
       dead source can shrink the frontier, so only that re-checks. *)
    let killed = ref false in
    (* sb-lint: allow hashtbl-order — idempotent flag setting; order-insensitive *)
    Hashtbl.iter
      (fun id other ->
        if id <> op.id && not other.w_dead then
          match other.w_returned_at with
          | Some r when r < ws.w_invoked_at ->
            other.w_dead <- true;
            killed := true
          | _ -> ())
      m.writes;
    if !killed then check_avail m)

let on_trigger m ~ticket ~obj (op : R.op) payload =
  let c = op.client in
  Vclock.tick m.cclk.(c) c;
  Hashtbl.replace m.tickets ticket
    { ti_obj = obj; ti_clk = Vclock.copy m.cclk.(c) };
  List.iter (check_oracle m) payload

let commuting_class (a : R.rmw_nature) (b : R.rmw_nature) =
  match a, b with `Readonly, `Readonly | `Merge, `Merge -> true | _ -> false

let on_deliver m ~ticket ~obj ~nature ~desc ~before ~after ~resp =
  if m.obj_dead.(obj) then
    record m
      (Crash_discipline { detail = "delivery on a crashed object" })
      (Printf.sprintf "ticket %d took effect on crashed object %d" ticket obj);
  (* A compromised object's deliveries are exempt from the behavioural
     monitors: its "RMW applications" may be fabrications that neither
     mutate state nor respect at-most-once (equivocation between retries
     is exactly what the Byzantine model grants), so re-applying RMWs
     or counting applications would flag the lie, not a bug.  Storage
     accounting and the floor check still apply — lies never touch the
     stored state. *)
  let compromised =
    match m.cfg.byz with Some p -> p obj | None -> false
  in
  (* At-most-once discipline per incarnation: a non-readonly RMW that
     takes effect twice within one object epoch slipped past the
     server's dedup table (a duplicated or retransmitted request was
     re-applied). *)
  (match nature with
  | `Readonly -> ()
  | (`Mutating | `Merge) when compromised -> ()
  | `Mutating | `Merge -> (
    match Hashtbl.find_opt m.applied_once ticket with
    | Some epoch when epoch = m.obj_epoch.(obj) ->
      record m (Dedup { obj; ticket })
        (Printf.sprintf
           "non-readonly RMW %d took effect twice on object %d within \
            incarnation %d (at-most-once table failed)" ticket obj epoch)
    | _ -> Hashtbl.replace m.applied_once ticket m.obj_epoch.(obj)));
  let ti = Hashtbl.find_opt m.tickets ticket in
  (* Commutativity spot-check: when this delivery is adjacent to the
     previous one on the object, both natures claim a commuting class,
     and the two triggers are causally concurrent, the scheduler could
     have delivered them in the other order — and the model checker's
     independence relation assumes the result is the same.  Re-apply the
     two (pure) descriptions in swapped order and compare. *)
  (match ti, Hashtbl.find_opt m.last_deliver obj with
  | _ when compromised -> ()
  | Some ti, Some ld
    when ld.ld_after = before
         && commuting_class ld.ld_nature nature
         && Vclock.concurrent ti.ti_clk ld.ld_clk -> (
    match Sb_sim.Rmwdesc.apply desc ld.ld_before with
    | s1, r1 ->
      let s2, r2 = Sb_sim.Rmwdesc.apply ld.ld_desc s1 in
      if not (s2 = after && r1 = resp && r2 = ld.ld_resp) then
        record m
          (Commutativity { obj; first = ld.ld_ticket; second = ticket })
          (Printf.sprintf
             "concurrent RMWs %d and %d on object %d are declared %s but do \
              not commute: swapping their delivery order changes the object \
              state or a response" ld.ld_ticket ticket obj
             (match nature with
             | `Merge -> "merge-class"
             | `Readonly -> "read-only"
             | `Mutating -> "mutating"))
    | exception e ->
      record m
        (Commutativity { obj; first = ld.ld_ticket; second = ticket })
        (Printf.sprintf "re-applying RMWs %d;%d in swapped order raised %s"
           ld.ld_ticket ticket (Printexc.to_string e)))
  | _ -> ());
  let state_changed = not (before == after) && before <> after in
  if state_changed then check_accounting m ~obj after;
  (match ti with
  | Some ti ->
    Vclock.join_into m.oclk.(obj) ti.ti_clk;
    Vclock.tick m.oclk.(obj) (m.view.v_clients + obj);
    Hashtbl.replace m.dclk ticket (Vclock.copy m.oclk.(obj));
    if compromised then Hashtbl.remove m.last_deliver obj
    else
      Hashtbl.replace m.last_deliver obj
        {
          ld_ticket = ticket;
          ld_nature = nature;
          ld_desc = desc;
          ld_before = before;
          ld_after = after;
          ld_resp = resp;
          ld_clk = ti.ti_clk;
        }
  | None -> Hashtbl.remove m.last_deliver obj);
  (* The frontier invariant is monotone in the stored blocks: an RMW
     that only added blocks cannot break it (a good state stays good),
     so the subset check runs only when something was evicted.  Sources
     die on returns and objects on crashes — both re-check there. *)
  let evicted =
    state_changed
    && (let after_blocks = Objstate.blocks after in
        not
          (List.for_all
             (fun b -> List.memq b after_blocks || List.mem b after_blocks)
             (Objstate.blocks before)))
  in
  if evicted then check_avail m;
  if state_changed then check_floor m;
  check_adversary m

let on_await m (op : R.op) ~tickets ~quorum ~responders =
  let c = op.client in
  check_quorum m ~tickets ~quorum ~got:(List.length responders);
  let responder_objs = List.map fst responders in
  List.iter
    (fun t ->
      match Hashtbl.find_opt m.tickets t with
      | Some ti when List.mem ti.ti_obj responder_objs -> (
        match Hashtbl.find_opt m.dclk t with
        | Some d -> Vclock.join_into m.cclk.(c) d
        | None -> ())
      | _ -> ())
    tickets;
  Vclock.tick m.cclk.(c) c

let on_crash_obj m o =
  if m.obj_dead.(o) then
    record m
      (Crash_discipline { detail = "object crashed twice" })
      (Printf.sprintf "object %d crashed twice" o)
  else begin
    m.obj_dead.(o) <- true;
    m.crashed_objs <- m.crashed_objs + 1
  end;
  if m.crashed_objs > m.view.v_f then
    record m
      (Crash_discipline
         { detail = Printf.sprintf "%d object crashes exceed f" m.crashed_objs })
      (Printf.sprintf "%d objects crashed but the resilience bound is f = %d"
         m.crashed_objs m.view.v_f);
  check_avail m;
  check_floor m;
  check_adversary m

let on_recover_obj m o incarnation =
  if not m.obj_dead.(o) then
    record m
      (Crash_discipline { detail = "recovery of a live object" })
      (Printf.sprintf "object %d recovered without having crashed" o)
  else begin
    m.obj_dead.(o) <- false;
    m.crashed_objs <- m.crashed_objs - 1
  end;
  m.obj_epoch.(o) <- m.obj_epoch.(o) + 1;
  if incarnation <> m.obj_epoch.(o) then
    record m
      (Crash_discipline
         { detail = Printf.sprintf "incarnation %d, expected %d" incarnation m.obj_epoch.(o) })
      (Printf.sprintf
         "object %d rejoined with incarnation %d but the monitor counted %d \
          recoveries" o incarnation (m.obj_epoch.(o) - 1));
  (* The rejoined object's durable blocks re-enter the live frontier;
     [acct.(o)] was maintained through the crash, so the accounting
     cross-check needs no reseeding.  Availability only improves. *)
  check_floor m;
  check_adversary m

let on_crash_client m c =
  if m.cli_dead.(c) then
    record m
      (Crash_discipline { detail = "client crashed twice" })
      (Printf.sprintf "client %d crashed twice" c)
  else m.cli_dead.(c) <- true

let handle m (ev : R.event) =
  m.seq <- m.seq + 1;
  match ev with
  | R.E_invoke { op } -> on_invoke m op
  | R.E_return { op; _ } -> on_return m op
  | R.E_trigger { ticket; obj; op; nature = _; desc } ->
    on_trigger m ~ticket ~obj op (Sb_sim.Rmwdesc.payload desc)
  | R.E_deliver { ticket; obj; nature; desc; before; after; resp; _ } ->
    on_deliver m ~ticket ~obj ~nature ~desc ~before ~after ~resp
  | R.E_await { op; tickets; quorum; responders } ->
    on_await m op ~tickets ~quorum ~responders
  | R.E_crash_obj o -> on_crash_obj m o
  | R.E_recover_obj (o, incarnation) -> on_recover_obj m o incarnation
  | R.E_crash_client c -> on_crash_client m c

(* ------------------------------------------------------------------ *)
(* Attachment                                                          *)
(* ------------------------------------------------------------------ *)

let make cfg view =
  let m =
    {
      cfg;
      view;
      cclk = Array.init view.v_clients (fun _ -> Vclock.create (view.v_clients + view.v_n));
      oclk = Array.init view.v_n (fun _ -> Vclock.create (view.v_clients + view.v_n));
      tickets = Hashtbl.create 64;
      dclk = Hashtbl.create 64;
      last_deliver = Hashtbl.create 8;
      oracle = Hashtbl.create 32;
      writes = Hashtbl.create 8;
      quorums_seen = Hashtbl.create 4;
      obj_dead = Array.make view.v_n false;
      obj_epoch = Array.make view.v_n 1;
      applied_once = Hashtbl.create 64;
      cli_dead = Array.make view.v_clients false;
      acct =
        Array.init view.v_n (fun o ->
            List.fold_left (fun a b -> a + Block.bits b) 0 (view.v_blocks o));
      crashed_objs = 0;
      seq = 0;
      violation_log = [];
      adv_check = None;
    }
  in
  (* The initial write (source 0) completed before time zero. *)
  Hashtbl.replace m.writes 0
    { w_invoked_at = -1; w_returned_at = Some 0; w_dead = false };
  (* Configuration resilience (n >= 2f + k).  For small universes the
     combinatorial characterisation from Sb_quorums is the ground truth;
     beyond that the closed form is used. *)
  let resilient =
    if view.v_n <= 12 then
      snd
        (Sb_quorums.Quorum.register_requirements ~n:view.v_n ~f:view.v_f
           ~k:cfg.k)
    else view.v_n >= (2 * view.v_f) + cfg.k
  in
  if not resilient then
    record m
      (Config_resilience { n = view.v_n; f = view.v_f; k = cfg.k })
      (Printf.sprintf
         "no quorum system over n = %d objects is both available after %d \
          crashes and %d-intersecting (need n >= 2f + k)" view.v_n view.v_f
         cfg.k);
  (* Seed the oracle table (and size-consistency check) with the blocks
     the algorithm pre-installed for the initial value. *)
  for o = 0 to view.v_n - 1 do
    List.iter (check_oracle m) (view.v_blocks o)
  done;
  check_avail m;
  check_floor m;
  m

let attach cfg (w : R.world) =
  let view =
    {
      v_n = R.n_objects w;
      v_f = R.f_tolerance w;
      v_clients = R.client_count w;
      v_alive = (fun o -> R.obj_alive w o);
      v_blocks = (fun o -> Objstate.blocks (R.obj_state w o));
      v_reported_bits = (fun () -> R.storage_bits_objects w);
      v_time = (fun () -> R.time w);
    }
  in
  let m = make cfg view in
  (match cfg.adversary with
  | None -> ()
  | Some (ell_bits, d_bits) ->
    m.adv_check <-
      Some
        (fun () ->
          let snap = Sb_adversary.Ad.classify ~ell_bits ~d_bits w in
          (* F(t) per Definition 7, with the monitor's own block-level
             accounting as the size oracle. *)
          let expect_frozen =
            List.filter
              (fun o -> m.view.v_alive o && stored_bits m o >= ell_bits)
              (List.init m.view.v_n Fun.id)
          in
          if snap.Sb_adversary.Ad.frozen <> expect_frozen then
            Some
              (Printf.sprintf "frozen set [%s] but objects holding >= %d bits \
                               are [%s]"
                 (String.concat ";" (List.map string_of_int snap.Sb_adversary.Ad.frozen))
                 ell_bits
                 (String.concat ";" (List.map string_of_int expect_frozen)))
          else begin
            let outstanding_writes =
              List.filter
                (fun (op : R.op) ->
                  match op.kind with
                  | Sb_sim.Trace.Write _ -> true
                  | Sb_sim.Trace.Read -> false)
                (R.outstanding_ops w)
            in
            let misclassified =
              List.find_opt
                (fun (op : R.op) ->
                  let contrib = R.op_contribution w op in
                  let in_plus = List.mem op.id snap.Sb_adversary.Ad.c_plus in
                  let in_minus = List.mem op.id snap.Sb_adversary.Ad.c_minus in
                  if contrib > d_bits - ell_bits then not (in_plus && not in_minus)
                  else not (in_minus && not in_plus))
                outstanding_writes
            in
            match misclassified with
            | Some op ->
              Some
                (Printf.sprintf
                   "write %d with contribution %d lands in the wrong class of \
                    the C+/C- partition (threshold D - l = %d)" op.id
                   (R.op_contribution w op) (d_bits - ell_bits))
            | None ->
              if List.length snap.Sb_adversary.Ad.c_plus
                 + List.length snap.Sb_adversary.Ad.c_minus
                 <> List.length outstanding_writes
              then Some "C+ and C- do not partition the outstanding writes"
              else None
          end));
  R.add_observer w (handle m);
  m

let attach_mp cfg (w : Sb_msgnet.Mp_runtime.world) =
  let module Mp = Sb_msgnet.Mp_runtime in
  let view =
    {
      v_n = Mp.n_servers w;
      v_f = Mp.f_tolerance w;
      v_clients = Mp.client_count w;
      v_alive = (fun o -> Mp.server_alive w o);
      v_blocks = (fun o -> Objstate.blocks (Mp.server_state w o));
      v_reported_bits = (fun () -> Mp.storage_bits_servers w);
      v_time = (fun () -> Mp.time w);
    }
  in
  let m = make cfg view in
  Mp.add_observer w (handle m);
  m

(* ------------------------------------------------------------------ *)
(* Drivers: sanitized runs, sanitized exploration, shrinking           *)
(* ------------------------------------------------------------------ *)

type report = {
  r_violation : violation;
  r_decisions : R.decision list;
  r_shrunk : R.decision list;
}

let violates ~mk_world cfg decisions =
  let w = mk_world () in
  let m = attach { cfg with mode = Collect } w in
  ignore (R.replay w decisions);
  m.violation_log <> []

let shrink_report ~mk_world cfg violation decisions =
  let r_shrunk =
    if violates ~mk_world cfg decisions then
      Sb_modelcheck.Shrink.shrink_pred ~violates:(violates ~mk_world cfg) decisions
    else decisions
  in
  { r_violation = violation; r_decisions = decisions; r_shrunk }

let run ?max_steps cfg ~mk_world policy =
  let w = mk_world () in
  let m = attach { cfg with mode = Raise } w in
  let recorded = ref [] in
  let recording_policy wld =
    let d = policy wld in
    recorded := d :: !recorded;
    d
  in
  match R.run ?max_steps w recording_policy with
  | outcome -> Ok (outcome, m)
  | exception Violation_exn v ->
    Error (shrink_report ~mk_world cfg v (List.rev !recorded))

let instrument cfg w = ignore (attach { cfg with mode = Raise } w)

let explore_sanitized cfg (ecfg : Sb_modelcheck.Explore.config) =
  let ecfg = { ecfg with instrument = Some (instrument cfg) } in
  let mk_world () =
    R.create ~seed:ecfg.seed ~metrics:false
      ~base_model:ecfg.Sb_modelcheck.Explore.base_model
      ?byz:ecfg.Sb_modelcheck.Explore.byz ~algorithm:ecfg.algorithm ~n:ecfg.n
      ~f:ecfg.f ~workload:ecfg.workload ()
  in
  match Sb_modelcheck.Explore.explore ecfg with
  | outcome -> Ok outcome
  | exception Sb_modelcheck.Explore.Instrumented_failure (Violation_exn v, ds) ->
    Error (shrink_report ~mk_world cfg v ds)
