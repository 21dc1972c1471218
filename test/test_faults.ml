(* Tests for the fault plane: lossy/duplicating/partitioned networks,
   server crash-recovery with incarnation fencing, retransmission,
   at-most-once deduplication, the liveness watchdog, and the chaos
   campaign runner. *)

module MP = Sb_msgnet.Mp_runtime
module Trace = Sb_sim.Trace
module Common = Sb_registers.Common
module Codec = Sb_codec.Codec
module Plan = Sb_faults.Plan
module Inject = Sb_faults.Inject
module Chaos = Sb_faults.Chaos
module Monitor = Sb_sanitize.Monitor
module Live = Sb_faults.Live
module Netfault = Sb_service.Netfault
module SWire = Sb_service.Wire

let value_bytes = 32
let v i = Sb_util.Values.distinct ~value_bytes i
let v0 = Bytes.make value_bytes '\000'

let coded_cfg ~f ~k =
  let n = (2 * f) + k in
  { Common.n; f; codec = Codec.rs_vandermonde ~value_bytes ~k ~n }

let history w = Sb_spec.History.of_trace ~initial:v0 (MP.trace w)
let is_ok = function Sb_spec.Regularity.Ok -> true | _ -> false

let all_returned w =
  let ops = Trace.operations (MP.trace w) in
  ops <> []
  && List.for_all (fun (_, _, _, ret, _) -> ret <> None) ops

let retransmit = { MP.rto = 10; max_attempts = 0 }

(* ------------------------------------------------------------------ *)
(* Plan validation                                                     *)
(* ------------------------------------------------------------------ *)

let invalid f =
  try ignore (f ()); false with Invalid_argument _ -> true

let test_plan_validate () =
  Plan.validate ~n:4 ~f:1 (Plan.lossy ~duplicate:0.1 0.3);
  Alcotest.(check bool) "rate out of range" true
    (invalid (fun () -> Plan.validate ~n:4 ~f:1 (Plan.lossy 1.5)));
  Alcotest.(check bool) "rates must sum below 1" true
    (invalid (fun () ->
         Plan.validate ~n:4 ~f:1 (Plan.lossy ~duplicate:0.6 0.6)));
  Alcotest.(check bool) "unknown server in crash schedule" true
    (invalid (fun () ->
         Plan.validate ~n:4 ~f:1
           (Plan.crash_recovery ~server:9 ~crash_at:1 ~recover_at:2 Plan.none)));
  (* Two overlapping crashes under f = 1 exceed the concurrent budget;
     sequential crash/recovery pairs do not. *)
  let overlapping =
    Plan.none
    |> Plan.crash_recovery ~server:0 ~crash_at:10 ~recover_at:50
    |> Plan.crash_recovery ~server:1 ~crash_at:20 ~recover_at:60
  in
  Alcotest.(check bool) "overlapping crashes exceed f" true
    (invalid (fun () -> Plan.validate ~n:4 ~f:1 overlapping));
  Plan.validate ~n:4 ~f:2 overlapping;
  let sequential =
    Plan.none
    |> Plan.crash_recovery ~server:0 ~crash_at:10 ~recover_at:20
    |> Plan.crash_recovery ~server:1 ~crash_at:30 ~recover_at:40
  in
  Plan.validate ~n:4 ~f:1 sequential

let test_plan_isolation () =
  let p =
    Plan.partition ~name:"minority" ~servers:[ 0; 1 ] ~start:10 ~heal:20
      ~mode:Plan.Isolate_hold Plan.none
  in
  Alcotest.(check bool) "inactive before start" true
    (Plan.isolation p ~now:9 0 = None);
  Alcotest.(check bool) "active in window" true
    (Plan.isolation p ~now:10 1 = Some Plan.Isolate_hold);
  Alcotest.(check bool) "other servers unaffected" true
    (Plan.isolation p ~now:15 2 = None);
  Alcotest.(check bool) "healed" true (Plan.isolation p ~now:20 0 = None);
  Alcotest.(check int) "last heal" 20 (Plan.last_heal p)

(* ------------------------------------------------------------------ *)
(* Retransmission                                                      *)
(* ------------------------------------------------------------------ *)

let test_retransmission_liveness () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~retransmit ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1); Trace.Read ] |] () in
  ignore (MP.step w (MP.Step 0));
  (* The network loses the entire first broadcast. *)
  List.iter (fun (m : MP.message_info) -> ignore (MP.step w (MP.Drop_msg m.msg_id)))
    (MP.in_flight w);
  Alcotest.(check int) "channel empty" 0 (List.length (MP.in_flight w));
  Alcotest.(check int) "one pending timer per server" cfg.n
    (List.length (MP.pending_retransmits w));
  Alcotest.(check bool) "not quiescent while timers pend" false (MP.quiescent w);
  (* The random policy ticks to the deadlines, retransmits, and the run
     completes. *)
  let outcome = MP.run w (MP.random_policy ~seed:3 ()) in
  Alcotest.(check bool) "quiescent" true outcome.MP.quiescent;
  Alcotest.(check bool) "all ops returned" true (all_returned w);
  Alcotest.(check bool) "retransmissions happened" true
    ((MP.net_stats w).MP.retransmissions >= cfg.n);
  Alcotest.(check (list (option bytes))) "read sees the write" [ Some (v 1) ]
    (List.filter_map
       (fun (_, kind, _, ret, res) ->
         match (kind, ret) with Trace.Read, Some _ -> Some res | _ -> None)
       (Trace.operations (MP.trace w)))

let test_retransmit_needs_expiry () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~retransmit ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1) ] |] () in
  ignore (MP.step w (MP.Step 0));
  let ticket = List.hd (MP.pending_retransmits w) in
  Alcotest.(check bool) "deadline not reached yet" true
    (MP.due_retransmits w = []);
  Alcotest.(check bool) "early retransmit refused" true
    (invalid (fun () -> MP.step w (MP.Retransmit ticket)))

(* ------------------------------------------------------------------ *)
(* Incarnation fencing                                                 *)
(* ------------------------------------------------------------------ *)

let test_stale_response_fenced () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~retransmit ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1); Trace.Read ] |] () in
  ignore (MP.step w (MP.Step 0));
  (* Server 0 answers, then crashes and recovers while its response is
     still in flight: the response belongs to the old incarnation. *)
  let req0 =
    List.find (fun (m : MP.message_info) -> m.m_server = 0) (MP.deliverable w)
  in
  ignore (MP.step w (MP.Deliver_msg req0.MP.msg_id));
  let resp0 =
    List.find
      (fun (m : MP.message_info) -> m.kind = MP.Response && m.m_server = 0)
      (MP.in_flight w)
  in
  ignore (MP.step w (MP.Crash_server 0));
  ignore (MP.step w (MP.Recover_server 0));
  Alcotest.(check int) "incarnation bumped" 2 (MP.server_incarnation w 0);
  let before = (MP.net_stats w).MP.fenced in
  ignore (MP.step w (MP.Deliver_msg resp0.MP.msg_id));
  Alcotest.(check int) "stale response fenced" (before + 1)
    (MP.net_stats w).MP.fenced;
  (* Fencing costs liveness, not safety: retransmission reaches the new
     incarnation and the run still completes correctly. *)
  let outcome = MP.run w (MP.random_policy ~seed:7 ()) in
  Alcotest.(check bool) "quiescent" true outcome.MP.quiescent;
  Alcotest.(check bool) "all ops returned" true (all_returned w);
  Alcotest.(check bool) "strongly regular" true
    (is_ok (Sb_spec.Regularity.check_strong (history w)))

(* ------------------------------------------------------------------ *)
(* At-most-once deduplication                                          *)
(* ------------------------------------------------------------------ *)

(* Drive one writer to its round-2 update broadcast (the first
   non-readonly requests), returning the world. *)
let world_at_update_round ~dedup () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~dedup ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1) ] |] () in
  ignore (MP.step w (MP.Step 0));
  List.iter (fun (m : MP.message_info) -> ignore (MP.step w (MP.Deliver_msg m.msg_id)))
    (MP.deliverable w);
  List.iter (fun (m : MP.message_info) -> ignore (MP.step w (MP.Deliver_msg m.msg_id)))
    (MP.deliverable w);
  ignore (MP.step w (MP.Step 0));
  (cfg, w)

let test_duplicate_request_deduplicated () =
  let _, w = world_at_update_round ~dedup:true () in
  let m =
    List.find (fun (m : MP.message_info) -> m.kind = MP.Request) (MP.deliverable w)
  in
  let channel_bits = MP.storage_bits_channels w in
  ignore (MP.step w (MP.Duplicate_msg m.MP.msg_id));
  (* The clone carries the same payload: channel accounting inflates. *)
  Alcotest.(check int) "duplicate inflates channel bits"
    (channel_bits + m.MP.m_bits) (MP.storage_bits_channels w);
  Alcotest.(check int) "duplicated counted" 1 (MP.net_stats w).MP.duplicated;
  let copies =
    List.filter
      (fun (m' : MP.message_info) ->
        m'.kind = MP.Request && m'.m_ticket = m.MP.m_ticket)
      (MP.in_flight w)
  in
  Alcotest.(check int) "two copies in flight" 2 (List.length copies);
  (match copies with
  | [ first; second ] ->
    ignore (MP.step w (MP.Deliver_msg first.MP.msg_id));
    let after_first = MP.server_state w m.MP.m_server in
    ignore (MP.step w (MP.Deliver_msg second.MP.msg_id));
    Alcotest.(check bool) "object state applied exactly once" true
      (after_first = MP.server_state w m.MP.m_server)
  | _ -> Alcotest.fail "expected exactly two copies");
  Alcotest.(check int) "second application suppressed" 1
    (MP.net_stats w).MP.dedup_hits;
  (* Both deliveries answered: two responses for the ticket. *)
  Alcotest.(check int) "both copies answered" 2
    (List.length
       (List.filter
          (fun (m' : MP.message_info) ->
            m'.kind = MP.Response && m'.m_ticket = m.MP.m_ticket)
          (MP.in_flight w)))

(* Negative control: with the at-most-once table disabled, a duplicated
   update re-applies — the sanitizer's dedup monitor must object. *)
let test_dedup_monitor_fires_without_table () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~dedup:false ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1) ] |] () in
  let monitor =
    Monitor.attach_mp (Monitor.config ~mode:Monitor.Collect ~k:2 ()) w
  in
  ignore (MP.step w (MP.Step 0));
  List.iter (fun (m : MP.message_info) -> ignore (MP.step w (MP.Deliver_msg m.msg_id)))
    (MP.deliverable w);
  List.iter (fun (m : MP.message_info) -> ignore (MP.step w (MP.Deliver_msg m.msg_id)))
    (MP.deliverable w);
  ignore (MP.step w (MP.Step 0));
  let m =
    List.find (fun (m : MP.message_info) -> m.kind = MP.Request) (MP.deliverable w)
  in
  ignore (MP.step w (MP.Duplicate_msg m.MP.msg_id));
  List.iter
    (fun (c : MP.message_info) -> ignore (MP.step w (MP.Deliver_msg c.msg_id)))
    (List.filter
       (fun (m' : MP.message_info) ->
         m'.kind = MP.Request && m'.m_ticket = m.MP.m_ticket)
       (MP.in_flight w));
  Alcotest.(check int) "no dedup hit recorded" 0 (MP.net_stats w).MP.dedup_hits;
  Alcotest.(check bool) "dedup monitor fired" true
    (List.exists
       (fun (viol : Monitor.violation) ->
         match viol.Monitor.rule with Monitor.Dedup _ -> true | _ -> false)
       (Monitor.violations monitor))

(* Re-application across incarnations is legal (the table is volatile):
   the registers' idempotent RMWs absorb it, so a monitored lossy run
   with crash-recovery stays clean. *)
let test_cross_incarnation_reapply_is_harmless () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~retransmit ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1) ]; [ Trace.Read ] |] () in
  let monitor =
    Monitor.attach_mp
      (Monitor.config ~mode:Monitor.Collect ~reg_avail:true ~k:2 ()) w
  in
  let plan =
    Plan.crash_recovery ~server:0 ~crash_at:10 ~recover_at:40
      (Plan.lossy ~duplicate:0.2 0.2)
  in
  let outcome = MP.run w (Inject.policy ~seed:5 plan) in
  Alcotest.(check bool) "quiescent" true outcome.MP.quiescent;
  Alcotest.(check bool) "all ops returned" true (all_returned w);
  Alcotest.(check int) "recovered once" 1 (MP.net_stats w).MP.recoveries;
  Alcotest.(check (list string)) "sanitizers clean" []
    (List.map Monitor.violation_to_string (Monitor.violations monitor));
  Alcotest.(check bool) "strongly regular" true
    (is_ok (Sb_spec.Regularity.check_strong (history w)))

(* ------------------------------------------------------------------ *)
(* Injection policy                                                    *)
(* ------------------------------------------------------------------ *)

let test_inject_deterministic () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let plan =
    Plan.crash_recovery ~server:1 ~crash_at:20 ~recover_at:60
      (Plan.lossy ~duplicate:0.1 ~delay:0.1 0.2)
  in
  let run_once () =
    let algorithm = Sb_registers.Adaptive.make cfg in
    let w = MP.create ~retransmit ~algorithm ~n:cfg.n ~f:cfg.f
        ~workload:[| [ Trace.Write (v 1); Trace.Read ]; [ Trace.Read ] |] () in
    let outcome = MP.run w (Inject.policy ~seed:11 plan) in
    let stats = MP.net_stats w in
    (outcome.MP.steps, stats, MP.max_bits_combined w,
     Trace.operations (MP.trace w))
  in
  Alcotest.(check bool) "identical replays" true (run_once () = run_once ())

let test_partition_holds_then_heals () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~retransmit ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1); Trace.Read ] |] () in
  let plan =
    Plan.partition ~name:"s0-cut" ~servers:[ 0 ] ~start:0 ~heal:50
      ~mode:Plan.Isolate_hold Plan.none
  in
  let outcome = MP.run w (Inject.policy ~seed:2 plan) in
  Alcotest.(check bool) "quiescent" true outcome.MP.quiescent;
  Alcotest.(check bool) "all ops returned" true (all_returned w);
  Alcotest.(check int) "held messages were never lost" 0
    (MP.net_stats w).MP.dropped

let test_drop_partition_loses_messages () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~retransmit ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1) ] |] () in
  let plan =
    Plan.partition ~name:"s0-drop" ~servers:[ 0 ] ~start:0 ~heal:80
      ~mode:Plan.Isolate_drop Plan.none
  in
  let outcome = MP.run w (Inject.policy ~seed:2 plan) in
  Alcotest.(check bool) "quiescent" true outcome.MP.quiescent;
  Alcotest.(check bool) "all ops returned" true (all_returned w);
  Alcotest.(check bool) "crossing messages dropped" true
    ((MP.net_stats w).MP.dropped > 0)

(* ------------------------------------------------------------------ *)
(* Liveness watchdog                                                   *)
(* ------------------------------------------------------------------ *)

let test_watchdog_flags_stuck_op () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  (* No retransmission: losing the whole broadcast wedges the op. *)
  let w = MP.create ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1) ] |] () in
  ignore (MP.step w (MP.Step 0));
  List.iter (fun (m : MP.message_info) -> ignore (MP.step w (MP.Drop_msg m.msg_id)))
    (MP.in_flight w);
  Alcotest.(check int) "nothing flagged before the deadline" 0
    (List.length (Inject.watchdog ~budget:1000 w));
  for _ = 1 to 30 do ignore (MP.step w MP.Tick) done;
  let stuck = Inject.watchdog ~budget:20 w in
  Alcotest.(check int) "one stuck op" 1 (List.length stuck);
  let s = List.hd stuck in
  Alcotest.(check int) "the writer's op" 1 s.Inject.wd_op;
  Alcotest.(check bool) "aged past the budget" true (s.Inject.wd_age > 20);
  Alcotest.(check bool) "budget must be positive" true
    (invalid (fun () -> Inject.watchdog ~budget:0 w))

(* ------------------------------------------------------------------ *)
(* FIFO vs unordered equivalence (satellite)                           *)
(* ------------------------------------------------------------------ *)

(* Every register keeps its promised consistency level under loss and
   duplication, with the same verdict whether channels are FIFO or
   unordered.  This is the test_msgnet algorithm matrix pushed through
   the fault plane. *)
let test_fifo_unordered_equivalence () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let cfg_abd =
    { Common.n = 3; f = 1; codec = Codec.replication ~value_bytes ~n:3 }
  in
  let algorithms =
    [
      ("abd", (fun () -> Sb_registers.Abd.make cfg_abd), cfg_abd,
       Sb_spec.Regularity.check_strong);
      ("abd-atomic", (fun () -> Sb_registers.Abd_atomic.make cfg_abd), cfg_abd,
       fun h -> Sb_spec.Regularity.check_atomic h);
      ("adaptive", (fun () -> Sb_registers.Adaptive.make cfg), cfg,
       Sb_spec.Regularity.check_strong);
      ("pure-ec", (fun () -> Sb_registers.Adaptive.make_unbounded cfg), cfg,
       Sb_spec.Regularity.check_strong);
      ("versioned", (fun () -> Sb_registers.Adaptive.make_versioned ~delta:1 cfg),
       cfg, Sb_spec.Regularity.check_strong);
      ("safe", (fun () -> Sb_registers.Safe_register.make cfg), cfg,
       Sb_spec.Regularity.check_safe);
      ("rateless", (fun () -> Sb_registers.Rateless.make ~codec_seed:7 cfg), cfg,
       Sb_spec.Regularity.check_strong);
    ]
  in
  let workload = [| [ Trace.Write (v 5); Trace.Read ]; [ Trace.Read ] |] in
  List.iter
    (fun (name, make, cfg, check) ->
      List.iter
        (fun drop ->
          List.iter
            (fun seed ->
              let verdict_of ~fifo =
                let w = MP.create ~fifo ~retransmit ~algorithm:(make ())
                    ~n:cfg.Common.n ~f:cfg.Common.f ~workload () in
                let plan = Plan.lossy ~duplicate:0.1 drop in
                let outcome = MP.run w (Inject.policy ~seed plan) in
                Alcotest.(check bool)
                  (Printf.sprintf "%s drop=%.1f seed=%d fifo=%b quiescent" name
                     drop seed fifo)
                  true
                  (outcome.MP.quiescent && all_returned w);
                is_ok (check (history w))
              in
              let unordered = verdict_of ~fifo:false in
              let fifo = verdict_of ~fifo:true in
              Alcotest.(check bool)
                (Printf.sprintf "%s drop=%.1f seed=%d verdicts agree" name drop
                   seed)
                true
                (unordered = fifo && unordered))
            [ 1; 2; 3; 4; 5 ])
        [ 0.0; 0.1; 0.3 ])
    algorithms

(* ------------------------------------------------------------------ *)
(* Byzantine plan entries: the policy gate                              *)
(* ------------------------------------------------------------------ *)

module Model = Sb_baseobj.Model
module Byz = Sb_adversary.Byz

(* A declarative byz entry is validated like any other plan field, but
   with the TYPED error: budgets over [f] raise [Model.Error
   Budget_exceeds_f], not a stringly [Invalid_argument] — callers gate
   campaigns on it while negative-control harnesses construct the
   over-budget world directly. *)
let test_plan_byz_validate () =
  let with_budget b =
    Plan.byzantine ~behaviour:Byz.Stale_echo ~budget:b Plan.none
  in
  Plan.validate ~n:5 ~f:1 (with_budget 0);
  Plan.validate ~n:5 ~f:1 (with_budget 1);
  (match Plan.validate ~n:5 ~f:1 (with_budget 2) with
  | () -> Alcotest.fail "budget 2 > f = 1 accepted"
  | exception Model.Error (Model.Budget_exceeds_f { budget; f }) ->
    Alcotest.(check int) "budget reported" 2 budget;
    Alcotest.(check int) "f reported" 1 f);
  match Plan.validate ~n:5 ~f:1 (with_budget (-1)) with
  | () -> Alcotest.fail "negative budget accepted"
  | exception Model.Error (Model.Negative_budget _) -> ()

(* ------------------------------------------------------------------ *)
(* Byzantine chaos campaign + the over-budget negative control          *)
(* ------------------------------------------------------------------ *)

let byz_cfg ~f ~b =
  let n = (2 * f) + (2 * b) + 1 in
  { Common.n; f; codec = Codec.replication ~value_bytes ~n }

(* Within budget ([b <= f]) every lying behaviour must ride out the full
   chaos plan — message loss, duplication, crash/recovery — with a clean
   strong-regularity verdict and the floor monitor armed. *)
let test_chaos_byz_within_budget () =
  let config =
    { Chaos.quick_config with Chaos.seeds = 2; drops = [ 0.0; 0.2 ] }
  in
  List.iter
    (fun behaviour ->
      let spec =
        Chaos.catalog_spec ~byz_behaviour:behaviour
          (Sb_experiments.Catalog.Byz_reg 1) ~value_bytes ~f:1 ~k:1
      in
      let cells = Chaos.campaign config [ spec ] in
      if not (Chaos.all_ok cells) then (
        Chaos.explain_failures Format.str_formatter cells;
        Alcotest.failf "byz campaign (%s) failed:@ %s"
          (Byz.behaviour_to_string behaviour)
          (Format.flush_str_formatter ())))
    Byz.all_behaviours

(* The designed refutation: [b+1] split-brain liars against a budget-[b]
   masking register.  The explorer finds a strong-regularity violation,
   the shrinker minimises it, and the shrunk schedule still replays to a
   violation on a fresh world — the counterexample is a portable
   artifact, not a flaky observation. *)
let test_chaos_byz_over_budget_refuted () =
  let f = 1 and b = 1 in
  let cfg = byz_cfg ~f ~b in
  let over = b + 1 in
  let module E = Sb_modelcheck.Explore in
  let byz = Byz.policy ~seed:7 ~n:cfg.Common.n ~budget:over Byz.Split_brain in
  let econfig =
    E.config
      ~base_model:(Model.Byzantine { budget = over })
      ~byz
      ~algorithm:(Sb_registers.Byz_regular.make ~budget:b cfg)
      ~n:cfg.Common.n ~f:cfg.Common.f
      ~workload:[| [ Trace.Write (v 1) ]; [ Trace.Read ] |]
      ~initial:v0 ~check:Sb_spec.Regularity.check_strong ()
  in
  let out = E.explore econfig in
  match out.E.first_violation with
  | None ->
    Alcotest.fail
      "b+1 corroborating liars did not defeat the budget-b masking quorum"
  | Some viol ->
    let shrunk = Sb_modelcheck.Shrink.shrink econfig viol.E.v_decisions in
    Alcotest.(check bool) "shrunk non-empty" true (shrunk <> []);
    Alcotest.(check bool) "shrunk no longer than original" true
      (List.length shrunk <= List.length viol.E.v_decisions);
    (match Sb_modelcheck.Shrink.check_decisions econfig shrunk with
    | Some _ -> ()
    | None -> Alcotest.fail "shrunk schedule no longer violates on replay")

(* ------------------------------------------------------------------ *)
(* Chaos campaign                                                      *)
(* ------------------------------------------------------------------ *)

let test_chaos_smoke () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let spec =
    { Chaos.sp_name = "adaptive";
      sp_make = (fun () -> Sb_registers.Adaptive.make cfg);
      sp_n = cfg.Common.n;
      sp_f = cfg.Common.f;
      sp_k = 2;
      sp_value_bytes = value_bytes;
      sp_reg_avail = true;
      sp_check = Sb_spec.Regularity.check_strong;
      sp_base_model = Sb_baseobj.Model.Rmw;
      sp_byz = None;
      sp_floor = None;
      sp_workload = None;
    }
  in
  let config =
    { Chaos.quick_config with Chaos.seeds = 2; drops = [ 0.0; 0.25 ] }
  in
  let cells = Chaos.campaign config [ spec ] in
  Alcotest.(check int) "one cell per drop rate" 2 (List.length cells);
  Alcotest.(check bool) "all cells pass" true (Chaos.all_ok cells);
  List.iter
    (fun (c : Chaos.cell) ->
      List.iter
        (fun (r : Chaos.run_result) ->
          Alcotest.(check bool) "accounting holds" true r.Chaos.r_accounting_ok;
          Alcotest.(check int) "all ops ran" r.Chaos.r_ops r.Chaos.r_completed)
        c.Chaos.cl_runs)
    cells;
  (* The report renders and carries one row per cell. *)
  let csv = Sb_util.Table.to_csv (Chaos.report cells) in
  Alcotest.(check int) "report has a header plus one row per cell" 3
    (List.length
       (List.filter (fun l -> String.trim l <> "")
          (String.split_on_char '\n' csv)))

(* The catalogue arms the availability monitor for premature-gc, the
   seeded bug that monitor exists to catch, so a quick campaign over the
   catalogue's spec must flag it in every cell. *)
let test_chaos_catches_premature_gc () =
  let spec =
    Chaos.catalog_spec ~byz_behaviour:Byz.Stale_echo
      Sb_experiments.Catalog.Premature_gc ~value_bytes:64 ~f:1 ~k:2
  in
  let cells = Chaos.campaign Chaos.quick_config [ spec ] in
  let premature_gc (v : Monitor.violation) =
    match v.Monitor.rule with Monitor.Premature_gc _ -> true | _ -> false
  in
  Alcotest.(check bool) "the campaign fails" false (Chaos.all_ok cells);
  List.iter
    (fun (c : Chaos.cell) ->
      Alcotest.(check bool)
        (Printf.sprintf "drop %.2f: a run flags premature-gc" c.Chaos.cl_drop)
        true
        (List.exists
           (fun (r : Chaos.run_result) ->
             List.exists premature_gc r.Chaos.r_violations)
           c.Chaos.cl_runs))
    cells

(* ------------------------------------------------------------------ *)
(* Livecheck: a live run's judgement, without sockets                  *)
(* ------------------------------------------------------------------ *)

module Livecheck = Sb_faults.Livecheck

(* The nearest-rank formula loadgen used before it moved to Stats. *)
let reference_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    sorted.(max 0
              (min (n - 1)
                 (int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) - 1)))

let test_livecheck_latency () =
  let empty = Livecheck.latency [] in
  Alcotest.(check (list (float 0.0))) "empty gives 0" [ 0.0; 0.0; 0.0; 0.0 ]
    [ empty.p50; empty.p95; empty.p99; empty.max ];
  let samples = [ 7.5; 0.25; 3.0; 12.0; 1.0; 3.0; 40.0; 2.5; 9.0; 0.5; 6.0 ] in
  let lat = Livecheck.latency samples in
  Alcotest.(check (float 0.0)) "p100 is the max" 40.0 lat.max;
  let sorted = Array.of_list (List.sort Float.compare samples) in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "p%g" p)
        (reference_rank sorted p)
        (Sb_experiments.Stats.nearest_rank sorted ~p))
    [ 0.0; 1.0; 25.0; 50.0; 90.0; 95.0; 99.0; 100.0 ];
  Alcotest.(check (list (float 0.0))) "p50 p95 p99"
    [ reference_rank sorted 50.0; reference_rank sorted 95.0;
      reference_rank sorted 99.0 ]
    [ lat.p50; lat.p95; lat.p99 ]

(* Both branches of min((c+1)(2f+k), (2f+k)^2)·D/k, and the floor, at
   k = 1 (m = 5) and k = f (m = 6), with D = 512 bits. *)
let test_livecheck_bounds () =
  let b ~k ~c = Livecheck.bounds ~f:2 ~k ~c ~d_bits:512 in
  let pair (x : Livecheck.bounds) = (x.ceiling_bits, x.floor_bits) in
  let cf = Alcotest.(pair int int) in
  Alcotest.check cf "k=1, c=1: (c+1)(2f+k) branch" (5120, 2560) (pair (b ~k:1 ~c:1));
  Alcotest.check cf "k=1, c=8: (2f+k)^2 branch" (12800, 2560) (pair (b ~k:1 ~c:8));
  Alcotest.check cf "k=f, c=1: (c+1)(2f+k) branch" (3072, 1536) (pair (b ~k:2 ~c:1));
  Alcotest.check cf "k=f, c=8: (2f+k)^2 branch" (9216, 1536) (pair (b ~k:2 ~c:8));
  Alcotest.check cf "fleet of 3 keys" (15360, 7680)
    (pair (Livecheck.fleet (b ~k:1 ~c:1) ~keys:3))

let stats ?(shards = []) ~max_bits ~storage_bits server =
  { SWire.st_server = server; st_incarnation = 1; st_storage_bits = storage_bits;
    st_max_bits = max_bits; st_dedup_hits = 0; st_applied = 0;
    st_keys = 0; st_shards = shards }

let shard ~max_key_bits i =
  { SWire.ss_shard = i; ss_incarnation = 1; ss_keys = 1; ss_storage_bits = 0;
    ss_max_bits = 0; ss_max_key_bits = max_key_bits }

let test_livecheck_storage () =
  let plain =
    [ stats ~max_bits:300 ~storage_bits:100 0;
      stats ~max_bits:500 ~storage_bits:200 1 ]
  in
  let sharded =
    [ stats ~max_bits:900 ~storage_bits:10 0
        ~shards:[ shard ~max_key_bits:40 0; shard ~max_key_bits:70 1 ];
      stats ~max_bits:800 ~storage_bits:20 1
        ~shards:
          [ shard ~max_key_bits:50 0; shard ~max_key_bits:20 1;
            shard ~max_key_bits:30 2 ] ]
  in
  Alcotest.(check int) "per-key peak without shards" 800
    (Livecheck.per_key_peak_bits plain);
  Alcotest.(check int) "per-key peak over shards" 120
    (Livecheck.per_key_peak_bits sharded);
  Alcotest.(check int) "unsharded fleet: keys + 1" 101
    (Livecheck.fleet_keys ~keys:100 plain);
  Alcotest.(check int) "sharded fleet: keys + shards" 103
    (Livecheck.fleet_keys ~keys:100 sharded);
  Alcotest.(check int) "sum of maxima" 1700 (Livecheck.sum_max_bits sharded);
  Alcotest.(check int) "peak: sum of maxima above the sample" 1700
    (Livecheck.peak_bits ~sampled:1000 sharded);
  Alcotest.(check int) "peak: sample above the sum of maxima" 2000
    (Livecheck.peak_bits ~sampled:2000 sharded);
  Alcotest.(check int) "quiescent" 300 (Livecheck.quiescent_bits plain)

let oks vs = List.map (fun (v : Livecheck.verdict) -> v.ok) vs

let test_livecheck_verdicts () =
  let b = Livecheck.bounds ~f:2 ~k:1 ~c:1 ~d_bits:512 in
  Alcotest.(check (list bool)) "closed: at the ceiling and the floor"
    [ true; true ]
    (oks (Livecheck.closed_verdicts b ~peak:5120 ~quiescent:2560));
  Alcotest.(check (list bool)) "closed: one bit over each" [ false; false ]
    (oks (Livecheck.closed_verdicts b ~peak:5121 ~quiescent:2561));
  let open_ ~per_key_peak ~peak ~quiescent =
    oks (Livecheck.open_verdicts b ~keys:10 ~per_key_peak ~peak ~quiescent)
  in
  Alcotest.(check (list bool)) "open: within every budget" [ true; true; true ]
    (open_ ~per_key_peak:5120 ~peak:51200 ~quiescent:51200);
  Alcotest.(check (list bool)) "open: over every budget"
    [ false; false; false ]
    (open_ ~per_key_peak:5121 ~peak:51201 ~quiescent:51201)

let test_livecheck_baseline_gate () =
  let dir = Filename.get_temp_dir_name () in
  let current = Filename.temp_file ~temp_dir:dir "sb-current" ".json" in
  let baseline = Filename.temp_file ~temp_dir:dir "sb-baseline" ".json" in
  let write file ~ms ~gate =
    Sb_util.Jsonx.write file
      Sb_util.Jsonx.
        [ ("ms_per_op", float ms); ("p99_ms", float 20.0);
          ("gate_min_throughput_ops_s", float gate);
          ("gate_max_p99_ms", float 50.0) ]
  in
  let gate () =
    let within, gates =
      Livecheck.baseline_gate ~current ~baseline:current ~throughput:1000.0
        ~p99:20.0
    in
    (within, oks gates)
  in
  write current ~ms:1.0 ~gate:900.0;
  Alcotest.(check (pair bool (list bool))) "passes on its own output"
    (true, [ true; true ]) (gate ());
  let doctored () =
    let within, gates =
      Livecheck.baseline_gate ~current ~baseline ~throughput:1000.0 ~p99:20.0
    in
    (within, oks gates)
  in
  write baseline ~ms:0.5 ~gate:900.0;
  Alcotest.(check (pair bool (list bool))) "fails a halved ms_per_op"
    (false, [ true; true ]) (doctored ());
  write baseline ~ms:1.0 ~gate:2000.0;
  Alcotest.(check (pair bool (list bool))) "fails a raised throughput gate"
    (true, [ false; true ]) (doctored ());
  Sys.remove baseline;
  Alcotest.(check (pair bool (list bool))) "a missing baseline passes"
    (true, []) (doctored ());
  Sys.remove current

(* ------------------------------------------------------------------ *)
(* Live fault plane (socket-layer hooks + disk faults)                 *)
(* ------------------------------------------------------------------ *)


let data_frame i =
  SWire.encode_msg
    (SWire.Request
       {
         rq_key = "";
         rq_client = 1;
         rq_ticket = i;
         rq_op = 1;
         rq_nature = `Readonly;
         rq_payload = [];
         rq_desc = Sb_sim.Rmwdesc.Snapshot;
       })

(* Fragmentation preserves the byte stream: the scheduled segments
   reassemble the exact frame (a slow-close may truncate the tail to a
   strict prefix — the peer's incremental reader treats that as a
   partial write followed by EOF, never as garbage). *)
let test_live_hooks_fragmentation () =
  let hooks = Live.hooks ~seed:5 (Plan.lossy ~fragment:1.0 0.0) in
  for i = 1 to 50 do
    let frame = data_frame i in
    match hooks.Netfault.nf_frame ~server:0 frame with
    | Netfault.Pass -> Alcotest.fail "fragment=1.0 left a frame whole"
    | Netfault.Drop -> Alcotest.fail "drop=0.0 dropped a frame"
    | Netfault.Emit segs ->
      Alcotest.(check bool) "split into several segments" true
        (List.length segs >= 2);
      List.iter
        (fun (d, _) ->
          Alcotest.(check bool) "segment delay non-negative" true (d >= 0))
        segs;
      Alcotest.(check bytes) "segments reassemble the frame" frame
        (Bytes.concat Bytes.empty (List.map snd segs))
    | Netfault.Emit_close segs ->
      let got = Bytes.concat Bytes.empty (List.map snd segs) in
      let len = Bytes.length got in
      Alcotest.(check bool) "slow-close emits a strict prefix" true
        (len < Bytes.length frame && Bytes.equal got (Bytes.sub frame 0 len))
  done

(* Handshake frames ride above the fault plane: campaigns exercise the
   data path, not the (idempotent, retried-on-reconnect) handshake. *)
let test_live_hooks_handshake_immune () =
  let hooks =
    Live.hooks ~seed:9 (Plan.lossy ~duplicate:0.2 ~fragment:0.5 0.3)
  in
  let hello = SWire.encode_msg (SWire.Hello { client = 1; schema = None }) in
  for _ = 1 to 100 do
    match hooks.Netfault.nf_frame ~server:0 hello with
    | Netfault.Pass -> ()
    | _ -> Alcotest.fail "handshake frame was faulted"
  done

(* The live hooks are a pure function of (seed, plan, call sequence):
   two instances built alike fault identically, frame for frame. *)
let test_live_hooks_deterministic () =
  let plan = Plan.lossy ~duplicate:0.2 ~delay:0.3 ~delay_steps:5 ~fragment:0.3 0.2 in
  let a = Live.hooks ~seed:7 plan in
  let b = Live.hooks ~seed:7 plan in
  for i = 1 to 200 do
    let frame = data_frame i in
    let ra = a.Netfault.nf_frame ~server:(i mod 3) frame in
    let rb = b.Netfault.nf_frame ~server:(i mod 3) frame in
    if ra <> rb then Alcotest.failf "frame %d diverged between equal seeds" i
  done

(* Each disk-fault mode damages a freshly saved state file in a way the
   checksummed loader detects; [Df_none] touches nothing. *)
let test_disk_fault_modes () =
  let file =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sb-diskfault-%d.state" (Unix.getpid ()))
  in
  let p =
    { Sb_service.Wire.p_incarnation = 3; p_state = Sb_storage.Objstate.init ();
      p_keyed = [] }
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun fault ->
          Sb_service.Daemon.save_state ~version:SWire.version file p;
          Alcotest.(check bool)
            (Live.disk_fault_name fault ^ " applied")
            true
            (Live.corrupt_file ~seed:11 fault file);
          match Sb_service.Daemon.load_state ~max_version:SWire.version file with
          | Sb_service.Daemon.Corrupt _ -> ()
          | _ -> Alcotest.failf "%s not detected" (Live.disk_fault_name fault))
        [ Live.Df_truncate; Live.Df_bitflip ];
      Sb_service.Daemon.save_state ~version:SWire.version file p;
      Alcotest.(check bool) "Df_none is a no-op" false
        (Live.corrupt_file ~seed:11 Live.Df_none file);
      match Sb_service.Daemon.load_state ~max_version:SWire.version file with
      | Sb_service.Daemon.Loaded _ -> ()
      | _ -> Alcotest.fail "untouched file should still load")

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "validation" `Quick test_plan_validate;
          Alcotest.test_case "partition isolation" `Quick test_plan_isolation;
        ] );
      ( "retransmission",
        [
          Alcotest.test_case "liveness under total loss" `Quick
            test_retransmission_liveness;
          Alcotest.test_case "needs an expired deadline" `Quick
            test_retransmit_needs_expiry;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "stale responses fenced" `Quick
            test_stale_response_fenced;
          Alcotest.test_case "cross-incarnation reapply harmless" `Quick
            test_cross_incarnation_reapply_is_harmless;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "duplicates answered once" `Quick
            test_duplicate_request_deduplicated;
          Alcotest.test_case "monitor fires without the table" `Quick
            test_dedup_monitor_fires_without_table;
        ] );
      ( "injection",
        [
          Alcotest.test_case "deterministic" `Quick test_inject_deterministic;
          Alcotest.test_case "hold partition heals" `Quick
            test_partition_holds_then_heals;
          Alcotest.test_case "drop partition loses" `Quick
            test_drop_partition_loses_messages;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "flags stuck ops" `Quick test_watchdog_flags_stuck_op;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "fifo vs unordered verdicts" `Quick
            test_fifo_unordered_equivalence;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "campaign smoke" `Quick test_chaos_smoke;
          Alcotest.test_case "catalogue arms the premature-gc monitor" `Quick
            test_chaos_catches_premature_gc;
        ] );
      ( "byzantine",
        [
          Alcotest.test_case "plan budget gate" `Quick test_plan_byz_validate;
          Alcotest.test_case "within-budget campaign green" `Quick
            test_chaos_byz_within_budget;
          Alcotest.test_case "over-budget refuted+shrunk" `Quick
            test_chaos_byz_over_budget_refuted;
        ] );
      ( "livecheck",
        [
          Alcotest.test_case "nearest-rank latency" `Quick
            test_livecheck_latency;
          Alcotest.test_case "Theorem 2 ceiling and floor" `Quick
            test_livecheck_bounds;
          Alcotest.test_case "storage from the stats rounds" `Quick
            test_livecheck_storage;
          Alcotest.test_case "bound verdicts" `Quick test_livecheck_verdicts;
          Alcotest.test_case "baseline gate" `Quick test_livecheck_baseline_gate;
        ] );
      ( "live",
        [
          Alcotest.test_case "fragments reassemble the frame" `Quick
            test_live_hooks_fragmentation;
          Alcotest.test_case "handshakes ride above the faults" `Quick
            test_live_hooks_handshake_immune;
          Alcotest.test_case "hooks deterministic per seed" `Quick
            test_live_hooks_deterministic;
          Alcotest.test_case "disk faults detected by the loader" `Quick
            test_disk_fault_modes;
        ] );
    ]
