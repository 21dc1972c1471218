(* Negative-control and soundness tests for the sanitizer layer:

   - each seeded bug (premature GC, undersized quorum, mis-declared
     Merge) is caught by the matching monitor with a structured rule and
     a shrunk, replayable schedule;
   - the independence audit is green on the litmus configurations and
     has teeth: it flags the mis-declared register and a deliberately
     weakened relation (the mutation test);
   - the monitors stay silent on the correct algorithms across random
     schedules, and run over the message-passing runtime too. *)

module R = Sb_sim.Runtime
module MP = Sb_msgnet.Mp_runtime
module E = Sb_modelcheck.Explore
module Trace = Sb_sim.Trace
module Common = Sb_registers.Common
module Codec = Sb_codec.Codec
module Monitor = Sb_sanitize.Monitor
module Audit = Sb_sanitize.Audit

let value_bytes = 2
let v i = Sb_util.Values.distinct ~value_bytes i
let v0 = Bytes.make value_bytes '\000'

let qtest ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let coded_cfg ~f ~k =
  let n = (2 * f) + k in
  { Common.n; f; codec = Codec.rs_vandermonde ~value_bytes ~k ~n }

let repl_cfg ~f =
  let n = (2 * f) + 1 in
  { Common.n; f; codec = Codec.replication ~value_bytes ~n }

(* [writers] single-write clients, then [readers] single-read clients. *)
let workload ~writers ?(readers = 0) () =
  Array.init (writers + readers) (fun i ->
      if i < writers then [ Trace.Write (v (i + 1)) ] else [ Trace.Read ])

let econfig ?(bound = E.Exhaustive) ~algorithm ~(cfg : Common.config) wl =
  E.config ~bound ~algorithm ~n:cfg.n ~f:cfg.f ~workload:wl ~initial:v0
    ~check:Sb_spec.Regularity.check_weak ()

let mk_world ~algorithm ~(cfg : Common.config) wl () =
  R.create ~seed:1 ~algorithm ~n:cfg.n ~f:cfg.f ~workload:wl ()

let rule_of (r : Monitor.report) = Monitor.rule_name r.Monitor.r_violation.Monitor.rule

(* ------------------------------------------------------------------ *)
(* Negative controls: each seeded bug is caught, with a shrunk trace   *)
(* ------------------------------------------------------------------ *)

(* Premature GC: the [`Own_ts] eviction breaks frontier availability as
   soon as three writes race; the sanitized explorer finds a schedule,
   the monitor aborts it, and the shrinker minimises the prefix. *)
let test_premature_gc_caught () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make_premature_gc cfg in
  let wl = workload ~writers:3 () in
  let mcfg = Monitor.config ~reg_avail:true ~k:2 () in
  match Monitor.explore_sanitized mcfg (econfig ~bound:(E.Delay 5) ~algorithm ~cfg wl) with
  | Ok _ -> Alcotest.fail "premature-gc exploration found no sanitizer violation"
  | Error r ->
    Alcotest.(check string) "rule" "premature-gc" (rule_of r);
    let orig = List.length r.Monitor.r_decisions in
    let shrunk = List.length r.Monitor.r_shrunk in
    Alcotest.(check bool) "shrunk non-empty" true (shrunk > 0);
    Alcotest.(check bool) "shrunk no longer than original" true (shrunk <= orig);
    (* The shrunk prefix must still reproduce a violation on replay. *)
    Alcotest.(check bool) "shrunk trace still violates" true
      (Monitor.violates ~mk_world:(mk_world ~algorithm ~cfg wl) mcfg r.Monitor.r_shrunk)

(* An undersized write quorum fails the pairwise k-intersection check at
   the very first await — in every schedule, so fifo suffices. *)
let test_broken_quorum_caught () =
  let cfg = repl_cfg ~f:1 in
  let algorithm = Sb_registers.Abd.make_broken cfg in
  let wl = workload ~writers:1 ~readers:1 () in
  let mcfg = Monitor.config ~k:1 () in
  match
    Monitor.run mcfg ~mk_world:(mk_world ~algorithm ~cfg wl) (R.fifo_policy ())
  with
  | Ok _ -> Alcotest.fail "abd-broken ran clean under the quorum monitor"
  | Error r ->
    Alcotest.(check string) "rule" "quorum-unsafe" (rule_of r);
    Alcotest.(check bool) "shrunk trace still violates" true
      (Monitor.violates ~mk_world:(mk_world ~algorithm ~cfg wl) mcfg r.Monitor.r_shrunk)

(* A last-writer-wins store declared [`Merge]: the vector-clock monitor
   re-applies adjacent concurrent same-class deliveries swapped and
   sees the disagreement. *)
let test_misdeclared_merge_caught () =
  let cfg = repl_cfg ~f:1 in
  let algorithm = Sb_registers.Abd.make_misdeclared_merge cfg in
  let wl = workload ~writers:2 () in
  let mcfg = Monitor.config ~k:1 () in
  match Monitor.explore_sanitized mcfg (econfig ~algorithm ~cfg wl) with
  | Ok _ -> Alcotest.fail "misdeclared merge exploration found no violation"
  | Error r ->
    Alcotest.(check string) "rule" "commutativity" (rule_of r);
    Alcotest.(check bool) "shrunk non-empty" true (r.Monitor.r_shrunk <> [])

(* ------------------------------------------------------------------ *)
(* The independence audit                                              *)
(* ------------------------------------------------------------------ *)

(* The litmus configurations exercise every declared commuting class:
   the shipped relation must survive its own audit there.  The exact
   state and pair counts are pinned: the walk deduplicates states by
   [Runtime.audit_key], so any change to what the key distinguishes
   moves which states fill the 300-state budget, and with them the
   number of pairs audited. *)
let test_audit_green_on_litmus_configs () =
  let audit_one name ~algorithm ~cfg wl counts =
    let r = Audit.audit ~max_states:300 (econfig ~algorithm ~cfg wl) in
    Alcotest.(check (pair int int)) (name ^ ": states, pairs audited") counts
      (r.Audit.a_states, r.Audit.a_pairs);
    (match r.Audit.a_divergences with
     | [] -> ()
     | d :: _ ->
       Alcotest.failf "%s: %s" name (Format.asprintf "%a" Audit.pp_divergence d))
  in
  let abd = repl_cfg ~f:1 in
  audit_one "abd"
    ~algorithm:(Sb_registers.Abd.make abd)
    ~cfg:abd
    (workload ~writers:1 ~readers:1 ())
    (300, 400);
  (* abd-atomic is the regression for the write-back fixes: its
     second-phase store must re-encode under the original write's op id
     and tie-break equal timestamps, or this audit diverges. *)
  audit_one "abd-atomic"
    ~algorithm:(Sb_registers.Abd_atomic.make abd)
    ~cfg:abd
    (workload ~writers:1 ~readers:2 ())
    (300, 620);
  let ad = coded_cfg ~f:1 ~k:1 in
  audit_one "adaptive"
    ~algorithm:(Sb_registers.Adaptive.make ad)
    ~cfg:ad
    (workload ~writers:2 ~readers:1 ())
    (300, 852)

(* The audit flags the register whose [`Merge] declaration lies: both
   orders of two same-object stores are replayed and their audit keys
   differ. *)
let test_audit_catches_misdeclared_merge () =
  let cfg = repl_cfg ~f:1 in
  let algorithm = Sb_registers.Abd.make_misdeclared_merge cfg in
  let r =
    Audit.audit ~max_states:1000 (econfig ~algorithm ~cfg (workload ~writers:2 ()))
  in
  match r.Audit.a_divergences with
  | [] -> Alcotest.fail "audit missed the mis-declared merge register"
  | d :: _ ->
    Alcotest.(check bool) "state divergence" true (d.Audit.d_kind = `State)

(* Mutation test: a relation weakened to ignore same-object delivery
   conflicts must be flagged — proof the audit has teeth. *)
let test_audit_mutation_detected () =
  let cfg = coded_cfg ~f:1 ~k:1 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let weakened (a : E.action) (b : E.action) =
    match (a.E.kind, b.E.kind) with
    | E.KDeliver, E.KDeliver -> true
    | _ -> E.independent a b
  in
  let r =
    Audit.audit ~relation:weakened ~max_states:500
      (econfig ~algorithm ~cfg (workload ~writers:2 ~readers:1 ()))
  in
  Alcotest.(check bool) "mutation detected" false (Audit.ok r)

(* ------------------------------------------------------------------ *)
(* No false positives on the correct algorithms                        *)
(* ------------------------------------------------------------------ *)

let algos_under_monitor =
  [
    ("abd", fun () -> let c = repl_cfg ~f:1 in (Sb_registers.Abd.make c, c, 1));
    ( "abd-atomic",
      fun () -> let c = repl_cfg ~f:1 in (Sb_registers.Abd_atomic.make c, c, 1) );
    ( "adaptive",
      fun () -> let c = coded_cfg ~f:1 ~k:2 in (Sb_registers.Adaptive.make c, c, 2) );
    ( "pure-ec",
      fun () ->
        let c = coded_cfg ~f:1 ~k:2 in
        (Sb_registers.Adaptive.make_unbounded c, c, 2) );
  ]

let monitors_silent =
  qtest ~count:80 "monitors silent on correct algorithms"
    QCheck2.Gen.(pair (int_range 1 500) (int_range 0 (List.length algos_under_monitor - 1)))
    (fun (seed, ai) ->
      let name, mk = List.nth algos_under_monitor ai in
      let algorithm, cfg, k = mk () in
      let wl = workload ~writers:2 ~readers:1 () in
      let mcfg = Monitor.config ~reg_avail:true ~k () in
      let mk_world () =
        R.create ~seed ~algorithm ~n:cfg.n ~f:cfg.f ~workload:wl ()
      in
      match Monitor.run mcfg ~mk_world (R.random_policy ~seed ()) with
      | Ok (_, m) -> Monitor.events_seen m > 0
      | Error r ->
        QCheck2.Test.fail_reportf "%s (seed %d): %s" name seed
          (Monitor.violation_to_string r.Monitor.r_violation))

(* ------------------------------------------------------------------ *)
(* The replication-floor monitor (read/write base-object model)        *)
(* ------------------------------------------------------------------ *)

let rw_cfg ~f =
  let n = (2 * f) + 1 in
  { Common.n; f; codec = Codec.replication ~value_bytes ~n }

let rw_world ~algorithm ~(cfg : Common.config) wl ~seed () =
  R.create ~seed ~base_model:Sb_baseobj.Model.Read_write ~algorithm ~n:cfg.n
    ~f:cfg.f ~workload:wl ()

(* The seeded premature-trim register keeps only [f] full copies: the
   floor monitor must flag it — deterministically, on the fifo schedule,
   with a shrunk replayable trace — because a crash set of size [f] can
   then erase every full copy of the latest value. *)
let test_storage_floor_caught () =
  let f = 1 in
  let cfg = rw_cfg ~f in
  let algorithm = Sb_registers.Rw_replica.make_fcopy cfg in
  let wl = workload ~writers:1 ~readers:1 () in
  let mcfg =
    Monitor.config ~floor:(f + 1, 8 * value_bytes) ~k:1 ()
  in
  let mk_world = rw_world ~algorithm ~cfg wl ~seed:1 in
  match Monitor.run mcfg ~mk_world (R.fifo_policy ()) with
  | Ok _ -> Alcotest.fail "rw-fcopy ran clean under the floor monitor"
  | Error r ->
    Alcotest.(check string) "rule" "storage-floor" (rule_of r);
    (match r.Monitor.r_violation.Monitor.rule with
     | Monitor.Storage_floor { copies; live_full; need; _ } ->
       Alcotest.(check int) "demanded copies" (f + 1) copies;
       Alcotest.(check bool) "short of the floor" true (live_full < need)
     | _ -> Alcotest.fail "wrong violation payload");
    Alcotest.(check bool) "shrunk trace still violates" true
      (Monitor.violates ~mk_world mcfg r.Monitor.r_shrunk)

(* The floor-exact register stays silent with the same monitor armed:
   trimming down to [f+1] keepers never dips below the floor, across
   random schedules. *)
let floor_monitor_silent_on_rw_regular =
  qtest ~count:40 "floor monitor silent on rw-regular"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let f = 1 in
      let cfg = rw_cfg ~f in
      let algorithm = Sb_registers.Rw_replica.make cfg in
      let wl = workload ~writers:1 ~readers:1 () in
      let mcfg =
        Monitor.config ~reg_avail:true ~floor:(f + 1, 8 * value_bytes) ~k:1 ()
      in
      let mk_world = rw_world ~algorithm ~cfg wl ~seed in
      match Monitor.run mcfg ~mk_world (R.random_policy ~seed ()) with
      | Ok (_, m) -> Monitor.events_seen m > 0
      | Error r ->
        QCheck2.Test.fail_reportf "rw-regular (seed %d): %s" seed
          (Monitor.violation_to_string r.Monitor.r_violation))

(* ------------------------------------------------------------------ *)
(* Message-passing runtime                                             *)
(* ------------------------------------------------------------------ *)

let test_attach_mp () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w =
    MP.create ~seed:1 ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1) ]; [ Trace.Read ] |]
      ()
  in
  let m = Monitor.attach_mp (Monitor.config ~reg_avail:true ~k:2 ()) w in
  let outcome = MP.run w (MP.fifo_policy ()) in
  Alcotest.(check bool) "quiescent" true outcome.MP.quiescent;
  Alcotest.(check bool) "events seen" true (Monitor.events_seen m > 0);
  match Monitor.violations m with
  | [] -> ()
  | vi :: _ ->
    Alcotest.failf "mp monitor flagged a correct run: %s"
      (Monitor.violation_to_string vi)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sanitize"
    [
      ( "negative controls",
        [
          Alcotest.test_case "premature gc caught+shrunk" `Quick
            test_premature_gc_caught;
          Alcotest.test_case "broken quorum caught" `Quick test_broken_quorum_caught;
          Alcotest.test_case "misdeclared merge caught" `Quick
            test_misdeclared_merge_caught;
        ] );
      ( "independence audit",
        [
          Alcotest.test_case "green on litmus configs" `Quick
            test_audit_green_on_litmus_configs;
          Alcotest.test_case "catches misdeclared merge" `Quick
            test_audit_catches_misdeclared_merge;
          Alcotest.test_case "mutation detected" `Quick test_audit_mutation_detected;
        ] );
      ( "storage floor",
        [
          Alcotest.test_case "rw-fcopy caught+shrunk" `Quick
            test_storage_floor_caught;
          floor_monitor_silent_on_rw_regular;
        ] );
      ("no false positives", [ monitors_silent ]);
      ("message passing", [ Alcotest.test_case "attach_mp" `Quick test_attach_mp ]);
    ]
