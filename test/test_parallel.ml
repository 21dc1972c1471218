(* Parallel exploration must be a pure reimplementation of the
   sequential search: same schedules, same verdicts, same (shrunk)
   counterexamples, at every jobs level.  These tests pin that down on
   configurations small enough to run exhaustively, including the
   seeded-bug register and a crash-budget workload, and exercise the
   domain pool itself (every task runs exactly once; exceptions
   propagate). *)

module E = Sb_modelcheck.Explore
module P = Sb_parallel.Pexplore
module Pool = Sb_parallel.Pool
module Shrink = Sb_modelcheck.Shrink
module Trace = Sb_sim.Trace
module Common = Sb_registers.Common
module Codec = Sb_codec.Codec
module Reg = Sb_spec.Regularity

let explore_config ?(mk = Sb_registers.Abd.make) ?(check = Reg.check_strong)
    ?bound ?crash_objs ?crash_clients ?stop_on_violation workload =
  let value_bytes = 8 in
  let n = 3 and f = 1 in
  let cfg = { Common.n; f; codec = Codec.replication ~value_bytes ~n } in
  E.config ?bound ?crash_objs ?crash_clients ?stop_on_violation ~algorithm:(mk cfg) ~n ~f ~workload
    ~initial:(Bytes.make value_bytes '\000') ~check ()

let v i = Sb_util.Values.distinct ~value_bytes:8 i

let workload_2w1r =
  [| [ Trace.Write (v 1) ]; [ Trace.Write (v 2) ]; [ Trace.Read ] |]

let workload_1w1r = [| [ Trace.Write (v 1) ]; [ Trace.Read ] |]

let pp_stats (s : E.stats) =
  Printf.sprintf
    "schedules=%d transitions=%d replayed=%d sleep=%d bound=%d depth=%d \
     violations=%d lint=%d"
    s.E.schedules s.E.transitions s.E.replayed_transitions s.E.sleep_skips
    s.E.bound_skips s.E.max_depth s.E.violations s.E.lint_failures

(* --- jobs=1 vs jobs=4: byte-identical totals ----------------------- *)

(* Exhaustive 2w1r is the flagship benchmark (~400k schedules, covered
   by `bench perf`); unit tests run the same shape under a delay bound
   — still thousands of schedules across dozens of subtrees, with
   bound prunes charged partly to the frontier expansion. *)
let bounded_cfg () = explore_config ~bound:(E.Delay 3) workload_2w1r

let test_jobs_identical_clean () =
  let out1 = P.explore ~jobs:1 (bounded_cfg ()) in
  let out4 = P.explore ~jobs:4 (bounded_cfg ()) in
  Alcotest.(check string) "identical stats" (pp_stats out1.E.stats)
    (pp_stats out4.E.stats);
  Alcotest.(check bool) "no violation at jobs=1" true
    (out1.E.first_violation = None);
  Alcotest.(check bool) "no violation at jobs=4" true
    (out4.E.first_violation = None);
  Alcotest.(check bool) "both complete" true
    (out1.E.complete && out4.E.complete);
  (* Verdict-level agreement with the plain single-tree search.  The
     partitioned run replays each subtree's prefix, so only
     [replayed_transitions] may differ. *)
  let seq = E.explore (bounded_cfg ()) in
  Alcotest.(check int) "schedules match sequential" seq.E.stats.E.schedules
    out1.E.stats.E.schedules;
  Alcotest.(check int) "transitions match sequential" seq.E.stats.E.transitions
    out1.E.stats.E.transitions;
  Alcotest.(check int) "sleep prunes match sequential"
    seq.E.stats.E.sleep_skips out1.E.stats.E.sleep_skips;
  Alcotest.(check int) "bound prunes match sequential"
    seq.E.stats.E.bound_skips out1.E.stats.E.bound_skips;
  Alcotest.(check int) "max depth matches sequential" seq.E.stats.E.max_depth
    out1.E.stats.E.max_depth

(* On the seeded bug, every jobs level must find the same first
   violation — decision-for-decision — and shrink it to the same
   counterexample the sequential search reports. *)
let test_jobs_identical_violation () =
  let cfg () =
    explore_config ~mk:(Sb_registers.Abd.make_broken ~quorum_slack:1)
      workload_2w1r
  in
  let seq = E.explore (cfg ()) in
  let out1 = P.explore ~jobs:1 (cfg ()) in
  let out4 = P.explore ~jobs:4 (cfg ()) in
  let decisions out name =
    match out.E.first_violation with
    | None -> Alcotest.failf "%s missed the seeded violation" name
    | Some viol -> viol.E.v_decisions
  in
  let d_seq = decisions seq "sequential"
  and d1 = decisions out1 "jobs=1"
  and d4 = decisions out4 "jobs=4" in
  Alcotest.(check bool) "jobs=1 finds the sequential violation" true
    (d1 = d_seq);
  Alcotest.(check bool) "jobs=4 finds the sequential violation" true
    (d4 = d_seq);
  Alcotest.(check bool) "violation counts agree" true
    (out1.E.stats.E.violations = out4.E.stats.E.violations);
  let shrunk1 = Shrink.shrink (cfg ()) d1 in
  let shrunk4 = Shrink.shrink (cfg ()) d4 in
  Alcotest.(check bool) "byte-identical shrunk counterexamples" true
    (shrunk1 = shrunk4);
  match Shrink.check_decisions (cfg ()) shrunk4 with
  | None -> Alcotest.fail "shrunk trace no longer violates on replay"
  | Some _ -> ()

(* Crash budgets multiply the branching at every level; the partition
   must still cover the space exactly once. *)
let test_jobs_identical_crashes () =
  let cfg () =
    explore_config ~crash_objs:1 ~crash_clients:1
      [| [ Trace.Write (v 1) ]; [ Trace.Read ] |]
  in
  let seq = E.explore (cfg ()) in
  let out1 = P.explore ~jobs:1 (cfg ()) in
  let out4 = P.explore ~jobs:4 (cfg ()) in
  Alcotest.(check string) "identical stats across jobs" (pp_stats out1.E.stats)
    (pp_stats out4.E.stats);
  Alcotest.(check int) "schedules match sequential" seq.E.stats.E.schedules
    out1.E.stats.E.schedules;
  Alcotest.(check int) "violations match sequential" seq.E.stats.E.violations
    out1.E.stats.E.violations

(* jobs=0 resolves to the machine's domain count; still deterministic. *)
let test_jobs_auto () =
  let out0 = P.explore ~jobs:0 (explore_config workload_1w1r) in
  let out1 = P.explore ~jobs:1 (explore_config workload_1w1r) in
  Alcotest.(check string) "auto jobs matches jobs=1" (pp_stats out1.E.stats)
    (pp_stats out0.E.stats)

(* Configs the partition cannot honour fall back to the sequential
   search: a schedule cap must yield the sequential (capped) counts. *)
let test_capped_falls_back () =
  let cfg () =
    explore_config ~stop_on_violation:false workload_1w1r
  in
  let capped () = { (cfg ()) with E.max_schedules = 10 } in
  let seq = E.explore (capped ()) in
  let par = P.explore ~jobs:4 (capped ()) in
  Alcotest.(check string) "capped run is the sequential run"
    (pp_stats seq.E.stats) (pp_stats par.E.stats);
  Alcotest.(check bool) "capped run is incomplete" false par.E.complete

(* --- the pool itself ----------------------------------------------- *)

let test_pool_runs_each_once () =
  let n = 100 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Pool.run ~jobs:4 n (fun i -> Atomic.incr hits.(i));
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "task %d ran exactly once" i) 1
        (Atomic.get c))
    hits

let test_pool_propagates_exception () =
  match Pool.run ~jobs:4 8 (fun i -> if i = 5 then failwith "boom") with
  | () -> Alcotest.fail "pool swallowed a task exception"
  | exception Failure msg -> Alcotest.(check string) "original message" "boom" msg

let () =
  Alcotest.run "parallel"
    [
      ( "pexplore",
        [
          Alcotest.test_case "clean config: jobs=1 == jobs=4 == sequential"
            `Quick test_jobs_identical_clean;
          Alcotest.test_case "seeded bug: identical violation and shrink"
            `Quick test_jobs_identical_violation;
          Alcotest.test_case "crash budgets: identical totals" `Quick
            test_jobs_identical_crashes;
          Alcotest.test_case "jobs=0 resolves to machine default" `Quick
            test_jobs_auto;
          Alcotest.test_case "max_schedules falls back to sequential" `Quick
            test_capped_falls_back;
        ] );
      ( "pool",
        [
          Alcotest.test_case "every task runs exactly once" `Quick
            test_pool_runs_each_once;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_propagates_exception;
        ] );
    ]
