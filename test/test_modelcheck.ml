(* Randomised model checking: sweep system parameters, workload shapes,
   crash schedules, and both runtimes, machine-checking every resulting
   history against the consistency level its algorithm promises.

   This is the broad net behind the targeted unit tests: any scheduling
   bug in a runtime, any lost update in an RMW, any quorum-size mistake
   in a register, or any unsound checker tends to surface here. *)

module R = Sb_sim.Runtime
module MP = Sb_msgnet.Mp_runtime
module Trace = Sb_sim.Trace
module Common = Sb_registers.Common
module Codec = Sb_codec.Codec
module Prng = Sb_util.Prng

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let is_ok = function Sb_spec.Regularity.Ok -> true | _ -> false

type scenario = {
  sc_seed : int;
  value_bytes : int;
  f : int;
  k : int;
  algo : [ `Adaptive | `Pure_ec | `Abd | `Abd_atomic | `Safe | `Versioned of int ];
  workload : Trace.op_kind list array;
  crashes : (int * int) list; (* (time, object) *)
}

let build_algo sc =
  match sc.algo with
  | `Abd | `Abd_atomic ->
    let n = (2 * sc.f) + 1 in
    let cfg =
      { Common.n; f = sc.f; codec = Codec.replication ~value_bytes:sc.value_bytes ~n }
    in
    let make =
      if sc.algo = `Abd then Sb_registers.Abd.make else Sb_registers.Abd_atomic.make
    in
    (make cfg, cfg)
  | _ ->
    let n = (2 * sc.f) + sc.k in
    let cfg =
      {
        Common.n;
        f = sc.f;
        codec = Codec.rs_vandermonde ~value_bytes:sc.value_bytes ~k:sc.k ~n;
      }
    in
    let make =
      match sc.algo with
      | `Adaptive -> Sb_registers.Adaptive.make
      | `Pure_ec -> Sb_registers.Adaptive.make_unbounded
      | `Safe -> Sb_registers.Safe_register.make
      | `Versioned delta -> Sb_registers.Adaptive.make_versioned ~delta
      | `Abd | `Abd_atomic -> assert false
    in
    (make cfg, cfg)

let gen_scenario =
  QCheck2.Gen.map
    (fun seed ->
      let prng = Prng.create seed in
      let value_bytes = 8 + Prng.int prng 56 in
      let f = 1 + Prng.int prng 3 in
      let k = 1 + Prng.int prng 4 in
      let algo =
        Prng.pick prng
          [|
            `Adaptive; `Pure_ec; `Abd; `Abd_atomic; `Safe;
            `Versioned (Prng.int prng 4);
          |]
      in
      let clients = 1 + Prng.int prng 4 in
      let value_counter = ref 0 in
      let workload =
        Array.init clients (fun _ ->
            List.init
              (1 + Prng.int prng 3)
              (fun _ ->
                if Prng.bool prng then Trace.Read
                else begin
                  incr value_counter;
                  Trace.Write (Sb_util.Values.distinct ~value_bytes !value_counter)
                end))
      in
      let crash_count = Prng.int prng (f + 1) in
      let n =
        match algo with
        | `Abd | `Abd_atomic -> (2 * f) + 1
        | _ -> (2 * f) + k
      in
      let crashes =
        List.init crash_count (fun i -> (Prng.int prng 200, (i * 2) mod n))
        |> List.sort_uniq compare
      in
      (* Distinct objects only: crashing the same object twice is an
         error the policy would skip anyway. *)
      let seen = Hashtbl.create 4 in
      let crashes =
        List.filter
          (fun (_, o) ->
            if Hashtbl.mem seen o then false
            else begin
              Hashtbl.add seen o ();
              true
            end)
          crashes
      in
      { sc_seed = seed; value_bytes; f; k; algo; workload; crashes })
    QCheck2.Gen.(int_bound 10_000_000)

let expected_checker sc history =
  match sc.algo with
  | `Safe -> is_ok (Sb_spec.Regularity.check_safe history)
  | `Abd_atomic ->
    (* Atomicity where the search is tractable, strong regularity always. *)
    let ops = List.length history.Sb_spec.History.writes
              + List.length history.Sb_spec.History.reads in
    is_ok (Sb_spec.Regularity.check_strong history)
    && (ops > 20 || is_ok (Sb_spec.Regularity.check_atomic history))
  | `Adaptive | `Pure_ec | `Abd | `Versioned _ ->
    is_ok (Sb_spec.Regularity.check_strong history)

let test_shared_memory =
  qtest ~count:120 "shared memory: random scenarios stay consistent" gen_scenario
    (fun sc ->
      let algorithm, cfg = build_algo sc in
      let w =
        R.create ~seed:sc.sc_seed ~algorithm ~n:cfg.n ~f:cfg.f ~workload:sc.workload ()
      in
      let policy = R.random_policy ~crash_objs:sc.crashes ~seed:(sc.sc_seed + 1) () in
      let outcome = R.run ~max_steps:200_000 w policy in
      let ops = Trace.operations (R.trace w) in
      let all_returned =
        List.for_all (fun (_, _, _, ret, _) -> ret <> None) ops
      in
      let history =
        Sb_spec.History.of_trace
          ~initial:(Bytes.make sc.value_bytes '\000')
          (R.trace w)
      in
      outcome.R.quiescent && all_returned && expected_checker sc history)

let test_message_passing =
  qtest ~count:80 "message passing: random scenarios stay consistent" gen_scenario
    (fun sc ->
      let algorithm, cfg = build_algo sc in
      let w =
        MP.create ~seed:sc.sc_seed ~algorithm ~n:cfg.n ~f:cfg.f ~workload:sc.workload ()
      in
      let policy =
        MP.random_policy ~crash_servers:sc.crashes ~seed:(sc.sc_seed + 1) ()
      in
      let outcome = MP.run ~max_steps:200_000 w policy in
      let ops = Trace.operations (MP.trace w) in
      let all_returned = List.for_all (fun (_, _, _, ret, _) -> ret <> None) ops in
      let history =
        Sb_spec.History.of_trace
          ~initial:(Bytes.make sc.value_bytes '\000')
          (MP.trace w)
      in
      outcome.MP.quiescent && all_returned && expected_checker sc history)

(* Storage never exceeds the coarse universal envelope: every object
   stores at most max(2k, c+1) pieces plus a replica's worth, regardless
   of schedule.  A much looser invariant than E3's, checked over far
   wilder scenarios. *)
let test_storage_envelope =
  qtest ~count:80 "adaptive storage envelope over random scenarios"
    QCheck2.Gen.(int_bound 10_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      let value_bytes = 16 + Prng.int prng 48 in
      let f = 1 + Prng.int prng 3 in
      let k = 1 + Prng.int prng 4 in
      let n = (2 * f) + k in
      let cfg =
        { Common.n; f; codec = Codec.rs_vandermonde ~value_bytes ~k ~n }
      in
      let algorithm = Sb_registers.Adaptive.make cfg in
      let c = 1 + Prng.int prng 5 in
      let workload =
        Sb_experiments.Workloads.writers_only ~value_bytes ~c ~writes_each:2
      in
      let w = R.create ~seed ~algorithm ~n ~f ~workload () in
      ignore (R.run w (R.random_policy ~seed:(seed + 7) ()));
      let piece = Codec.block_bits cfg.codec 0 in
      R.max_bits_objects w <= n * 2 * k * piece)

(* --- Systematic exploration (Sb_modelcheck) ------------------------ *)

module E = Sb_modelcheck.Explore
module Shrink = Sb_modelcheck.Shrink
module Reg = Sb_spec.Regularity

let explore_config ?(mk = Sb_registers.Abd.make) ?(check = Reg.check_strong)
    ?dpor ?lint ?on_history ?stop_on_violation ?max_schedules workload =
  let value_bytes = 8 in
  let n = 3 and f = 1 in
  let cfg = { Common.n; f; codec = Codec.replication ~value_bytes ~n } in
  E.config ?dpor ?lint ?on_history ?stop_on_violation ?max_schedules
    ~algorithm:(mk cfg) ~n ~f ~workload
    ~initial:(Bytes.make value_bytes '\000') ~check ()

let small_workload =
  let v i = Sb_util.Values.distinct ~value_bytes:8 i in
  [| [ Trace.Write (v 1) ]; [ Trace.Write (v 2) ]; [ Trace.Read ] |]

(* The seeded bug: a write quorum one short of intersecting the read
   quorum.  Exploration must find a strong-regularity violation, the
   shrinker must cut it down to a short trace, and the shrunk trace must
   still violate when replayed from scratch. *)
let test_broken_abd_shrinks () =
  let cfg =
    explore_config ~mk:(Sb_registers.Abd.make_broken ~quorum_slack:1)
      small_workload
  in
  let out = E.explore cfg in
  match out.E.first_violation with
  | None -> Alcotest.fail "broken ABD survived exhaustive exploration"
  | Some v ->
    Alcotest.(check bool) "outcome counted the violation" true
      (out.E.stats.E.violations >= 1);
    let shrunk = Shrink.shrink cfg v.E.v_decisions in
    Alcotest.(check bool) "shrunk trace is no longer than the original" true
      (List.length shrunk <= List.length v.E.v_decisions);
    Alcotest.(check (list string)) "the exact shrunk counterexample"
      [
        "step 0"; "deliver 2"; "deliver 3"; "step 0"; "step 1"; "deliver 8";
        "deliver 9"; "step 1"; "deliver 10"; "step 1"; "step 2"; "deliver 14";
        "deliver 15"; "step 2";
      ]
      (List.map R.decision_to_string shrunk);
    Alcotest.(check bool)
      (Printf.sprintf "shrunk to at most 15 decisions (got %d)"
         (List.length shrunk))
      true
      (List.length shrunk <= 15);
    (match Shrink.check_decisions cfg shrunk with
     | None -> Alcotest.fail "shrunk trace no longer violates on replay"
     | Some (cx, h) ->
       Alcotest.(check bool) "counterexample carries a reason" true
         (String.length (Reg.to_string cx) > 0);
       Alcotest.(check bool) "replayed history has a completed read" true
         (Sb_spec.History.completed_reads h <> []));
    (* Local minimality: deleting any single decision loses the bug. *)
    List.iteri
      (fun i _ ->
        let without =
          List.filteri (fun j _ -> j <> i) shrunk
        in
        match Shrink.check_decisions cfg without with
        | None -> ()
        | Some _ ->
          Alcotest.failf "deleting decision %d still violates: not minimal" i)
      shrunk

(* Exact DPOR totals of the CLI's small exhaustive configurations
   ([explore -a abd|adaptive -f 1 -k 1 --writers 1 --readers 1]: seed 1,
   64-byte values, weak regularity).  Any change to what the runtime
   enables, how a step executes or what the search treats as
   independent moves them. *)
let test_dpor_totals_pinned () =
  let value_bytes = 64 and f = 1 in
  let n = (2 * f) + 1 in
  let workload =
    Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers:1
      ~writes_each:1 ~readers:1 ~reads_each:1
  in
  let run name algorithm totals =
    let out =
      E.explore
        (E.config ~algorithm ~n ~f ~workload
           ~initial:(Bytes.make value_bytes '\000') ~check:Reg.check_weak ())
    in
    let s = out.E.stats in
    Alcotest.(check bool) (name ^ ": complete") true out.E.complete;
    Alcotest.(check (triple int int int))
      (name ^ ": schedules, transitions, sleep-set prunes") totals
      (s.E.schedules, s.E.transitions, s.E.sleep_skips)
  in
  run "abd"
    (Sb_registers.Abd.make
       { Common.n; f; codec = Codec.replication ~value_bytes ~n })
    (484, 2_804, 2_690);
  run "adaptive"
    (Sb_registers.Adaptive.make
       { Common.n; f; codec = Codec.rs_vandermonde ~value_bytes ~k:1 ~n })
    (10_988, 81_056, 91_810)

(* DPOR is a pruning, not an approximation.  The reduced search is run
   to completion (cheap); the naive search is capped at ten times the
   reduced count and must hit the cap — a witnessed >=10x reduction —
   while every read value it observed is one the reduced search also
   reaches.  (Running naive enumeration to completion here would mean
   ~10M schedules; the exhaustive value-set agreement is covered per
   algorithm in test_litmus.ml.) *)
let test_dpor_beats_naive () =
  let workload =
    let v i = Sb_util.Values.distinct ~value_bytes:8 i in
    [| [ Trace.Write (v 1) ]; [ Trace.Read ] |]
  in
  let run ~dpor ~max_schedules =
    let values = ref [] in
    let on_history _ h =
      List.iter
        (fun rd ->
          match rd.Sb_spec.History.result with
          | Some v when not (List.mem v !values) -> values := v :: !values
          | _ -> ())
        (Sb_spec.History.completed_reads h)
    in
    let out = E.explore (explore_config ~dpor ~on_history ~max_schedules workload) in
    Alcotest.(check int) "no violations" 0 out.E.stats.E.violations;
    (out, List.sort compare !values)
  in
  let reduced, vals_dpor = run ~dpor:true ~max_schedules:0 in
  Alcotest.(check bool) "reduced search completed" true reduced.E.complete;
  let cap = 10 * reduced.E.stats.E.schedules in
  let naive, vals_naive = run ~dpor:false ~max_schedules:cap in
  Alcotest.(check bool)
    (Printf.sprintf "naive enumeration exceeds 10x the reduced count (%d)"
       reduced.E.stats.E.schedules)
    true
    ((not naive.E.complete) && naive.E.stats.E.schedules >= cap);
  List.iter
    (fun v ->
      Alcotest.(check bool) "naive-observed value also seen by DPOR" true
        (List.mem v vals_dpor))
    vals_naive

(* The determinism lint re-executes every schedule from its decision
   trace; a deterministic protocol must never diverge. *)
let test_lint_clean () =
  let out =
    E.explore (explore_config ~lint:true ~stop_on_violation:false
                 [| [ Trace.Write (Sb_util.Values.distinct ~value_bytes:8 1) ];
                    [ Trace.Read ] |])
  in
  Alcotest.(check bool) "exploration completed" true out.E.complete;
  Alcotest.(check int) "no lint failures" 0 out.E.stats.E.lint_failures;
  Alcotest.(check int) "no violations" 0 out.E.stats.E.violations

let () =
  Alcotest.run "modelcheck"
    [
      ( "random-scenarios",
        [ test_shared_memory; test_message_passing; test_storage_envelope ] );
      ( "systematic",
        [
          Alcotest.test_case "broken ABD: violation found and shrunk" `Quick
            test_broken_abd_shrinks;
          Alcotest.test_case "DPOR totals of the small CLI configs" `Quick
            test_dpor_totals_pinned;
          Alcotest.test_case "DPOR beats naive enumeration tenfold" `Quick
            test_dpor_beats_naive;
          Alcotest.test_case "determinism lint is clean" `Quick test_lint_clean;
        ] );
    ]
