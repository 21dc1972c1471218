(* Tests for the experiment harness: every per-claim experiment must
   reproduce the paper's shape (ok = true), and the measurement plumbing
   must be internally consistent. *)

module E = Sb_experiments.Experiments
module Runs = Sb_experiments.Runs
module Workloads = Sb_experiments.Workloads
module Common = Sb_registers.Common
module Codec = Sb_codec.Codec

let value_bytes = 32

let check_outcome (o : E.outcome) =
  if not o.ok then
    Alcotest.failf "%s (%s) did not match the paper's shape:\n%s" o.id o.title
      (Sb_util.Table.render o.table)

(* Small parameterisations keep the suite fast; the full-size versions
   run in bench/main.exe. *)
let test_e1 () = check_outcome (E.e1_concurrency_blowup ~value_bytes ~f:6 ~cs:[ 1; 2; 4 ] ())
let test_e2 () = check_outcome (E.e2_freeze_branch ~value_bytes ~f:3 ())
let test_e3 () = check_outcome (E.e3_adaptive_bound ~value_bytes ~f:3 ~k:3 ~cs:[ 1; 2; 4 ] ())
let test_e4 () = check_outcome (E.e4_eventual_gc ~value_bytes ~f:3 ~k:3 ~seeds:[ 1; 2; 3 ] ())
let test_e5 () = check_outcome (E.e5_crossover ~value_bytes ~f:3 ~cs:[ 1; 4; 8 ] ())
let test_e6 () = check_outcome (E.e6_f_sweep ~value_bytes ~c:2 ~fs:[ 1; 2; 4 ] ())
let test_e7 () = check_outcome (E.e7_k_ablation ~value_bytes ~f:3 ~c:3 ~ks:[ 1; 3; 6 ] ())
let test_e8 () = check_outcome (E.e8_safe_constant ~value_bytes ~f:3 ~k:3 ~cs:[ 1; 4; 8 ] ())
let test_e9 () = check_outcome (E.e9_read_rounds ~value_bytes ~f:3 ~k:3 ~writers:[ 1; 4 ] ())
let test_e10 () = check_outcome (E.e10_liveness_under_ad ~value_bytes ~f:3 ~k:3 ~c:3 ())
let test_e11 () = check_outcome (E.e11_channel_storage ~value_bytes ~f:2 ~k:2 ~readers:[ 0; 4 ] ())
let test_e12 () = check_outcome (E.e12_adversary_ablation ~value_bytes ~f:4 ~c:4 ())
let test_e13 () = check_outcome (E.e13_premature_gc ~value_bytes ())
let test_e14 () = check_outcome (E.e14_indistinguishability ~value_bytes ~f:6 ~c:2 ())
let test_e15 () =
  check_outcome (E.e15_version_bound ~value_bytes ~f:2 ~k:8 ~c:10 ~deltas:[ 0; 10 ] ())
let test_e16 () = check_outcome (E.e16_lower_bound_mp ~value_bytes ~f:4 ~cs:[ 1; 3 ] ())
let test_e17 () = check_outcome (E.e17_ell_sweep ~value_bytes ~f:4 ~c:4 ())

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let test_writers_only () =
  let w = Workloads.writers_only ~value_bytes ~c:3 ~writes_each:2 in
  Alcotest.(check int) "3 clients" 3 (Array.length w);
  Array.iter (fun ops -> Alcotest.(check int) "2 ops each" 2 (List.length ops)) w;
  (* All written values distinct. *)
  let values =
    Array.to_list w
    |> List.concat_map
         (List.filter_map (function Sb_sim.Trace.Write v -> Some v | _ -> None))
  in
  Alcotest.(check int) "all distinct" (List.length values)
    (List.length (List.sort_uniq Bytes.compare values))

let test_writers_and_readers () =
  let w =
    Workloads.writers_and_readers ~value_bytes ~writers:2 ~writes_each:1 ~readers:3
      ~reads_each:2
  in
  Alcotest.(check int) "5 clients" 5 (Array.length w);
  Alcotest.(check bool) "readers only read" true
    (List.for_all (function Sb_sim.Trace.Read -> true | _ -> false) w.(4))

let test_value_index () =
  let v = Workloads.distinct_value ~value_bytes 17 in
  Alcotest.(check (option int)) "inverse" (Some 17) (Workloads.value_index ~value_bytes v);
  Alcotest.(check (option int)) "unknown value" None
    (Workloads.value_index ~value_bytes (Bytes.make value_bytes '\255'))

(* ------------------------------------------------------------------ *)
(* Measurements                                                        *)
(* ------------------------------------------------------------------ *)

let measurement () =
  let f = 2 and k = 2 in
  let n = (2 * f) + k in
  let cfg = { Common.n; f; codec = Codec.rs_vandermonde ~value_bytes ~k ~n } in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let workload =
    Workloads.writers_and_readers ~value_bytes ~writers:2 ~writes_each:2 ~readers:1
      ~reads_each:2
  in
  Runs.measure ~algorithm ~cfg ~workload ()

let test_measure_consistent () =
  let m = measurement () in
  Alcotest.(check string) "algorithm name" "adaptive" m.Runs.algorithm;
  Alcotest.(check bool) "quiescent" true m.Runs.quiescent;
  Alcotest.(check int) "writes invoked" 4 m.Runs.invoked_writes;
  Alcotest.(check int) "reads invoked" 2 m.Runs.invoked_reads;
  Alcotest.(check int) "all writes done" m.Runs.invoked_writes m.Runs.completed_writes;
  Alcotest.(check int) "all reads done" m.Runs.invoked_reads m.Runs.completed_reads;
  Alcotest.(check bool) "max >= final" true (m.Runs.max_obj_bits >= m.Runs.final_obj_bits);
  Alcotest.(check bool) "total >= objects" true
    (m.Runs.max_total_bits >= m.Runs.max_obj_bits);
  Alcotest.(check bool) "read rounds positive" true (m.Runs.max_read_rounds >= 1)

let test_measure_deterministic () =
  let a = measurement () and b = measurement () in
  Alcotest.(check int) "same steps" a.Runs.steps b.Runs.steps;
  Alcotest.(check int) "same storage" a.Runs.max_obj_bits b.Runs.max_obj_bits

let test_worst () =
  let f = 2 and k = 2 in
  let n = (2 * f) + k in
  let cfg = { Common.n; f; codec = Codec.rs_vandermonde ~value_bytes ~k ~n } in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let workload = Workloads.writers_only ~value_bytes ~c:2 ~writes_each:2 in
  let ms = Runs.measure_many ~seeds:[ 1; 2; 3 ] ~algorithm ~cfg ~workload () in
  Alcotest.(check int) "three runs" 3 (List.length ms);
  let w = Runs.worst ms in
  Alcotest.(check bool) "worst is the max" true
    (List.for_all (fun m -> m.Runs.max_obj_bits <= w.Runs.max_obj_bits) ms);
  Alcotest.check_raises "worst of nothing" (Invalid_argument "Runs.worst: no measurements")
    (fun () -> ignore (Runs.worst []))

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

module Stats = Sb_experiments.Stats

let test_stats_basic () =
  let s = Stats.summarize [ 4; 1; 3; 2 ] in
  Alcotest.(check int) "count" 4 s.Stats.count;
  Alcotest.(check int) "min" 1 s.Stats.min;
  Alcotest.(check int) "max" 4 s.Stats.max;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "median" 2.5 s.Stats.median;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 1.25) s.Stats.stddev

let test_stats_single () =
  let s = Stats.summarize [ 7 ] in
  Alcotest.(check (float 1e-9)) "mean" 7.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "stddev" 0.0 s.Stats.stddev;
  Alcotest.(check (float 1e-9)) "median" 7.0 s.Stats.median

let test_stats_percentile () =
  let samples = [ 10; 20; 30; 40; 50 ] in
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Stats.percentile samples ~p:0.0);
  Alcotest.(check (float 1e-9)) "p100" 50.0 (Stats.percentile samples ~p:100.0);
  Alcotest.(check (float 1e-9)) "p50" 30.0 (Stats.percentile samples ~p:50.0);
  Alcotest.(check (float 1e-9)) "p25" 20.0 (Stats.percentile samples ~p:25.0)

(* The nearest rank never interpolates: for four samples, p50 is the
   second one where [percentile] gives the midpoint. *)
let test_stats_nearest_rank () =
  let sorted = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.nearest_rank [||] ~p:50.0);
  Alcotest.(check (float 1e-9)) "p50" 2.0 (Stats.nearest_rank sorted ~p:50.0);
  Alcotest.(check (float 1e-9)) "p51" 3.0 (Stats.nearest_rank sorted ~p:51.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.nearest_rank sorted ~p:0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.nearest_rank sorted ~p:100.0);
  Alcotest.(check (float 1e-9)) "interpolating p50" 2.5
    (Stats.percentile [ 1; 2; 3; 4 ] ~p:50.0)

let test_stats_errors () =
  Alcotest.(check bool) "empty rejected" true
    (try ignore (Stats.summarize []); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad percentile" true
    (try ignore (Stats.percentile [ 1 ] ~p:150.0); false
     with Invalid_argument _ -> true)

let test_stats_mean_bounds =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"mean lies within min..max"
       QCheck2.Gen.(list_size (int_range 1 30) (int_range (-1000) 1000))
       (fun samples ->
         samples = []
         ||
         let s = Stats.summarize samples in
         float_of_int s.Stats.min <= s.Stats.mean
         && s.Stats.mean <= float_of_int s.Stats.max))

let test_table_csv () =
  let t = Sb_util.Table.create [ ("a", Sb_util.Table.Left); ("b", Sb_util.Table.Right) ] in
  Sb_util.Table.add_row t [ "plain"; "1,2" ];
  Sb_util.Table.add_row t [ "with \"quote\""; "3" ];
  let csv = Sb_util.Table.to_csv t in
  Alcotest.(check string) "csv escaping"
    "a,b\nplain,\"1,2\"\n\"with \"\"quote\"\"\",3\n" csv

(* MP communication accounting: a fifo failure-free run sends exactly
   n requests and n responses per protocol round. *)
let test_message_counts () =
  let module MP = Sb_msgnet.Mp_runtime in
  let f = 2 and k = 2 in
  let n = (2 * f) + k in
  let cfg = { Common.n; f; codec = Codec.rs_vandermonde ~value_bytes ~k ~n } in
  let algorithm = Sb_registers.Adaptive.make cfg in
  (* One write = 3 rounds; one read = 1 round under fifo. *)
  let workload = [| [ Sb_sim.Trace.Write (Bytes.make value_bytes 'w'); Sb_sim.Trace.Read ] |] in
  let w = MP.create ~algorithm ~n ~f ~workload () in
  ignore (MP.run w (MP.fifo_policy ()));
  Alcotest.(check int) "requests = 4 rounds x n" (4 * n) (MP.requests_sent w);
  Alcotest.(check int) "responses = requests (no crashes)" (4 * n) (MP.responses_sent w)

(* ------------------------------------------------------------------ *)
(* Series                                                              *)
(* ------------------------------------------------------------------ *)

module Series = Sb_experiments.Series

let recorded_series () =
  let f = 2 and k = 2 in
  let n = (2 * f) + k in
  let cfg = { Common.n; f; codec = Codec.rs_vandermonde ~value_bytes ~k ~n } in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let workload = Workloads.writers_only ~value_bytes ~c:3 ~writes_each:2 in
  let w = Sb_sim.Runtime.create ~algorithm ~n ~f ~workload () in
  let policy, get =
    Series.record ~probe:Sb_sim.Runtime.storage_bits_objects
      (Sb_sim.Runtime.random_policy ~seed:4 ())
  in
  let outcome = Sb_sim.Runtime.run w policy in
  (get (), w, outcome)

let test_series_record () =
  let series, w, outcome = recorded_series () in
  Alcotest.(check bool) "quiescent" true outcome.Sb_sim.Runtime.quiescent;
  Alcotest.(check int) "one sample per decision" outcome.Sb_sim.Runtime.steps
    (Series.length series);
  Alcotest.(check bool) "peak matches world maximum" true
    (Series.peak series <= Sb_sim.Runtime.max_bits_objects w);
  Alcotest.(check bool) "samples are time-ordered" true
    (let times = List.map fst (Series.samples series) in
     List.sort compare times = times)

let test_series_queries () =
  let series, w, _ = recorded_series () in
  Alcotest.(check int) "final is the last probe" (Series.final series)
    (snd (List.nth (Series.samples series) (Series.length series - 1)));
  ignore w;
  Alcotest.(check int) "fraction 1.0 = final" (Series.final series)
    (Series.at_fraction series 1.0);
  Alcotest.(check bool) "fraction out of range" true
    (try ignore (Series.at_fraction series 1.5); false
     with Invalid_argument _ -> true)

let test_series_sparkline () =
  let series, _, _ = recorded_series () in
  let chart = Series.sparkline ~width:30 ~height:6 series in
  let lines = String.split_on_char '\n' chart in
  Alcotest.(check int) "height rows + axis + trailing" 8 (List.length lines);
  Alcotest.(check bool) "contains marks" true (String.contains chart '#')

(* ------------------------------------------------------------------ *)
(* Register catalogue                                                  *)
(* ------------------------------------------------------------------ *)

module Catalog = Sb_experiments.Catalog

let catalog =
  Catalog.
    [ Adaptive; Pure_ec; Abd; Abd_atomic; Abd_broken; Abd_misdeclared;
      Premature_gc; Safe; Versioned 3; Rateless; Rw_regular; Rw_fcopy;
      Rw_safe; Byz_reg 2 ]

(* Adding a constructor breaks this match until [catalog] lists it. *)
let _listed : Catalog.t -> unit = function
  | Adaptive | Pure_ec | Abd | Abd_atomic | Abd_broken | Abd_misdeclared
  | Premature_gc | Safe | Versioned _ | Rateless | Rw_regular | Rw_fcopy
  | Rw_safe | Byz_reg _ -> ()

let parses name expected =
  match Catalog.of_string name with
  | Ok t ->
    Alcotest.(check string) name (Catalog.to_string expected)
      (Catalog.to_string t)
  | Error e -> Alcotest.failf "%s: %s" name e

let test_catalog_names () =
  List.iter (fun t -> parses (Catalog.to_string t) t) catalog;
  Alcotest.(check string) "versioned" "versioned:3"
    (Catalog.to_string (Catalog.Versioned 3));
  Alcotest.(check string) "byz" "byz-regular:2"
    (Catalog.to_string (Catalog.Byz_reg 2));
  parses "replication" Catalog.Abd;
  parses "byz-regular" (Catalog.Byz_reg 1);
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " refused") true
        (Result.is_error (Catalog.of_string bad)))
    [ "versioned:-1"; "byz-regular:x"; "versioned"; "abd:1"; "nope" ]

(* The facts the front ends used to restate by hand. *)
let test_catalog_facts () =
  let n t =
    (snd (Catalog.build ~writers:2 t ~value_bytes:8 ~f:1 ~k:2))
      .Sb_registers.Common.n
  in
  Alcotest.(check (list int)) "object counts" [ 4; 3; 6; 5; 4 ]
    Catalog.(List.map n [ Adaptive; Abd; Rw_regular; Byz_reg 1; Rw_safe ]);
  Alcotest.(check (list int)) "code dimension" [ 2; 1; 1; 2 ]
    Catalog.(List.map (code_k ~k:2) [ Adaptive; Abd; Byz_reg 1; Rw_safe ]);
  Alcotest.(check (list bool)) "live service runs rmw registers only"
    [ true; true; false; false ]
    Catalog.(
      List.map
        (fun t -> Result.is_ok (check_live t))
        [ Adaptive; Premature_gc; Rw_safe; Byz_reg 0 ]);
  Alcotest.(check bool) "single writer refused two" true
    (Result.is_error (Catalog.check_writers Catalog.Rw_safe ~writers:2));
  Alcotest.(check bool) "multi writer accepted" true
    (Result.is_ok (Catalog.check_writers Catalog.Rw_regular ~writers:2));
  Alcotest.(check bool) "premature-gc arms the availability monitor" true
    (Catalog.reg_avail Catalog.Premature_gc);
  Alcotest.(check bool) "safe does not" false (Catalog.reg_avail Catalog.Safe);
  Alcotest.(check (list string)) "levels" [ "atomic"; "safe"; "safe"; "strong" ]
    Catalog.(
      List.map
        (fun t -> level_name (level t))
        [ Abd_atomic; Safe; Rw_safe; Adaptive ]);
  Alcotest.(check (option (pair int int))) "rw floor per writer group"
    (Some (4, 64))
    (Catalog.storage_floor ~writers:2 Catalog.Rw_regular ~value_bytes:8 ~f:1);
  Alcotest.(check (list string)) "Theorem 2 bounds apply" [ "adaptive" ]
    (List.map Catalog.to_string (List.filter Catalog.bounded catalog))

let () =
  Alcotest.run "experiments"
    [
      ( "per-claim",
        [
          Alcotest.test_case "E1 concurrency blowup" `Slow test_e1;
          Alcotest.test_case "E2 freeze branch" `Slow test_e2;
          Alcotest.test_case "E3 adaptive bound" `Slow test_e3;
          Alcotest.test_case "E4 eventual GC" `Slow test_e4;
          Alcotest.test_case "E5 crossover" `Slow test_e5;
          Alcotest.test_case "E6 f sweep" `Slow test_e6;
          Alcotest.test_case "E7 k ablation" `Slow test_e7;
          Alcotest.test_case "E8 safe constant" `Slow test_e8;
          Alcotest.test_case "E9 read rounds" `Slow test_e9;
          Alcotest.test_case "E10 liveness under Ad" `Slow test_e10;
          Alcotest.test_case "E11 channel storage" `Slow test_e11;
          Alcotest.test_case "E12 adversary ablation" `Slow test_e12;
          Alcotest.test_case "E13 premature GC" `Quick test_e13;
          Alcotest.test_case "E14 indistinguishability" `Slow test_e14;
          Alcotest.test_case "E15 version bound" `Slow test_e15;
          Alcotest.test_case "E16 lower bound over messages" `Slow test_e16;
          Alcotest.test_case "E17 ell sweep" `Slow test_e17;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "writers_only" `Quick test_writers_only;
          Alcotest.test_case "writers_and_readers" `Quick test_writers_and_readers;
          Alcotest.test_case "value_index" `Quick test_value_index;
        ] );
      ( "measurements",
        [
          Alcotest.test_case "consistent" `Quick test_measure_consistent;
          Alcotest.test_case "deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "worst" `Quick test_worst;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "single sample" `Quick test_stats_single;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "nearest rank" `Quick test_stats_nearest_rank;
          Alcotest.test_case "errors" `Quick test_stats_errors;
          test_stats_mean_bounds;
          Alcotest.test_case "table csv" `Quick test_table_csv;
          Alcotest.test_case "message counts" `Quick test_message_counts;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "names round-trip" `Quick test_catalog_names;
          Alcotest.test_case "per-register facts" `Quick test_catalog_facts;
        ] );
      ( "series",
        [
          Alcotest.test_case "record" `Quick test_series_record;
          Alcotest.test_case "queries" `Quick test_series_queries;
          Alcotest.test_case "sparkline" `Quick test_series_sparkline;
        ] );
    ]
