(* Tests for Sb_analyze: the RMW-algebra certifier (nature table,
   independence matrix, counterexample replay), the gate checks shared
   with the CLI, and the source-level determinism lint with its fixture
   negative controls. *)

module U = Sb_analyze.Universe
module C = Sb_analyze.Certify
module L = Sb_analyze.Lint
module Rep = Sb_analyze.Report
module D = Sb_sim.Rmwdesc

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* One certification, shared: deterministic, and well under a second. *)
let cert = lazy (C.run ())

let universe = lazy (U.default ())

(* ------------------------------------------------------------------ *)
(* The certified nature table                                          *)
(* ------------------------------------------------------------------ *)

let test_covers_vocabulary () =
  let c = Lazy.force cert in
  Alcotest.(check int) "one entry per constructor" (List.length U.all_ctors)
    (List.length c.C.entries);
  List.iter
    (fun ct ->
      Alcotest.(check bool)
        (U.ctor_name ct ^ " present") true
        (List.exists (fun e -> U.equal_ctor e.C.en_ctor ct) c.C.entries))
    U.all_ctors

(* Satellite: the hand-maintained defaults must match the certified
   table exactly — a new constructor declared stronger than provable
   (or weaker than proved) fails here before any exploration trusts
   it. *)
let test_defaults_match_certified () =
  let c = Lazy.force cert in
  (match C.check_defaults c with
  | [] -> ()
  | (ctor, _, _) :: _ as ms ->
    Alcotest.failf "%d declared/certified mismatches, first: %s" (List.length ms)
      (U.ctor_name ctor));
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (U.ctor_name e.C.en_ctor ^ " declared = certified")
        true
        (e.C.en_declared = e.C.en_certified))
    c.C.entries

let test_snapshot_readonly () =
  let c = Lazy.force cert in
  Alcotest.(check bool) "snapshot readonly" true
    (C.certified_nature c U.Snapshot = `Readonly)

(* The read/write base-object vocabulary: the blind overwrite is
   [`Mutating], and provably NOT merge-class — two concurrent overwrites
   do not commute (last delivery wins), which is exactly why nothing
   server-side can arbitrate between writers in the [Read_write] model
   and the emulations need disjoint cell groups.  The certifier must
   refute any merge claim with a concrete state counterexample. *)
let test_rw_write_not_a_merge () =
  let c = Lazy.force cert in
  Alcotest.(check bool) "rw-write mutating" true
    (C.certified_nature c U.Rw_write = `Mutating);
  match C.check_declaration c U.Rw_write ~claimed:`Merge with
  | Ok () -> Alcotest.fail "blind overwrite accepted as merge-class"
  | Error cx ->
    Alcotest.(check bool) "commutation counterexample" true
      (cx.C.cx_d2 <> None)

(* The negative control of the whole exercise: the seeded bug from PR 2
   declared [Lww_store] merge-class; the certifier must refute that
   claim statically, with a concrete counterexample. *)
let test_lww_merge_refuted () =
  let c = Lazy.force cert in
  match C.check_declaration c U.Lww_store ~claimed:`Merge with
  | Ok () -> Alcotest.fail "lww-store accepted as merge-class"
  | Error cx ->
    Alcotest.(check bool) "binary counterexample" true (cx.C.cx_d2 <> None)

let test_abd_merge_accepted () =
  let c = Lazy.force cert in
  match C.check_declaration c U.Abd_store ~claimed:`Merge with
  | Ok () -> ()
  | Error cx ->
    Alcotest.failf "abd-store rejected as merge-class: %s" cx.C.cx_detail

let test_explore_independence_derived () =
  let c = Lazy.force cert in
  match C.audit_explore_independence c with
  | [] -> ()
  | v :: _ as vs ->
    Alcotest.failf "%d DPOR independence violations, first: %s" (List.length vs) v

(* Documented analysis finding (docs/MODEL.md): adaptive-update is not
   unconditionally idempotent — a duplicated delivery can flip the
   distinct-writes saturation branch.  Only [`Merge] declarations
   require idempotence, so this is a pinned fact, not a failure; if the
   algorithm changes and this starts proving, the doc needs updating. *)
let test_adaptive_update_idempotence_refuted () =
  let c = Lazy.force cert in
  let e =
    List.find (fun e -> U.equal_ctor e.C.en_ctor U.Adaptive_update) c.C.entries
  in
  Alcotest.(check bool) "refuted" true (e.C.en_idempotent <> C.Proved)

(* ------------------------------------------------------------------ *)
(* Counterexample replay                                               *)
(* ------------------------------------------------------------------ *)

(* Literal structural equality, matching the certifier's notion (and the
   audit key's: it digests chunk lists as-is). *)
let equal_state (a : Sb_storage.Objstate.t) b = a = b
let equal_resp (a : D.resp) b = a = b

(* Every refutation in the matrix must replay outside the certifier:
   apply both orders at the counterexample state and observe the
   divergence directly through [Rmwdesc.apply]. *)
let test_refuted_pairs_replay () =
  let c = Lazy.force cert in
  let replayed = ref 0 in
  List.iter
    (fun ((a, b), v) ->
      match v with
      | C.Proved -> ()
      | C.Refuted cx ->
        let d1 = cx.C.cx_d1 in
        let d2 =
          match cx.C.cx_d2 with
          | Some d -> d
          | None -> Alcotest.failf "unary counterexample in the pair matrix"
        in
        let s = cx.C.cx_state in
        let s1, r1 = D.apply d1 s in
        let s12, r2 = D.apply d2 s1 in
        let s2, r2' = D.apply d2 s in
        let s21, r1' = D.apply d1 s2 in
        let diverges =
          (not (equal_state s12 s21))
          || (not (equal_resp r1 r1'))
          || not (equal_resp r2 r2')
        in
        incr replayed;
        if not diverges then
          Alcotest.failf "counterexample for %s x %s does not replay"
            (U.ctor_name a) (U.ctor_name b))
    c.C.pairs;
  Alcotest.(check bool) "matrix has refuted cells" true (!replayed > 0)

let test_refuted_idempotence_replays () =
  let c = Lazy.force cert in
  List.iter
    (fun e ->
      match e.C.en_idempotent with
      | C.Proved -> ()
      | C.Refuted cx ->
        let d = cx.C.cx_d1 in
        let s = cx.C.cx_state in
        let s1, _ = D.apply d s in
        let s2, _ = D.apply d s1 in
        if equal_state s1 s2 then
          Alcotest.failf "idempotence counterexample for %s does not replay"
            (U.ctor_name e.C.en_ctor))
    c.C.entries

(* ------------------------------------------------------------------ *)
(* QCheck cross-validation                                             *)
(* ------------------------------------------------------------------ *)

(* Enumerative verdicts vs independent random sampling over the same
   scope: a [Proved] commutation cell must commute at a randomly drawn
   state for randomly drawn members of the two families.  An
   enumeration bug (a state or description the nested loops skip) shows
   up here as a sampled divergence. *)
let test_proved_pairs_sampled =
  let prop (pair_idx, state_idx, i1, i2) =
    let c = Lazy.force cert in
    let u = Lazy.force universe in
    let proved = List.filter (fun (_, v) -> v = C.Proved) c.C.pairs in
    let (a, b), _ = List.nth proved (pair_idx mod List.length proved) in
    let fa = U.family u a and fb = U.family u b in
    let d1 = fa.(i1 mod Array.length fa) in
    let d2 = fb.(i2 mod Array.length fb) in
    let s = u.U.states.(state_idx mod Array.length u.U.states) in
    let s1, r1 = D.apply d1 s in
    let s12, r2 = D.apply d2 s1 in
    let s2, r2' = D.apply d2 s in
    let s21, r1' = D.apply d1 s2 in
    equal_state s12 s21 && equal_resp r1 r1' && equal_resp r2 r2'
  in
  qtest ~count:500 "proved cells commute at sampled states"
    QCheck2.Gen.(quad (int_bound 1000) (int_bound 10_000) (int_bound 1000) (int_bound 1000))
    prop

(* ------------------------------------------------------------------ *)
(* Gates (shared with the CLI)                                         *)
(* ------------------------------------------------------------------ *)

(* Satellite: the wire-codec exhaustiveness gate — every constructor of
   the closed vocabulary round-trips through Sb_service.Wire — runs in
   runtest through the same code the CI lint step executes. *)
let test_gates_ok () =
  let c = Lazy.force cert in
  List.iter
    (fun (g : Rep.gate) ->
      Alcotest.(check bool) (g.Rep.g_name ^ ": " ^ g.g_detail) true g.g_ok)
    (Rep.gates c)

let test_json_smoke () =
  let c = Lazy.force cert in
  let rp =
    L.lint_tree
      ~root:
        (if Sys.file_exists "lint_fixtures" then "lint_fixtures"
         else "test/lint_fixtures")
  in
  let s = Rep.json ~algebra:c ~lint:rp () in
  Alcotest.(check bool) "mentions algebra" true
    (String.length s > 100 && String.sub s 0 12 = {|{"algebra": |})

(* The source lint over the library tree — the same scan the CI step
   `spacebounds lint --src lib` runs: every finding in the library
   sources must be fixed or carry a reasoned pragma. *)
let test_lib_tree_clean () =
  let root = if Sys.file_exists "lint_fixtures" then "../lib" else "lib" in
  let rp = L.lint_tree ~root in
  Alcotest.(check bool) "scanned the library sources" true (rp.L.rp_files > 0);
  Alcotest.(check (list string)) "no parse errors" [] (List.map fst rp.L.rp_errors);
  Alcotest.(check (list string)) "no active findings" []
    (List.map (Format.asprintf "%a" L.pp_finding) (L.failures rp))

(* ------------------------------------------------------------------ *)
(* Lint: unit tests on inline sources                                  *)
(* ------------------------------------------------------------------ *)

let active_rules src =
  L.lint_source ~filename:"inline.ml" src
  |> List.filter L.active
  |> List.map (fun f -> L.rule_name f.L.f_rule)

let test_lint_flags_each_rule () =
  Alcotest.(check (list string)) "random" [ "nondet" ]
    (active_rules "let x = Random.bool ()");
  Alcotest.(check (list string)) "wall clock" [ "nondet" ]
    (active_rules "let x = Unix.gettimeofday ()");
  Alcotest.(check (list string)) "compare" [ "poly-compare" ]
    (active_rules "let f xs = List.sort compare xs");
  Alcotest.(check (list string)) "stdlib compare" [ "poly-compare" ]
    (active_rules "let f xs = List.sort Stdlib.compare xs");
  Alcotest.(check (list string)) "hash" [ "poly-compare" ]
    (active_rules "let f x = Hashtbl.hash x");
  Alcotest.(check (list string)) "marshal" [ "marshal" ]
    (active_rules "let f v = Marshal.to_string v []");
  Alcotest.(check (list string)) "fold" [ "hashtbl-order" ]
    (active_rules "let f t = Hashtbl.fold (fun k _ acc -> k :: acc) t []");
  Alcotest.(check (list string)) "catch-all on a tag" [ "wire-catchall" ]
    (active_rules "let f tag = match tag with 0 -> 1 | _ -> 2");
  Alcotest.(check (list string)) "catch-all on a version" [ "wire-catchall" ]
    (active_rules "let f v = match wire_version with 1 -> v | _ -> 0");
  Alcotest.(check (list string)) "binding arm not flagged" []
    (active_rules "let f tag = match tag with 0 -> 1 | n -> n + 1");
  Alcotest.(check (list string)) "catch-all on a plain ident not flagged" []
    (active_rules "let f xs = match xs with [] -> 0 | _ -> 1")

let test_lint_watched_equality () =
  Alcotest.(check (list string)) "= on watched annotation" [ "poly-compare" ]
    (active_rules "let f (a : Timestamp.t) (b : Timestamp.t) = a = b");
  Alcotest.(check (list string)) "= on plain ints not flagged" []
    (active_rules "let f (a : int) (b : int) = a = b");
  Alcotest.(check (list string)) "<> on desc" [ "poly-compare" ]
    (active_rules "let f (d : Rmwdesc.t) (d' : Rmwdesc.t) = d <> d'")

let test_lint_shadowed_compare () =
  Alcotest.(check (list string)) "local compare not flagged" []
    (active_rules "let compare a b = Int.compare a b\nlet f x y = compare x y")

let test_lint_pragma () =
  let src =
    "(* sb-lint: allow nondet — test reason *)\nlet x = Random.bool ()"
  in
  let fs = L.lint_source ~filename:"inline.ml" src in
  Alcotest.(check int) "one finding" 1 (List.length fs);
  let f = List.hd fs in
  Alcotest.(check bool) "suppressed" false (L.active f);
  Alcotest.(check (option string)) "reason recorded" (Some "test reason")
    f.L.f_allowed

let test_lint_pragma_wrong_rule () =
  let src =
    "(* sb-lint: allow marshal — wrong rule *)\nlet x = Random.bool ()"
  in
  Alcotest.(check (list string)) "still active" [ "nondet" ] (active_rules src)

let test_lint_rules_scoped () =
  Alcotest.(check bool) "protocol core gets nondet" true
    (List.mem L.Nondet (L.rules_for "lib/sim/runtime.ml"));
  Alcotest.(check bool) "service core gets nondet" true
    (List.mem L.Nondet (L.rules_for "lib/service/client_core.ml"));
  Alcotest.(check bool) "io engine exempt from nondet" false
    (List.mem L.Nondet (L.rules_for "lib/service/sdk.ml"));
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        ("client engine gets " ^ L.rule_name rule)
        true
        (List.mem rule (L.rules_for "lib/sim/engine.ml")))
    [ L.Nondet; L.Poly_compare; L.Hashtbl_order ];
  Alcotest.(check bool) "marshal applies everywhere" true
    (List.mem L.Marshal (L.rules_for "lib/experiments/figures.ml"));
  Alcotest.(check bool) "sanitizers get hashtbl-order" true
    (List.mem L.Hashtbl_order (L.rules_for "lib/sanitize/monitor.ml"));
  Alcotest.(check bool) "service gets wire-catchall" true
    (List.mem L.Wire_catchall (L.rules_for "lib/service/wire.ml"));
  Alcotest.(check bool) "protocol cores exempt from wire-catchall" false
    (List.mem L.Wire_catchall (L.rules_for "lib/sim/runtime.ml"))

(* ------------------------------------------------------------------ *)
(* Lint: fixture negative controls                                     *)
(* ------------------------------------------------------------------ *)

(* dune runtest runs with cwd = the staged test directory; dune exec
   from the project root. *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures" else "test/lint_fixtures"

let fixture name = Filename.concat fixture_dir name

let test_fixture rule_name file ~want_active () =
  let rule = Option.get (L.rule_of_name rule_name) in
  match L.lint_file ~rules:[ rule ] (fixture file) with
  | Error e -> Alcotest.failf "%s: %s" file e
  | Ok fs ->
    let act = List.filter L.active fs in
    Alcotest.(check bool) (file ^ " has findings") true (fs <> []);
    if want_active then
      Alcotest.(check bool) (file ^ " has active findings") true (act <> [])
    else begin
      Alcotest.(check (list string)) (file ^ " all suppressed") []
        (List.map (fun f -> Printf.sprintf "%d" f.L.f_line) act);
      List.iter
        (fun f ->
          Alcotest.(check bool) "reason recorded" true (f.L.f_allowed <> None))
        fs
    end

let fixture_cases =
  List.concat_map
    (fun rule ->
      let rn = L.rule_name rule in
      let base = String.map (function '-' -> '_' | c -> c) rn in
      [
        Alcotest.test_case (rn ^ " bad fixture flagged") `Quick
          (test_fixture rn (base ^ "_bad.ml") ~want_active:true);
        Alcotest.test_case (rn ^ " pragma silences") `Quick
          (test_fixture rn (base ^ "_allowed.ml") ~want_active:false);
      ])
    L.all_rules

let () =
  Alcotest.run "analyze"
    [
      ( "certifier",
        [
          Alcotest.test_case "covers the vocabulary" `Quick test_covers_vocabulary;
          Alcotest.test_case "defaults match certified" `Quick
            test_defaults_match_certified;
          Alcotest.test_case "snapshot readonly" `Quick test_snapshot_readonly;
          Alcotest.test_case "rw-write not a merge" `Quick
            test_rw_write_not_a_merge;
          Alcotest.test_case "lww-as-merge refuted" `Quick test_lww_merge_refuted;
          Alcotest.test_case "abd-as-merge accepted" `Quick test_abd_merge_accepted;
          Alcotest.test_case "DPOR independence derived" `Quick
            test_explore_independence_derived;
          Alcotest.test_case "adaptive-update idempotence finding" `Quick
            test_adaptive_update_idempotence_refuted;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "refuted pairs replay" `Quick test_refuted_pairs_replay;
          Alcotest.test_case "refuted idempotence replays" `Quick
            test_refuted_idempotence_replays;
          test_proved_pairs_sampled;
        ] );
      ( "gates",
        [
          Alcotest.test_case "all gates pass" `Quick test_gates_ok;
          Alcotest.test_case "json smoke" `Quick test_json_smoke;
          Alcotest.test_case "lib sources lint clean" `Quick test_lib_tree_clean;
        ] );
      ( "lint",
        [
          Alcotest.test_case "each rule fires" `Quick test_lint_flags_each_rule;
          Alcotest.test_case "watched equality" `Quick test_lint_watched_equality;
          Alcotest.test_case "shadowed compare" `Quick test_lint_shadowed_compare;
          Alcotest.test_case "pragma suppresses" `Quick test_lint_pragma;
          Alcotest.test_case "pragma rule must match" `Quick
            test_lint_pragma_wrong_rule;
          Alcotest.test_case "rule scoping" `Quick test_lint_rules_scoped;
        ] );
      ("fixtures", fixture_cases);
    ]
