(* spacebounds: command-line driver for the reproduction.

   Subcommands:
   - experiments     run the per-claim experiment tables (E1-E18)
   - quorums         check the quorum structure behind "await n - f"
   - replay          re-check a saved trace against the consistency levels
   - lower-bound     drive one algorithm with the adversary Ad
   - simulate        run a workload under a fair random schedule and
                     check the history's consistency
   - explore         systematically enumerate ALL schedules of a bounded
                     configuration (DPOR + bounding), check every history,
                     shrink any counterexample
   - chaos           fault-injection campaigns over the message-passing
                     emulation: loss x duplication x delay x crash/recovery,
                     sanitized, consistency-checked, accounting-checked
   - adversary-demo  step-by-step Ad walkthrough (the paper's Figure 3)
   - serve           host a register-service cluster behind Unix-domain
                     sockets (the Sb_service daemon)
   - loadgen         drive a seeded closed-loop workload against a live
                     cluster; latency/throughput, storage vs the paper's
                     bounds, consistency of the observed history *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

module Catalog = Sb_experiments.Catalog

let algo_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Catalog.of_string s) in
  let print ppf a = Format.pp_print_string ppf (Catalog.to_string a) in
  Arg.conv (parse, print)

let algo_arg =
  Arg.(
    value
    & opt algo_conv Catalog.Adaptive
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:"Register emulation: adaptive, pure-ec, abd (replication), \
              abd-atomic, safe, versioned:<delta>, rateless; base-object \
              emulations: rw-regular, rw-safe (read/write objects), \
              byz-regular:<b> (Byzantine objects); seeded bugs: abd-broken, \
              abd-misdeclared, premature-gc, rw-fcopy.")

let value_bytes_arg =
  Arg.(
    value
    & opt int Sb_experiments.Experiments.default_value_bytes
    & info [ "value-bytes" ] ~docv:"BYTES" ~doc:"Value size; D = 8*BYTES bits.")

let f_arg =
  Arg.(value & opt int 4 & info [ "f" ] ~docv:"F" ~doc:"Base-object failures tolerated.")

let k_arg =
  Arg.(value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"Code dimension (k-of-n).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")

(* A usage error found before a run starts: exit 2. *)
let usage_check = function
  | Ok () -> ()
  | Error msg ->
    prerr_endline msg;
    exit 2

(* ------------------------------------------------------------------ *)
(* Sanitizers (Sb_sanitize)                                            *)
(* ------------------------------------------------------------------ *)

let sanitize_cfg ?byz ~writers ~value_bytes ~algo ~f ~k () =
  Sb_sanitize.Monitor.config ~reg_avail:(Catalog.reg_avail algo)
    ?floor:(Catalog.storage_floor ~writers algo ~value_bytes ~f)
    ?byz ~k:(Catalog.code_k algo ~k) ()

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:"Attach the Sb_sanitize invariant monitors (commutativity, \
              storage accounting, quorum discipline, oracle symmetry, \
              premature-GC, crash discipline) to every execution; any \
              violation aborts with a shrunk replayable schedule.")

(* ------------------------------------------------------------------ *)
(* Base-object model flags                                             *)
(* ------------------------------------------------------------------ *)

let base_model_conv =
  let parse s =
    match Sb_baseobj.Model.of_string s with
    | Ok m -> Ok m
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Sb_baseobj.Model.pp)

let base_model_arg =
  Arg.(
    value
    & opt (some base_model_conv) None
    & info [ "base-model" ] ~docv:"MODEL"
        ~doc:"Base-object model: rmw (arbitrary atomic read-modify-write), \
              rw (read + blind overwrite only), byz:<b> (RMW objects, up to \
              b of which lie).  Defaults to the model the chosen emulation \
              is written against.")

let byz_behaviour_conv =
  let parse s =
    match Sb_adversary.Byz.behaviour_of_string s with
    | Ok b -> Ok b
    | Error e -> Error (`Msg e)
  in
  let print ppf b =
    Format.fprintf ppf "%s" (Sb_adversary.Byz.behaviour_to_string b)
  in
  Arg.conv (parse, print)

let byz_behaviour_arg =
  Arg.(
    value
    & opt byz_behaviour_conv Sb_adversary.Byz.Stale_echo
    & info [ "byz-behaviour" ] ~docv:"B"
        ~doc:"Lying policy for compromised base objects: stale-echo, \
              split-brain, or poison.  Only meaningful under a byz:<b> \
              base model.")

(* Resolve the effective model and per-run Byzantine policy for a CLI
   invocation, applying the policy-level budget gate (budget <= f). *)
let resolve_model ?override ~algo ~f () =
  let model =
    match override with Some m -> m | None -> Catalog.base_model algo
  in
  Sb_baseobj.Model.validate ~f model;
  model

let byz_policy_of ~seed ~n ~model behaviour =
  match (model : Sb_baseobj.Model.t) with
  | Byzantine { budget } when budget > 0 ->
    Some (Sb_adversary.Byz.policy ~seed ~n ~budget behaviour)
  | _ -> None

(* Typed base-object model errors become exit-code-2 usage errors
   instead of backtraces. *)
let with_model_errors body =
  try body () with
  | Sb_baseobj.Model.Error e ->
    Printf.eprintf "base-object model error: %s\n"
      (Sb_baseobj.Model.error_to_string e);
    exit 2

let report_sanitizer_violation (r : Sb_sanitize.Monitor.report) =
  let module E = Sb_modelcheck.Explore in
  Format.printf "SANITIZER VIOLATION %a@." Sb_sanitize.Monitor.pp_violation
    r.Sb_sanitize.Monitor.r_violation;
  Format.printf "shrunk schedule: %d decisions (from %d):@.%a@."
    (List.length r.Sb_sanitize.Monitor.r_shrunk)
    (List.length r.Sb_sanitize.Monitor.r_decisions)
    E.pp_decisions r.Sb_sanitize.Monitor.r_shrunk

(* ------------------------------------------------------------------ *)
(* experiments                                                         *)
(* ------------------------------------------------------------------ *)

let experiments_cmd =
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "e"; "only" ] ~docv:"ID" ~doc:"Run a single experiment (E1..E18).")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Also write each experiment's table as DIR/<id>.csv.")
  in
  let markdown =
    Arg.(
      value
      & opt (some string) None
      & info [ "markdown" ] ~docv:"FILE"
          ~doc:"Also write a self-contained markdown report to FILE.")
  in
  let run only csv_dir markdown =
    let outcomes = Sb_experiments.Experiments.all () in
    let outcomes =
      match only with
      | None -> outcomes
      | Some id ->
        List.filter
          (fun (o : Sb_experiments.Experiments.outcome) ->
            String.lowercase_ascii o.id = String.lowercase_ascii id)
          outcomes
    in
    if outcomes = [] then begin
      prerr_endline "no such experiment";
      exit 2
    end;
    List.iter Sb_experiments.Experiments.print_outcome outcomes;
    (match csv_dir with
     | None -> ()
     | Some dir ->
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       List.iter
         (fun (o : Sb_experiments.Experiments.outcome) ->
           let path = Filename.concat dir (String.lowercase_ascii o.id ^ ".csv") in
           let oc = open_out path in
           output_string oc (Sb_util.Table.to_csv o.table);
           close_out oc)
         outcomes;
       Printf.printf "CSV tables written to %s/\n" dir);
    (match markdown with
     | None -> ()
     | Some file ->
       let oc = open_out file in
       output_string oc (Sb_experiments.Experiments.to_markdown outcomes);
       close_out oc;
       Printf.printf "markdown report written to %s\n" file);
    if List.for_all (fun (o : Sb_experiments.Experiments.outcome) -> o.ok) outcomes
    then print_endline "all experiment shapes match the paper"
    else begin
      print_endline "SOME EXPERIMENT SHAPES DO NOT MATCH";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run the per-claim experiments (E1-E18).")
    Term.(const run $ only $ csv_dir $ markdown)

(* ------------------------------------------------------------------ *)
(* lower-bound                                                         *)
(* ------------------------------------------------------------------ *)

let lower_bound_cmd =
  let c_arg =
    Arg.(value & opt int 4 & info [ "c" ] ~docv:"C" ~doc:"Concurrent writers.")
  in
  let ell_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "ell" ] ~docv:"BITS" ~doc:"Adversary threshold (default D/2).")
  in
  let run algo value_bytes f k c ell =
    let algorithm, cfg = Catalog.build ~writers:1 algo ~value_bytes ~f ~k in
    let r = Sb_adversary.Lower_bound.run ?ell_bits:ell ~algorithm ~cfg ~c () in
    let d = 8 * value_bytes in
    Printf.printf "algorithm        : %s\n" algorithm.Sb_sim.Runtime.name;
    Printf.printf "n, f, k, c, D    : %d, %d, %d, %d, %d bits\n" cfg.n cfg.f k c d;
    Printf.printf "branch reached   : %s\n"
      (match r.branch with
       | Frozen_objects -> "frozen objects (|F| > f)"
       | Saturated_writes -> "saturated writes (|C+| = c)"
       | Exhausted -> "step budget exhausted");
    Printf.printf "steps            : %d\n" r.steps;
    Printf.printf "max storage      : %d bits in objects, %d incl. in-flight\n"
      r.max_obj_bits r.max_total_bits;
    Printf.printf "Theorem 1 bound  : %d bits  (min((f+1)ell, c(D-ell+1)))\n"
      r.lower_bound_bits;
    Printf.printf "completed writes : %d\n" r.completed_writes
  in
  Cmd.v
    (Cmd.info "lower-bound" ~doc:"Drive an algorithm with the adversary Ad (Definition 7).")
    Term.(const run $ algo_arg $ value_bytes_arg $ f_arg $ k_arg $ c_arg $ ell_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let writers =
    Arg.(value & opt int 3 & info [ "writers" ] ~docv:"N" ~doc:"Writer clients.")
  in
  let writes_each =
    Arg.(value & opt int 2 & info [ "writes-each" ] ~docv:"N" ~doc:"Writes per writer.")
  in
  let readers =
    Arg.(value & opt int 2 & info [ "readers" ] ~docv:"N" ~doc:"Reader clients.")
  in
  let reads_each =
    Arg.(value & opt int 2 & info [ "reads-each" ] ~docv:"N" ~doc:"Reads per reader.")
  in
  let show_trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Write the run's event trace to FILE (replayable with the \
                replay command).")
  in
  let run algo value_bytes f k seed writers writes_each readers reads_each show_trace
      save sanitize base_model byz_behaviour =
   with_model_errors @@ fun () ->
    usage_check (Catalog.check_writers algo ~writers);
    let algorithm, cfg = Catalog.build ~writers algo ~value_bytes ~f ~k in
    let model = resolve_model ?override:base_model ~algo ~f () in
    let byz = byz_policy_of ~seed ~n:cfg.n ~model byz_behaviour in
    Option.iter (Sb_baseobj.Model.check_policy model ~n:cfg.n) byz;
    let workload =
      Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers
        ~writes_each ~readers ~reads_each
    in
    if sanitize then begin
      let mk_world () =
        Sb_sim.Runtime.create ~seed ~base_model:model ?byz ~algorithm ~n:cfg.n
          ~f:cfg.f ~workload ()
      in
      match
        Sb_sanitize.Monitor.run
          (sanitize_cfg
             ?byz:(Option.map (fun p -> p.Sb_baseobj.Model.bp_compromised) byz)
             ~writers ~value_bytes ~algo ~f ~k ())
          ~mk_world
          (Sb_sim.Runtime.random_policy ~seed ())
      with
      | Ok (_, m) ->
        Printf.printf "sanitizers      : ok (%d events monitored)\n"
          (Sb_sanitize.Monitor.events_seen m)
      | Error r ->
        report_sanitizer_violation r;
        exit 1
    end;
    let m =
      Sb_experiments.Runs.measure ~seed ~base_model:model ?byz ~algorithm ~cfg
        ~workload ()
    in
    if show_trace then
      Format.printf "%a@." Sb_spec.History.pp m.history;
    (match save with
     | None -> ()
     | Some file ->
       (* Re-run deterministically to recover the raw trace (measure
          consumes the world). *)
       let w =
         Sb_sim.Runtime.create ~seed ~base_model:model ?byz ~algorithm ~n:cfg.n
           ~f:cfg.f ~workload ()
       in
       ignore (Sb_sim.Runtime.run w (Sb_sim.Runtime.random_policy ~seed ()));
       let oc = open_out file in
       List.iter
         (fun line ->
           output_string oc line;
           output_char oc '\n')
         (Sb_sim.Trace.to_lines (Sb_sim.Runtime.trace w));
       close_out oc;
       Printf.printf "trace saved to %s\n" file);
    Printf.printf "algorithm       : %s (n=%d f=%d k=%d D=%d bits, seed %d)\n"
      m.algorithm cfg.n cfg.f k (8 * value_bytes) seed;
    Printf.printf "steps           : %d (quiescent: %b)\n" m.steps m.quiescent;
    Printf.printf "writes          : %d/%d completed\n" m.completed_writes m.invoked_writes;
    Printf.printf "reads           : %d/%d completed (max %d rounds)\n"
      m.completed_reads m.invoked_reads m.max_read_rounds;
    Printf.printf "storage         : max %d bits (obj), %d (total), final %d\n"
      m.max_obj_bits m.max_total_bits m.final_obj_bits;
    Format.printf "weak regularity : %a@." Sb_spec.Regularity.pp_verdict m.weak;
    Format.printf "strong regular. : %a@." Sb_spec.Regularity.pp_verdict m.strong
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a workload under a fair random schedule.")
    Term.(
      const run $ algo_arg $ value_bytes_arg $ f_arg $ k_arg $ seed_arg $ writers
      $ writes_each $ readers $ reads_each $ show_trace $ save $ sanitize_arg
      $ base_model_arg $ byz_behaviour_arg)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let file =
    Arg.(
      required
      & opt (some file) None
      & info [ "file" ] ~docv:"FILE" ~doc:"Trace file written by simulate --save.")
  in
  let run value_bytes file =
    let ic = open_in file in
    let lines = In_channel.input_lines ic in
    close_in ic;
    match Sb_sim.Trace.of_lines lines with
    | Error msg ->
      Printf.eprintf "failed to parse %s: %s\n" file msg;
      exit 1
    | Ok tr ->
      let initial = Bytes.make value_bytes '\000' in
      let history = Sb_spec.History.of_trace ~initial tr in
      Printf.printf "events     : %d\n" (Sb_sim.Trace.length tr);
      Printf.printf "writes     : %d\n" (List.length history.Sb_spec.History.writes);
      Printf.printf "reads      : %d\n" (List.length history.Sb_spec.History.reads);
      Format.printf "weak       : %a@." Sb_spec.Regularity.pp_verdict
        (Sb_spec.Regularity.check_weak history);
      Format.printf "strong     : %a@." Sb_spec.Regularity.pp_verdict
        (Sb_spec.Regularity.check_strong history);
      Format.printf "safe       : %a@." Sb_spec.Regularity.pp_verdict
        (Sb_spec.Regularity.check_safe history);
      let total_ops =
        List.length history.Sb_spec.History.writes
        + List.length history.Sb_spec.History.reads
      in
      if total_ops <= 62 then
        Format.printf "atomic     : %a@." Sb_spec.Regularity.pp_verdict
          (Sb_spec.Regularity.check_atomic history)
      else Format.printf "atomic     : skipped (history too large)@."
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-check a saved trace against the register consistency conditions.")
    Term.(const run $ value_bytes_arg $ file)

(* ------------------------------------------------------------------ *)
(* explore                                                             *)
(* ------------------------------------------------------------------ *)

let explore_cmd =
  let module E = Sb_modelcheck.Explore in
  let writers =
    Arg.(value & opt int 2 & info [ "writers" ] ~docv:"N" ~doc:"Writer clients.")
  in
  let writes_each =
    Arg.(value & opt int 1 & info [ "writes-each" ] ~docv:"N" ~doc:"Writes per writer.")
  in
  let readers =
    Arg.(value & opt int 1 & info [ "readers" ] ~docv:"N" ~doc:"Reader clients.")
  in
  let reads_each =
    Arg.(value & opt int 1 & info [ "reads-each" ] ~docv:"N" ~doc:"Reads per reader.")
  in
  let crashes =
    Arg.(
      value & opt int 0
      & info [ "crashes" ] ~docv:"N" ~doc:"Object crashes the explorer may inject.")
  in
  let client_crashes =
    Arg.(
      value & opt int 0
      & info [ "client-crashes" ] ~docv:"N"
          ~doc:"Client crashes the explorer may inject.")
  in
  let bound_conv =
    let parse s =
      match s with
      | "exhaustive" -> Ok E.Exhaustive
      | _ -> (
        match String.split_on_char ':' s with
        | [ "delay"; d ] -> (
          match int_of_string_opt d with
          | Some d when d >= 0 -> Ok (E.Delay d)
          | _ -> Error (`Msg "delay:<d> needs a non-negative integer"))
        | [ "preempt"; p ] -> (
          match int_of_string_opt p with
          | Some p when p >= 0 -> Ok (E.Preempt p)
          | _ -> Error (`Msg "preempt:<p> needs a non-negative integer"))
        | _ ->
          Error (`Msg (Printf.sprintf "unknown bound %S (exhaustive, delay:<d>, preempt:<p>)" s)))
    in
    let print ppf = function
      | E.Exhaustive -> Format.fprintf ppf "exhaustive"
      | E.Delay d -> Format.fprintf ppf "delay:%d" d
      | E.Preempt p -> Format.fprintf ppf "preempt:%d" p
    in
    Arg.conv (parse, print)
  in
  let bound_arg =
    Arg.(
      value & opt bound_conv E.Exhaustive
      & info [ "bound" ] ~docv:"BOUND"
          ~doc:"Schedule bound: exhaustive, delay:<d>, preempt:<p>.")
  in
  let no_dpor =
    Arg.(
      value & flag
      & info [ "no-dpor" ] ~doc:"Disable sleep-set pruning (naive enumeration).")
  in
  let compare_flag =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:"Also run without DPOR and print the pruning ratio.")
  in
  let compare_budget =
    Arg.(
      value & opt int 1_000_000
      & info [ "compare-budget" ] ~docv:"N"
          ~doc:"Schedule cap applied to both passes of $(b,--compare) (0 = \
                unbounded).  Naive enumeration is typically 10x or more \
                larger than the reduced search — and with the default f=4 \
                even the reduced space is astronomical — so without a cap \
                $(b,--compare) can appear to hang; when a cap is hit the \
                printed reduction ratio is a lower bound.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Explore on N worker domains (0 = one per core).  Subtree \
                partitioning is deterministic: every jobs level reports \
                identical totals, verdicts, and counterexamples.")
  in
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:"Re-execute every schedule from its decision trace and flag \
                any divergence (nondeterminism in protocol code).")
  in
  let max_schedules =
    Arg.(
      value & opt int 0
      & info [ "max-schedules" ] ~docv:"N" ~doc:"Stop after N schedules (0 = no cap).")
  in
  let check_conv =
    Arg.enum
      (List.map
         (fun l -> (Catalog.level_name l, l))
         [ `Weak; `Strong; `Safe; `Atomic ])
  in
  let check_arg =
    Arg.(
      value & opt check_conv `Weak
      & info [ "check" ] ~docv:"LEVEL"
          ~doc:"Consistency level every history must satisfy: weak, strong, \
                safe, atomic.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"CI preset: tiny exhaustive config (1 writer, 1 reader, f=1) \
                with lint on, plus a seeded abd-broken violation/shrink check.")
  in
  let replay_file =
    Arg.(
      value & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a decision-trace file (one decision per line, as \
                printed for a counterexample) instead of exploring; print \
                the resulting history and verdict.")
  in
  let save_arg =
    Arg.(
      value & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"On violation, save the shrunk decision trace to FILE \
                (replayable with --replay).")
  in
  let checker level =
    ( (match level with
       | `Weak -> "weak regularity"
       | `Strong -> "strong regularity"
       | `Safe -> "safeness"
       | `Atomic -> "atomicity"),
      Catalog.checker level )
  in
  let mk_config ?base_model ?(byz_behaviour = Sb_adversary.Byz.Stale_echo)
      ~algo ~value_bytes ~f ~k ~seed ~writers ~writes_each ~readers ~reads_each
      ~crashes ~client_crashes ~bound ~dpor ~lint ~max_schedules ~check () =
    let algorithm, cfg = Catalog.build ~writers algo ~value_bytes ~f ~k in
    let model = resolve_model ?override:base_model ~algo ~f () in
    let byz = byz_policy_of ~seed ~n:cfg.n ~model byz_behaviour in
    Option.iter (Sb_baseobj.Model.check_policy model ~n:cfg.n) byz;
    let workload =
      Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers
        ~writes_each ~readers ~reads_each
    in
    let _, check_fn = checker check in
    ( algorithm,
      cfg,
      E.config ~seed ~dpor ~bound ~crash_objs:crashes
        ~crash_clients:client_crashes ~base_model:model ?byz
        ~max_schedules ~lint ~algorithm ~n:cfg.n ~f:cfg.f ~workload
        ~initial:(Bytes.make value_bytes '\000') ~check:check_fn () )
  in
  let report_violation econfig (v : E.violation) save =
    (match v.E.v_counterexample.Sb_spec.Regularity.cx_reason with
     | Sb_spec.Regularity.Search_budget _ ->
       Format.printf
         "note: the atomicity search ran out of budget — the verdict below \
          is INCONCLUSIVE, not a refutation@."
     | _ -> ());
    Format.printf "VIOLATION (%a)@."
      Sb_spec.Regularity.pp_counterexample v.E.v_counterexample;
    Format.printf "history:@.%a@." Sb_spec.History.pp v.E.v_history;
    let orig = List.length v.E.v_decisions in
    let shrunk = Sb_modelcheck.Shrink.shrink econfig v.E.v_decisions in
    Format.printf "shrunk schedule: %d decisions (from %d):@.%a@."
      (List.length shrunk) orig E.pp_decisions shrunk;
    (match Sb_modelcheck.Shrink.check_decisions econfig shrunk with
     | Some (cx, _) ->
       Format.printf "shrunk counterexample: %a@."
         Sb_spec.Regularity.pp_counterexample cx
     | None -> ());
    match save with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      List.iter
        (fun d ->
          output_string oc (Sb_sim.Runtime.decision_to_string d);
          output_char oc '\n')
        shrunk;
      close_out oc;
      Printf.printf "shrunk decision trace saved to %s\n" file
  in
  let run_replay ?base_model ?(byz_behaviour = Sb_adversary.Byz.Stale_echo)
      ~algo ~value_bytes ~f ~k ~seed ~writers ~writes_each ~readers
      ~reads_each ~check file =
    let algorithm, cfg = Catalog.build ~writers algo ~value_bytes ~f ~k in
    let model = resolve_model ?override:base_model ~algo ~f () in
    let byz = byz_policy_of ~seed ~n:cfg.n ~model byz_behaviour in
    let workload =
      Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers
        ~writes_each ~readers ~reads_each
    in
    let ic = open_in file in
    let lines =
      List.filter (fun l -> String.trim l <> "") (In_channel.input_lines ic)
    in
    close_in ic;
    let decisions =
      List.map
        (fun l ->
          match Sb_sim.Runtime.decision_of_string (String.trim l) with
          | Ok d -> d
          | Error msg ->
            Printf.eprintf "bad decision %S: %s\n" l msg;
            exit 2)
        lines
    in
    let w =
      Sb_sim.Runtime.create ~seed ~base_model:model ?byz ~algorithm ~n:cfg.n
        ~f:cfg.f ~workload ()
    in
    let applied = Sb_sim.Runtime.replay w decisions in
    Printf.printf "replayed %d/%d decisions\n" applied (List.length decisions);
    let h =
      Sb_spec.History.of_trace ~initial:(Bytes.make value_bytes '\000')
        (Sb_sim.Runtime.trace w)
    in
    Format.printf "history:@.%a@." Sb_spec.History.pp h;
    let name, check_fn = checker check in
    match check_fn h with
    | Sb_spec.Regularity.Ok ->
      Printf.printf "%s: ok\n" name
    | Sb_spec.Regularity.Violation cx ->
      Format.printf "%s: VIOLATION (%a)@." name
        Sb_spec.Regularity.pp_counterexample cx;
      exit 1
  in
  let run algo value_bytes f k seed writers writes_each readers reads_each
      crashes client_crashes bound no_dpor compare_flag compare_budget jobs
      lint max_schedules check quick replay_file save sanitize base_model
      byz_behaviour =
   with_model_errors @@ fun () ->
    (* --quick: the CI smoke preset — tiny exhaustive sweep with lint and
       the sanitizers on, then confirm the seeded abd-broken bug is found
       and shrinks. *)
    let algo, f, k, writers, writes_each, readers, reads_each, lint, sanitize =
      if quick then (Catalog.Abd, 1, 1, 1, 1, 1, 1, true, true)
      else (algo, f, k, writers, writes_each, readers, reads_each, lint, sanitize)
    in
    usage_check (Catalog.check_writers algo ~writers);
    match replay_file with
    | Some file ->
      run_replay ?base_model ~byz_behaviour ~algo ~value_bytes ~f ~k ~seed
        ~writers ~writes_each ~readers ~reads_each ~check file
    | None ->
      let jobs = if jobs <= 0 then Sb_parallel.Pool.default_jobs () else jobs in
      (* --compare caps the reduced pass too: either side of the
         comparison can be astronomically large (the default f=4 space,
         say), and an uncapped pass looks like a hang. *)
      let max_schedules =
        if compare_flag && not no_dpor && compare_budget > 0
           && (max_schedules = 0 || compare_budget < max_schedules)
        then compare_budget
        else max_schedules
      in
      let algorithm, cfg, econfig =
        mk_config ?base_model ~byz_behaviour ~algo ~value_bytes ~f ~k ~seed
          ~writers ~writes_each ~readers ~reads_each ~crashes ~client_crashes
          ~bound ~dpor:(not no_dpor) ~lint ~max_schedules ~check ()
      in
      let check_name, _ = checker check in
      Printf.printf "algorithm     : %s (n=%d f=%d k=%d D=%d bits, seed %d)\n"
        algorithm.Sb_sim.Runtime.name cfg.n cfg.f k (8 * value_bytes) seed;
      Printf.printf
        "workload      : %d writer(s) x %d, %d reader(s) x %d; crashes: %d obj, %d client\n"
        writers writes_each readers reads_each crashes client_crashes;
      Format.printf
        "check         : %s; bound: %a; dpor: %s; sanitize: %s; jobs: %d@."
        check_name
        (Arg.conv_printer bound_conv) bound
        (if no_dpor then "off" else "on")
        (if sanitize then "on" else "off")
        jobs;
      let t0 = Unix.gettimeofday () in
      let outcome =
        if sanitize then begin
          let scfg =
            sanitize_cfg
              ?byz:
                (Option.map
                   (fun p -> p.Sb_baseobj.Model.bp_compromised)
                   econfig.E.byz)
              ~writers ~value_bytes ~algo ~f ~k ()
          in
          match Sb_sanitize.Monitor.explore_sanitized scfg econfig with
          | Ok outcome -> outcome
          | Error r ->
            report_sanitizer_violation r;
            exit 1
        end
        else Sb_parallel.Pexplore.explore ~jobs econfig
      in
      let dt = Unix.gettimeofday () -. t0 in
      Format.printf "%a@." E.pp_stats outcome.E.stats;
      Printf.printf "wall time     : %.2fs\n" dt;
      Printf.printf "complete      : %b\n" outcome.E.complete;
      if compare_flag && not no_dpor then begin
        (* The naive pass gets its own budget: unreduced enumeration is
           routinely 10x+ the reduced search, so an uncapped comparison
           looks like a hang on anything non-trivial. *)
        let naive_cap =
          if compare_budget > 0 && (max_schedules = 0 || compare_budget < max_schedules)
          then compare_budget
          else max_schedules
        in
        let _, _, naive =
          mk_config ?base_model ~byz_behaviour ~algo ~value_bytes ~f ~k ~seed
            ~writers ~writes_each ~readers ~reads_each ~crashes ~client_crashes
            ~bound ~dpor:false ~lint:false
            ~max_schedules:naive_cap ~check ()
        in
        let n_out = E.explore naive in
        (if n_out.E.complete then
           Printf.printf "naive         : %d schedules, %d transitions\n"
             n_out.E.stats.E.schedules n_out.E.stats.E.transitions
         else if n_out.E.first_violation <> None then
           Printf.printf
             "naive         : stopped on a violation after %d schedules\n"
             n_out.E.stats.E.schedules
         else
           Printf.printf
             "naive         : stopped at the %d-schedule --compare-budget \
              (%d transitions); raise it for an exact ratio\n"
             n_out.E.stats.E.schedules n_out.E.stats.E.transitions);
        if outcome.E.stats.E.schedules > 0 then
          Printf.printf "dpor reduction: %s%.2fx fewer schedules%s\n"
            (if n_out.E.complete then "" else ">= ")
            (float_of_int n_out.E.stats.E.schedules
            /. float_of_int outcome.E.stats.E.schedules)
            (if outcome.E.complete then ""
             else
               " (reduced search hit the budget too; ratio is indicative \
                only)")
      end;
      if outcome.E.stats.E.lint_failures > 0 then begin
        Printf.printf "DETERMINISM LINT FAILED (%d schedules diverged on replay)\n"
          outcome.E.stats.E.lint_failures;
        exit 1
      end;
      (match outcome.E.first_violation with
       | Some v ->
         report_violation econfig v save;
         exit 1
       | None -> Printf.printf "result        : no violation\n");
      if quick then begin
        (* Second half of the CI preset: the seeded bug must be caught
           and must shrink to a short schedule. *)
        let _, _, broken =
          mk_config ~algo:Catalog.Abd_broken ~value_bytes ~f ~k ~seed ~writers:2
            ~writes_each:1 ~readers:1 ~reads_each:1 ~crashes ~client_crashes
            ~bound ~dpor:true ~lint:false ~max_schedules:0
            ~check:`Weak ()
        in
        let b_out = E.explore broken in
        match b_out.E.first_violation with
        | None ->
          print_endline "quick check   : FAILED (abd-broken violation not found)";
          exit 1
        | Some v ->
          let shrunk = Sb_modelcheck.Shrink.shrink broken v.E.v_decisions in
          Printf.printf
            "quick check   : abd-broken violation found and shrunk to %d decisions\n"
            (List.length shrunk);
          (* Third leg: the independence relation behind the DPOR pruning
             above must survive its own audit on this configuration. *)
          let audit = Sb_sanitize.Audit.audit ~max_states:200 econfig in
          if Sb_sanitize.Audit.ok audit then
            Printf.printf
              "quick audit   : independence relation green (%d states, %d pairs)\n"
              audit.Sb_sanitize.Audit.a_states audit.Sb_sanitize.Audit.a_pairs
          else begin
            Format.printf "quick audit   : INDEPENDENCE DIVERGENCE@.%a@."
              Sb_sanitize.Audit.pp_divergence
              (List.hd audit.Sb_sanitize.Audit.a_divergences);
            exit 1
          end
      end
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Systematically explore all schedules of a bounded configuration \
             (sleep-set DPOR, optional delay/preemption bounding), checking \
             every history; shrink and print any counterexample.")
    Term.(
      const run $ algo_arg $ value_bytes_arg $ f_arg $ k_arg $ seed_arg
      $ writers $ writes_each $ readers $ reads_each $ crashes $ client_crashes
      $ bound_arg $ no_dpor $ compare_flag $ compare_budget $ jobs_arg $ lint
      $ max_schedules $ check_arg $ quick $ replay_file $ save_arg
      $ sanitize_arg $ base_model_arg $ byz_behaviour_arg)

(* ------------------------------------------------------------------ *)
(* audit — machine-check the DPOR independence relation                *)
(* ------------------------------------------------------------------ *)

let audit_cmd =
  let module E = Sb_modelcheck.Explore in
  let writers =
    Arg.(value & opt int 2 & info [ "writers" ] ~docv:"N" ~doc:"Writer clients.")
  in
  let writes_each =
    Arg.(value & opt int 1 & info [ "writes-each" ] ~docv:"N" ~doc:"Writes per writer.")
  in
  let readers =
    Arg.(value & opt int 1 & info [ "readers" ] ~docv:"N" ~doc:"Reader clients.")
  in
  let reads_each =
    Arg.(value & opt int 1 & info [ "reads-each" ] ~docv:"N" ~doc:"Reads per reader.")
  in
  let crashes =
    Arg.(
      value & opt int 0
      & info [ "crashes" ] ~docv:"N" ~doc:"Object crashes to audit over.")
  in
  let max_states =
    Arg.(
      value & opt int 500
      & info [ "max-states" ] ~docv:"N" ~doc:"States to expand before stopping.")
  in
  let mutate =
    Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:"Mutation test: audit a deliberately weakened relation that \
                also declares same-object mutating deliveries independent. \
                The audit must report a divergence; exits 0 when it does.")
  in
  let run algo value_bytes f k seed writers writes_each readers reads_each
      crashes max_states mutate =
   with_model_errors @@ fun () ->
    let algorithm, cfg = Catalog.build ~writers algo ~value_bytes ~f ~k in
    let model = resolve_model ~algo ~f () in
    let workload =
      Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers
        ~writes_each ~readers ~reads_each
    in
    let econfig =
      E.config ~seed ~crash_objs:crashes ~base_model:model ~algorithm ~n:cfg.n
        ~f:cfg.f ~workload ~initial:(Bytes.make value_bytes '\000')
        ~check:Sb_spec.Regularity.check_weak ()
    in
    let relation =
      if mutate then
        Some
          (fun (a : E.action) (b : E.action) ->
            match a.E.kind, b.E.kind with
            | E.KDeliver, E.KDeliver -> true (* ignores same-object conflicts *)
            | _ -> E.independent a b)
      else None
    in
    Printf.printf "algorithm  : %s (n=%d f=%d k=%d, seed %d)%s\n"
      algorithm.Sb_sim.Runtime.name cfg.n cfg.f (Catalog.code_k algo ~k) seed
      (if mutate then " [mutated relation]" else "");
    let r = Sb_sanitize.Audit.audit ?relation ~max_states econfig in
    Printf.printf
      "audited    : %d states, %d declared-independent pairs%s\n"
      r.Sb_sanitize.Audit.a_states r.Sb_sanitize.Audit.a_pairs
      (if r.Sb_sanitize.Audit.a_truncated then " (truncated)" else "");
    match r.Sb_sanitize.Audit.a_divergences, mutate with
    | [], false -> print_endline "result     : independence relation green"
    | [], true ->
      print_endline "result     : MUTATION NOT DETECTED (audit has no teeth here)";
      exit 1
    | d :: _ as ds, m ->
      Format.printf "result     : %d divergence(s)@.%a@." (List.length ds)
        Sb_sanitize.Audit.pp_divergence d;
      if m then print_endline "mutation detected, as it should be"
      else exit 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Machine-check the model checker's independence relation: replay \
             both orders of every declared-independent pair over the \
             reachable states of a configuration and flag divergence.")
    Term.(
      const run $ algo_arg $ value_bytes_arg $ f_arg $ k_arg $ seed_arg
      $ writers $ writes_each $ readers $ reads_each $ crashes $ max_states
      $ mutate)

(* ------------------------------------------------------------------ *)
(* adversary-demo (Figure 3 walkthrough)                               *)
(* ------------------------------------------------------------------ *)

let demo_cmd =
  let c_arg =
    Arg.(value & opt int 3 & info [ "c" ] ~docv:"C" ~doc:"Concurrent writers.")
  in
  let steps_arg =
    Arg.(value & opt int 40 & info [ "steps" ] ~docv:"N" ~doc:"Snapshots to print.")
  in
  let run algo value_bytes f k c steps =
    let algorithm, cfg = Catalog.build ~writers:1 algo ~value_bytes ~f ~k in
    let d = 8 * value_bytes in
    let ell = d / 2 in
    let workload =
      Array.init c (fun i ->
          [ Sb_sim.Trace.Write (Sb_util.Values.distinct ~value_bytes i) ])
    in
    let w =
      Sb_sim.Runtime.create ~algorithm ~n:cfg.n ~f:cfg.f ~workload ()
    in
    Printf.printf
      "Adversary Ad vs %s: n=%d f=%d k=%d D=%d bits ell=%d (cf. paper Fig. 3)\n\n"
      algorithm.Sb_sim.Runtime.name cfg.n cfg.f k d ell;
    let count = ref 0 in
    let on_step (s : Sb_adversary.Ad.snapshot) =
      if !count < steps then begin
        incr count;
        Printf.printf
          "t=%-5d |F|=%-2d F={%s}  |C+|=%-2d C+={%s}  |C-|=%-2d  storage=%d bits\n"
          s.time (List.length s.frozen)
          (String.concat "," (List.map string_of_int s.frozen))
          (List.length s.c_plus)
          (String.concat "," (List.map (fun o -> "w" ^ string_of_int o) s.c_plus))
          (List.length s.c_minus) s.storage_obj_bits
      end
    in
    let halt_when (s : Sb_adversary.Ad.snapshot) =
      !count >= steps
      || List.length s.frozen > cfg.f
      || List.length s.c_plus >= c
    in
    let policy = Sb_adversary.Ad.policy ~ell_bits:ell ~d_bits:d ~halt_when ~on_step () in
    let _ = Sb_sim.Runtime.run w policy in
    let final = Sb_adversary.Ad.classify ~ell_bits:ell ~d_bits:d w in
    Printf.printf "\nfinal: |F|=%d (f=%d), |C+|=%d (c=%d), storage=%d bits\n"
      (List.length final.frozen) cfg.f (List.length final.c_plus) c
      final.storage_obj_bits;
    if List.length final.frozen > cfg.f then
      print_endline "=> freeze branch: f+1 objects pinned at >= ell bits each"
    else if List.length final.c_plus >= c then
      print_endline "=> saturation branch: all c writes pinned at > D-ell bits each"
  in
  Cmd.v
    (Cmd.info "adversary-demo"
       ~doc:"Print Ad's F / C+ / C- evolution step by step (paper Figure 3).")
    Term.(const run $ algo_arg $ value_bytes_arg $ f_arg $ k_arg $ c_arg $ steps_arg)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Sweep the whole correct-register matrix (adaptive, pure-ec, \
                abd, abd-atomic, safe, versioned:1, rateless) instead of one \
                algorithm.")
  in
  let base_models_arg =
    Arg.(
      value & flag
      & info [ "base-models" ]
          ~doc:"Sweep the base-object-model emulation matrix instead: \
                rw-regular and rw-safe over read/write objects, byz-regular \
                with lying budgets 0 and f over Byzantine objects — the \
                sibling-paper storage floors stay armed throughout \
                (write the summary with --json for a BOUNDS report).")
  in
  let f_arg =
    Arg.(value & opt int 1 & info [ "f" ] ~docv:"F" ~doc:"Failures tolerated.")
  in
  let k_arg =
    Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Code dimension.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 10
      & info [ "seeds" ] ~docv:"N" ~doc:"Scheduler seeds per campaign cell.")
  in
  let drops_arg =
    Arg.(
      value
      & opt (list float) [ 0.0; 0.1; 0.3 ]
      & info [ "drops" ] ~docv:"RATES" ~doc:"Comma-separated drop-rate sweep.")
  in
  let duplicate_arg =
    Arg.(
      value & opt float 0.1
      & info [ "duplicate" ] ~docv:"RATE" ~doc:"Network duplication rate.")
  in
  let delay_arg =
    Arg.(
      value & opt float 0.05
      & info [ "delay" ] ~docv:"RATE" ~doc:"Extra-delay rate.")
  in
  let no_crash_arg =
    Arg.(
      value & flag
      & info [ "no-crash" ]
          ~doc:"Skip the mid-run server crash + recovery schedule.")
  in
  let no_sanitize_arg =
    Arg.(
      value & flag
      & info [ "no-sanitize" ]
          ~doc:"Run without the Sb_sanitize monitors (they are on by default \
                in chaos campaigns).")
  in
  let budget_arg =
    Arg.(
      value & opt int 100_000
      & info [ "budget" ] ~docv:"STEPS" ~doc:"Step budget per run.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"CI-sized preset: 3 seeds, drops 0 and 0.2 (other fault flags \
                still apply).")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the report as CSV.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write a flat-JSON campaign summary to FILE (same format \
                as the BENCH_*.json metric files).")
  in
  let live_arg =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:"Run the campaign against the real stack instead of the \
                simulator: forked daemon processes per server with \
                socket-layer fault hooks (drop / duplicate / delay / \
                fragment / slow-close), deterministic crash points around \
                the persist path, seeded disk corruption with quarantine \
                recovery, and a forked SDK load generator judging \
                regularity and the Theorem 2 bounds.  With --live, --all \
                sweeps adaptive + abd; 3 seeds per green scenario (1 with \
                --quick).")
  in
  let live_report_arg =
    Arg.(
      value
      & opt string "CHAOS_live_report.json"
      & info [ "live-report" ] ~docv:"FILE"
          ~doc:"Where --live writes its flat-JSON campaign report.")
  in
  let run_live ~algo ~all ~value_bytes ~f ~k ~seed ~quick ~report_file =
    let module L = Sb_faults.Live in
    let cfg =
      {
        (if quick then L.quick_config else L.default_config) with
        L.lc_base_seed = seed;
      }
    in
    let algos = if all then Catalog.[ Adaptive; Abd ] else [ algo ] in
    List.iter (fun algo -> usage_check (Catalog.check_live algo)) algos;
    let specs = List.map (fun algo -> L.spec algo ~value_bytes ~f ~k) algos in
    let cells = L.campaign cfg specs in
    Sb_util.Table.print (L.report cells);
    L.write_report report_file cells;
    Printf.printf "chaos --live: report written to %s\n" report_file;
    if L.all_ok cells then
      Printf.printf "chaos --live: all %d cells passed\n" (List.length cells)
    else begin
      L.explain_failures Format.std_formatter cells;
      print_endline "chaos --live: FAILURES (see above)";
      exit 1
    end
  in
  let run algo all base_models value_bytes f k seeds seed drops duplicate delay
      no_crash no_sanitize budget quick csv json live live_report byz_behaviour
      =
   with_model_errors @@ fun () ->
    if live then
      run_live ~algo ~all ~value_bytes ~f ~k ~seed ~quick
        ~report_file:live_report
    else
    let module C = Sb_faults.Chaos in
    let base = if quick then C.quick_config else C.default_config in
    let cfg =
      { base with
        C.seeds = (if quick then base.C.seeds else seeds);
        base_seed = seed;
        drops = (if quick then base.C.drops else drops);
        duplicate;
        delay;
        crash_recovery = not no_crash;
        sanitize = not no_sanitize;
        max_steps = budget;
        watchdog_budget = budget / 4;
      }
    in
    let algos =
      if base_models then Catalog.[ Rw_regular; Rw_safe; Byz_reg 0; Byz_reg f ]
      else if all then
        Catalog.
          [ Adaptive; Pure_ec; Abd; Abd_atomic; Safe; Versioned 1; Rateless ]
      else [ algo ]
    in
    List.iter
      (fun algo -> Sb_baseobj.Model.validate ~f (Catalog.base_model algo))
      algos;
    let specs =
      List.map
        (fun algo -> C.catalog_spec ~byz_behaviour algo ~value_bytes ~f ~k)
        algos
    in
    let cells = C.campaign cfg specs in
    let table = C.report cells in
    if csv then print_string (Sb_util.Table.to_csv table)
    else Sb_util.Table.print table;
    (match json with
     | None -> ()
     | Some file ->
       let floors =
         List.filter_map
           (fun (sp : C.spec) ->
             Option.map
               (fun (copies, d_bits) ->
                 ( Printf.sprintf "floor_bits_%s" sp.C.sp_name,
                   Sb_util.Jsonx.int (copies * d_bits) ))
               sp.C.sp_floor)
           specs
       in
       Sb_util.Jsonx.write file
         ([
            ("suite", Sb_util.Jsonx.str "chaos");
            ("algos", Sb_util.Jsonx.int (List.length specs));
            ("cells", Sb_util.Jsonx.int (List.length cells));
            ("runs", Sb_util.Jsonx.int (List.length cells * cfg.C.seeds));
            ("ok", Sb_util.Jsonx.bool (C.all_ok cells));
          ]
          @ floors));
    if C.all_ok cells then
      Printf.printf "chaos: all %d cells passed (%d runs)\n" (List.length cells)
        (List.length cells * cfg.C.seeds)
    else begin
      C.explain_failures Format.std_formatter cells;
      print_endline "chaos: FAILURES (see above)";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Fault-injection campaigns: sweep drop rates x duplication x \
             crash/recovery over seeded schedules with retransmission armed, \
             sanitizers attached, consistency checked, and channel-inclusive \
             storage accounting verified.")
    Term.(
      const run $ algo_arg $ all_arg $ base_models_arg $ value_bytes_arg
      $ f_arg $ k_arg $ seeds_arg $ seed_arg $ drops_arg $ duplicate_arg
      $ delay_arg $ no_crash_arg $ no_sanitize_arg $ budget_arg $ quick_arg
      $ csv_arg $ json_arg $ live_arg $ live_report_arg $ byz_behaviour_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let sockdir_arg =
  Arg.(
    value & opt string "/tmp/spacebounds"
    & info [ "sockdir" ] ~docv:"DIR"
        ~doc:"Directory for the per-server Unix-domain sockets.")

let serve_f_arg =
  Arg.(value & opt int 2 & info [ "f" ] ~docv:"F" ~doc:"Failures tolerated.")

let serve_k_arg =
  Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Code dimension.")

let serve_cmd =
  let statedir =
    Arg.(
      value & opt (some string) None
      & info [ "statedir" ] ~docv:"DIR"
          ~doc:"Persist object state + incarnation here, atomically: each \
                shard an event-loop round dirtied is saved once, before that \
                round's responses are sent.  A restart over persisted state \
                recovers into a fresh incarnation.")
  in
  let cluster =
    Arg.(
      value & flag
      & info [ "cluster" ]
          ~doc:"Host the whole n-server cluster in this process (the default \
                when no --server is given).")
  in
  let server =
    Arg.(
      value & opt (some int) None
      & info [ "server" ] ~docv:"I"
          ~doc:"Host only server I — one daemon of a multi-process cluster.")
  in
  let wire_version =
    Arg.(
      value
      & opt int Sb_service.Wire.version
      & info [ "wire-version" ] ~docv:"V"
          ~doc:"Pin the daemon to an older wire version: frames and persisted \
                state are encoded at $(docv) and newer frames are rejected, \
                making this binary behave exactly like an old build (for \
                mixed-version rollout scenarios).")
  in
  let crash_at =
    Arg.(
      value
      & opt (some string) None
      & info [ "crash-at" ] ~docv:"SPEC"
          ~doc:"Deterministic crash-point injection: abort the process \
                (exit 70, as abruptly as SIGKILL) at the Nth persist. \
                $(docv) is persist:N (between the temp-file fsync and the \
                rename — inside the torn-write window), persist-pre:N \
                (before the temp file is touched) or persist-post:N (after \
                the rename, before the response).  Requires --statedir.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"S"
          ~doc:"Keyed server-core shards per server: request keys are routed \
                by the consistent-hash ring, each shard with its own state \
                file, incarnation and at-most-once table.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"D"
          ~doc:"Event-loop domains the hosted servers are partitioned across \
                (capped at the server count; incompatible with --crash-at).")
  in
  let run algo value_bytes f k sockdir statedir cluster server wire_version
      crash_at shards domains =
    usage_check (Catalog.check_live algo);
    let algorithm, cfg = Catalog.build ~writers:1 algo ~value_bytes ~f ~k in
    let servers =
      match (cluster, server) with
      | _, None -> List.init cfg.Sb_registers.Common.n Fun.id
      | false, Some i -> [ i ]
      | true, Some _ ->
        prerr_endline "serve: --cluster and --server are exclusive";
        exit 2
    in
    let crash_at =
      match crash_at with
      | None -> None
      | Some spec -> (
        match Sb_service.Daemon.crash_point_of_string spec with
        | Ok cp -> Some cp
        | Error msg ->
          Printf.eprintf "serve: --crash-at %s: %s\n" spec msg;
          exit 2)
    in
    (match
       Sb_service.Daemon.check_args ~wire_version ~shards ~domains ~statedir
         ~crash_at
     with
     | Ok () -> ()
     | Error msg ->
       prerr_endline ("serve: " ^ msg);
       exit 2);
    Printf.printf
      "serving %s: n=%d f=%d k=%d wire v%d, servers [%s] x%d shard(s), %d \
       domain(s) under %s%s\n%!"
      algorithm.Sb_sim.Runtime.name cfg.Sb_registers.Common.n
      cfg.Sb_registers.Common.f k wire_version
      (String.concat ";" (List.map string_of_int servers))
      shards domains sockdir
      (match statedir with
       | Some d -> Printf.sprintf " (durable: %s)" d
       | None -> "");
    Sb_service.Daemon.run ~wire_version ~shards ~domains
      ?statedir ?crash_at ~sockdir ~servers
      ~init_obj:algorithm.Sb_sim.Runtime.init_obj ();
    print_endline "serve: bye"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the register service: select-loop process(es) hosting a \
             whole cluster (or one server of it) behind Unix-domain sockets, \
             speaking the versioned binary wire protocol, each server hosting \
             consistent-hash keyed shards, with live \
             storage/dedup/incarnation counters on a stats endpoint.")
    Term.(
      const run $ algo_arg $ value_bytes_arg $ serve_f_arg $ serve_k_arg
      $ sockdir_arg $ statedir $ cluster $ server $ wire_version $ crash_at
      $ shards $ domains)

(* ------------------------------------------------------------------ *)
(* loadgen                                                             *)
(* ------------------------------------------------------------------ *)

let loadgen_cmd =
  let writers_arg =
    Arg.(value & opt int 2 & info [ "writers" ] ~docv:"N" ~doc:"Writer clients.")
  in
  let writes_each_arg =
    Arg.(
      value & opt int 10
      & info [ "writes-each" ] ~docv:"N" ~doc:"Writes per writer.")
  in
  let readers_arg =
    Arg.(value & opt int 2 & info [ "readers" ] ~docv:"N" ~doc:"Reader clients.")
  in
  let reads_each_arg =
    Arg.(
      value & opt int 10
      & info [ "reads-each" ] ~docv:"N" ~doc:"Reads per reader.")
  in
  let rto_arg =
    Arg.(
      value & opt int 100
      & info [ "rto" ] ~docv:"MS" ~doc:"Initial retransmission timeout (ms).")
  in
  let max_attempts_arg =
    Arg.(
      value & opt int 0
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:"Retransmission budget per request; 0 retries forever (rides \
                out server kills).")
  in
  let sample_arg =
    Arg.(
      value & opt int 20
      & info [ "sample-ms" ] ~docv:"MS"
          ~doc:"Storage-stats sampling period; 0 disables sampling.")
  in
  let deadline_arg =
    Arg.(
      value & opt int 120_000
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Abort the run after this long.")
  in
  let settle_arg =
    Arg.(
      value & opt int 300
      & info [ "settle-ms" ] ~docv:"MS"
          ~doc:"Quiescence settle time before the final (GC floor) stats \
                round.")
  in
  let json_arg =
    Arg.(
      value & opt string "BENCH_service.json"
      & info [ "json" ] ~docv:"FILE" ~doc:"Metrics output file.")
  in
  let think_arg =
    Arg.(
      value & opt int 0
      & info [ "think-ms" ] ~docv:"MS"
          ~doc:"Closed-loop pacing: delay before each client's next \
                operation (lets a run span fault-injection windows).")
  in
  let open_loop_arg =
    Arg.(
      value & flag
      & info [ "open-loop" ]
          ~doc:"Open-loop load: Poisson arrivals at --rate over --keys keys \
                instead of the closed-loop writers/readers workload.  \
                Latencies are measured from each arrival's intended start \
                (coordinated-omission-safe).")
  in
  let rate_arg =
    Arg.(
      value & opt float 1000.0
      & info [ "rate" ] ~docv:"OPS_S"
          ~doc:"Open loop: target Poisson arrival rate, operations/second.")
  in
  let duration_arg =
    Arg.(
      value & opt int 10_000
      & info [ "duration-ms" ] ~docv:"MS"
          ~doc:"Open loop: arrival-generation window (the run then drains).")
  in
  let keys_arg =
    Arg.(
      value & opt int 100
      & info [ "keys" ] ~docv:"K"
          ~doc:"Open loop: key-space size; keys are routed to shards by the \
                consistent hash.")
  in
  let key_dist_arg =
    Arg.(
      value & opt string "uniform"
      & info [ "key-dist" ] ~docv:"DIST"
          ~doc:"Open loop: key popularity — uniform, zipf (exponent 0.99) or \
                zipf:EXP.")
  in
  let write_ratio_arg =
    Arg.(
      value & opt float 0.5
      & info [ "write-ratio" ] ~docv:"R"
          ~doc:"Open loop: probability an arrival is a write.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 1024
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Open loop: concurrent operation slots (arrivals beyond this \
                queue, keeping their intended start times).")
  in
  let batch_arg =
    Arg.(
      value & opt int (-1)
      & info [ "batch" ] ~docv:"N"
          ~doc:"Request batching: buffer up to $(docv) requests per \
                connection into one Req_batch frame (v3+ peers only; 1 \
                disables).  Default: 16 under --open-loop, 1 otherwise.")
  in
  let flush_arg =
    Arg.(
      value & opt int 1
      & info [ "flush-ms" ] ~docv:"MS"
          ~doc:"Batching: a pending batch never waits longer than this for \
                co-travellers.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Gate the run against the committed baseline copy of the \
                metrics file (bench/baselines/<file>): ms_per_op and p99_ms \
                within 1.25x, plus the baseline's hard \
                gate_min_throughput_ops_s / gate_max_p99_ms floors.")
  in
  let run algo value_bytes f k seed writers writes_each readers reads_each
      sockdir rto max_attempts sample_ms deadline_ms settle_ms think_ms json
      open_loop rate duration_ms keys key_dist write_ratio max_inflight batch
      flush_ms check =
    let module Check = Sb_faults.Livecheck in
    usage_check (Catalog.check_live algo);
    let algorithm, cfg = Catalog.build ~writers:1 algo ~value_bytes ~f ~k in
    let n = cfg.Sb_registers.Common.n in
    let batch = if batch >= 1 then batch else if open_loop then 16 else 1 in
    let zipf =
      match key_dist with
      | "uniform" -> 0.0
      | "zipf" -> 0.99
      | s when String.length s > 5 && String.sub s 0 5 = "zipf:" -> (
        match float_of_string_opt (String.sub s 5 (String.length s - 5)) with
        | Some e when e > 0.0 -> e
        | _ ->
          Printf.eprintf "loadgen: bad --key-dist %s\n" s;
          exit 2)
      | s ->
        Printf.eprintf "loadgen: bad --key-dist %s\n" s;
        exit 2
    in
    let sdk_cfg =
      {
        (Sb_service.Sdk.default_config ~n ~f ~sockdir) with
        Sb_service.Sdk.rto_ms = rto;
        max_attempts;
        sample_every_ms = sample_ms;
        deadline_ms;
        think_ms;
        batch_max = batch;
        flush_ms;
      }
    in
    let r =
      if open_loop then
        Sb_service.Sdk.run_open ~algorithm ~seed
          {
            Sb_service.Sdk.ol_rate = rate;
            ol_duration_ms = duration_ms;
            ol_keys = keys;
            ol_zipf = zipf;
            ol_write_ratio = write_ratio;
            ol_max_inflight = max_inflight;
            ol_value =
              (fun i -> Sb_experiments.Workloads.distinct_value ~value_bytes i);
          }
          sdk_cfg
      else
        let workload =
          Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers
            ~writes_each ~readers ~reads_each
        in
        Sb_service.Sdk.run_keyed ~algorithm ~seed
          ~workload:(Array.map (List.map (fun kind -> ("", kind))) workload)
          sdk_cfg
    in
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    let judge (v : Check.verdict) =
      Printf.printf "%-16s: %s  %s\n" v.label v.detail
        (if v.ok then "ok" else "EXCEEDED");
      if not v.ok then fail "%s" v.failure
    in
    Printf.printf "loadgen         : %s (n=%d f=%d k=%d, seed %d) against %s\n"
      algorithm.Sb_sim.Runtime.name n f k seed sockdir;
    if open_loop then
      Printf.printf
        "open loop       : %.0f ops/s target for %d ms over %d %s keys, %.0f%% \
         writes, %d slots, batch %d/%dms\n"
        rate duration_ms keys
        (if zipf > 0.0 then Printf.sprintf "zipf(%.2f)" zipf else "uniform")
        (100.0 *. write_ratio) max_inflight batch flush_ms;
    Printf.printf "ops             : %d/%d completed in %.0f ms (%.1f ops/s)\n"
      r.Sb_service.Sdk.ops_completed r.Sb_service.Sdk.ops_invoked
      r.Sb_service.Sdk.wall_ms
      (float_of_int r.Sb_service.Sdk.ops_completed
      /. Float.max 1e-9 (r.Sb_service.Sdk.wall_ms /. 1000.0));
    if r.Sb_service.Sdk.timed_out then fail "run timed out before completion";
    if r.Sb_service.Sdk.ops_completed < r.Sb_service.Sdk.ops_invoked then
      fail "%d operations did not complete"
        (r.Sb_service.Sdk.ops_invoked - r.Sb_service.Sdk.ops_completed);
    let lat = Check.latency r.Sb_service.Sdk.latencies_ms in
    Printf.printf "latency (ms)    : p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n"
      lat.p50 lat.p95 lat.p99 lat.max;
    Printf.printf "network         : %d retransmissions, %d reconnects, %d \
                   recoveries observed\n"
      r.Sb_service.Sdk.retransmissions r.Sb_service.Sdk.reconnects
      r.Sb_service.Sdk.recoveries_observed;
    Printf.printf "schema          : %d downgrade(s) to wire v1, %d typed \
                   reject(s)\n"
      r.Sb_service.Sdk.downgrades
      (List.length r.Sb_service.Sdk.schema_rejects);
    List.iter
      (fun (s, detail) ->
        Printf.printf "schema reject   : server %d: %s\n" s detail)
      r.Sb_service.Sdk.schema_rejects;
    if r.Sb_service.Sdk.schema_rejects <> [] then
      fail "%d server(s) refused the schema handshake"
        (List.length r.Sb_service.Sdk.schema_rejects);
    (* Consistency: the run's trace through the same checkers the
       simulators use.  Open-loop runs record no trace (the observables
       are counters and latencies), so regularity is skipped there and
       the report carries no verdict for it. *)
    let verdicts =
      if open_loop then begin
        print_endline "regularity      : skipped (open loop records no trace)";
        []
      end
      else begin
        let reg =
          Check.regularity algo
            (Sb_spec.History.of_trace
               ~initial:(Sb_registers.Common.initial_value cfg)
               r.Sb_service.Sdk.trace)
        in
        Format.printf "weak regularity : %a@." Sb_spec.Regularity.pp_verdict
          reg.weak;
        Format.printf "%-16s: %a@." (reg.level_name ^ " reg.")
          Sb_spec.Regularity.pp_verdict reg.level;
        let weak_ok = Sb_spec.Regularity.ok reg.weak
        and level_ok = Sb_spec.Regularity.ok reg.level in
        if not weak_ok then fail "weak regularity violated";
        if not level_ok then fail "%s regularity violated" reg.level_name;
        [ ("weak_ok", Sb_util.Jsonx.bool weak_ok);
          ("algo_check_ok", Sb_util.Jsonx.bool level_ok) ]
      end
    in
    (* Storage vs the paper's bounds (Sb_faults.Livecheck). *)
    let kk = Catalog.code_k algo ~k in
    let c = if open_loop then max_inflight else writers in
    let bounds = Check.bounds ~f ~k:kk ~c ~d_bits:(8 * value_bytes) in
    let final_stats = r.Sb_service.Sdk.final_stats in
    let nkeys = if open_loop then Check.fleet_keys ~keys final_stats else 1 in
    let fleet = Check.fleet bounds ~keys:nkeys in
    let per_key_peak_bits = Check.per_key_peak_bits final_stats in
    let sum_max_bits = Check.sum_max_bits final_stats in
    let peak_bits =
      Check.peak_bits ~sampled:r.Sb_service.Sdk.peak_sampled_bits final_stats
    in
    if settle_ms > 0 then Unix.sleepf (float_of_int settle_ms /. 1000.0);
    let quiescent_stats =
      Sb_service.Sdk.fetch_stats ~sockdir ~servers:(List.init n Fun.id) ()
    in
    let final_bits = Check.quiescent_bits quiescent_stats in
    Printf.printf "storage (bits)  : peak %d (sampled %d, sum of maxima %d), \
                   quiescent %d\n"
      peak_bits r.Sb_service.Sdk.peak_sampled_bits sum_max_bits final_bits;
    if Catalog.bounded algo then
      List.iter judge
        (if open_loop then
           Check.open_verdicts bounds ~keys:nkeys
             ~per_key_peak:per_key_peak_bits ~peak:peak_bits
             ~quiescent:final_bits
         else
           Check.closed_verdicts bounds ~peak:peak_bits ~quiescent:final_bits)
    else print_endline "bounds          : skipped (not the adaptive algorithm)";
    (if List.length quiescent_stats < n then
       fail "only %d/%d servers answered the quiescent stats round"
         (List.length quiescent_stats)
         n);
    let throughput =
      float_of_int r.Sb_service.Sdk.ops_completed
      /. Float.max 1e-9 (r.Sb_service.Sdk.wall_ms /. 1000.0)
    in
    let ok_run = !failures = [] in
    Sb_util.Jsonx.write json
      ([
         ("algo", Sb_util.Jsonx.str algorithm.Sb_sim.Runtime.name);
         ("mode", Sb_util.Jsonx.str (if open_loop then "open" else "closed"));
         ("n", Sb_util.Jsonx.int n);
         ("f", Sb_util.Jsonx.int f);
         ("k", Sb_util.Jsonx.int kk);
         ("seed", Sb_util.Jsonx.int seed);
         ("ops", Sb_util.Jsonx.int r.Sb_service.Sdk.ops_completed);
         ("throughput_ops_s", Sb_util.Jsonx.float throughput);
         ( "ms_per_op",
           Sb_util.Jsonx.float (1000.0 /. Float.max 1e-9 throughput) );
         ("p50_ms", Sb_util.Jsonx.float lat.p50);
         ("p95_ms", Sb_util.Jsonx.float lat.p95);
         ("p99_ms", Sb_util.Jsonx.float lat.p99);
         ("max_ms", Sb_util.Jsonx.float lat.max);
         ("batch", Sb_util.Jsonx.int batch);
         ("flush_ms", Sb_util.Jsonx.int flush_ms);
         ("batches_sent", Sb_util.Jsonx.int r.Sb_service.Sdk.batches_sent);
         ("frames_sent", Sb_util.Jsonx.int r.Sb_service.Sdk.frames_sent);
         ("peak_bits", Sb_util.Jsonx.int peak_bits);
         ("ceiling_bits", Sb_util.Jsonx.int bounds.ceiling_bits);
         ("quiescent_bits", Sb_util.Jsonx.int final_bits);
         ("floor_bits", Sb_util.Jsonx.int bounds.floor_bits);
         ("retransmissions", Sb_util.Jsonx.int r.Sb_service.Sdk.retransmissions);
         ("reconnects", Sb_util.Jsonx.int r.Sb_service.Sdk.reconnects);
         ("recoveries", Sb_util.Jsonx.int r.Sb_service.Sdk.recoveries_observed);
         ("downgrades", Sb_util.Jsonx.int r.Sb_service.Sdk.downgrades);
         ( "schema_rejects",
           Sb_util.Jsonx.int (List.length r.Sb_service.Sdk.schema_rejects) );
       ]
      @ verdicts
      @ (if open_loop then
           [
             ("rate_target_ops_s", Sb_util.Jsonx.float rate);
             ("duration_ms", Sb_util.Jsonx.int duration_ms);
             ("keys", Sb_util.Jsonx.int keys);
             ("key_dist", Sb_util.Jsonx.str key_dist);
             ("write_ratio", Sb_util.Jsonx.float write_ratio);
             ("max_inflight", Sb_util.Jsonx.int max_inflight);
             ("per_key_peak_bits", Sb_util.Jsonx.int per_key_peak_bits);
             ("per_key_ceiling_bits", Sb_util.Jsonx.int bounds.ceiling_bits);
             ("fleet_ceiling_bits", Sb_util.Jsonx.int fleet.ceiling_bits);
             ("fleet_floor_bits", Sb_util.Jsonx.int fleet.floor_bits);
             ("gate_min_throughput_ops_s", Sb_util.Jsonx.float 900.0);
             ("gate_max_p99_ms", Sb_util.Jsonx.float 50.0);
           ]
         else [])
      @ [ ("ok", Sb_util.Jsonx.bool ok_run) ]);
    (if check then begin
       let baseline =
         Filename.concat "bench/baselines" (Filename.basename json)
       in
       let within, gates =
         Check.baseline_gate ~current:json ~baseline ~throughput ~p99:lat.p99
       in
       if not within then fail "regression against baseline %s" baseline;
       List.iter judge gates
     end);
    let ok = !failures = [] in
    if not ok then begin
      List.iter (Printf.printf "loadgen FAIL    : %s\n") (List.rev !failures);
      exit 1
    end;
    print_endline "loadgen         : ok"
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a seeded workload against a live cluster, closed-loop by \
             default or open-loop ($(b,--open-loop)) with Poisson arrivals \
             over many keys: throughput and coordinated-omission-safe latency \
             percentiles, storage sampled from the stats endpoint and checked \
             against the Theorem 2 ceiling (per key and fleet-wide) during \
             the run and the (2f+k)D/k GC floor after quiescence, and \
             closed-loop histories checked for regularity.  $(b,--check) \
             gates the run against a committed baseline in bench/baselines.")
    Term.(
      const run $ algo_arg $ value_bytes_arg $ serve_f_arg $ serve_k_arg
      $ seed_arg $ writers_arg $ writes_each_arg $ readers_arg
      $ reads_each_arg $ sockdir_arg $ rto_arg $ max_attempts_arg $ sample_arg
      $ deadline_arg $ settle_arg $ think_arg $ json_arg $ open_loop_arg
      $ rate_arg $ duration_arg $ keys_arg $ key_dist_arg $ write_ratio_arg
      $ max_inflight_arg $ batch_arg $ flush_arg $ check_arg)

(* ------------------------------------------------------------------ *)
(* schema — dump the wire schema, certify cross-version compatibility  *)
(* ------------------------------------------------------------------ *)

let schema_cmd =
  let module Sch = Sb_schema.Schema in
  let module Compat = Sb_schema.Compat in
  let module W = Sb_service.Wire in
  let golden_path dir v = Filename.concat dir (Printf.sprintf "v%d.json" v) in
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let version_ok v = v >= W.min_version && v <= W.version in
  let dump_cmd =
    let version_arg =
      Arg.(
        value & opt int W.version
        & info [ "schema-version" ] ~docv:"N"
            ~doc:"Wire version to describe (default: the newest).")
    in
    let out_arg =
      Arg.(
        value & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE"
            ~doc:"Write to $(docv) instead of stdout (this is how the golden \
                  schemas/v<N>.json files are (re)generated).")
    in
    let run v out =
      if not (version_ok v) then begin
        Printf.eprintf "schema dump: version %d outside %d..%d\n" v
          W.min_version W.version;
        exit 2
      end;
      let json = Sch.to_json (W.schema_v ~version:v) in
      match out with
      | None -> print_string json
      | Some file ->
        let oc = open_out file in
        output_string oc json;
        close_out oc;
        Printf.printf "wrote %s (hash %s)\n" file
          (Sch.hash_hex (W.schema_v ~version:v))
    in
    Cmd.v
      (Cmd.info "dump"
         ~doc:"Print the wire schema as canonical JSON.  It comes from the \
               same layout declarations as the codec, so it cannot drift.")
      Term.(const run $ version_arg $ out_arg)
  in
  let check_cmd =
    let dir_arg =
      Arg.(
        value & opt string "schemas"
        & info [ "dir" ] ~docv:"DIR"
            ~doc:"Directory of committed golden v<N>.json schemas.")
    in
    let all_arg =
      Arg.(
        value & flag
        & info [ "all" ]
            ~doc:"Also run the seeded negative controls: a reordered field \
                  pair and a narrowed scalar, both of which the certifier \
                  must refute (the reorder with a concrete MISINTERPRET \
                  counterexample) or it has lost its teeth.")
    in
    let old_arg =
      Arg.(
        value & opt (some file) None
        & info [ "old" ] ~docv:"FILE" ~doc:"Writer-side schema JSON file.")
    in
    let new_arg =
      Arg.(
        value & opt (some file) None
        & info [ "new" ] ~docv:"FILE" ~doc:"Reader-side schema JSON file.")
    in
    let json_arg =
      Arg.(
        value & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Write the full machine-readable report (every cell, every \
                  counterexample) to $(docv).")
    in
    let run dir all old_f new_f json =
      let module J = Sb_util.Jsonx in
      let failures = ref [] in
      let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
      let results = ref [] in
      let note_result label (r : Compat.result) =
        results := (label, r) :: !results;
        print_string (Compat.render r);
        print_newline ()
      in
      let drift_notes = ref [] in
      (match (old_f, new_f) with
       | Some o, Some nw ->
         (* Explicit file-vs-file mode. *)
         let load path =
           match Sch.of_json (read_file path) with
           | Ok s -> s
           | Error e ->
             Printf.eprintf "schema check: %s: %s\n" path e;
             exit 2
         in
         let r = Compat.check ~old_:(load o) ~new_:(load nw) in
         note_result (Printf.sprintf "%s -> %s" o nw) r;
         if not r.Compat.r_compatible then
           fail "%s and %s are incompatible" o nw
       | Some _, None | None, Some _ ->
         prerr_endline "schema check: --old and --new go together";
         exit 2
       | None, None ->
         (* 1. Golden drift gate: the committed description of every
            supported version must equal the one the codec produces. *)
         for v = W.min_version to W.version do
           let code = W.schema_v ~version:v in
           let path = golden_path dir v in
           if not (Sys.file_exists path) then
             fail "golden %s missing (regenerate: spacebounds schema dump \
                   --schema-version %d -o %s)"
               path v path
           else
             match Sch.of_json (read_file path) with
             | Error e -> fail "golden %s unreadable: %s" path e
             | Ok golden ->
               if Sch.equal golden code then
                 Printf.printf "golden v%d      : %s matches the code (hash %s)\n"
                   v path (Sch.hash_hex code)
               else begin
                 fail "golden %s drifted from the code (an edit without a \
                       version bump)" path;
                 List.iter
                   (fun line ->
                     drift_notes := line :: !drift_notes;
                     Printf.printf "  drift: %s\n" line)
                   (Sch.diff golden code)
               end
         done;
         (* 2. Every consecutive version pair must be certified
            compatible in both directions. *)
         for v = W.min_version to W.version - 1 do
           let r =
             Compat.check ~old_:(W.schema_v ~version:v)
               ~new_:(W.schema_v ~version:(v + 1))
           in
           note_result (Printf.sprintf "v%d <-> v%d" v (v + 1)) r;
           if not r.Compat.r_compatible then
             fail "wire v%d and v%d are not decode-compatible" v (v + 1)
         done;
         (* 3. The teeth: seeded incompatible edits must be refuted. *)
         if all then
           List.iter
             (fun (name, desc, edited) ->
               let r = Compat.check ~old_:W.schema ~new_:edited in
               note_result (Printf.sprintf "seeded:%s" name) r;
               if r.Compat.r_compatible then
                 fail "seeded edit %S was NOT refuted (%s)" name desc
               else begin
                 Printf.printf "seeded %-26s: refuted, as it must be (%s)\n"
                   name desc;
                 if name = "reordered-welcome-fields" then begin
                   let has_witness =
                     List.exists
                       (fun (c : Compat.cell) ->
                         c.Compat.c_verdict = Compat.Misinterpret
                         && c.Compat.c_witness <> None)
                       r.Compat.r_cells
                   in
                   if not has_witness then
                     fail "seeded edit %S refuted without a concrete \
                           MISINTERPRET counterexample"
                       name
                 end
               end)
             (Compat.seeded_edits W.schema));
      let ok = !failures = [] in
      (match json with
       | None -> ()
       | Some file ->
         let body =
           J.obj
             [
               ("suite", J.str "schema-check");
               ("ok", J.bool ok);
               ("newest_version", J.int W.version);
               ("newest_hash", J.str W.schema_hash_hex);
               ( "drift",
                 J.arr (List.rev_map (fun l -> J.str l) !drift_notes) );
               ( "failures",
                 J.arr (List.rev_map (fun l -> J.str l) !failures) );
               ( "checks",
                 J.arr
                   (List.rev_map
                      (fun (label, r) ->
                        J.obj
                          [
                            ("label", J.str label);
                            ("result", Compat.result_json r);
                          ])
                      !results) );
             ]
         in
         let oc = open_out file in
         output_string oc body;
         output_char oc '\n';
         close_out oc;
         Printf.printf "wrote %s\n" file);
      if ok then print_endline "SCHEMA: ok"
      else begin
        List.iter (Printf.printf "SCHEMA FAIL     : %s\n") (List.rev !failures);
        print_endline "SCHEMA: FAIL";
        exit 1
      end
    in
    Cmd.v
      (Cmd.info "check"
         ~doc:"Certify wire-schema compatibility: diff the committed golden \
               schemas against the codec's own description (drift gate), \
               classify every cross-version (writer, reader) field pair over \
               the tag/width lattice, and fail with a concrete counterexample \
               payload on any possible misinterpretation.")
      Term.(const run $ dir_arg $ all_arg $ old_arg $ new_arg $ json_arg)
  in
  Cmd.group
    (Cmd.info "schema"
       ~doc:"Self-describing wire schemas: dump the codec's layout \
             description, statically certify old/new compatibility, refute \
             seeded incompatible edits.")
    [ dump_cmd; check_cmd ]

(* ------------------------------------------------------------------ *)
(* quorums                                                             *)
(* ------------------------------------------------------------------ *)

let quorums_cmd =
  let n_arg =
    Arg.(value & opt int 6 & info [ "n" ] ~docv:"N" ~doc:"Number of base objects.")
  in
  let run n f k =
    let module Q = Sb_quorums.Quorum in
    let system, verdict = Q.register_requirements ~n ~f ~k in
    Printf.printf "quorum system     : %s\n" system.Q.name;
    Printf.printf "n >= 2f + k       : %b  (n=%d, f=%d, k=%d)\n" (n >= (2 * f) + k) n f k;
    if n <= 20 then begin
      Printf.printf "available after f : %b\n" (Q.available_after system ~failures:f);
      Printf.printf "min intersection  : %d (need >= k = %d)\n"
        (Q.min_intersection system) k;
      let minimal = Q.minimal_quorums system in
      Printf.printf "minimal quorums   : %d of size %d\n" (List.length minimal)
        (match minimal with q :: _ -> List.length q | [] -> 0)
    end;
    Printf.printf "register-ready    : %b\n" verdict
  in
  Cmd.v
    (Cmd.info "quorums"
       ~doc:"Check the quorum-system requirements behind 'await n - f responses'.")
    Term.(const run $ n_arg $ f_arg $ k_arg)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let src_arg =
    Arg.(
      value & opt string "lib"
      & info [ "src" ] ~docv:"DIR" ~doc:"Source tree to lint (default lib).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the report as JSON to $(docv).")
  in
  let algebra_only_arg =
    Arg.(
      value & flag
      & info [ "algebra-only" ]
          ~doc:"Only certify the RMW algebra; skip the source lint.")
  in
  let src_only_arg =
    Arg.(
      value & flag
      & info [ "src-only" ]
          ~doc:"Only run the source lint; skip the algebra certifier.")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Print the full independence matrix and pragma-allowed findings.")
  in
  let run src json algebra_only src_only verbose =
    let module A = Sb_analyze.Certify in
    let module L = Sb_analyze.Lint in
    let module Rep = Sb_analyze.Report in
    let failed = ref false in
    let algebra =
      if src_only then None
      else begin
        let t0 = Unix.gettimeofday () in
        let c = A.run () in
        Printf.printf
          "algebra: certified %d constructors over %d states x %d descriptions \
           (%d applies, %.2fs)\n"
          (List.length c.A.entries) c.A.n_states c.A.n_descs c.A.applies
          (Unix.gettimeofday () -. t0);
        if verbose then Format.printf "%a@." A.pp c;
        List.iter
          (fun (g : Rep.gate) ->
            Printf.printf "  %s %s: %s\n"
              (if g.Rep.g_ok then "[ok]" else "[FAIL]")
              g.g_name g.g_detail;
            if not g.g_ok then failed := true)
          (Rep.gates c);
        Some c
      end
    in
    let lint =
      if algebra_only then None
      else begin
        let rp = L.lint_tree ~root:src in
        let active = L.failures rp in
        let allowed =
          List.length rp.L.rp_findings - List.length active
        in
        Printf.printf "lint: %d files under %s: %d finding(s), %d allowed by pragma\n"
          rp.L.rp_files src (List.length active) allowed;
        List.iter (fun f -> Format.printf "  %a@." L.pp_finding f) active;
        if verbose then
          List.iter
            (fun f -> if not (L.active f) then Format.printf "  %a@." L.pp_finding f)
            rp.rp_findings;
        List.iter
          (fun (file, e) -> Printf.printf "  %s: parse error: %s\n" file e)
          rp.rp_errors;
        if active <> [] || rp.rp_errors <> [] then failed := true;
        Some rp
      end
    in
    (match json with
    | Some path ->
      Rep.write ~path (Rep.json ?algebra ?lint ());
      Printf.printf "wrote %s\n" path
    | None -> ());
    if !failed then begin
      print_endline "LINT: FAIL";
      exit 1
    end
    else print_endline "LINT: ok"
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Certify the RMW algebra (natures, idempotence, pairwise commutation) \
          and lint the sources for determinism hazards.")
    Term.(
      const run $ src_arg $ json_arg $ algebra_only_arg $ src_only_arg $ verbose_arg)

let () =
  let doc = "Space bounds for reliable storage (PODC 2016) — reproduction." in
  let info = Cmd.info "spacebounds" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            experiments_cmd; lower_bound_cmd; simulate_cmd; explore_cmd;
            replay_cmd; demo_cmd; quorums_cmd; audit_cmd; chaos_cmd;
            serve_cmd; loadgen_cmd; lint_cmd; schema_cmd;
          ]))
