(* Tests for the message-passing emulation: the same register protocols
   running over request/response messages instead of shared memory, with
   channel contents counted as storage (paper Section 3.2). *)

module MP = Sb_msgnet.Mp_runtime
module R = Sb_sim.Runtime
module Trace = Sb_sim.Trace
module Common = Sb_registers.Common
module Codec = Sb_codec.Codec

let value_bytes = 32
let v i = Sb_util.Values.distinct ~value_bytes i
let v0 = Bytes.make value_bytes '\000'

let coded_cfg ~f ~k =
  let n = (2 * f) + k in
  { Common.n; f; codec = Codec.rs_vandermonde ~value_bytes ~k ~n }

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let run ?(seed = 1) ?policy ~algorithm ~(cfg : Common.config) workload =
  let policy = match policy with Some p -> p | None -> MP.random_policy ~seed () in
  let w = MP.create ~seed ~algorithm ~n:cfg.n ~f:cfg.f ~workload () in
  let outcome = MP.run w policy in
  (w, outcome)

let read_results w =
  List.filter_map
    (fun (_, kind, _, ret, res) ->
      match (kind, ret) with Trace.Read, Some _ -> Some res | _ -> None)
    (Trace.operations (MP.trace w))

let history w = Sb_spec.History.of_trace ~initial:v0 (MP.trace w)
let is_ok = function Sb_spec.Regularity.Ok -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* The same protocols work over messages                               *)
(* ------------------------------------------------------------------ *)

let test_adaptive_round_trip () =
  let cfg = coded_cfg ~f:2 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w, outcome =
    run ~policy:(MP.fifo_policy ()) ~algorithm ~cfg
      [| [ Trace.Write (v 1); Trace.Read ] |]
  in
  Alcotest.(check bool) "quiescent" true outcome.MP.quiescent;
  Alcotest.(check (list (option bytes))) "round trip" [ Some (v 1) ] (read_results w)

let test_abd_round_trip () =
  let n = 5 and f = 2 in
  let cfg = { Common.n; f; codec = Codec.replication ~value_bytes ~n } in
  let algorithm = Sb_registers.Abd.make cfg in
  let w, _ =
    run ~policy:(MP.fifo_policy ()) ~algorithm ~cfg
      [| [ Trace.Write (v 2); Trace.Read ] |]
  in
  Alcotest.(check (list (option bytes))) "round trip" [ Some (v 2) ] (read_results w)

let test_adaptive_regular_over_messages =
  qtest "adaptive: strongly regular over random message delivery"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let cfg = coded_cfg ~f:2 ~k:2 in
      let algorithm = Sb_registers.Adaptive.make cfg in
      let workload =
        Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers:3
          ~writes_each:2 ~readers:2 ~reads_each:2
      in
      let w, outcome = run ~seed ~algorithm ~cfg workload in
      outcome.MP.quiescent && is_ok (Sb_spec.Regularity.check_strong (history w)))

let test_safe_over_messages =
  qtest "safe register: safe over random message delivery"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let cfg = coded_cfg ~f:2 ~k:2 in
      let algorithm = Sb_registers.Safe_register.make cfg in
      let workload =
        Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers:3
          ~writes_each:2 ~readers:2 ~reads_each:2
      in
      let w, outcome = run ~seed ~algorithm ~cfg workload in
      outcome.MP.quiescent && is_ok (Sb_spec.Regularity.check_safe (history w)))

(* ------------------------------------------------------------------ *)
(* Crashes                                                             *)
(* ------------------------------------------------------------------ *)

let test_server_crashes_tolerated () =
  let cfg = coded_cfg ~f:2 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let workload =
    Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers:2
      ~writes_each:2 ~readers:2 ~reads_each:2
  in
  let policy = MP.random_policy ~crash_servers:[ (10, 0); (40, 3) ] ~seed:9 () in
  let w, outcome = run ~policy ~algorithm ~cfg workload in
  Alcotest.(check bool) "quiescent with f crashed servers" true outcome.MP.quiescent;
  Alcotest.(check bool) "server 0 dead" false (MP.server_alive w 0);
  let ops = Trace.operations (MP.trace w) in
  Alcotest.(check int) "all ops complete" (List.length ops)
    (List.length (List.filter (fun (_, _, _, ret, _) -> ret <> None) ops));
  Alcotest.(check bool) "still strongly regular" true
    (is_ok (Sb_spec.Regularity.check_strong (history w)))

let test_crash_budget () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~algorithm ~n:cfg.n ~f:cfg.f ~workload:[||] () in
  ignore (MP.step w (MP.Crash_server 0));
  Alcotest.(check bool) "second crash exceeds f" true
    (try ignore (MP.step w (MP.Crash_server 1)); false
     with Invalid_argument _ -> true)

let test_crash_budget_with_recovery () =
  let cfg = coded_cfg ~f:1 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~algorithm ~n:cfg.n ~f:cfg.f ~workload:[||] () in
  ignore (MP.step w (MP.Crash_server 0));
  (* The f budget is over concurrent crashes: a recovery frees it. *)
  ignore (MP.step w (MP.Recover_server 0));
  Alcotest.(check bool) "server 0 back" true (MP.server_alive w 0);
  Alcotest.(check int) "fresh incarnation" 2 (MP.server_incarnation w 0);
  ignore (MP.step w (MP.Crash_server 1));
  Alcotest.(check bool) "budget full again" true
    (try ignore (MP.step w (MP.Crash_server 2)); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "recovering a live server is invalid" true
    (try ignore (MP.step w (MP.Recover_server 0)); false
     with Invalid_argument _ -> true)

(* Regression: a crash must shed the crashed server's in-channel
   requests from the channel accounting — exactly those bits, nothing
   else. *)
let test_crash_drops_channel_bits () =
  let cfg = coded_cfg ~f:2 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1) ] |] () in
  (* Round 1 (readValue), then resume into round 2: update requests
     carrying write payloads are now in flight. *)
  ignore (MP.step w (MP.Step 0));
  List.iter (fun (m : MP.message_info) -> ignore (MP.step w (MP.Deliver_msg m.msg_id)))
    (MP.deliverable w);
  List.iter (fun (m : MP.message_info) -> ignore (MP.step w (MP.Deliver_msg m.msg_id)))
    (MP.deliverable w);
  ignore (MP.step w (MP.Step 0));
  let before = MP.storage_bits_channels w in
  let to_crashed =
    List.filter
      (fun (m : MP.message_info) -> m.kind = MP.Request && m.m_server = 0)
      (MP.in_flight w)
  in
  let crashed_bits =
    List.fold_left (fun acc (m : MP.message_info) -> acc + m.m_bits) 0 to_crashed
  in
  Alcotest.(check bool) "a payload-carrying request addressed to server 0" true
    (crashed_bits > 0);
  ignore (MP.step w (MP.Crash_server 0));
  Alcotest.(check int) "channel bits shed exactly the crashed server's requests"
    (before - crashed_bits) (MP.storage_bits_channels w);
  Alcotest.(check int) "dropped_at_crash counts them"
    (List.length to_crashed) (MP.net_stats w).MP.dropped_at_crash;
  Alcotest.(check bool) "no request to server 0 remains" true
    (List.for_all
       (fun (m : MP.message_info) -> m.kind <> MP.Request || m.m_server <> 0)
       (MP.in_flight w));
  (* The write still completes against the surviving quorum. *)
  let outcome = MP.run w (MP.random_policy ~seed:2 ()) in
  Alcotest.(check bool) "quiescent" true outcome.MP.quiescent;
  let ops = Trace.operations (MP.trace w) in
  Alcotest.(check int) "write returned" (List.length ops)
    (List.length (List.filter (fun (_, _, _, ret, _) -> ret <> None) ops))

(* ------------------------------------------------------------------ *)
(* Channel accounting                                                  *)
(* ------------------------------------------------------------------ *)

let test_request_payload_in_channel () =
  let cfg = coded_cfg ~f:2 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1) ] |] () in
  (* Step the writer: round 1 (readValue) requests have no payload. *)
  ignore (MP.step w (MP.Step 0));
  Alcotest.(check int) "read requests carry no blocks" 0 (MP.storage_bits_channels w);
  Alcotest.(check int) "n requests in flight" cfg.n (List.length (MP.in_flight w));
  (* Deliver all requests: the responses are snapshots carrying the
     initial pieces — channel bits appear. *)
  List.iter (fun (m : MP.message_info) -> ignore (MP.step w (MP.Deliver_msg m.msg_id)))
    (MP.deliverable w);
  let piece_bits = Codec.block_bits cfg.codec 0 in
  Alcotest.(check int) "snapshot responses carry the stored pieces"
    (cfg.n * piece_bits)
    (MP.storage_bits_channels w);
  (* Deliver responses; resume: update requests now carry write payloads. *)
  List.iter (fun (m : MP.message_info) -> ignore (MP.step w (MP.Deliver_msg m.msg_id)))
    (MP.deliverable w);
  ignore (MP.step w (MP.Step 0));
  Alcotest.(check bool) "update requests carry blocks" true
    (MP.storage_bits_channels w > 0);
  Alcotest.(check bool) "channel maxima track" true
    (MP.max_bits_channels w >= cfg.n * piece_bits)

let test_channel_cost_of_reads () =
  (* The paper's Section 3.2 point: response traffic carries object
     state, so read-heavy workloads move storage into channels. *)
  let cfg = coded_cfg ~f:2 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let workload =
    Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers:1
      ~writes_each:1 ~readers:4 ~reads_each:3
  in
  let w, _ = run ~seed:3 ~algorithm ~cfg workload in
  Alcotest.(check bool) "channels carried more bits than servers stored" true
    (MP.max_bits_channels w >= MP.max_bits_servers w)

(* ------------------------------------------------------------------ *)
(* Runtime mechanics                                                   *)
(* ------------------------------------------------------------------ *)

let test_determinism () =
  let cfg = coded_cfg ~f:2 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let workload =
    Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers:2
      ~writes_each:2 ~readers:1 ~reads_each:2
  in
  let run_once () =
    let w, outcome = run ~seed:11 ~algorithm ~cfg workload in
    (outcome.MP.steps, MP.max_bits_servers w, MP.max_bits_channels w, read_results w)
  in
  Alcotest.(check bool) "identical replays" true (run_once () = run_once ())

(* One seeded faulty run, pinned byte for byte: message loss,
   duplication, retransmission and a server crash and recovery all
   happen, and the trace plus the fault counters hash to a fixed
   digest.  Any change to how the runtime numbers, sends, resends or
   traces moves the digest. *)
let test_faulty_run_pinned () =
  let cfg = coded_cfg ~f:2 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let workload =
    Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers:2
      ~writes_each:2 ~readers:1 ~reads_each:2
  in
  let w =
    MP.create ~seed:5 ~retransmit:{ MP.rto = 8; max_attempts = 0 } ~algorithm
      ~n:cfg.n ~f:cfg.f ~workload ()
  in
  let plan =
    Sb_faults.Plan.lossy ~duplicate:0.15 0.15
    |> Sb_faults.Plan.crash_recovery ~server:1 ~crash_at:30 ~recover_at:120
  in
  let outcome = MP.run w (Sb_faults.Inject.policy ~seed:9 plan) in
  let s = MP.net_stats w in
  Alcotest.(check bool) "quiescent" true outcome.MP.quiescent;
  Alcotest.(check bool) "every fault happened" true
    (s.MP.dropped > 0 && s.MP.duplicated > 0 && s.MP.retransmissions > 0
    && s.MP.recoveries = 1);
  let stats_line =
    Printf.sprintf "dropped=%d duplicated=%d retransmissions=%d fenced=%d \
                    dedup_hits=%d dropped_at_crash=%d recoveries=%d"
      s.MP.dropped s.MP.duplicated s.MP.retransmissions s.MP.fenced
      s.MP.dedup_hits s.MP.dropped_at_crash s.MP.recoveries
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n" (Trace.to_lines (MP.trace w) @ [ stats_line ])))
  in
  Alcotest.(check string) "fault counters"
    "dropped=60 duplicated=69 retransmissions=97 fenced=0 dedup_hits=62 \
     dropped_at_crash=2 recoveries=1"
    stats_line;
  Alcotest.(check string) "trace and counters digest"
    "a36f86b221115b26666180f72cdbb9ec" digest

let test_message_ordering_not_fifo () =
  (* The channel is unordered: under random delivery, messages can
     overtake each other.  Witness: some run delivers a later-sent
     message first. *)
  let cfg = coded_cfg ~f:2 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1) ] |] () in
  ignore (MP.step w (MP.Step 0));
  let msgs = MP.deliverable w in
  Alcotest.(check bool) "several in flight" true (List.length msgs > 1);
  (* Deliver the newest first — allowed; it turns into a response to the
     same ticket. *)
  let newest = List.nth msgs (List.length msgs - 1) in
  ignore (MP.step w (MP.Deliver_msg newest.MP.msg_id));
  Alcotest.(check bool) "request consumed" true
    (List.for_all (fun (m : MP.message_info) -> m.msg_id <> newest.MP.msg_id)
       (MP.deliverable w));
  Alcotest.(check bool) "response to the same ticket in flight" true
    (List.exists
       (fun (m : MP.message_info) ->
         m.kind = MP.Response && m.m_ticket = newest.MP.m_ticket)
       (MP.deliverable w))

let test_fifo_channels () =
  let cfg = coded_cfg ~f:2 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~fifo:true ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1); Trace.Write (v 2) ] |] () in
  ignore (MP.step w (MP.Step 0));
  (* Two requests on the same channel exist only after two rounds; at
     this point each channel has one message, so FIFO filters nothing. *)
  Alcotest.(check int) "all heads deliverable" cfg.n (List.length (MP.deliverable w));
  (* Run to completion under random FIFO delivery: correctness holds. *)
  let outcome = MP.run w (MP.random_policy ~seed:5 ()) in
  Alcotest.(check bool) "quiescent" true outcome.MP.quiescent;
  let h = history w in
  Alcotest.(check bool) "still strongly regular" true
    (is_ok (Sb_spec.Regularity.check_strong h))

let test_fifo_ordering_enforced () =
  let cfg = coded_cfg ~f:2 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  (* Two clients to the same servers: their channels are independent,
     but within a channel order is enforced.  Get two messages onto one
     channel by letting the client advance two rounds without the first
     round's response... not possible (rounds await); instead check the
     runtime-level guard directly by delivering out of order. *)
  let w = MP.create ~fifo:true ~algorithm ~n:cfg.n ~f:cfg.f
      ~workload:[| [ Trace.Write (v 1) ] |] () in
  ignore (MP.step w (MP.Step 0));
  (* Deliver all requests, then the resulting responses. *)
  List.iter (fun (m : MP.message_info) -> ignore (MP.step w (MP.Deliver_msg m.msg_id)))
    (MP.deliverable w);
  List.iter (fun (m : MP.message_info) -> ignore (MP.step w (MP.Deliver_msg m.msg_id)))
    (MP.deliverable w);
  ignore (MP.step w (MP.Step 0));
  (* Now round-2 requests are in flight; every channel again has exactly
     one message plus possibly a stale response.  All deliverable
     messages must be channel heads. *)
  List.iter
    (fun (m : MP.message_info) ->
      Alcotest.(check bool) "deliverable implies channel head" true
        (List.for_all
           (fun (m' : MP.message_info) ->
             m'.kind <> m.kind || m'.m_client <> m.m_client
             || m'.m_server <> m.m_server || m'.msg_id >= m.msg_id)
           (MP.in_flight w)))
    (MP.deliverable w)

let test_invalid_decisions () =
  let cfg = coded_cfg ~f:2 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let w = MP.create ~algorithm ~n:cfg.n ~f:cfg.f ~workload:[| [] |] () in
  Alcotest.(check bool) "unknown message" true
    (try ignore (MP.step w (MP.Deliver_msg 42)); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "idle client" true
    (try ignore (MP.step w (MP.Step 0)); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad f" true
    (try ignore (MP.create ~algorithm ~n:2 ~f:1 ~workload:[||] ()); false
     with Invalid_argument _ -> true)

(* Shared-memory and message-passing emulations agree on the final
   state of a synchronous (fifo) failure-free run. *)
let test_agrees_with_shared_memory () =
  let cfg = coded_cfg ~f:2 ~k:2 in
  let algorithm = Sb_registers.Adaptive.make cfg in
  let workload = [| [ Trace.Write (v 1); Trace.Write (v 2); Trace.Read ] |] in
  let wm = MP.create ~algorithm ~n:cfg.n ~f:cfg.f ~workload () in
  ignore (MP.run wm (MP.fifo_policy ()));
  let ws = R.create ~algorithm ~n:cfg.n ~f:cfg.f ~workload () in
  ignore (R.run ws (R.fifo_policy ()));
  Alcotest.(check int) "same final storage"
    (R.storage_bits_objects ws) (MP.storage_bits_servers wm);
  let reads_sm =
    List.filter_map
      (fun (_, kind, _, _, res) ->
        match kind with Trace.Read -> Some res | _ -> None)
      (Trace.operations (R.trace ws))
  in
  Alcotest.(check (list (option bytes))) "same read results" reads_sm (read_results wm)

(* Every register algorithm runs correctly over both channel semantics. *)
let test_algorithm_matrix () =
  let cfg = coded_cfg ~f:2 ~k:2 in
  let cfg_abd =
    { Common.n = 5; f = 2; codec = Codec.replication ~value_bytes ~n:5 }
  in
  let algorithms =
    [
      ("abd", Sb_registers.Abd.make cfg_abd, cfg_abd);
      ("abd-atomic", Sb_registers.Abd_atomic.make cfg_abd, cfg_abd);
      ("adaptive", Sb_registers.Adaptive.make cfg, cfg);
      ("pure-ec", Sb_registers.Adaptive.make_unbounded cfg, cfg);
      ("versioned", Sb_registers.Adaptive.make_versioned ~delta:1 cfg, cfg);
      ("safe", Sb_registers.Safe_register.make cfg, cfg);
      ("rateless", Sb_registers.Rateless.make ~codec_seed:7 cfg, cfg);
    ]
  in
  List.iter
    (fun (name, algorithm, cfg) ->
      List.iter
        (fun fifo ->
          let workload = [| [ Trace.Write (v 5); Trace.Read ] |] in
          let w = MP.create ~fifo ~algorithm ~n:cfg.Common.n ~f:cfg.Common.f ~workload () in
          let outcome = MP.run w (MP.random_policy ~seed:9 ()) in
          Alcotest.(check bool)
            (Printf.sprintf "%s fifo=%b quiescent" name fifo)
            true outcome.MP.quiescent;
          Alcotest.(check (list (option bytes)))
            (Printf.sprintf "%s fifo=%b round trip" name fifo)
            [ Some (v 5) ] (read_results w))
        [ false; true ])
    algorithms

let () =
  Alcotest.run "msgnet"
    [
      ( "protocols",
        [
          Alcotest.test_case "adaptive round trip" `Quick test_adaptive_round_trip;
          Alcotest.test_case "abd round trip" `Quick test_abd_round_trip;
          test_adaptive_regular_over_messages;
          test_safe_over_messages;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "f server crashes tolerated" `Quick
            test_server_crashes_tolerated;
          Alcotest.test_case "crash budget" `Quick test_crash_budget;
          Alcotest.test_case "crash budget with recovery" `Quick
            test_crash_budget_with_recovery;
          Alcotest.test_case "crash drops channel bits" `Quick
            test_crash_drops_channel_bits;
        ] );
      ( "channels",
        [
          Alcotest.test_case "request payloads counted" `Quick
            test_request_payload_in_channel;
          Alcotest.test_case "read traffic dominates" `Quick test_channel_cost_of_reads;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "faulty run pinned" `Quick test_faulty_run_pinned;
          Alcotest.test_case "non-fifo delivery" `Quick test_message_ordering_not_fifo;
          Alcotest.test_case "fifo channels" `Quick test_fifo_channels;
          Alcotest.test_case "fifo ordering enforced" `Quick test_fifo_ordering_enforced;
          Alcotest.test_case "invalid decisions" `Quick test_invalid_decisions;
          Alcotest.test_case "agrees with shared memory" `Quick
            test_agrees_with_shared_memory;
          Alcotest.test_case "algorithm x channel matrix" `Quick test_algorithm_matrix;
        ] );
    ]
