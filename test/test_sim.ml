(* Tests for the discrete-event simulator: scheduling semantics,
   trigger/await, crashes, storage accounting hooks, policies. *)

module R = Sb_sim.Runtime
module Trace = Sb_sim.Trace
module Objstate = Sb_storage.Objstate
module Block = Sb_storage.Block
module Chunk = Sb_storage.Chunk
module Ts = Sb_storage.Timestamp

let value_bytes = 16
let v i = Sb_util.Values.distinct ~value_bytes i

(* A tiny test protocol: a write appends one 1-byte block to every
   object and awaits [quorum]; a read snapshots every object and returns
   the chunk count of the first response as a byte. *)
let append_algorithm ~n ~quorum : R.algorithm =
  let append_rmw ~op st =
    let block = Block.v ~source:op ~index:(Objstate.chunk_count st) (Bytes.make 1 'x') in
    ( { st with Objstate.vp = Chunk.v ~ts:Ts.zero block :: st.Objstate.vp },
      R.Ack )
  in
  {
    name = "append";
    init_obj = (fun _ -> Objstate.init ());
    write =
      (fun ctx _v ->
        let tickets =
          R.broadcast_rmw ~n ~payload:(fun _ -> []) (fun _ ->
              append_rmw ~op:ctx.op.id)
        in
        ignore (R.await ~tickets ~quorum));
    read =
      (fun _ctx ->
        let tickets =
          R.broadcast_rmw ~n ~payload:(fun _ -> []) (fun _ st -> (st, R.Snap st))
        in
        match R.await ~tickets ~quorum with
        | (_, R.Snap st) :: _ -> Some (Bytes.make 1 (Char.chr (Objstate.chunk_count st)))
        | _ -> None);
  }

let run_with ?(n = 3) ?(f = 1) ?(quorum = 2) ?(seed = 1) ?max_steps ~workload policy_of
    () =
  let algo = append_algorithm ~n ~quorum in
  let w = R.create ~seed ~algorithm:algo ~n ~f ~workload () in
  let outcome = R.run ?max_steps w (policy_of w) in
  (w, outcome)

let writes count = List.init count (fun i -> Trace.Write (v i))

(* ------------------------------------------------------------------ *)
(* Basic lifecycle                                                     *)
(* ------------------------------------------------------------------ *)

let test_quiescent_run () =
  let w, outcome =
    run_with ~workload:[| writes 2; [ Trace.Read ] |]
      (fun _ -> R.random_policy ~seed:7 ())
      ()
  in
  Alcotest.(check bool) "quiescent" true outcome.R.quiescent;
  Alcotest.(check bool) "not halted" false outcome.R.halted;
  let ops = Trace.operations (R.trace w) in
  Alcotest.(check int) "3 operations" 3 (List.length ops);
  List.iter
    (fun (_, _, inv, ret, _) ->
      match ret with
      | Some rt -> Alcotest.(check bool) "return after invoke" true (rt >= inv)
      | None -> Alcotest.fail "operation did not return")
    ops

let test_validation () =
  let algo = append_algorithm ~n:2 ~quorum:1 in
  Alcotest.(check bool) "f >= n/2 rejected" true
    (try ignore (R.create ~algorithm:algo ~n:2 ~f:1 ~workload:[||] ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative f rejected" true
    (try ignore (R.create ~algorithm:algo ~n:2 ~f:(-1) ~workload:[||] ()); false
     with Invalid_argument _ -> true)

let test_empty_workload () =
  let _, outcome = run_with ~workload:[||] (fun _ -> R.fifo_policy ()) () in
  Alcotest.(check bool) "immediately quiescent" true outcome.R.quiescent;
  Alcotest.(check int) "no steps" 0 outcome.R.steps

let test_max_steps_cutoff () =
  let _, outcome =
    run_with ~max_steps:3 ~workload:[| writes 5 |] (fun _ -> R.fifo_policy ()) ()
  in
  Alcotest.(check int) "stopped at budget" 3 outcome.R.steps;
  Alcotest.(check bool) "not quiescent" false outcome.R.quiescent

let test_determinism () =
  let trace_of seed =
    let w, _ =
      run_with ~seed ~workload:[| writes 3; writes 2; [ Trace.Read; Trace.Read ] |]
        (fun _ -> R.random_policy ~seed:99 ())
        ()
    in
    List.map (Format.asprintf "%a" Trace.pp_event) (Trace.events (R.trace w))
  in
  Alcotest.(check (list string)) "same seed, same trace" (trace_of 5) (trace_of 5)

let test_fifo_deterministic () =
  let run () =
    let w, _ = run_with ~workload:[| writes 2; [ Trace.Read ] |] (fun _ -> R.fifo_policy ()) () in
    List.map (Format.asprintf "%a" Trace.pp_event) (Trace.events (R.trace w))
  in
  Alcotest.(check (list string)) "fifo deterministic" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Atomicity of RMWs: no lost updates                                  *)
(* ------------------------------------------------------------------ *)

let test_no_lost_updates () =
  let clients = 4 and per_client = 3 in
  let workload = Array.make clients (writes per_client) in
  let w, outcome = run_with ~workload (fun _ -> R.random_policy ~seed:3 ()) () in
  Alcotest.(check bool) "quiescent" true outcome.R.quiescent;
  (* Every write appended one block to every live object atomically. *)
  for i = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "object %d has all appends" i)
      (clients * per_client)
      (Objstate.chunk_count (R.obj_state w i))
  done

(* ------------------------------------------------------------------ *)
(* Await semantics                                                     *)
(* ------------------------------------------------------------------ *)

let test_quorum_gating () =
  (* With a fifo policy, a write on 3 objects with quorum 2 returns
     after 2 deliveries; the 3rd response arrives later harmlessly. *)
  let w = R.create ~algorithm:(append_algorithm ~n:3 ~quorum:2) ~n:3 ~f:1
      ~workload:[| [ Trace.Write (v 0) ] |] () in
  (* Step client: invokes, triggers 3 RMWs, parks. *)
  Alcotest.(check bool) "step ok" true (R.step w (R.Step 0));
  Alcotest.(check int) "3 pending" 3 (List.length (R.pending_rmws w));
  Alcotest.(check (list int)) "not yet steppable" [] (R.steppable w);
  (match R.deliverable w with
   | p1 :: _ -> R.step w (R.Deliver p1.R.ticket) |> ignore
   | [] -> Alcotest.fail "nothing deliverable");
  Alcotest.(check (list int)) "one response: still parked" [] (R.steppable w);
  (match R.deliverable w with
   | p2 :: _ -> R.step w (R.Deliver p2.R.ticket) |> ignore
   | [] -> Alcotest.fail "nothing deliverable");
  Alcotest.(check (list int)) "quorum reached: runnable" [ 0 ] (R.steppable w);
  Alcotest.(check bool) "client runnable" true (R.client_status w 0 = R.Runnable);
  (* Resume; the write returns. *)
  ignore (R.step w (R.Step 0));
  Alcotest.(check bool) "write returned" true
    (List.exists
       (function Trace.Return _ -> true | _ -> false)
       (Trace.events (R.trace w)));
  (* The straggler is still deliverable and harmless. *)
  (match R.deliverable w with
   | [ p3 ] -> ignore (R.step w (R.Deliver p3.R.ticket))
   | l -> Alcotest.failf "expected 1 straggler, got %d" (List.length l));
  Alcotest.(check int) "all applied" 1 (Objstate.chunk_count (R.obj_state w 2))

let test_zero_quorum () =
  (* quorum 0 never blocks. *)
  let algo = append_algorithm ~n:3 ~quorum:0 in
  let w = R.create ~algorithm:algo ~n:3 ~f:1 ~workload:[| [ Trace.Write (v 1) ] |] () in
  ignore (R.step w (R.Step 0));
  Alcotest.(check bool) "write returned without any delivery" true
    (List.exists
       (function Trace.Return _ -> true | _ -> false)
       (Trace.events (R.trace w)))

(* ------------------------------------------------------------------ *)
(* Crashes                                                             *)
(* ------------------------------------------------------------------ *)

let test_crash_object () =
  let w = R.create ~algorithm:(append_algorithm ~n:3 ~quorum:2) ~n:3 ~f:1
      ~workload:[| [ Trace.Write (v 0) ] |] () in
  ignore (R.step w (R.Step 0));
  ignore (R.step w (R.Crash_obj 1));
  Alcotest.(check bool) "marked dead" false (R.obj_alive w 1);
  (* RMWs on the dead object are no longer deliverable... *)
  Alcotest.(check int) "2 deliverable" 2 (List.length (R.deliverable w));
  (* ...but still pending (they occupy channel state). *)
  Alcotest.(check int) "3 pending" 3 (List.length (R.pending_rmws w));
  Alcotest.(check bool) "delivering to dead object rejected" true
    (let dead_ticket =
       List.find (fun p -> p.R.p_obj = 1) (R.pending_rmws w)
     in
     try ignore (R.step w (R.Deliver dead_ticket.R.ticket)); false
     with Invalid_argument _ -> true);
  (* Crashing more than f objects is rejected. *)
  Alcotest.(check bool) "second crash rejected (f=1)" true
    (try ignore (R.step w (R.Crash_obj 0)); false with Invalid_argument _ -> true);
  (* The write can still finish from the other two objects. *)
  List.iter (fun p -> ignore (R.step w (R.Deliver p.R.ticket))) (R.deliverable w);
  ignore (R.step w (R.Step 0));
  Alcotest.(check bool) "write completed despite crash" true
    (List.exists (function Trace.Return _ -> true | _ -> false)
       (Trace.events (R.trace w)))

let test_crash_client () =
  let w = R.create ~algorithm:(append_algorithm ~n:3 ~quorum:2) ~n:3 ~f:1
      ~workload:[| [ Trace.Write (v 0) ]; [ Trace.Write (v 1) ] |] () in
  ignore (R.step w (R.Step 0));
  ignore (R.step w (R.Crash_client 0));
  Alcotest.(check bool) "status crashed" true (R.client_status w 0 = R.Crashed);
  (* Its triggered RMWs can still take effect. *)
  Alcotest.(check int) "pending survive crash" 3 (List.length (R.deliverable w));
  (match R.deliverable w with
   | p :: _ -> ignore (R.step w (R.Deliver p.R.ticket))
   | [] -> Alcotest.fail "nothing deliverable");
  Alcotest.(check int) "took effect" 1 (Objstate.chunk_count (R.obj_state w 0));
  (* Stepping a crashed client is invalid. *)
  Alcotest.(check bool) "step crashed rejected" true
    (try ignore (R.step w (R.Step 0)); false with Invalid_argument _ -> true);
  (* Its outstanding op never returns but the other client proceeds. *)
  let outcome = R.run w (R.random_policy ~seed:1 ()) in
  Alcotest.(check bool) "rest of system quiescent" true outcome.R.quiescent;
  let ops = Trace.operations (R.trace w) in
  let returned = List.filter (fun (_, _, _, ret, _) -> ret <> None) ops in
  Alcotest.(check int) "only the live client's op returned" 1 (List.length returned)

(* ------------------------------------------------------------------ *)
(* Invalid decisions                                                   *)
(* ------------------------------------------------------------------ *)

let test_invalid_decisions () =
  let w = R.create ~algorithm:(append_algorithm ~n:3 ~quorum:2) ~n:3 ~f:1
      ~workload:[| [ Trace.Write (v 0) ] |] () in
  Alcotest.(check bool) "unknown ticket" true
    (try ignore (R.step w (R.Deliver 999)); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "step client without work" true
    (try ignore (R.step w (R.Step 0)); ignore (R.step w (R.Step 0)); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "crash unknown object" true
    (try ignore (R.step w (R.Crash_obj 5)); false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Storage accounting hooks                                            *)
(* ------------------------------------------------------------------ *)

(* A protocol variant whose RMW carries a payload block, to exercise the
   in-flight accounting. *)
let payload_algorithm ~n ~quorum ~payload_bytes : R.algorithm =
  {
    name = "payload";
    init_obj = (fun _ -> Objstate.init ());
    write =
      (fun ctx _v ->
        let block i = Block.v ~source:ctx.op.id ~index:i (Bytes.make payload_bytes 'p') in
        let tickets =
          R.broadcast_rmw ~n
            ~payload:(fun i -> [ block i ])
            (fun i st ->
              ( { st with Objstate.vp = Chunk.v ~ts:Ts.zero (block i) :: st.Objstate.vp },
                R.Ack ))
        in
        ignore (R.await ~tickets ~quorum));
    read = (fun _ -> None);
  }

let test_inflight_accounting () =
  let payload_bytes = 4 in
  let n = 3 in
  let algo = payload_algorithm ~n ~quorum:2 ~payload_bytes in
  let w = R.create ~algorithm:algo ~n ~f:1 ~workload:[| [ Trace.Write (v 0) ] |] () in
  ignore (R.step w (R.Step 0));
  (* Three pending RMWs, each carrying 32 payload bits; nothing stored yet. *)
  Alcotest.(check int) "objects empty" 0 (R.storage_bits_objects w);
  Alcotest.(check int) "in-flight total" (3 * 8 * payload_bytes) (R.storage_bits_total w);
  let op = List.hd (R.outstanding_ops w) in
  Alcotest.(check int) "own pending excluded from contribution" 0
    (R.op_contribution w op);
  (* After one delivery the block is at the object and counts. *)
  (match R.deliverable w with
   | p :: _ -> ignore (R.step w (R.Deliver p.R.ticket))
   | [] -> Alcotest.fail "nothing deliverable");
  Alcotest.(check int) "stored bits" (8 * payload_bytes) (R.storage_bits_objects w);
  Alcotest.(check int) "contribution counts stored block" (8 * payload_bytes)
    (R.op_contribution w op);
  Alcotest.(check bool) "maxima track" true (R.max_bits_total w >= 3 * 8 * payload_bytes)

let test_crashed_object_not_counted () =
  let algo = payload_algorithm ~n:3 ~quorum:1 ~payload_bytes:2 in
  let w = R.create ~algorithm:algo ~n:3 ~f:1 ~workload:[| [ Trace.Write (v 0) ] |] () in
  ignore (R.step w (R.Step 0));
  (match R.deliverable w with
   | p :: _ -> ignore (R.step w (R.Deliver p.R.ticket))
   | [] -> Alcotest.fail "nothing deliverable");
  let before = R.storage_bits_objects w in
  Alcotest.(check bool) "stored something" true (before > 0);
  ignore (R.step w (R.Crash_obj 0));
  Alcotest.(check int) "dead object's bits gone" 0 (R.storage_bits_objects w)

(* ------------------------------------------------------------------ *)
(* Rounds bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

let test_read_rounds_counted () =
  let value_bytes = 16 in
  let f = 1 and k = 1 in
  let n = 3 in
  let codec = Sb_codec.Codec.rs_vandermonde ~value_bytes ~k ~n in
  let cfg = { Sb_registers.Common.n; f; codec } in
  let algo = Sb_registers.Adaptive.make cfg in
  let w = R.create ~algorithm:algo ~n ~f ~workload:[| [ Trace.Read ] |] () in
  let outcome = R.run w (R.fifo_policy ()) in
  Alcotest.(check bool) "quiescent" true outcome.R.quiescent;
  Alcotest.(check int) "one readValue round" 1 (R.max_read_rounds w)

(* ------------------------------------------------------------------ *)
(* Dynamic workloads                                                   *)
(* ------------------------------------------------------------------ *)

let test_enqueue_op () =
  let algo = append_algorithm ~n:3 ~quorum:2 in
  let w = R.create ~algorithm:algo ~n:3 ~f:1 ~workload:[| [] |] () in
  Alcotest.(check bool) "initially quiescent" true
    (R.deliverable w = [] && R.steppable w = []);
  R.enqueue_op w ~client:0 (Trace.Write (v 0));
  Alcotest.(check (list int)) "client now steppable" [ 0 ] (R.steppable w);
  let outcome = R.run w (R.random_policy ~seed:2 ()) in
  Alcotest.(check bool) "enqueued op completes" true outcome.R.quiescent;
  R.enqueue_op w ~client:0 Trace.Read;
  let outcome = R.run w (R.random_policy ~seed:3 ()) in
  Alcotest.(check bool) "second enqueue works on a used world" true outcome.R.quiescent;
  Alcotest.(check int) "both ops returned" 2
    (List.length
       (List.filter (fun (_, _, _, ret, _) -> ret <> None)
          (Trace.operations (R.trace w))));
  Alcotest.(check bool) "unknown client rejected" true
    (try R.enqueue_op w ~client:7 Trace.Read; false with Invalid_argument _ -> true);
  ignore (R.step w (R.Crash_client 0));
  Alcotest.(check bool) "crashed client rejected" true
    (try R.enqueue_op w ~client:0 Trace.Read; false with Invalid_argument _ -> true)

let test_response_to_crashed_client_dropped () =
  let algo = append_algorithm ~n:3 ~quorum:2 in
  let w = R.create ~algorithm:algo ~n:3 ~f:1 ~workload:[| [ Trace.Write (v 0) ] |] () in
  ignore (R.step w (R.Step 0));
  ignore (R.step w (R.Crash_client 0));
  (* Deliveries still mutate objects but produce no client progress. *)
  List.iter (fun (p : R.pending_info) -> ignore (R.step w (R.Deliver p.ticket)))
    (R.deliverable w);
  Alcotest.(check int) "writes took effect" 1
    (Objstate.chunk_count (R.obj_state w 0));
  Alcotest.(check (list int)) "nobody steppable" [] (R.steppable w);
  Alcotest.(check bool) "world quiesces" true (R.run w (R.fifo_policy ())).R.quiescent

(* ------------------------------------------------------------------ *)
(* Trace serialisation                                                 *)
(* ------------------------------------------------------------------ *)

let test_trace_roundtrip () =
  (* Serialise a real run's trace and parse it back. *)
  let w, _ =
    run_with ~workload:[| writes 2; [ Trace.Read ] |]
      (fun _ -> R.random_policy ~seed:21 ())
      ()
  in
  ignore (R.step w (R.Crash_obj 0));
  let tr = R.trace w in
  let lines = Trace.to_lines tr in
  Alcotest.(check int) "one line per event" (Trace.length tr) (List.length lines);
  match Trace.of_lines lines with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok tr' ->
    Alcotest.(check bool) "events preserved" true (Trace.events tr = Trace.events tr');
    Alcotest.(check bool) "operations preserved" true
      (Trace.operations tr = Trace.operations tr')

let test_trace_parse_errors () =
  List.iter
    (fun input ->
      match Trace.of_lines [ input ] with
      | Ok _ -> Alcotest.failf "expected parse error for %S" input
      | Error _ -> ())
    [ "Z 1 2"; "I x 2 3 R"; "I 1 2 3 W zz"; "T 1 2 3"; "nonsense" ]

let test_trace_blank_lines () =
  match Trace.of_lines [ ""; "X 3 1"; "" ] with
  | Ok tr -> Alcotest.(check int) "blank lines skipped" 1 (Trace.length tr)
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* The client engine over a fake in-memory transport                   *)
(* ------------------------------------------------------------------ *)

module Engine = Sb_sim.Engine
module D = Sb_sim.Rmwdesc

(* Triggers get consecutive tickets and are logged; the test answers
   them by hand through [answers]. *)
type fake = {
  mutable next : int;
  mutable sent : (int * D.t option) list;  (* (object, desc), newest first *)
  answers : (int, int * R.resp) Hashtbl.t;  (* ticket -> (object, resp) *)
}

let fake_transport =
  {
    Engine.send =
      (fun t _ _ obj _ _ _ desc ->
        let ticket = t.next in
        t.next <- ticket + 1;
        t.sent <- (obj, desc) :: t.sent;
        ticket);
    ready =
      (fun t tickets quorum ->
        List.length (List.filter (Hashtbl.mem t.answers) tickets) >= quorum);
    collect =
      (fun t _ tickets -> List.filter_map (Hashtbl.find_opt t.answers) tickets);
    started = (fun _ _ -> ());
    retired = (fun _ _ _ -> ());
    clock = (fun t -> t.next);
    traced = true;
  }

(* A read snapshots three objects, awaits two answers and returns the
   answering objects, e.g. "0,2".  [store] writes instead trigger one
   merge-class store per object; [unwound] records that the fiber's
   cleanup ran. *)
let probe ?(store = false) ?(unwound = ref false) () : R.algorithm =
  {
    name = "probe";
    init_obj = (fun _ -> Objstate.init ());
    write =
      (fun _ v ->
        let chunk = Chunk.v ~ts:Ts.zero (Block.v ~source:1 ~index:0 v) in
        ignore
          (R.broadcast_desc ~n:3 ~payload:(fun _ -> []) (fun _ ->
               D.Abd_store chunk)));
    read =
      (fun _ ->
        Fun.protect
          ~finally:(fun () -> unwound := true)
          (fun () ->
            let tickets =
              R.broadcast_desc ~n:3 ~payload:(fun _ -> []) (fun _ -> D.Snapshot)
            in
            let rs = R.await ~tickets ~quorum:2 in
            let objs = List.map (fun (o, _) -> string_of_int o) rs in
            if store then None
            else Some (Bytes.of_string (String.concat "," objs))));
  }

let fake_engine ?(base_model = Sb_baseobj.Model.Rmw) algorithm =
  let t = { next = 1; sent = []; answers = Hashtbl.create 8 } in
  let eng = Engine.create ~n:3 ~algorithm ~base_model fake_transport in
  let fb = Engine.fiber ~cid:0 ~prng:(Sb_util.Prng.create 1) in
  (t, eng, fb)

let answer t tickets =
  List.iter
    (fun tk -> Hashtbl.replace t.answers tk (tk - 1, R.Snap (Objstate.init ())))
    tickets

let returns eng =
  List.filter_map
    (function Trace.Return { result; _ } -> Some result | _ -> None)
    (Trace.events (Engine.trace eng))

let test_engine_quorum_met () =
  let t, eng, fb = fake_engine (probe ()) in
  answer t [ 1; 3 ];
  Alcotest.(check bool) "returned without parking" true
    (Engine.start eng t fb Trace.Read);
  Alcotest.(check bool) "nothing waiting" true (fb.Engine.waiting = None);
  Alcotest.(check bool) "slot idle" true (fb.Engine.current = None);
  Alcotest.(check (list (option string))) "result" [ Some "0,2" ]
    (List.map (Option.map Bytes.to_string) (returns eng));
  Alcotest.(check (pair int int)) "invoked, completed" (1, 1)
    (Engine.invoked eng, Engine.completed eng)

let test_engine_parks_and_resumes () =
  let t, eng, fb = fake_engine (probe ()) in
  Alcotest.(check bool) "parked" false (Engine.start eng t fb Trace.Read);
  (match fb.Engine.waiting with
   | Some w ->
     Alcotest.(check (list int)) "awaited tickets" [ 1; 2; 3 ] w.Engine.tickets;
     Alcotest.(check int) "quorum" 2 w.Engine.quorum
   | None -> Alcotest.fail "fiber not waiting");
  Alcotest.(check (list (option string))) "no return yet" []
    (List.map (Option.map Bytes.to_string) (returns eng));
  answer t [ 2; 3 ];
  Alcotest.(check bool) "resumed to completion" true (Engine.resume eng t fb);
  Alcotest.(check bool) "nothing waiting" true (fb.Engine.waiting = None);
  Alcotest.(check (list (option string))) "collected responses" [ Some "1,2" ]
    (List.map (Option.map Bytes.to_string) (returns eng))

let test_engine_abandon () =
  let unwound = ref false in
  let t, eng, fb = fake_engine (probe ~unwound ()) in
  ignore (Engine.start eng t fb Trace.Read);
  (match Engine.abandon fb with
   | Some op -> Alcotest.(check int) "the running op" 1 op.R.id
   | None -> Alcotest.fail "no operation abandoned");
  Alcotest.(check bool) "fiber unwound" true !unwound;
  Alcotest.(check bool) "nothing waiting" true (fb.Engine.waiting = None);
  Alcotest.(check bool) "slot idle" true (fb.Engine.current = None);
  Alcotest.(check int) "no completion" 0 (Engine.completed eng);
  Alcotest.(check bool) "second abandon is a no-op" true (Engine.abandon fb = None)

let test_engine_model_check () =
  let t, eng, fb =
    fake_engine ~base_model:Sb_baseobj.Model.Read_write (probe ~store:true ())
  in
  (match Engine.start eng t fb (Trace.Write (v 1)) with
   | _ -> Alcotest.fail "a merge-class store passed the read/write model"
   | exception
       Sb_baseobj.Model.Error
         (Sb_baseobj.Model.Op_not_supported
            { cls = Sb_baseobj.Model.General; _ }) ->
     ());
  Alcotest.(check int) "nothing was sent" 0 (List.length t.sent)

let () =
  Alcotest.run "sim"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "quiescent run" `Quick test_quiescent_run;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "empty workload" `Quick test_empty_workload;
          Alcotest.test_case "max_steps cutoff" `Quick test_max_steps_cutoff;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "fifo deterministic" `Quick test_fifo_deterministic;
        ] );
      ( "rmw",
        [
          Alcotest.test_case "no lost updates" `Quick test_no_lost_updates;
          Alcotest.test_case "quorum gating" `Quick test_quorum_gating;
          Alcotest.test_case "zero quorum" `Quick test_zero_quorum;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "crash object" `Quick test_crash_object;
          Alcotest.test_case "crash client" `Quick test_crash_client;
        ] );
      ( "decisions",
        [ Alcotest.test_case "invalid decisions" `Quick test_invalid_decisions ] );
      ( "accounting",
        [
          Alcotest.test_case "in-flight payloads" `Quick test_inflight_accounting;
          Alcotest.test_case "crashed object not counted" `Quick
            test_crashed_object_not_counted;
        ] );
      ( "rounds",
        [ Alcotest.test_case "read rounds counted" `Quick test_read_rounds_counted ] );
      ( "dynamic",
        [
          Alcotest.test_case "enqueue_op" `Quick test_enqueue_op;
          Alcotest.test_case "crashed client responses dropped" `Quick
            test_response_to_crashed_client_dropped;
        ] );
      ( "engine",
        [
          Alcotest.test_case "met quorum continues" `Quick test_engine_quorum_met;
          Alcotest.test_case "open quorum parks, then resumes" `Quick
            test_engine_parks_and_resumes;
          Alcotest.test_case "abandon unwinds" `Quick test_engine_abandon;
          Alcotest.test_case "base-model check" `Quick test_engine_model_check;
        ] );
      ( "serialisation",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_trace_parse_errors;
          Alcotest.test_case "blank lines" `Quick test_trace_blank_lines;
        ] );
    ]
