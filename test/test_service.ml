(* Tests for the register service: wire codec round-trips, shared
   server core semantics, live daemon clusters (forked), and the
   simulator-vs-socket protocol parity the Rmwdesc layer guarantees. *)

module R = Sb_sim.Runtime
module D = Sb_sim.Rmwdesc
module Trace = Sb_sim.Trace
module Wire = Sb_service.Wire
module Daemon = Sb_service.Daemon
module Sdk = Sb_service.Sdk
module Score = Sb_service.Server_core
module Block = Sb_storage.Block
module Chunk = Sb_storage.Chunk
module Timestamp = Sb_storage.Timestamp
module Objstate = Sb_storage.Objstate
module Common = Sb_registers.Common
module Codec = Sb_codec.Codec
module Gen = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_payload = Gen.(string_size (int_bound 24) >|= Bytes.of_string)

let gen_block =
  Gen.map3
    (fun source index data -> Block.v ~source ~index data)
    Gen.(int_bound 1000)
    Gen.(int_bound 40)
    gen_payload

let gen_ts =
  Gen.map2
    (fun num client -> Timestamp.make ~num ~client)
    Gen.(int_bound 10_000)
    Gen.(int_bound 64)

let gen_chunk = Gen.map2 (fun ts b -> Chunk.v ~ts b) gen_ts gen_block

let gen_objstate =
  Gen.map2
    (fun vp vf -> Objstate.init ~vp ~vf ())
    Gen.(list_size (int_bound 4) gen_chunk)
    Gen.(list_size (int_bound 4) gen_chunk)

let gen_eviction = Gen.oneofl [ D.Barrier; D.Own_ts ]

let gen_trim =
  Gen.oneof
    [ Gen.return D.Keep_all; Gen.map (fun d -> D.Keep_newest d) (Gen.int_bound 5) ]

let gen_desc =
  Gen.oneof
    [
      Gen.return D.Snapshot;
      Gen.map (fun c -> D.Abd_store c) gen_chunk;
      Gen.map (fun c -> D.Lww_store c) gen_chunk;
      Gen.map (fun c -> D.Safe_update c) gen_chunk;
      Gen.map2
        (fun (replicate, eviction, trim, k) (piece, replica_pieces, ts, stored_ts) ->
          D.Adaptive_update
            { replicate; eviction; trim; k; piece; replica_pieces; ts; stored_ts })
        (Gen.quad Gen.bool gen_eviction gen_trim Gen.(1 -- 6))
        (Gen.quad gen_block Gen.(list_size (int_bound 3) gen_block) gen_ts gen_ts);
      Gen.map2 (fun piece ts -> D.Adaptive_gc { piece; ts }) gen_block gen_ts;
      Gen.map3
        (fun pieces ts stored_ts -> D.Rateless_update { pieces; ts; stored_ts })
        Gen.(list_size (int_bound 4) gen_block)
        gen_ts gen_ts;
      Gen.map2
        (fun pieces ts -> D.Rateless_gc { pieces; ts })
        Gen.(list_size (int_bound 4) gen_block)
        gen_ts;
      Gen.map2
        (fun chunks ts -> D.Rw_write { chunks; ts })
        Gen.(list_size (int_bound 3) gen_chunk)
        gen_ts;
    ]

let gen_nature : Wire.nature Gen.t =
  Gen.oneofl [ `Mutating; `Readonly; `Merge ]

let gen_resp =
  Gen.oneof
    [ Gen.return D.Ack; Gen.map (fun st -> D.Snap st) gen_objstate ]

let gen_peer_schema =
  Gen.map2
    (fun ps_version hash -> { Wire.ps_version; ps_hash = hash })
    Gen.(1 -- 5)
    Gen.(string_size (return 16))

(* Keys skew towards "" (the pre-sharding register) and the loadgen's
   dense k-names, with a tail of arbitrary bytes. *)
let gen_key =
  Gen.oneof
    [
      Gen.return "";
      Gen.map (Printf.sprintf "k%05d") Gen.(int_bound 999);
      Gen.(string_size (1 -- 8));
    ]

let gen_request =
  Gen.map3
    (fun (rq_client, rq_ticket, rq_op) (rq_nature, rq_key) (rq_payload, rq_desc) ->
      { Wire.rq_key; rq_client; rq_ticket; rq_op; rq_nature; rq_payload;
        rq_desc })
    (Gen.triple Gen.(int_bound 100) Gen.(int_bound 100_000) Gen.(int_bound 10_000))
    (Gen.pair gen_nature gen_key)
    (Gen.pair Gen.(list_size (int_bound 3) gen_block) gen_desc)

let gen_response =
  Gen.map3
    (fun (rs_ticket, rs_op, rs_server) (rs_incarnation, rs_dedup, rs_key) rs_resp ->
      { Wire.rs_key; rs_ticket; rs_op; rs_server; rs_incarnation; rs_dedup;
        rs_resp })
    (Gen.triple Gen.(int_bound 100_000) Gen.(int_bound 10_000) Gen.(int_bound 20))
    (Gen.triple Gen.(1 -- 50) Gen.bool gen_key)
    gen_resp

let gen_shard_stat =
  Gen.map3
    (fun (ss_shard, ss_incarnation) (ss_keys, ss_storage_bits)
         (ss_max_bits, ss_max_key_bits) ->
      { Wire.ss_shard; ss_incarnation; ss_keys; ss_storage_bits; ss_max_bits;
        ss_max_key_bits })
    (Gen.pair Gen.(int_bound 16) Gen.(1 -- 50))
    (Gen.pair Gen.(int_bound 1000) Gen.(int_bound 1_000_000))
    (Gen.pair Gen.(int_bound 1_000_000) Gen.(int_bound 1_000_000))

let gen_msg =
  Gen.oneof
    [
      Gen.map2
        (fun client schema -> Wire.Hello { client; schema })
        Gen.(int_bound 100)
        (Gen.option gen_peer_schema);
      Gen.map3
        (fun server incarnation schema ->
          Wire.Welcome { server; incarnation; schema })
        Gen.(int_bound 20)
        Gen.(1 -- 50)
        (Gen.option gen_peer_schema);
      Gen.map2
        (fun rj_code rj_detail -> Wire.Reject { rj_code; rj_detail })
        (Gen.oneofl [ Wire.Unsupported_version; Wire.Incompatible_schema ])
        Gen.(string_size (int_bound 40));
      Gen.map (fun rq -> Wire.Request rq) gen_request;
      Gen.map (fun rs -> Wire.Response rs) gen_response;
      Gen.map (fun rqs -> Wire.Req_batch rqs)
        Gen.(list_size (int_bound 5) gen_request);
      Gen.map (fun rss -> Wire.Resp_batch rss)
        Gen.(list_size (int_bound 5) gen_response);
      Gen.return Wire.Stats_query;
      Gen.map3
        (fun (st_server, st_incarnation) (st_storage_bits, st_max_bits)
             ((st_dedup_hits, st_applied), (st_keys, st_shards)) ->
          Wire.Stats
            { st_server; st_incarnation; st_storage_bits; st_max_bits;
              st_dedup_hits; st_applied; st_keys; st_shards })
        (Gen.pair Gen.(int_bound 20) Gen.(1 -- 50))
        (Gen.pair Gen.(int_bound 1_000_000) Gen.(int_bound 1_000_000))
        (Gen.pair
           (Gen.pair Gen.(int_bound 1000) Gen.(int_bound 100_000))
           (Gen.pair Gen.(int_bound 5000)
              Gen.(list_size (int_bound 4) gen_shard_stat)));
    ]

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

let body_of_frame frame = Bytes.sub frame 4 (Bytes.length frame - 4)

let test_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"encode/decode round-trips" gen_msg
       (fun msg ->
         match Wire.decode_msg (body_of_frame (Wire.encode_msg msg)) with
         | Ok msg' -> Wire.equal_msg msg msg'
         | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e))

let test_reader_chunking =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"incremental reader reassembles arbitrarily chunked streams"
       Gen.(pair (list_size (1 -- 5) gen_msg) (int_range 1 13))
       (fun (msgs, chunk) ->
         let stream =
           Bytes.concat Bytes.empty (List.map (fun m -> Wire.encode_msg m) msgs)
         in
         let reader = Wire.Reader.create () in
         let got = ref [] in
         let n = Bytes.length stream in
         let rec drain () =
           match Wire.Reader.next reader with
           | Ok (Some m) ->
             got := m :: !got;
             drain ()
           | Ok None -> ()
           | Error e -> QCheck2.Test.fail_reportf "reader error: %s" e
         in
         let off = ref 0 in
         while !off < n do
           let len = min chunk (n - !off) in
           Wire.Reader.feed reader stream !off len;
           drain ();
           off := !off + len
         done;
         List.length !got = List.length msgs
         && List.for_all2 Wire.equal_msg msgs (List.rev !got)))

(* One rule for what each version can carry: [Wire.encodable] holds
   exactly when [encode_msg] at that version does not raise. *)
let test_encodable_rule =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"encodable holds exactly when encode_msg does not raise" gen_msg
       (fun msg ->
         List.for_all
           (fun version ->
             let raises =
               match Wire.encode_msg ~version msg with
               | _ -> false
               | exception Invalid_argument _ -> true
             in
             Wire.encodable ~version msg = not raises)
           (List.init
              (Wire.version - Wire.min_version + 1)
              (fun i -> Wire.min_version + i))))

(* What a v1 frame can carry: the handshake schema fields are dropped
   (a v1 peer could not read them), as is the v3 per-shard stats
   aggregation tail. *)
let project_v1 = function
  | Wire.Hello { client; _ } -> Wire.Hello { client; schema = None }
  | Wire.Welcome { server; incarnation; _ } ->
    Wire.Welcome { server; incarnation; schema = None }
  | Wire.Stats st -> Wire.Stats { st with st_keys = 0; st_shards = [] }
  | m -> m

let test_roundtrip_v1 =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"v1 encoding round-trips to the v1 projection" gen_msg
       (fun msg ->
         if not (Wire.encodable ~version:1 msg) then true
         else
           match
             Wire.decode_msg (body_of_frame (Wire.encode_msg ~version:1 msg))
           with
           | Ok msg' -> Wire.equal_msg (project_v1 msg) msg'
           | Error e -> QCheck2.Test.fail_reportf "v1 decode failed: %s" e))

(* The partial-delivery fuzz: arbitrary chunkings of a valid stream
   with an optional adversarial twist (truncated tail or one corrupted
   byte) must always produce decode / need-more / clean error — never
   an exception.  This is the test that caught [Block.v] raising
   [Invalid_argument] on negative coordinates from hostile frames. *)
let test_reader_adversarial =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"reader survives truncation/corruption under any chunking"
       Gen.(
         quad
           (list_size (1 -- 4) gen_msg)
           (list_size (1 -- 30) (1 -- 7))
           (oneofl [ `Intact; `Truncate; `Corrupt ])
           (pair (int_bound 10_000) (int_bound 255)))
       (fun (msgs, chunks, twist, (pos_seed, byte)) ->
         let stream =
           Bytes.concat Bytes.empty (List.map (fun m -> Wire.encode_msg m) msgs)
         in
         let stream =
           match twist with
           | `Intact -> stream
           | `Truncate ->
             Bytes.sub stream 0 (pos_seed mod max 1 (Bytes.length stream))
           | `Corrupt ->
             let b = Bytes.copy stream in
             if Bytes.length b > 0 then
               Bytes.set b (pos_seed mod Bytes.length b) (Char.chr byte);
             b
         in
         let reader = Wire.Reader.create () in
         let decoded = ref 0 in
         let failed = ref false in
         let rec drain () =
           if not !failed then
             match Wire.Reader.next reader with
             | Ok (Some _) ->
               incr decoded;
               drain ()
             | Ok None -> ()
             | Error _ -> failed := true
         in
         (try
            let n = Bytes.length stream in
            let off = ref 0 in
            let cs = ref chunks in
            while !off < n && not !failed do
              let c = match !cs with c :: rest -> cs := rest; c | [] -> 1 in
              let len = min c (n - !off) in
              Wire.Reader.feed reader stream !off len;
              drain ();
              off := !off + len
            done
          with e ->
            QCheck2.Test.fail_reportf "reader raised: %s"
              (Printexc.to_string e));
         match twist with
         | `Intact -> (not !failed) && !decoded = List.length msgs
         | `Truncate | `Corrupt -> true))

let test_desc_semantic_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"a decoded description applies identically to the original"
       Gen.(pair gen_desc gen_objstate)
       (fun (desc, st) ->
         let frame =
           Wire.encode_msg
             (Wire.Request
                {
                  rq_key = ""; rq_client = 1; rq_ticket = 1; rq_op = 1;
                  rq_nature = D.default_nature desc;
                  rq_payload = []; rq_desc = desc;
                })
         in
         match Wire.decode_msg (body_of_frame frame) with
         | Ok (Wire.Request { rq_desc; _ }) ->
           D.equal desc rq_desc && D.apply desc st = D.apply rq_desc st
         | Ok _ -> false
         | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e))

(* The batch container preserves each keyed description exactly, in
   list order: applying every decoded desc to a state must equal
   applying the originals — the property the daemon's apply-in-order
   batch loop rests on. *)
let test_batch_apply_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"a decoded batch applies identically, per keyed desc, in order"
       Gen.(pair (list_size (1 -- 6) gen_request) gen_objstate)
       (fun (reqs, st) ->
         let frame = Wire.encode_msg (Wire.Req_batch reqs) in
         match Wire.decode_msg (body_of_frame frame) with
         | Ok (Wire.Req_batch reqs') ->
           List.length reqs = List.length reqs'
           && List.for_all2
                (fun a b ->
                  String.equal a.Wire.rq_key b.Wire.rq_key
                  && a.Wire.rq_ticket = b.Wire.rq_ticket
                  && a.Wire.rq_client = b.Wire.rq_client
                  && D.equal a.Wire.rq_desc b.Wire.rq_desc
                  && D.apply a.Wire.rq_desc st = D.apply b.Wire.rq_desc st)
                reqs reqs'
         | Ok _ -> false
         | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e))

let test_malformed () =
  (* A truncated body and a bad version must both fail cleanly. *)
  let frame = Wire.encode_msg Wire.Stats_query in
  let body = body_of_frame frame in
  (match Wire.decode_msg (Bytes.sub body 0 (Bytes.length body - 1)) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "truncated body decoded");
  let bad = Bytes.copy body in
  Bytes.set bad 0 '\xee';
  (match Wire.decode_msg bad with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "wrong version decoded");
  (* An oversized frame length must be rejected by the reader. *)
  let huge = Bytes.create 4 in
  Bytes.set_int32_be huge 0 0x7fff_ffffl;
  let reader = Wire.Reader.create () in
  Wire.Reader.feed reader huge 0 4;
  match Wire.Reader.next reader with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted"

let test_persisted_roundtrip () =
  let st =
    Objstate.init
      ~vp:[ Chunk.v ~ts:(Timestamp.make ~num:3 ~client:1) (Block.v ~source:3 ~index:2 (Bytes.of_string "pq")) ]
      ~vf:[ Chunk.v ~ts:(Timestamp.make ~num:2 ~client:0) (Block.v ~source:2 ~index:0 (Bytes.of_string "ab")) ]
      ()
  in
  let p = { Wire.p_incarnation = 7; p_state = st; p_keyed = [] } in
  (match Wire.decode_persisted (body_of_frame (Wire.encode_persisted p)) with
   | Ok p' ->
     Alcotest.(check int) "incarnation" 7 p'.Wire.p_incarnation;
     Alcotest.(check bool) "state" true (p'.Wire.p_state = st)
   | Error e -> Alcotest.failf "decode_persisted: %s" e);
  (* A sharded state file carries its keyed registers too. *)
  let keyed = [ ("k00001", st); ("k00007", Objstate.init ()) ] in
  let pk = { Wire.p_incarnation = 3; p_state = st; p_keyed = keyed } in
  match Wire.decode_persisted (body_of_frame (Wire.encode_persisted pk)) with
  | Ok p' ->
    Alcotest.(check bool) "keyed entries survive" true (p'.Wire.p_keyed = keyed)
  | Error e -> Alcotest.failf "decode_persisted keyed: %s" e

(* ------------------------------------------------------------------ *)
(* Server core                                                         *)
(* ------------------------------------------------------------------ *)

let chunk ~num ~client s =
  Chunk.v ~ts:(Timestamp.make ~num ~client) (Block.v ~source:num ~index:0 (Bytes.of_string s))

let test_server_core_dedup () =
  let t = Score.create (Objstate.init ()) in
  let d = D.Abd_store (chunk ~num:1 ~client:0 "x") in
  let o1 = Score.handle t ~client:3 ~ticket:9 ~nature:`Merge (D.apply d) in
  Alcotest.(check bool) "first applies" false o1.Score.dedup_hit;
  let o2 = Score.handle t ~client:3 ~ticket:9 ~nature:`Merge (D.apply d) in
  Alcotest.(check bool) "duplicate replayed" true o2.Score.dedup_hit;
  Alcotest.(check bool) "same response" true (o1.Score.resp = o2.Score.resp);
  Alcotest.(check int) "applied once" 1 (Score.applied_count t);
  (* Read-only RMWs are never recorded. *)
  let r1 = Score.handle t ~client:3 ~ticket:10 ~nature:`Readonly (D.apply D.Snapshot) in
  let r2 = Score.handle t ~client:3 ~ticket:10 ~nature:`Readonly (D.apply D.Snapshot) in
  Alcotest.(check bool) "readonly not deduped" false (r1.Score.dedup_hit || r2.Score.dedup_hit);
  (* A crash loses the table; recovery bumps the incarnation. *)
  Score.crash t;
  Score.recover t;
  Alcotest.(check int) "incarnation bumped" 2 (Score.incarnation t);
  let o3 = Score.handle t ~client:3 ~ticket:9 ~nature:`Merge (D.apply d) in
  Alcotest.(check bool) "table volatile across crash" false o3.Score.dedup_hit

(* ------------------------------------------------------------------ *)
(* Live clusters (forked daemon process)                               *)
(* ------------------------------------------------------------------ *)

let dir_counter = ref 0

let fresh_dir prefix =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !dir_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let with_cluster ?statedir ?wire_version ~algorithm ~n fn =
  let sockdir = fresh_dir "sb-sock" in
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       Daemon.run ?statedir ?wire_version ~sockdir ~servers:(List.init n Fun.id)
         ~init_obj:algorithm.R.init_obj ()
     with _ -> ());
    Unix._exit 0
  end
  else
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      (fun () ->
        let deadline = Unix.gettimeofday () +. 10.0 in
        let rec wait_up () =
          if
            List.for_all
              (fun i -> Sys.file_exists (Daemon.sockpath ~sockdir i))
              (List.init n Fun.id)
          then ()
          else if Unix.gettimeofday () > deadline then
            failwith "cluster did not come up"
          else begin
            Unix.sleepf 0.02;
            wait_up ()
          end
        in
        wait_up ();
        fn sockdir)

let adaptive_setup ~value_bytes ~f ~k =
  let n = (2 * f) + k in
  let cfg = { Common.n; f; codec = Codec.rs_vandermonde ~value_bytes ~k ~n } in
  (Sb_registers.Adaptive.make cfg, cfg)

let is_ok = function Sb_spec.Regularity.Ok -> true | _ -> false

(* Every operation on the pre-sharding [""] register. *)
let unkeyed workload = Array.map (List.map (fun kind -> ("", kind))) workload

let test_cluster_workload () =
  let value_bytes = 32 in
  let algorithm, cfg = adaptive_setup ~value_bytes ~f:1 ~k:1 in
  with_cluster ~algorithm ~n:cfg.Common.n (fun sockdir ->
      let workload =
        Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers:2
          ~writes_each:3 ~readers:1 ~reads_each:3
      in
      let r =
        Sdk.run_keyed ~algorithm ~seed:5 ~workload:(unkeyed workload)
          (Sdk.default_config ~n:cfg.Common.n ~f:cfg.Common.f ~sockdir)
      in
      Alcotest.(check bool) "not timed out" false r.Sdk.timed_out;
      Alcotest.(check int) "all ops completed" r.Sdk.ops_invoked r.Sdk.ops_completed;
      let history =
        Sb_spec.History.of_trace ~initial:(Common.initial_value cfg) r.Sdk.trace
      in
      Alcotest.(check bool) "weakly regular" true
        (is_ok (Sb_spec.Regularity.check_weak history));
      Alcotest.(check bool) "strongly regular" true
        (is_ok (Sb_spec.Regularity.check_strong history));
      (* The live stats endpoint answers for every server, and at
         quiescence the cluster stores (2f+k) pieces of D/k bits. *)
      let stats = Sdk.fetch_stats ~sockdir ~servers:(List.init cfg.Common.n Fun.id) () in
      Alcotest.(check int) "all servers report stats" cfg.Common.n (List.length stats);
      let total =
        List.fold_left (fun acc st -> acc + st.Wire.st_storage_bits) 0 stats
      in
      (* k = 1: each of the 2f+k servers keeps one D-bit piece. *)
      let floor_bits = cfg.Common.n * 8 * value_bytes in
      Alcotest.(check bool)
        (Printf.sprintf "quiescent storage %d <= floor %d" total floor_bits)
        true (total <= floor_bits))

(* The tentpole property: the very same seeded workload, run through
   the message-passing simulator and through the socket transport,
   triggers the identical sequence of RMW descriptions — the protocol
   decisions cannot diverge between the simulated and the real
   service. *)
let test_sim_socket_parity () =
  let value_bytes = 32 in
  let algorithm, cfg = adaptive_setup ~value_bytes ~f:1 ~k:1 in
  let mk_workload () =
    [|
      [
        Trace.Write (Sb_experiments.Workloads.distinct_value ~value_bytes 1);
        Trace.Read;
        Trace.Write (Sb_experiments.Workloads.distinct_value ~value_bytes 2);
        Trace.Read;
        Trace.Write (Sb_experiments.Workloads.distinct_value ~value_bytes 3);
      ];
    |]
  in
  let seed = 42 in
  (* Simulator side: collect the descriptions as the fifo world emits
     them. *)
  let sim_descs = ref [] in
  let w =
    Sb_msgnet.Mp_runtime.create ~seed ~fifo:true ~algorithm ~n:cfg.Common.n
      ~f:cfg.Common.f ~workload:(mk_workload ()) ()
  in
  Sb_msgnet.Mp_runtime.add_observer w (fun ev ->
      match ev with
      | R.E_trigger { desc = Some d; _ } -> sim_descs := d :: !sim_descs
      | _ -> ());
  let oc = Sb_msgnet.Mp_runtime.run w (Sb_msgnet.Mp_runtime.fifo_policy ()) in
  Alcotest.(check bool) "simulator run finished" true
    oc.Sb_msgnet.Mp_runtime.quiescent;
  let sim_descs = List.rev !sim_descs in
  (* Socket side: the same seed against a live cluster. *)
  with_cluster ~algorithm ~n:cfg.Common.n (fun sockdir ->
      let r =
        Sdk.run_keyed ~algorithm ~seed ~workload:(unkeyed (mk_workload ()))
          (Sdk.default_config ~n:cfg.Common.n ~f:cfg.Common.f ~sockdir)
      in
      Alcotest.(check int) "all ops completed" r.Sdk.ops_invoked r.Sdk.ops_completed;
      Alcotest.(check int) "same number of protocol decisions"
        (List.length sim_descs)
        (List.length r.Sdk.desc_log);
      List.iteri
        (fun i (a, b) ->
          if not (D.equal a b) then
            Alcotest.failf "decision %d diverges: sim %a vs socket %a" i D.pp a
              D.pp b)
        (List.combine sim_descs r.Sdk.desc_log))

(* Two SDK sessions against one daemon, with the same seed and slot
   layout, each write the same key: the second session's requests repeat
   the first's (key, slot, ticket) triples.  The daemon's at-most-once
   table must not answer the second write from the first session's
   entries, so a read that follows sees the second value. *)
let test_sessions_keep_dedup_apart () =
  let value_bytes = 32 in
  let algorithm, cfg = adaptive_setup ~value_bytes ~f:1 ~k:1 in
  let v i = Sb_experiments.Workloads.distinct_value ~value_bytes i in
  with_cluster ~algorithm ~n:cfg.Common.n (fun sockdir ->
      let session kind =
        let r =
          Sdk.run_keyed ~algorithm ~seed:7 ~workload:[| [ ("k", kind) ] |]
            (Sdk.default_config ~n:cfg.Common.n ~f:cfg.Common.f ~sockdir)
        in
        Alcotest.(check int) "op completed" 1 r.Sdk.ops_completed;
        r
      in
      ignore (session (Trace.Write (v 1)));
      ignore (session (Trace.Write (v 2)));
      let r = session Trace.Read in
      let reads =
        List.filter_map
          (fun (_, kind, _, ret, res) ->
            match (kind, ret) with Trace.Read, Some _ -> Some res | _ -> None)
          (Trace.operations r.Sdk.trace)
      in
      Alcotest.(check (list (option bytes))) "the second session's value"
        [ Some (v 2) ] reads)

let test_restart_recovers_incarnation () =
  let value_bytes = 32 in
  let algorithm, cfg = adaptive_setup ~value_bytes ~f:1 ~k:1 in
  let statedir = fresh_dir "sb-state" in
  let value = Sb_experiments.Workloads.distinct_value ~value_bytes 1 in
  with_cluster ~statedir ~algorithm ~n:cfg.Common.n (fun sockdir ->
      let r =
        Sdk.run_keyed ~algorithm ~seed:3
          ~workload:[| [ ("", Trace.Write value) ] |]
          (Sdk.default_config ~n:cfg.Common.n ~f:cfg.Common.f ~sockdir)
      in
      Alcotest.(check int) "write completed" 1 r.Sdk.ops_completed);
  (* Second boot over the persisted state: a fresh incarnation, and the
     stored value survives the restart. *)
  with_cluster ~statedir ~algorithm ~n:cfg.Common.n (fun sockdir ->
      let stats = Sdk.fetch_stats ~sockdir ~servers:(List.init cfg.Common.n Fun.id) () in
      Alcotest.(check int) "all servers back" cfg.Common.n (List.length stats);
      List.iter
        (fun st ->
          Alcotest.(check int)
            (Printf.sprintf "server %d incarnation" st.Wire.st_server)
            2 st.Wire.st_incarnation)
        stats;
      let r =
        Sdk.run_keyed ~algorithm ~seed:4
          ~workload:[| [ ("", Trace.Read) ] |]
          (Sdk.default_config ~n:cfg.Common.n ~f:cfg.Common.f ~sockdir)
      in
      Alcotest.(check int) "read completed" 1 r.Sdk.ops_completed;
      let results =
        List.filter_map
          (fun (_, kind, _, ret, res) ->
            match (kind, ret) with Trace.Read, Some _ -> Some res | _ -> None)
          (Trace.operations r.Sdk.trace)
      in
      Alcotest.(check (list (option bytes))) "value survived the restart"
        [ Some value ] results)

let test_wire_dedup_replay () =
  let algorithm, cfg = adaptive_setup ~value_bytes:32 ~f:1 ~k:1 in
  with_cluster ~algorithm ~n:cfg.Common.n (fun sockdir ->
      (* Raw frame exchange on server 0: a duplicated mutating request
         is answered from the at-most-once table, not re-applied. *)
      let fd = Unix.(socket PF_UNIX SOCK_STREAM 0) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX (Daemon.sockpath ~sockdir 0));
          let reader = Wire.Reader.create () in
          let buf = Bytes.create 4096 in
          let rpc msg =
            let frame = Wire.encode_msg msg in
            ignore (Unix.write fd frame 0 (Bytes.length frame));
            let rec loop () =
              match Wire.Reader.next reader with
              | Ok (Some m) -> m
              | Ok None ->
                let k = Unix.read fd buf 0 (Bytes.length buf) in
                if k = 0 then failwith "eof from server";
                Wire.Reader.feed reader buf 0 k;
                loop ()
              | Error e -> failwith e
            in
            loop ()
          in
          let own =
            { Wire.ps_version = Wire.version; ps_hash = Wire.schema_hash }
          in
          (match rpc (Wire.Hello { client = 9; schema = Some own }) with
           | Wire.Welcome { server = 0; incarnation = 1; schema = Some got }
             when got.Wire.ps_hash = Wire.schema_hash -> ()
           | m -> Alcotest.failf "unexpected hello reply: %a" Wire.pp_msg m);
          let req =
            Wire.Request
              {
                rq_key = ""; rq_client = 9; rq_ticket = 77; rq_op = 1;
                rq_nature = `Merge;
                rq_payload = [];
                rq_desc = D.Abd_store (chunk ~num:1 ~client:9 "dup");
              }
          in
          (match rpc req with
           | Wire.Response { rs_dedup = false; _ } -> ()
           | m -> Alcotest.failf "first send: %a" Wire.pp_msg m);
          (match rpc req with
           | Wire.Response { rs_dedup = true; _ } -> ()
           | m -> Alcotest.failf "duplicate: %a" Wire.pp_msg m);
          match rpc Wire.Stats_query with
          | Wire.Stats { st_dedup_hits = 1; st_applied = 1; _ } -> ()
          | m -> Alcotest.failf "stats: %a" Wire.pp_msg m))

(* A new client against an old (v1-pinned) cluster: every server closes
   the v2 Hello, the SDK falls back to v1 framing (one counted
   downgrade per server), and the workload then completes normally with
   no typed rejects. *)
let test_mixed_version_cluster () =
  let value_bytes = 32 in
  let algorithm, cfg = adaptive_setup ~value_bytes ~f:1 ~k:1 in
  with_cluster ~wire_version:1 ~algorithm ~n:cfg.Common.n (fun sockdir ->
      let workload =
        Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers:2
          ~writes_each:2 ~readers:1 ~reads_each:2
      in
      let r =
        Sdk.run_keyed ~algorithm ~seed:11 ~workload:(unkeyed workload)
          (Sdk.default_config ~n:cfg.Common.n ~f:cfg.Common.f ~sockdir)
      in
      Alcotest.(check bool) "not timed out" false r.Sdk.timed_out;
      Alcotest.(check int) "all ops completed" r.Sdk.ops_invoked
        r.Sdk.ops_completed;
      Alcotest.(check int) "one downgrade per v1 server" cfg.Common.n
        r.Sdk.downgrades;
      Alcotest.(check int) "no typed rejects" 0
        (List.length r.Sdk.schema_rejects);
      let history =
        Sb_spec.History.of_trace ~initial:(Common.initial_value cfg) r.Sdk.trace
      in
      Alcotest.(check bool) "weakly regular across versions" true
        (is_ok (Sb_spec.Regularity.check_weak history)))

(* An rw write has no encoding below v4.  Towards a daemon pinned to v3
   (which the SDK ends up speaking v1 to) the write's snapshot round
   gets through, its overwrite round is dropped, and the write fails at
   its deadline instead of raising out of the client. *)
let test_rw_write_below_v4_dropped () =
  let value_bytes = 32 and f = 1 in
  let algorithm, cfg =
    Sb_experiments.Catalog.(build ~writers:1 Rw_regular) ~value_bytes ~f ~k:1
  in
  with_cluster ~wire_version:3 ~algorithm ~n:cfg.Common.n (fun sockdir ->
      let base = Sdk.default_config ~n:cfg.Common.n ~f ~sockdir in
      let value = Sb_experiments.Workloads.distinct_value ~value_bytes 1 in
      let r =
        Sdk.run_keyed ~algorithm ~seed:1
          ~workload:[| [ ("", Trace.Write value) ] |]
          { base with Sdk.rto_ms = 20; max_attempts = 0; deadline_ms = 1000 }
      in
      Alcotest.(check int) "the write did not complete" 0 r.Sdk.ops_completed;
      match r.Sdk.failures with
      | [ { Sdk.fl_reason = Sdk.Deadline_expired; _ } ] -> ()
      | fs -> Alcotest.failf "expected one deadline, got %d failures" (List.length fs))

(* A peer claiming our schema version with a different layout hash is
   drifted: the daemon answers with a typed [Reject] instead of
   misdecoding its frames later. *)
let test_schema_hash_reject () =
  let algorithm, cfg = adaptive_setup ~value_bytes:32 ~f:1 ~k:1 in
  with_cluster ~algorithm ~n:cfg.Common.n (fun sockdir ->
      let fd = Unix.(socket PF_UNIX SOCK_STREAM 0) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX (Daemon.sockpath ~sockdir 0));
          let bogus =
            { Wire.ps_version = Wire.version; ps_hash = String.make 16 'x' }
          in
          let frame =
            Wire.encode_msg (Wire.Hello { client = 1; schema = Some bogus })
          in
          ignore (Unix.write fd frame 0 (Bytes.length frame));
          let reader = Wire.Reader.create () in
          let buf = Bytes.create 4096 in
          let rec next () =
            match Wire.Reader.next reader with
            | Ok (Some m) -> m
            | Ok None ->
              let k = Unix.read fd buf 0 (Bytes.length buf) in
              if k = 0 then failwith "eof before reject";
              Wire.Reader.feed reader buf 0 k;
              next ()
            | Error e -> failwith e
          in
          (match next () with
           | Wire.Reject { rj_code = Wire.Incompatible_schema; rj_detail } ->
             Alcotest.(check bool) "detail names the mismatch" true
               (String.length rj_detail > 0)
           | m -> Alcotest.failf "expected a reject, got %a" Wire.pp_msg m);
          (* ... and the daemon closes after flushing the reject. *)
          let k = Unix.read fd buf 0 (Bytes.length buf) in
          Alcotest.(check int) "connection closed" 0 k))

(* ------------------------------------------------------------------ *)
(* Durable state under disk faults                                     *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* Fuzz the recovery path: any truncation, bit-flip, emptying or
   garbage overwrite of a saved state file is reported as [Corrupt] —
   deterministically, and never by raising — while the pristine file
   still loads back equal. *)
let test_load_state_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150
       ~name:"load_state refuses any mutation, never raises"
       Gen.(quad gen_objstate (int_range 1 9) (int_bound 3) (int_bound 100_000))
       (fun (st, inc, kind, mseed) ->
         let dir = fresh_dir "sb-fuzz" in
         let file = Filename.concat dir "server-0.state" in
         Fun.protect
           ~finally:(fun () ->
             (try Sys.remove file with Sys_error _ -> ());
             try Unix.rmdir dir with Unix.Unix_error _ -> ())
           (fun () ->
             let p = { Wire.p_incarnation = inc; p_state = st; p_keyed = [] } in
             Daemon.save_state ~version:Wire.version file p;
             (match Daemon.load_state ~max_version:Wire.version file with
              | Daemon.Loaded p' when p' = p -> ()
              | _ -> QCheck2.Test.fail_report "pristine file did not load back");
             let body = read_file file in
             let len = String.length body in
             let mutated =
               match kind with
               | 0 -> String.sub body 0 (mseed mod len)
               | 1 ->
                 let b = Bytes.of_string body in
                 let bit = mseed mod (len * 8) in
                 Bytes.set b (bit / 8)
                   (Char.chr
                      (Char.code (Bytes.get b (bit / 8))
                      lxor (1 lsl (bit mod 8))));
                 Bytes.to_string b
               | 2 -> ""
               | _ ->
                 String.init
                   (1 + (mseed mod 64))
                   (fun i -> Char.chr ((mseed + (i * 37)) land 0xff))
             in
             if String.equal mutated body then true
             else begin
               write_file file mutated;
               let r1 = Daemon.load_state ~max_version:Wire.version file in
               let r2 = Daemon.load_state ~max_version:Wire.version file in
               match (r1, r2) with
               | Daemon.Corrupt a, Daemon.Corrupt b when String.equal a b ->
                 true
               | Daemon.Corrupt _, Daemon.Corrupt _ ->
                 QCheck2.Test.fail_report "corruption verdict not deterministic"
               | Daemon.Loaded _, _ ->
                 QCheck2.Test.fail_report "mutated state file loaded"
               | Daemon.Absent, _ ->
                 QCheck2.Test.fail_report "file exists but reported Absent"
               | _, (Daemon.Loaded _ | Daemon.Absent) ->
                 QCheck2.Test.fail_report "second load diverged from the first"
             end)))

(* A corrupt state file is quarantined at boot: the server rejoins
   fresh (incarnation 1 — not a recovery bump), the damaged bytes are
   preserved next to the state file, and the cluster keeps serving on
   the surviving quorum. *)
let test_corrupt_state_quarantined () =
  let value_bytes = 32 in
  let algorithm, cfg = adaptive_setup ~value_bytes ~f:1 ~k:1 in
  let statedir = fresh_dir "sb-state" in
  let value = Sb_experiments.Workloads.distinct_value ~value_bytes 1 in
  with_cluster ~statedir ~algorithm ~n:cfg.Common.n (fun sockdir ->
      let r =
        Sdk.run_keyed ~algorithm ~seed:3
          ~workload:[| [ ("", Trace.Write value) ] |]
          (Sdk.default_config ~n:cfg.Common.n ~f:cfg.Common.f ~sockdir)
      in
      Alcotest.(check int) "write completed" 1 r.Sdk.ops_completed);
  let file = Daemon.statefile ~statedir 0 in
  let body = Bytes.of_string (read_file file) in
  Bytes.set body 9 (Char.chr (Char.code (Bytes.get body 9) lxor 0x10));
  write_file file (Bytes.to_string body);
  with_cluster ~statedir ~algorithm ~n:cfg.Common.n (fun sockdir ->
      let stats =
        Sdk.fetch_stats ~sockdir ~servers:(List.init cfg.Common.n Fun.id) ()
      in
      Alcotest.(check int) "all servers up" cfg.Common.n (List.length stats);
      List.iter
        (fun st ->
          let expect = if st.Wire.st_server = 0 then 1 else 2 in
          Alcotest.(check int)
            (Printf.sprintf "server %d incarnation" st.Wire.st_server)
            expect st.Wire.st_incarnation)
        stats;
      Alcotest.(check bool) "damaged bytes quarantined" true
        (Sys.file_exists (Daemon.quarantine_path file));
      let r =
        Sdk.run_keyed ~algorithm ~seed:4
          ~workload:[| [ ("", Trace.Read) ] |]
          (Sdk.default_config ~n:cfg.Common.n ~f:cfg.Common.f ~sockdir)
      in
      Alcotest.(check int) "read completed over surviving quorum" 1
        r.Sdk.ops_completed)

(* ------------------------------------------------------------------ *)
(* Graceful degradation: typed failures instead of hangs               *)
(* ------------------------------------------------------------------ *)

(* Nothing is listening anywhere: with a bounded retransmission budget
   the operation is abandoned with a typed exhaustion failure — well
   before the run deadline — and every dial failure lands on the
   per-server health ledger. *)
let test_attempts_exhausted () =
  let algorithm, cfg = adaptive_setup ~value_bytes:32 ~f:1 ~k:1 in
  let sockdir = fresh_dir "sb-empty" in
  let base = Sdk.default_config ~n:cfg.Common.n ~f:cfg.Common.f ~sockdir in
  let sdk_cfg =
    { base with Sdk.rto_ms = 10; max_attempts = 2; deadline_ms = 10_000 }
  in
  let value = Sb_experiments.Workloads.distinct_value ~value_bytes:32 1 in
  let r =
    Sdk.run_keyed ~algorithm ~seed:1
      ~workload:[| [ ("", Trace.Write value) ] |]
      sdk_cfg
  in
  Alcotest.(check bool) "deadline did not strike" false r.Sdk.timed_out;
  Alcotest.(check int) "nothing completed" 0 r.Sdk.ops_completed;
  (match r.Sdk.failures with
   | [ { Sdk.fl_reason = Sdk.Attempts_exhausted n;
         fl_client = 0;
         fl_kind = Trace.Write _;
         _
       } ] ->
     Alcotest.(check bool)
       (Printf.sprintf "attempt count %d positive" n)
       true (n > 0)
   | fs -> Alcotest.failf "expected one exhaustion failure, got %d" (List.length fs));
  List.iter
    (fun h ->
      Alcotest.(check bool)
        (Printf.sprintf "server %d dial failures on the ledger" h.Sdk.sh_server)
        true
        (h.Sdk.sh_dial_failures > 0 && h.Sdk.sh_fail_streak > 0))
    r.Sdk.health

(* Same dead cluster but an unbounded retry budget: the run deadline
   converts the in-flight operation into a typed [Deadline_expired]
   failure rather than a silent hang. *)
let test_deadline_expired () =
  let algorithm, cfg = adaptive_setup ~value_bytes:32 ~f:1 ~k:1 in
  let sockdir = fresh_dir "sb-empty" in
  let base = Sdk.default_config ~n:cfg.Common.n ~f:cfg.Common.f ~sockdir in
  let sdk_cfg =
    { base with Sdk.rto_ms = 20; max_attempts = 0; deadline_ms = 400 }
  in
  let r =
    Sdk.run_keyed ~algorithm ~seed:1
      ~workload:[| [ ("", Trace.Read) ] |] sdk_cfg
  in
  Alcotest.(check bool) "run timed out" true r.Sdk.timed_out;
  Alcotest.(check int) "nothing completed" 0 r.Sdk.ops_completed;
  match r.Sdk.failures with
  | [ { Sdk.fl_reason = Sdk.Deadline_expired; fl_kind = Trace.Read; _ } ] -> ()
  | fs -> Alcotest.failf "expected one deadline failure, got %d" (List.length fs)

(* A SIGKILLed cluster restarted over the same state directory mid-run:
   the workload rides out the outage through reconnection, and each
   server's incarnation bump is observed exactly once, no matter how
   many reconnect attempts it took. *)
let test_restart_bump_counted_once () =
  let value_bytes = 32 in
  let algorithm, cfg = adaptive_setup ~value_bytes ~f:1 ~k:1 in
  let n = cfg.Common.n in
  let statedir = fresh_dir "sb-state" in
  let sockdir = fresh_dir "sb-sock" in
  let boot_daemons () =
    Daemon.run ~statedir ~sockdir ~servers:(List.init n Fun.id)
      ~init_obj:algorithm.R.init_obj ()
  in
  let pid1 = Unix.fork () in
  if pid1 = 0 then begin
    (try boot_daemons () with _ -> ());
    Unix._exit 0
  end;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_up () =
    if
      List.for_all
        (fun i -> Sys.file_exists (Daemon.sockpath ~sockdir i))
        (List.init n Fun.id)
    then ()
    else if Unix.gettimeofday () > deadline then failwith "cluster did not come up"
    else begin
      Unix.sleepf 0.02;
      wait_up ()
    end
  in
  wait_up ();
  (* A helper process kills the cluster mid-run and becomes the
     replacement over the same state directory. *)
  let killer = Unix.fork () in
  if killer = 0 then begin
    Unix.sleepf 0.3;
    (try Unix.kill pid1 Sys.sigkill with Unix.Unix_error _ -> ());
    Unix.sleepf 0.1;
    (try boot_daemons () with _ -> ());
    Unix._exit 0
  end;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        [ pid1; killer ])
    (fun () ->
      let workload =
        Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers:2
          ~writes_each:10 ~readers:1 ~reads_each:10
      in
      let base = Sdk.default_config ~n ~f:cfg.Common.f ~sockdir in
      let sdk_cfg =
        { base with Sdk.rto_ms = 30; reconnect_ms = 20; think_ms = 50 }
      in
      let r =
        Sdk.run_keyed ~algorithm ~seed:9 ~workload:(unkeyed workload) sdk_cfg
      in
      Alcotest.(check bool) "not timed out" false r.Sdk.timed_out;
      Alcotest.(check int) "all ops completed" r.Sdk.ops_invoked
        r.Sdk.ops_completed;
      Alcotest.(check bool)
        (Printf.sprintf "reconnected after the kill (%d)" r.Sdk.reconnects)
        true (r.Sdk.reconnects > 0);
      Alcotest.(check int) "each server's bump observed exactly once" n
        r.Sdk.recoveries_observed)

let () =
  Alcotest.run "service"
    [
      ( "wire",
        [
          test_roundtrip;
          test_roundtrip_v1;
          test_encodable_rule;
          test_reader_chunking;
          test_reader_adversarial;
          test_desc_semantic_roundtrip;
          test_batch_apply_equivalence;
          Alcotest.test_case "malformed frames rejected" `Quick test_malformed;
          Alcotest.test_case "persisted state round-trips" `Quick
            test_persisted_roundtrip;
        ] );
      ( "durability",
        [
          test_load_state_fuzz;
          Alcotest.test_case "corrupt state quarantined at boot" `Quick
            test_corrupt_state_quarantined;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "retry budget exhaustion is typed" `Quick
            test_attempts_exhausted;
          Alcotest.test_case "deadline expiry is typed" `Quick
            test_deadline_expired;
          Alcotest.test_case "restart bump observed exactly once" `Quick
            test_restart_bump_counted_once;
        ] );
      ( "server-core",
        [ Alcotest.test_case "at-most-once semantics" `Quick test_server_core_dedup ] );
      ( "cluster",
        [
          Alcotest.test_case "workload over sockets" `Quick test_cluster_workload;
          Alcotest.test_case "sim/socket protocol parity" `Quick
            test_sim_socket_parity;
          Alcotest.test_case "sessions keep their dedup keys apart" `Quick
            test_sessions_keep_dedup_apart;
          Alcotest.test_case "restart recovers into a fresh incarnation" `Quick
            test_restart_recovers_incarnation;
          Alcotest.test_case "wire-level duplicate is replayed" `Quick
            test_wire_dedup_replay;
          Alcotest.test_case "mixed-version cluster downgrades cleanly" `Quick
            test_mixed_version_cluster;
          Alcotest.test_case "drifted schema hash gets a typed reject" `Quick
            test_schema_hash_reject;
          Alcotest.test_case "rw write towards a v3 peer is dropped" `Quick
            test_rw_write_below_v4_dropped;
        ] );
    ]
