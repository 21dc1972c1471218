(* Tests for the key-value composition layer. *)

module Store = Sb_kv.Store
module Common = Sb_registers.Common
module Codec = Sb_codec.Codec

let cfg ?(value_bytes = 32) ?(f = 2) ?(k = 2) () =
  let n = (2 * f) + k in
  { Common.n; f; codec = Codec.rs_vandermonde ~value_bytes ~k ~n }

let repl_cfg ?(value_bytes = 32) ?(f = 2) () =
  let n = (2 * f) + 1 in
  { Common.n; f; codec = Codec.replication ~value_bytes ~n }

let b = Bytes.of_string

let test_put_get () =
  let s = Store.create ~cfg:(cfg ()) () in
  Store.put s ~key:"alpha" (b "hello");
  Store.put s ~key:"beta" (b "world!");
  Alcotest.(check (option bytes)) "alpha" (Some (b "hello")) (Store.get s ~key:"alpha");
  Alcotest.(check (option bytes)) "beta" (Some (b "world!")) (Store.get s ~key:"beta")

let test_overwrite () =
  let s = Store.create ~cfg:(cfg ()) () in
  Store.put s ~key:"k" (b "one");
  Store.put s ~key:"k" (b "two");
  Alcotest.(check (option bytes)) "latest wins" (Some (b "two")) (Store.get s ~key:"k")

let test_missing_key () =
  let s = Store.create ~cfg:(cfg ()) () in
  Alcotest.(check (option bytes)) "missing" None (Store.get s ~key:"nope");
  Alcotest.(check (list string)) "get does not create" [] (Store.keys s)

let test_empty_value () =
  let s = Store.create ~cfg:(cfg ()) () in
  Store.put s ~key:"k" Bytes.empty;
  Alcotest.(check (option bytes)) "empty round trip" (Some Bytes.empty)
    (Store.get s ~key:"k")

let test_binary_values () =
  let s = Store.create ~cfg:(cfg ()) () in
  let payload = Bytes.of_string "\x00\xff\x00binary\x01" in
  Store.put s ~key:"bin" payload;
  Alcotest.(check (option bytes)) "binary round trip" (Some payload)
    (Store.get s ~key:"bin")

let test_capacity () =
  let s = Store.create ~cfg:(cfg ~value_bytes:16 ()) () in
  Alcotest.(check int) "capacity = value - prefix" 12 (Store.max_value_bytes s);
  Store.put s ~key:"full" (Bytes.make 12 'x');
  Alcotest.(check (option bytes)) "max-size value" (Some (Bytes.make 12 'x'))
    (Store.get s ~key:"full");
  Alcotest.(check bool) "oversize rejected" true
    (try Store.put s ~key:"big" (Bytes.make 13 'x'); false
     with Invalid_argument _ -> true)

let test_delete () =
  let s = Store.create ~cfg:(cfg ()) () in
  Store.put s ~key:"k" (b "v");
  let before = Store.storage_bits s in
  Store.delete s ~key:"k";
  Alcotest.(check (option bytes)) "gone" None (Store.get s ~key:"k");
  Alcotest.(check bool) "storage released" true (Store.storage_bits s < before);
  Alcotest.(check (list string)) "keys updated" [] (Store.keys s)

let test_keys_sorted () =
  let s = Store.create ~cfg:(cfg ()) () in
  List.iter (fun k -> Store.put s ~key:k (b k)) [ "zeta"; "alpha"; "mid" ];
  Alcotest.(check (list string)) "sorted" [ "alpha"; "mid"; "zeta" ] (Store.keys s)

let test_storage_accounting () =
  let c = cfg ~value_bytes:32 ~f:2 ~k:2 () in
  let s = Store.create ~cfg:c () in
  Alcotest.(check int) "empty store stores nothing" 0 (Store.storage_bits s);
  Store.put s ~key:"a" (b "x");
  let one = Store.storage_bits s in
  (* Quiescent register: (2f+k) pieces of D/k bits. *)
  Alcotest.(check bool) "per-key quiescent bound" true
    (one <= c.Common.n * Codec.block_bits c.codec 0);
  Store.put s ~key:"b" (b "y");
  Alcotest.(check bool) "storage grows with keys" true (Store.storage_bits s > one);
  Alcotest.(check bool) "max tracked" true (Store.max_storage_bits s >= Store.storage_bits s)

let test_crash_tolerance () =
  let s = Store.create ~cfg:(cfg ~f:2 ~k:2 ()) () in
  Store.put s ~key:"k" (b "before");
  Store.crash_node s ~key:"k" 0;
  Store.crash_node s ~key:"k" 3;
  (* f = 2 crashes: reads and writes still work. *)
  Alcotest.(check (option bytes)) "read after crashes" (Some (b "before"))
    (Store.get s ~key:"k");
  Store.put s ~key:"k" (b "after");
  Alcotest.(check (option bytes)) "write after crashes" (Some (b "after"))
    (Store.get s ~key:"k");
  Alcotest.(check bool) "crash beyond f rejected" true
    (try Store.crash_node s ~key:"k" 1; false with Invalid_argument _ -> true);
  Store.crash_node s ~key:"absent" 0 (* no-op *)

let test_delete_under_crashes () =
  (* Deletion is a write of the tombstone encoding: it must survive up
     to f crashed base objects, release the storage, and leave a
     regular history. *)
  let s = Store.create ~cfg:(cfg ~f:2 ~k:2 ()) () in
  Store.put s ~key:"k" (b "doomed");
  let before = Store.storage_bits s in
  Store.crash_node s ~key:"k" 1;
  Store.crash_node s ~key:"k" 4;
  Store.delete s ~key:"k";
  Alcotest.(check (option bytes)) "deleted despite f crashes" None
    (Store.get s ~key:"k");
  Alcotest.(check bool) "storage released" true (Store.storage_bits s < before);
  Alcotest.(check (list string)) "keys updated" [] (Store.keys s);
  List.iter
    (fun (key, verdict) ->
      match verdict with
      | Sb_spec.Regularity.Ok -> ()
      | Sb_spec.Regularity.Violation cx ->
        Alcotest.failf "%s: %s" key (Sb_spec.Regularity.to_string cx))
    (Store.check_consistency s)

(* Smoke test for the service transport: the same register protocol the
   store runs in-process, driven over Unix-domain sockets against a
   forked daemon cluster. *)
let test_socket_put_get () =
  let module R = Sb_sim.Runtime in
  let module Trace = Sb_sim.Trace in
  let module Daemon = Sb_service.Daemon in
  let module Sdk = Sb_service.Sdk in
  let value_bytes = 32 in
  let f, k = (1, 1) in
  let n = (2 * f) + k in
  let c = { Common.n; f; codec = Codec.rs_vandermonde ~value_bytes ~k ~n } in
  let algorithm = Sb_registers.Adaptive.make c in
  let sockdir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sb-kv-sock-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir sockdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       Daemon.run ~sockdir ~servers:(List.init n Fun.id)
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
        let value = Sb_experiments.Workloads.distinct_value ~value_bytes 1 in
        let r =
          Sdk.run_keyed ~algorithm ~seed:7
            ~workload:[| [ ("", Trace.Write value); ("", Trace.Read) ] |]
            (Sdk.default_config ~n ~f ~sockdir)
        in
        Alcotest.(check int) "both ops completed" 2 r.Sdk.ops_completed;
        let reads =
          List.filter_map
            (fun (_, kind, _, ret, res) ->
              match (kind, ret) with Trace.Read, Some _ -> Some res | _ -> None)
            (Trace.operations r.Sdk.trace)
        in
        Alcotest.(check (list (option bytes))) "read returns the written value"
          [ Some value ] reads;
        let history =
          Sb_spec.History.of_trace ~initial:(Common.initial_value c) r.Sdk.trace
        in
        match Sb_spec.Regularity.check_strong history with
        | Sb_spec.Regularity.Ok -> ()
        | Sb_spec.Regularity.Violation cx ->
          Alcotest.failf "socket history not regular: %s"
            (Sb_spec.Regularity.to_string cx))

(* The sharded fleet end to end: one forked daemon process per server,
   each hosting 4 shards; three concurrent SDK clients put/get/delete
   disjoint slices of 120 keys over batched v3 frames while a killer
   process SIGKILLs server n-1 mid-run (the one tolerated crash at
   f = 1); then a single-client read sweep verifies every key against
   the last value its writer left, and the quiescent stats of the
   surviving servers are checked against Theorem 2 — per-key ceiling
   during the run, exact (keys + shards) x D/k GC floor per server
   after it. *)
let test_sharded_socket_kv () =
  let module R = Sb_sim.Runtime in
  let module Trace = Sb_sim.Trace in
  let module Daemon = Sb_service.Daemon in
  let module Sdk = Sb_service.Sdk in
  let module Wire = Sb_service.Wire in
  let value_bytes = 32 in
  let f, k = (1, 1) in
  let n = (2 * f) + k in
  let shards = 4 in
  let keys = 120 in
  let c = { Common.n; f; codec = Codec.rs_vandermonde ~value_bytes ~k ~n } in
  let algorithm = Sb_registers.Adaptive.make c in
  let sockdir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sb-kv-shard-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir sockdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let start_server i =
    let pid = Unix.fork () in
    if pid = 0 then begin
      (try
         Daemon.run ~shards ~sockdir ~servers:[ i ]
           ~init_obj:algorithm.R.init_obj ()
       with _ -> ());
      Unix._exit 0
    end
    else pid
  in
  let pids = Array.init n start_server in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        pids)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_up () =
        if
          List.for_all
            (fun i -> Sys.file_exists (Daemon.sockpath ~sockdir i))
            (List.init n Fun.id)
        then ()
        else if Unix.gettimeofday () > deadline then
          failwith "sharded cluster did not come up"
        else begin
          Unix.sleepf 0.02;
          wait_up ()
        end
      in
      wait_up ();
      let key i = Sdk.key_name i in
      let value i = Sb_experiments.Workloads.distinct_value ~value_bytes i in
      let tombstone = Bytes.make value_bytes '\000' in
      (* Client j owns keys with i mod 3 = j: writes each, reads each
         back, then deletes (tombstone-writes) every third of its own. *)
      let clients = 3 in
      let slice j = List.filter (fun i -> i mod clients = j)
          (List.init keys Fun.id) in
      let expected = Array.init keys value in
      let workload =
        Array.init clients (fun j ->
            let mine = slice j in
            List.map (fun i -> (key i, Trace.Write (value i))) mine
            @ List.map (fun i -> (key i, Trace.Read)) mine
            @ List.filter_map
                (fun i ->
                  if i mod 3 = 0 then begin
                    expected.(i) <- tombstone;
                    Some (key i, Trace.Write tombstone)
                  end
                  else None)
                mine)
      in
      let cfg_sdk =
        {
          (Sdk.default_config ~n ~f ~sockdir) with
          Sdk.batch_max = 8;
          flush_ms = 1;
          think_ms = 2;
        }
      in
      (* The killer lands while the clients are mid-workload: the
         crash is a real SIGKILL of a separate daemon process. *)
      let killer = Unix.fork () in
      if killer = 0 then begin
        Unix.sleepf 0.25;
        (try Unix.kill pids.(n - 1) Sys.sigkill with Unix.Unix_error _ -> ());
        Unix._exit 0
      end;
      let r = Sdk.run_keyed ~algorithm ~seed:13 ~workload cfg_sdk in
      (try ignore (Unix.waitpid [] killer) with Unix.Unix_error _ -> ());
      Alcotest.(check bool) "phase A did not time out" false r.Sdk.timed_out;
      Alcotest.(check int) "phase A all ops completed" r.Sdk.ops_invoked
        r.Sdk.ops_completed;
      (* Read sweep from one fresh client: invocation order is workload
         order, so the i-th read's result is key i's final value. *)
      let sweep =
        Sdk.run_keyed ~algorithm ~seed:17
          ~workload:[| List.init keys (fun i -> (key i, Trace.Read)) |]
          { cfg_sdk with Sdk.think_ms = 0 }
      in
      Alcotest.(check int) "sweep all ops completed" keys
        sweep.Sdk.ops_completed;
      let got =
        List.filter_map
          (fun (_, kind, _, ret, res) ->
            match (kind, ret) with
            | Trace.Read, Some _ -> Some res
            | _ -> None)
          (Trace.operations sweep.Sdk.trace)
      in
      Alcotest.(check (list (option bytes)))
        "every key reads back its writer's last value"
        (Array.to_list (Array.map Option.some expected))
        got;
      (* Theorem 2 against the survivors' quiescent stats. *)
      let live = List.init (n - 1) Fun.id in
      let stats = Sdk.fetch_stats ~sockdir ~servers:live () in
      Alcotest.(check int) "both surviving servers answered stats"
        (n - 1) (List.length stats);
      let d_bits = 8 * value_bytes in
      let m = (2 * f) + k in
      (* One client per key: concurrency c = 1, so the per-key ceiling
         is min((c+1)m, m^2) D/k.  Summing each survivor's largest
         per-key high-water mark over-approximates any one key's
         fleet-wide peak. *)
      let ceiling_bits = min ((1 + 1) * m) (m * m) * d_bits / k in
      let per_key_peak =
        List.fold_left
          (fun acc (st : Wire.stats) ->
            Alcotest.(check int)
              "per-shard stats cover every shard" shards
              (List.length st.Wire.st_shards);
            acc
            + List.fold_left
                (fun a (ss : Wire.shard_stat) -> max a ss.Wire.ss_max_key_bits)
                0 st.Wire.st_shards)
          0 stats
      in
      Alcotest.(check bool)
        (Printf.sprintf "per-key peak %d within Theorem 2 ceiling %d"
           per_key_peak ceiling_bits)
        true
        (per_key_peak <= ceiling_bits);
      (* Exact GC floor: the survivors were in every quorum, so each
         holds exactly one D/k-bit block per live object — the 120 keys
         plus each shard's legacy "" register.  Tombstoned keys still
         cost the floor: a register cannot store less and stay live. *)
      let floor_per_server = (keys + shards) * d_bits / k in
      List.iter
        (fun (st : Wire.stats) ->
          Alcotest.(check int)
            (Printf.sprintf "server %d quiescent storage at the exact floor"
               st.Wire.st_server)
            floor_per_server st.Wire.st_storage_bits)
        stats)

let test_consistency_check () =
  let s = Store.create ~cfg:(cfg ()) () in
  List.iter (fun i -> Store.put s ~key:"k" (b (string_of_int i))) [ 1; 2; 3 ];
  ignore (Store.get s ~key:"k");
  List.iter
    (fun (key, verdict) ->
      match verdict with
      | Sb_spec.Regularity.Ok -> ()
      | Sb_spec.Regularity.Violation cx ->
        Alcotest.failf "%s: %s" key (Sb_spec.Regularity.to_string cx))
    (Store.check_consistency s)

let test_atomic_store () =
  let s = Store.create ~consistency:Store.Atomic ~cfg:(repl_cfg ()) () in
  Store.put s ~key:"k" (b "atomic");
  Alcotest.(check (option bytes)) "round trip" (Some (b "atomic")) (Store.get s ~key:"k");
  List.iter
    (fun (key, verdict) ->
      match verdict with
      | Sb_spec.Regularity.Ok -> ()
      | Sb_spec.Regularity.Violation cx ->
        Alcotest.failf "%s: %s" key (Sb_spec.Regularity.to_string cx))
    (Store.check_consistency s)

let test_safe_store () =
  let s = Store.create ~consistency:Store.Safe_only ~cfg:(cfg ()) () in
  Store.put s ~key:"k" (b "safe");
  (* Single-client per key: no concurrency, so even the safe register
     returns real values. *)
  Alcotest.(check (option bytes)) "round trip" (Some (b "safe")) (Store.get s ~key:"k")

let test_deterministic () =
  let run () =
    let s = Store.create ~seed:9 ~cfg:(cfg ()) () in
    List.iter (fun i -> Store.put s ~key:(string_of_int (i mod 3)) (b (string_of_int i)))
      [ 1; 2; 3; 4; 5; 6 ];
    (Store.storage_bits s, Store.max_storage_bits s, Store.get s ~key:"1")
  in
  Alcotest.(check bool) "same seed, same behaviour" true (run () = run ())

let test_many_keys () =
  let c = cfg ~value_bytes:32 ~f:1 ~k:1 () in
  let s = Store.create ~cfg:c () in
  for i = 1 to 50 do
    Store.put s ~key:(Printf.sprintf "key-%02d" i) (b (string_of_int i))
  done;
  Alcotest.(check int) "50 keys" 50 (List.length (Store.keys s));
  for i = 1 to 50 do
    Alcotest.(check (option bytes))
      (Printf.sprintf "key-%02d" i)
      (Some (b (string_of_int i)))
      (Store.get s ~key:(Printf.sprintf "key-%02d" i))
  done

let test_value_too_small () =
  Alcotest.(check bool) "tiny register rejected" true
    (try
       ignore
         (Store.create
            ~cfg:{ Common.n = 3; f = 1; codec = Codec.replication ~value_bytes:4 ~n:3 }
            ());
       false
     with Invalid_argument _ -> true)

(* Model-based test: a random sequence of put/get/delete against the
   replicated store must behave exactly like a Hashtbl, for every
   backend. *)
let test_model_based =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"store behaves like a map (model-based)"
       QCheck2.Gen.(int_bound 10_000_000)
       (fun seed ->
         let prng = Sb_util.Prng.create seed in
         let consistency =
           Sb_util.Prng.pick prng
             [| Store.Regular; Store.Atomic; Store.Safe_only |]
         in
         let c =
           match consistency with
           | Store.Atomic -> repl_cfg ()
           | _ -> cfg ()
         in
         let store = Store.create ~seed ~consistency ~cfg:c () in
         let model : (string, bytes) Hashtbl.t = Hashtbl.create 8 in
         let keys = [| "a"; "b"; "c" |] in
         let ok = ref true in
         for step = 0 to 19 do
           let key = Sb_util.Prng.pick prng keys in
           match Sb_util.Prng.int prng 3 with
           | 0 ->
             let value = Bytes.of_string (Printf.sprintf "v%d-%d" seed step) in
             Store.put store ~key value;
             Hashtbl.replace model key value
           | 1 ->
             Store.delete store ~key;
             Hashtbl.remove model key
           | _ ->
             let expected = Hashtbl.find_opt model key in
             if Store.get store ~key <> expected then ok := false
         done;
         (* Final sweep: every key agrees with the model. *)
         Array.iter
           (fun key ->
             if Store.get store ~key <> Hashtbl.find_opt model key then ok := false)
           keys;
         !ok
         && List.sort compare (Store.keys store)
            = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model [])))

let () =
  Alcotest.run "kv"
    [
      ( "basics",
        [
          Alcotest.test_case "put/get" `Quick test_put_get;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "missing key" `Quick test_missing_key;
          Alcotest.test_case "empty value" `Quick test_empty_value;
          Alcotest.test_case "binary values" `Quick test_binary_values;
          Alcotest.test_case "capacity" `Quick test_capacity;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "keys sorted" `Quick test_keys_sorted;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "storage accounting" `Quick test_storage_accounting;
          Alcotest.test_case "crash tolerance" `Quick test_crash_tolerance;
          Alcotest.test_case "delete under crashes" `Quick test_delete_under_crashes;
          Alcotest.test_case "socket put/get" `Quick test_socket_put_get;
          Alcotest.test_case "sharded socket kv" `Quick test_sharded_socket_kv;
          Alcotest.test_case "consistency check" `Quick test_consistency_check;
          Alcotest.test_case "atomic backend" `Quick test_atomic_store;
          Alcotest.test_case "safe backend" `Quick test_safe_store;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "many keys" `Quick test_many_keys;
          Alcotest.test_case "value too small" `Quick test_value_too_small;
          test_model_based;
        ] );
    ]
