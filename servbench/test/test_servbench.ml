(* Self-tests of the service benchmark's helpers: percentiles, the /proc
   parsers, storage normalisation, input generation and the replay's
   routing.  None of them starts a daemon. *)

module W = Servbench.Workload
module M = Servbench.Measure
module Replay = Servbench.Replay
module Wire = Sb_service.Wire

let feq = Alcotest.float 1e-9

(* ---------------- percentiles ---------------- *)

let one_to n = Array.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  let a = one_to 20 in
  Alcotest.check feq "p50 of 1..20" 10.0 (M.nearest_rank a 50.0);
  Alcotest.check feq "p95 of 1..20" 19.0 (M.nearest_rank a 95.0);
  Alcotest.check feq "p100 is the max" 20.0 (M.nearest_rank a 100.0);
  Alcotest.check feq "p1 is the min" 1.0 (M.nearest_rank a 1.0);
  Alcotest.check feq "p90 of 1..10" 9.0 (M.nearest_rank (one_to 10) 90.0);
  Alcotest.check feq "single sample" 7.0 (M.nearest_rank [| 7.0 |] 99.0);
  Alcotest.(check int) "one sample beyond p95 of 20" 1 (M.beyond a 95.0);
  Alcotest.(check int) "ten beyond p99 of 1000" 10 (M.beyond (one_to 1000) 99.0);
  Alcotest.(check int) "none beyond the max" 0 (M.beyond a 100.0);
  Alcotest.check_raises "no samples"
    (Invalid_argument "Measure.nearest_rank: no samples") (fun () ->
      ignore (M.nearest_rank [||] 50.0))

let test_chunked () =
  Alcotest.check feq "median of an odd list" 2.0 (M.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "lower middle of an even list" 2.0 (M.median [ 4.0; 1.0; 3.0; 2.0 ]);
  (* Five chunks of 1..10, 11..20, ...: their p50s are 5, 15, ..., 45. *)
  let a = one_to 50 in
  Alcotest.check feq "fastest chunk's p50" 5.0 (M.fastest_chunk a ~chunks:5 50.0);
  (* Disturbed chunks do not move it. *)
  let b = Array.copy a in
  for i = 10 to 49 do
    b.(i) <- 1000.0
  done;
  Alcotest.check feq "slow chunks are passed over" 5.0 (M.fastest_chunk b ~chunks:5 50.0);
  (* Chunks keep the given order: descending samples put the fast chunk last. *)
  let d = Array.of_list (List.rev (Array.to_list a)) in
  Alcotest.check feq "chunks keep the given order" 5.0 (M.fastest_chunk d ~chunks:5 50.0);
  Alcotest.check feq "not the sorted order" 45.0 (List.hd (M.by_chunk d ~chunks:5 50.0));
  Alcotest.(check (list (float 1e-9))) "each chunk's p90" [ 9.0; 19.0; 29.0; 39.0; 49.0 ]
    (M.by_chunk a ~chunks:5 90.0)

let test_closed_loop_rate () =
  (* Slot 1 completes at 5, 10 and 40 ms; slot 0 at 10 and 30 ms. *)
  let times = M.closed_loop_times [ (1, 5.0); (0, 10.0); (1, 5.0); (0, 20.0); (1, 30.0) ] in
  Alcotest.(check (list (float 1e-9))) "running sums per slot, ascending"
    [ 5.0; 10.0; 10.0; 30.0; 40.0 ] (Array.to_list times);
  let even = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "1 ms apart is 1000 ops/s" 1000.0 (M.middle_rate even ~trim:0.0);
  (* A slow ramp and drain, 10 ms apart, are cut off. *)
  let t = ref 0.0 in
  let ramped =
    Array.init 1000 (fun i ->
        t := !t +. if i < 100 || i >= 900 then 10.0 else 1.0;
        !t)
  in
  Alcotest.check feq "ramp and drain trimmed" 1000.0 (M.middle_rate ramped ~trim:0.1);
  Alcotest.(check bool) "untrimmed, they slow it" true (M.middle_rate ramped ~trim:0.0 < 500.0);
  Alcotest.check_raises "nothing left to time"
    (Invalid_argument "Measure.middle_rate: nothing left to time") (fun () ->
      ignore (M.middle_rate [| 1.0; 2.0 |] ~trim:0.5))

(* ---------------- /proc parsers ---------------- *)

let stat_line =
  "4242 (a (weird) name) S 1 4242 4242 0 -1 4194560 1200 0 0 0 731 269 0 0 20 0 1 0 \
   5000 100000 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"

let status_text =
  "Name:\tmain.exe\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n\
   voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n"

let io_text =
  "rchar: 100\nwchar: 200\nsyscr: 3\nsyscw: 4\nread_bytes: 0\nwrite_bytes: 98304\n\
   cancelled_write_bytes: 4096\n"

let stat_text =
  "cpu  100 5 50 800 20 1 2 30 0 0\ncpu0 50 2 25 400 10 0 1 15 0 0\nintr 1\n"

let test_proc_parsers () =
  Alcotest.(check (list int)) "aggregate cpu line" [ 100; 5; 50; 800; 20; 1; 2; 30; 0; 0 ]
    (M.cpu_line stat_text);
  let before = M.cpu_line stat_text in
  let after = [ 200; 5; 90; 1600; 30; 1; 2; 70; 0; 0 ] in
  let steal, busy = M.steal_and_busy ~before ~after in
  (* Deltas: 100 user, 40 system, 800 idle, 10 iowait, 40 steal of 990. *)
  Alcotest.check feq "steal share" (40.0 /. 990.0) steal;
  Alcotest.check feq "busy share" (140.0 /. 990.0) busy;
  Alcotest.(check int) "utime + stime after a parenthesised name" 1000
    (M.cpu_ticks_of_stat stat_line);
  Alcotest.(check int) "VmHWM in kB" 51234 (M.field_of status_text "VmHWM");
  Alcotest.(check int) "voluntary switches" 17
    (M.field_of status_text "voluntary_ctxt_switches");
  Alcotest.(check int) "write_bytes, not cancelled_write_bytes" 98304
    (M.field_of io_text "write_bytes");
  Alcotest.check_raises "absent field" Not_found (fun () ->
      ignore (M.field_of io_text "VmHWM"));
  let self = M.sample (Unix.getpid ()) in
  Alcotest.(check bool) "this process has a peak RSS" true (self.M.hwm_kb > 0);
  Alcotest.(check bool) "and has used CPU" true (self.M.cpu_s >= 0.0)

(* ---------------- storage normalisation ---------------- *)

let shard_stat j ~max_key_bits =
  {
    Wire.ss_shard = j;
    ss_incarnation = 1;
    ss_keys = 0;
    ss_storage_bits = 0;
    ss_max_bits = 0;
    ss_max_key_bits = max_key_bits;
  }

let stats sid ~shards ~storage ~max_bits =
  {
    Wire.st_server = sid;
    st_incarnation = 1;
    st_storage_bits = storage;
    st_max_bits = max_bits;
    st_dedup_hits = 0;
    st_applied = 0;
    st_keys = 0;
    st_shards = shards;
  }

let test_storage () =
  let shards = List.init 4 (fun j -> shard_stat j ~max_key_bits:(100 * (j + 1))) in
  let fleet =
    List.init 6 (fun sid -> stats sid ~shards ~storage:0 ~max_bits:0)
  in
  Alcotest.(check int) "keys plus one legacy register per shard" 1004
    (M.live_registers ~keys:1000 fleet);
  Alcotest.(check int) "an unsharded fleet counts one" 11
    (M.live_registers ~keys:10 [ stats 0 ~shards:[] ~storage:0 ~max_bits:0 ]);
  Alcotest.(check int) "per-key peak: largest shard mark, summed over servers" 2400
    (M.per_key_peak_bits fleet);
  (* k = f = 2: the quiescent floor is (2f+k)D/k = 3D per register. *)
  let value_bytes = 1024 in
  let floor = M.floor_bits ~f:2 ~k:2 ~value_bytes in
  Alcotest.(check int) "floor 3D" (3 * 8 * value_bytes) floor;
  Alcotest.check feq "a fleet at the floor reads 3x" 3.0
    (M.storage_x ~bits:(1004 * floor) ~live:1004 ~value_bytes);
  Alcotest.(check int) "ceiling saturates at (2f+k)^2 D/k" (36 * 8 * value_bytes / 2)
    (M.ceiling_bits ~f:2 ~k:2 ~c:128 ~value_bytes);
  Alcotest.(check int) "ceiling (c+1)(2f+k) D/k at low c" (2 * 6 * 8 * value_bytes / 2)
    (M.ceiling_bits ~f:2 ~k:2 ~c:1 ~value_bytes);
  Alcotest.(check int) "replication: 5D per register" (5 * 8 * 64)
    (M.floor_bits ~f:2 ~k:1 ~value_bytes:64)

(* ---------------- inputs ---------------- *)

let test_inputs () =
  List.iter
    (fun w ->
      let a = W.inputs w ~seed:7 ~seconds:4 and b = W.inputs w ~seed:7 ~seconds:4 in
      let c = W.inputs w ~seed:8 ~seconds:4 in
      Alcotest.(check string) (w.W.name ^ ": same seed, same digest") a.W.digest b.W.digest;
      Alcotest.(check int) (w.W.name ^ ": same seed, same arrivals")
        (Array.length a.W.arrivals) (Array.length b.W.arrivals);
      Alcotest.(check bool) (w.W.name ^ ": another seed, another digest") true
        (a.W.digest <> c.W.digest);
      Alcotest.(check bool) (w.W.name ^ ": another seed, other arrivals") true
        (Array.map (fun x -> x.W.at_ms) a.W.arrivals
        <> Array.map (fun x -> x.W.at_ms) c.W.arrivals);
      (* About rate x window arrivals, inside the window, in order. *)
      let expect = w.W.open_rate *. float_of_int (W.open_ms w ~seconds:4) /. 1000.0 in
      let got = float_of_int (Array.length a.W.arrivals) in
      Alcotest.(check bool) (w.W.name ^ ": Poisson count near rate x window") true
        (Float.abs (got -. expect) < 5.0 *. Float.sqrt expect);
      Array.iteri
        (fun i x ->
          Alcotest.(check bool) "arrival inside the window" true
            (x.W.at_ms > 0.0 && x.W.at_ms <= float_of_int (W.open_ms w ~seconds:4));
          if i > 0 then
            Alcotest.(check bool) "arrivals in time order" true
              (x.W.at_ms >= a.W.arrivals.(i - 1).W.at_ms))
        a.W.arrivals;
      (* Every key is written once in set-up and read once in the read-back. *)
      let setup_keys = List.sort compare (List.concat_map (List.map fst) (Array.to_list a.W.setup)) in
      Alcotest.(check (list int)) "set-up writes each key once" (List.init w.W.keys Fun.id) setup_keys;
      Alcotest.(check int) "read-back reads each key once" w.W.keys
        (Array.fold_left (fun n l -> n + List.length l) 0 a.W.readback);
      Alcotest.(check int) "cap slots" w.W.inflight (Array.length a.W.cap);
      (* Value ids are dense and decode back to the key they were made for. *)
      Array.iteri
        (fun id key ->
          if id mod 97 = 0 then begin
            Alcotest.(check (option int)) "value id round trip" (Some id)
              (W.value_id w (W.value w id));
            Alcotest.(check bool) "key in range" true (key >= 0 && key < w.W.keys)
          end)
        a.W.value_key;
      Array.iter
        (fun x ->
          Option.iter
            (fun id -> Alcotest.(check int) "open write keyed" x.W.key a.W.value_key.(id))
            x.W.write)
        a.W.arrivals)
    W.all;
  let w = List.hd W.all in
  Alcotest.(check (option int)) "the zero value is no write's" None
    (W.value_id w (Bytes.make w.W.value_bytes '\000'))

(* ---------------- replay routing ---------------- *)

let request key ticket =
  {
    Wire.rq_key = key;
    rq_client = 0;
    rq_ticket = ticket;
    rq_op = ticket;
    rq_nature = `Readonly;
    rq_payload = [];
    rq_desc = Sb_sim.Rmwdesc.Snapshot;
  }

let test_replay_routing () =
  let w = List.hd W.all in
  let algorithm = Sb_registers.Adaptive.make (W.config w) in
  let init_obj = algorithm.Sb_sim.Runtime.init_obj in
  let cap = Replay.create ~n:2 in
  let hello = Wire.encode_msg (Wire.Hello { client = 0; schema = None }) in
  Replay.record cap ~server:0 hello;
  Replay.record cap ~server:0
    (Wire.encode_msg (Wire.Req_batch [ request "a" 1; request "b" 2; request "c" 3 ]));
  Replay.mark cap;
  Replay.record cap ~server:0 (Wire.encode_msg (Wire.Request (request "d" 4)));
  Replay.record cap ~server:1 hello;
  Replay.record cap ~server:1 (Wire.encode_msg (Wire.Request (request "e" 1)));
  let r = Replay.run ~shards:W.shards ~init_obj cap in
  Alcotest.(check int) "timed frames: server 0 after the mark, all of server 1" 3 r.Replay.frames;
  Alcotest.(check int) "timed request frames" 2 r.Replay.request_frames;
  Alcotest.(check int) "timed requests" 2 r.Replay.requests;
  Alcotest.(check int) "no saves without a save directory" 0 r.Replay.saves;
  let ring = Sb_kv.Shard.create ~shards:W.shards () in
  let expect keys j =
    1 + List.length (List.filter (fun k -> Sb_kv.Shard.lookup ring k = j) keys)
  in
  Array.iteri
    (fun j (s : Replay.shard_state) ->
      Alcotest.(check int)
        (Printf.sprintf "server 0 shard %d keys" j)
        (expect [ "a"; "b"; "c"; "d" ] j) s.Replay.keys)
    r.Replay.shards.(0);
  Array.iteri
    (fun j (s : Replay.shard_state) ->
      Alcotest.(check int)
        (Printf.sprintf "server 1 shard %d keys" j)
        (expect [ "e" ] j) s.Replay.keys)
    r.Replay.shards.(1);
  (* The daemon-stats comparison: equal stats agree, a changed count
     is reported. *)
  let as_stats sid =
    let mine = r.Replay.shards.(sid) in
    {
      Wire.st_server = sid;
      st_incarnation = 1;
      st_storage_bits = 0;
      st_max_bits = 0;
      st_dedup_hits = Array.fold_left (fun a s -> a + s.Replay.dedup_hits) 0 mine;
      st_applied = Array.fold_left (fun a s -> a + s.Replay.applied) 0 mine;
      st_keys = 0;
      st_shards =
        Array.to_list
          (Array.mapi
             (fun j (s : Replay.shard_state) ->
               {
                 Wire.ss_shard = j;
                 ss_incarnation = 1;
                 ss_keys = s.Replay.keys;
                 ss_storage_bits = s.Replay.storage_bits;
                 ss_max_bits = s.Replay.max_bits;
                 ss_max_key_bits = s.Replay.max_key_bits;
               })
             mine);
    }
  in
  let fleet = [ as_stats 0; as_stats 1 ] in
  Alcotest.(check (list string)) "replay agrees with matching stats" [] (Replay.mismatches r fleet);
  let off = { (as_stats 1) with Wire.st_applied = 99 } in
  Alcotest.(check int) "a wrong applied count is reported" 1
    (List.length (Replay.mismatches r [ as_stats 0; off ]))

let test_replay_saves () =
  let w = List.hd W.all in
  let algorithm = Sb_registers.Adaptive.make (W.config w) in
  let cap = Replay.create ~n:1 in
  Replay.mark cap;
  Replay.record cap ~server:0 (Wire.encode_msg (Wire.Request (request "k" 1)));
  let dir = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "servbench-test-%d" (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  let r =
    Replay.run ~save_dir:dir ~shards:W.shards ~init_obj:algorithm.Sb_sim.Runtime.init_obj cap
  in
  Alcotest.(check int) "three saves per shard" (3 * W.shards) r.Replay.saves;
  for j = 0 to W.shards - 1 do
    let file = Sb_service.Daemon.statefile_shard ~statedir:dir ~shards:W.shards 0 j in
    (match Sb_service.Daemon.load_state ~max_version:Wire.version file with
     | Sb_service.Daemon.Loaded _ -> ()
     | _ -> Alcotest.failf "shard %d state does not load back" j);
    Sys.remove file
  done;
  Unix.rmdir dir

let () =
  Alcotest.run "servbench"
    [
      ( "measure",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "chunked percentiles" `Quick test_chunked;
          Alcotest.test_case "closed-loop rate" `Quick test_closed_loop_rate;
          Alcotest.test_case "proc parsers" `Quick test_proc_parsers;
          Alcotest.test_case "storage normalisation" `Quick test_storage;
        ] );
      ("workload", [ Alcotest.test_case "seeded inputs" `Quick test_inputs ]);
      ( "replay",
        [
          Alcotest.test_case "per-server and per-shard routing" `Quick test_replay_routing;
          Alcotest.test_case "saves load back" `Quick test_replay_saves;
        ] );
    ]
