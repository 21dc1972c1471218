(* Benchmark harness.

   Two parts:
   - the per-claim experiment tables (E1-E10 of DESIGN.md), regenerating
     every analytic "table" of the paper's evaluation, and
   - Bechamel microbenchmarks of the substrates (Galois-field arithmetic,
     codec encode/decode, simulator and adversary step rates).

   plus `sanitize-overhead`: the cost of running with the [Sb_sanitize]
   monitors attached (EXPERIMENTS.md row M2; exits non-zero past 2.5x),
   and `chaos-overhead`: the per-step cost of the [Sb_faults] fault
   plane on message-passing runs (row M3; same 2.5x budget).

   Usage: main.exe [tables|micro|sanitize-overhead|chaos-overhead|all]
   (default: all). *)

open Bechamel
open Toolkit

let ns_per_run results name =
  match Hashtbl.find_opt results name with
  | None -> nan
  | Some ols -> (
    match Analyze.OLS.estimates ols with
    | Some (e :: _) -> e
    | _ -> nan)

let measure ~name tests =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (Test.make_grouped ~name tests) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Analyze.all ols Instance.monotonic_clock raw

let run_group ~name tests =
  let results = measure ~name tests in
  let table =
    Sb_util.Table.create ~title:(Printf.sprintf "B  %s (ns/op)" name)
      [ ("benchmark", Sb_util.Table.Left); ("ns/op", Sb_util.Table.Right) ]
  in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun n ->
      Sb_util.Table.add_row table [ n; Printf.sprintf "%.1f" (ns_per_run results n) ])
    (List.sort compare names);
  Sb_util.Table.print table

(* ------------------------------------------------------------------ *)
(* Microbenchmarks                                                     *)
(* ------------------------------------------------------------------ *)

let value_bytes = 1024
let prng = Sb_util.Prng.create 4242
let value = Sb_util.Prng.bytes prng value_bytes

let codec_tests =
  let mk name codec =
    let open Sb_codec.Codec in
    let k = codec.k in
    (* Decode from the last k of the first k+2 block indices, when the
       codec has spare blocks; otherwise from the k data blocks. *)
    let avail = match codec.n with Some n -> min n (k + 2) | None -> k + 2 in
    let blocks = List.init avail (fun i -> (i, codec.encode value i)) in
    let last_k = List.filteri (fun idx _ -> idx >= avail - k) blocks in
    [
      Test.make ~name:(name ^ "-encode1")
        (Staged.stage (fun () -> ignore (codec.encode value 0)));
      Test.make
        ~name:(name ^ "-encode-all")
        (Staged.stage (fun () ->
             let n = match codec.n with Some n -> n | None -> k + 4 in
             for i = 0 to n - 1 do
               ignore (codec.encode value i)
             done));
      Test.make ~name:(name ^ "-decode")
        (Staged.stage (fun () -> ignore (codec.decode last_k)));
    ]
  in
  List.concat
    [
      mk "replication" (Sb_codec.Codec.replication ~value_bytes ~n:12);
      mk "striping-k4" (Sb_codec.Codec.striping ~value_bytes ~k:4);
      mk "rs-vand-k4n12" (Sb_codec.Codec.rs_vandermonde ~value_bytes ~k:4 ~n:12);
      mk "rs-vand-k8n24" (Sb_codec.Codec.rs_vandermonde ~value_bytes ~k:8 ~n:24);
      mk "rs-cauchy-k4n12" (Sb_codec.Codec.rs_cauchy ~value_bytes ~k:4 ~n:12);
      mk "rs16-k4n12" (Sb_codec.Codec.rs_vandermonde16 ~value_bytes ~k:4 ~n:12);
      mk "fountain-k4" (Sb_codec.Codec.fountain ~value_bytes ~k:4 ());
    ]

let gf_tests =
  [
    Test.make ~name:"gf256-mul-table"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 1 to 255 do
             acc := !acc lxor Sb_gf.Gf256.mul i 173
           done;
           ignore !acc));
    Test.make ~name:"gf256-mul-slow"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 1 to 255 do
             acc := !acc lxor Sb_gf.Gf256.mul_slow i 173
           done;
           ignore !acc));
    Test.make ~name:"gf256-inv"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 1 to 255 do
             acc := !acc lxor Sb_gf.Gf256.inv i
           done;
           ignore !acc));
    Test.make ~name:"gf2p16-mul-table"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 1 to 255 do
             acc := !acc lxor Sb_gf.Gf2p16.mul (i * 171) 44203
           done;
           ignore !acc));
  ]

let sim_tests =
  let vb = 64 in
  let f = 2 and k = 2 in
  let n = (2 * f) + k in
  let codec = Sb_codec.Codec.rs_vandermonde ~value_bytes:vb ~k ~n in
  let cfg = { Sb_registers.Common.n; f; codec } in
  let workload =
    Sb_experiments.Workloads.writers_and_readers ~value_bytes:vb ~writers:2
      ~writes_each:2 ~readers:2 ~reads_each:2
  in
  let full_run algo policy_of () =
    let w = Sb_sim.Runtime.create ~algorithm:algo ~n ~f ~workload () in
    ignore (Sb_sim.Runtime.run w (policy_of ()))
  in
  [
    Test.make ~name:"sim-adaptive-random-run"
      (Staged.stage
         (full_run (Sb_registers.Adaptive.make cfg) (fun () ->
              Sb_sim.Runtime.random_policy ~seed:1 ())));
    Test.make ~name:"sim-adaptive-fifo-run"
      (Staged.stage
         (full_run (Sb_registers.Adaptive.make cfg) (fun () ->
              Sb_sim.Runtime.fifo_policy ())));
    Test.make ~name:"sim-abd-random-run"
      (Staged.stage
         (full_run
            (Sb_registers.Abd.make
               { cfg with codec = Sb_codec.Codec.replication ~value_bytes:vb ~n })
            (fun () -> Sb_sim.Runtime.random_policy ~seed:1 ())));
    Test.make ~name:"adversary-lower-bound-run"
      (Staged.stage (fun () ->
           ignore
             (Sb_adversary.Lower_bound.run
                ~algorithm:(Sb_registers.Adaptive.make_unbounded cfg)
                ~cfg ~c:4 ())));
    Test.make ~name:"msgnet-adaptive-random-run"
      (Staged.stage (fun () ->
           let w =
             Sb_msgnet.Mp_runtime.create ~algorithm:(Sb_registers.Adaptive.make cfg)
               ~n ~f ~workload ()
           in
           ignore
             (Sb_msgnet.Mp_runtime.run w (Sb_msgnet.Mp_runtime.random_policy ~seed:1 ()))));
    Test.make ~name:"kv-put-get"
      (Staged.stage (fun () ->
           let store = Sb_kv.Store.create ~cfg () in
           Sb_kv.Store.put store ~key:"k" (Bytes.of_string "value");
           ignore (Sb_kv.Store.get store ~key:"k")));
    Test.make ~name:"sim-versioned-random-run"
      (Staged.stage
         (full_run
            (Sb_registers.Adaptive.make_versioned ~delta:2 cfg)
            (fun () -> Sb_sim.Runtime.random_policy ~seed:1 ())));
  ]

let collision_tests =
  let vb = 256 in
  let k = 8 and n = 24 in
  let base = Sb_util.Prng.bytes (Sb_util.Prng.create 5) vb in
  [
    Test.make ~name:"rs-colliding-pair-k8"
      (Staged.stage (fun () ->
           ignore
             (Sb_codec.Codec.rs_vandermonde_colliding ~value_bytes:vb ~k ~n
                ~indices:[ 0; 3; 7; 11 ] ~base)));
  ]

(* ------------------------------------------------------------------ *)
(* Sanitizer overhead (EXPERIMENTS.md row M2)                          *)
(* ------------------------------------------------------------------ *)

(* Full simulator runs, bare vs. with every monitor attached (Collect
   mode, availability monitor on) — the cost of leaving the sanitizers
   enabled by default in tests.  Reported as ns per simulator step and
   as the monitored/bare ratio; the budget is < 2.5x. *)
let sanitize_overhead () =
  let vb = 64 in
  let f = 2 and k = 2 in
  let n = (2 * f) + k in
  let codec = Sb_codec.Codec.rs_vandermonde ~value_bytes:vb ~k ~n in
  let cfg = { Sb_registers.Common.n; f; codec } in
  let workload =
    Sb_experiments.Workloads.writers_and_readers ~value_bytes:vb ~writers:2
      ~writes_each:2 ~readers:2 ~reads_each:2
  in
  let algos =
    [
      ("adaptive", Sb_registers.Adaptive.make cfg, k);
      ( "abd",
        Sb_registers.Abd.make
          { cfg with codec = Sb_codec.Codec.replication ~value_bytes:vb ~n },
        1 );
    ]
  in
  let steps_of ~monitored algo mk =
    let w = Sb_sim.Runtime.create ~algorithm:algo ~n ~f ~workload () in
    if monitored then ignore (Sb_sanitize.Monitor.attach (mk ()) w);
    (Sb_sim.Runtime.run w (Sb_sim.Runtime.random_policy ~seed:1 ())).Sb_sim.Runtime.steps
  in
  let tests =
    List.concat_map
      (fun (name, algo, k) ->
        let mk () = Sb_sanitize.Monitor.config ~reg_avail:true ~k () in
        [
          Test.make ~name:(name ^ "-bare")
            (Staged.stage (fun () -> ignore (steps_of ~monitored:false algo mk)));
          Test.make
            ~name:(name ^ "-monitored")
            (Staged.stage (fun () -> ignore (steps_of ~monitored:true algo mk)));
        ])
      algos
  in
  let results = measure ~name:"sanitize-overhead" tests in
  let ns suffix =
    (* grouped tests are keyed "group/test" *)
    Hashtbl.fold
      (fun key ols acc ->
        if
          String.length key >= String.length suffix
          && String.sub key (String.length key - String.length suffix)
               (String.length suffix)
             = suffix
        then
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> acc
        else acc)
      results nan
  in
  let table =
    Sb_util.Table.create ~title:"M2  sanitizer overhead (full run, random policy)"
      [
        ("algorithm", Sb_util.Table.Left);
        ("steps", Sb_util.Table.Right);
        ("bare ns/step", Sb_util.Table.Right);
        ("monitored ns/step", Sb_util.Table.Right);
        ("ratio", Sb_util.Table.Right);
      ]
  in
  let budget_ok = ref true in
  List.iter
    (fun (name, algo, k) ->
      let mk () = Sb_sanitize.Monitor.config ~reg_avail:true ~k () in
      let steps = steps_of ~monitored:false algo mk in
      let bare = ns (name ^ "-bare") /. float_of_int steps in
      let mon = ns (name ^ "-monitored") /. float_of_int steps in
      let ratio = mon /. bare in
      if ratio >= 2.5 then budget_ok := false;
      Sb_util.Table.add_row table
        [
          name;
          string_of_int steps;
          Printf.sprintf "%.0f" bare;
          Printf.sprintf "%.0f" mon;
          Printf.sprintf "%.2fx" ratio;
        ])
    algos;
  Sb_util.Table.print table;
  Printf.printf "budget (< 2.50x): %s\n" (if !budget_ok then "ok" else "EXCEEDED");
  !budget_ok

(* ------------------------------------------------------------------ *)
(* Chaos overhead (EXPERIMENTS.md row M3)                              *)
(* ------------------------------------------------------------------ *)

(* Message-passing runs, fault-free random schedule vs. the full fault
   plane (loss + duplication + delay + one crash/recovery, retransmission
   armed, Sb_faults injection policy).  Faulty runs take more steps by
   design; the per-step cost of the fault plane itself is what is
   budgeted (< 2.5x). *)
let chaos_overhead () =
  let module MP = Sb_msgnet.Mp_runtime in
  let vb = 64 in
  let f = 1 and k = 2 in
  let n = (2 * f) + k in
  let codec = Sb_codec.Codec.rs_vandermonde ~value_bytes:vb ~k ~n in
  let cfg = { Sb_registers.Common.n; f; codec } in
  let workload =
    Sb_experiments.Workloads.writers_and_readers ~value_bytes:vb ~writers:2
      ~writes_each:2 ~readers:1 ~reads_each:2
  in
  let plan =
    Sb_faults.Plan.crash_recovery ~server:0 ~crash_at:50 ~recover_at:150
      (Sb_faults.Plan.lossy ~duplicate:0.1 ~delay:0.05 0.2)
  in
  let bare_run () =
    let w =
      MP.create ~algorithm:(Sb_registers.Adaptive.make cfg) ~n ~f ~workload ()
    in
    (MP.run w (MP.random_policy ~seed:1 ())).MP.steps
  in
  let chaos_run () =
    let w =
      MP.create ~retransmit:{ MP.rto = 50; max_attempts = 0 }
        ~algorithm:(Sb_registers.Adaptive.make cfg) ~n ~f ~workload ()
    in
    (MP.run w (Sb_faults.Inject.policy ~seed:1 plan)).MP.steps
  in
  let tests =
    [
      Test.make ~name:"msgnet-bare" (Staged.stage (fun () -> ignore (bare_run ())));
      Test.make ~name:"msgnet-chaos"
        (Staged.stage (fun () -> ignore (chaos_run ())));
    ]
  in
  let results = measure ~name:"chaos-overhead" tests in
  let bare_steps = bare_run () and chaos_steps = chaos_run () in
  let bare = ns_per_run results "chaos-overhead/msgnet-bare" /. float_of_int bare_steps in
  let chaos =
    ns_per_run results "chaos-overhead/msgnet-chaos" /. float_of_int chaos_steps
  in
  let ratio = chaos /. bare in
  let table =
    Sb_util.Table.create
      ~title:"M3  fault-plane overhead (message-passing run, adaptive)"
      [
        ("schedule", Sb_util.Table.Left);
        ("steps", Sb_util.Table.Right);
        ("ns/step", Sb_util.Table.Right);
        ("ratio", Sb_util.Table.Right);
      ]
  in
  Sb_util.Table.add_row table
    [ "fault-free"; string_of_int bare_steps; Printf.sprintf "%.0f" bare; "1.00x" ];
  Sb_util.Table.add_row table
    [
      "chaos (drop 0.2 + dup + delay + crash/recovery)";
      string_of_int chaos_steps;
      Printf.sprintf "%.0f" chaos;
      Printf.sprintf "%.2fx" ratio;
    ];
  Sb_util.Table.print table;
  let ok = ratio < 2.5 in
  Printf.printf "budget (< 2.50x per step): %s\n" (if ok then "ok" else "EXCEEDED");
  ok

(* ------------------------------------------------------------------ *)
(* perf — machine-readable performance gates                           *)
(* ------------------------------------------------------------------ *)

(* `main.exe perf [--quick] [--check]` drives the two hot paths the
   acceptance criteria gate on — parallel exploration and the codec row
   multiplies — and writes BENCH_explore.json / BENCH_codec.json with
   flat key/value results, pass/fail gates, and a CPU calibration
   number so a committed baseline from one machine can be compared on
   another (--check: fail on >25% calibration-normalised regression).

   Quick mode (CI smoke) uses a delay-bounded exploration and enforces
   only the determinism gate plus the codec and baseline gates; the
   wall-clock speedup gate needs the full flagship space and a
   multi-core machine, so it is enforced in full mode only (and the
   speedup bar scales with the available cores). *)

module E = Sb_modelcheck.Explore

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Fixed integer workload timing, best of three: normalises metric
   values across machines of different speed. *)
let calibration_ns () =
  let once () =
    let _, dt =
      wall (fun () ->
          let acc = ref 0 in
          for i = 1 to 50_000_000 do
            acc := !acc lxor (i * 0x9e3779b1)
          done;
          ignore (Sys.opaque_identity !acc))
    in
    dt *. 1e9
  in
  let a = once () and b = once () and c = once () in
  Float.min a (Float.min b c)

(* The flat-JSON writer/reader/baseline-checker is shared with the
   chaos and loadgen reports: Sb_util.Jsonx. *)
let json_out = Sb_util.Jsonx.write
let jbool = Sb_util.Jsonx.bool
let jfloat = Sb_util.Jsonx.float

let stats_str (s : E.stats) =
  Printf.sprintf
    "schedules=%d transitions=%d sleep=%d bound=%d depth=%d violations=%d"
    s.E.schedules s.E.transitions s.E.sleep_skips s.E.bound_skips s.E.max_depth
    s.E.violations

let perf_explore_config ~bound =
  let value_bytes = 64 in
  let n = 3 and f = 1 in
  let cfg =
    { Sb_registers.Common.n; f; codec = Sb_codec.Codec.replication ~value_bytes ~n }
  in
  let workload =
    Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers:2
      ~writes_each:1 ~readers:1 ~reads_each:1
  in
  E.config ~bound ~algorithm:(Sb_registers.Abd.make cfg) ~n ~f ~workload
    ~initial:(Bytes.make value_bytes '\000')
    ~check:Sb_spec.Regularity.check_weak ()

(* On a single core, extra domains only add GC-rendezvous stalls
   (measured ~4x slower wall for jobs=4), so the speedup gate needs at
   least two real cores; below that the number is recorded, not
   enforced. *)
let required_speedup cores =
  if cores >= 4 then Some 2.0 else if cores >= 2 then Some 1.4 else None

let perf_explore ~quick ~calib =
  let bound = if quick then E.Delay 3 else E.Exhaustive in
  let best f =
    (* best of three in quick mode (sub-second runs), single shot on
       the flagship space; compact first so one stage's heap (notably
       the multi-domain jobs=4 run) doesn't tax the next stage's GC *)
    Gc.compact ();
    let (r, t) = wall f in
    if not quick then (r, t)
    else
      let (_, t2) = wall f and (_, t3) = wall f in
      (r, Float.min t (Float.min t2 t3))
  in
  (* The jobs=1 pass runs before any domain is spawned: once the
     process has ever run multiple domains, the runtime's single-domain
     fast paths stay off and later passes read slower. *)
  let o1, t1 =
    best (fun () ->
        Sb_parallel.Pexplore.explore ~jobs:1 (perf_explore_config ~bound))
  in
  let o4, t4 =
    best (fun () ->
        Sb_parallel.Pexplore.explore ~jobs:4 (perf_explore_config ~bound))
  in
  let cores = Domain.recommended_domain_count () in
  let identical = stats_str o1.E.stats = stats_str o4.E.stats in
  let speedup = t1 /. t4 in
  let speedup_req = required_speedup cores in
  (* Quick mode runs spaces too small for stable wall-clock ratios:
     its speedup number is recorded but not enforced. *)
  let gated = not quick in
  let speedup_pass =
    (not gated)
    || (match speedup_req with None -> true | Some req -> speedup >= req)
  in
  let pass = identical && speedup_pass in
  let table =
    Sb_util.Table.create
      ~title:
        (Printf.sprintf "P1  parallel exploration (%s, %d core(s) available)"
           (if quick then "quick: 2w1r delay:3" else "flagship: 2w1r exhaustive")
           cores)
      [ ("measurement", Sb_util.Table.Left); ("value", Sb_util.Table.Right) ]
  in
  List.iter
    (fun (k, v) -> Sb_util.Table.add_row table [ k; v ])
    [
      ("schedules", string_of_int o1.E.stats.E.schedules);
      ("jobs=1 wall", Printf.sprintf "%.2fs" t1);
      ("jobs=4 wall", Printf.sprintf "%.2fs" t4);
      ("speedup",
       Printf.sprintf "%.2fx (gate: %s)" speedup
         (match speedup_req with
          | Some req when gated -> Printf.sprintf ">= %.1fx, enforced" req
          | Some req -> Printf.sprintf ">= %.1fx, advisory in quick mode" req
          | None -> "none below 2 cores"));
      ("identical totals", if identical then "yes" else "NO");
    ];
  Sb_util.Table.print table;
  json_out "BENCH_explore.json"
    [
      ("suite", "\"explore\"");
      ("mode", if quick then "\"quick\"" else "\"full\"");
      ("cores", string_of_int cores);
      ("calibration_ns", jfloat calib);
      ("schedules", string_of_int o1.E.stats.E.schedules);
      ("transitions", string_of_int o1.E.stats.E.transitions);
      ("jobs1_s", jfloat t1);
      ("jobs4_s", jfloat t4);
      ("speedup", jfloat speedup);
      ("speedup_required",
       match speedup_req with None -> "null" | Some req -> jfloat req);
      ("identical_totals", jbool identical);
      ("norm_jobs1", jfloat (t1 *. 1e9 /. calib));
      ("pass", jbool pass);
    ];
  pass

(* Self-describing framing overhead: the same loadgen-shaped message
   mix encoded and decoded at wire v1 (positional framing) and at the
   current version (schema-tagged handshakes, keyed frames).  The gate
   is a ratio, so it is machine-independent.  The gated shape is the
   batched one — the SDK coalesces traffic into Req_batch/Resp_batch
   frames, so that is what the hot path actually carries.  The budget
   is 25%: the per-entry key tag (the multi-object feature itself, not
   framing waste) costs ~11% over keyless positional v1, batch framing
   adds nothing on top of it (batched decode is *faster* than v1 —
   fewer frames), and the rest is headroom for single-core measurement
   noise.  The unbatched-singles ratio is reported but not gated
   (singles survive only as retransmits and v1 fallback). *)
let wire_mix =
  let module W = Sb_service.Wire in
  let module B = Sb_storage.Block in
  let module T = Sb_storage.Timestamp in
  let module C = Sb_storage.Chunk in
  let module O = Sb_storage.Objstate in
  let module D = Sb_sim.Rmwdesc in
  let blk i = B.v ~source:i ~index:(i * 3 mod 7) (Bytes.make 64 'p') in
  let ts i = T.make ~num:(100 + i) ~client:(i mod 5) in
  let chunk i = C.v ~ts:(ts i) (blk i) in
  let state = O.init ~vp:[ chunk 1; chunk 2 ] ~vf:[ chunk 3 ] () in
  let own = { W.ps_version = W.version; ps_hash = W.schema_hash } in
  let request i nature desc =
    W.Request
      {
        W.rq_key = "";
        rq_client = i mod 8;
        rq_ticket = i;
        rq_op = i;
        rq_nature = nature;
        rq_payload = [ blk i ];
        rq_desc = desc;
      }
  in
  let response i resp =
    W.Response
      {
        W.rs_key = "";
        rs_ticket = i;
        rs_op = i;
        rs_server = 1;
        rs_incarnation = 4;
        rs_dedup = false;
        rs_resp = resp;
      }
  in
  (* Loadgen-shaped: one handshake pair per connection, then a long run
     of request/response traffic with a periodic stats sample — the
     schema-tagged handshake has to amortise the way it does live. *)
  let traffic =
    List.concat_map
      (fun i ->
        let desc =
          match i mod 3 with
          | 0 -> D.Abd_store (chunk i)
          | 1 -> D.Snapshot
          | _ -> D.Adaptive_gc { piece = blk i; ts = ts i }
        in
        let nature = if i mod 3 = 1 then `Readonly else `Mutating in
        let resp = if i mod 3 = 1 then D.Snap state else D.Ack in
        [ request (10 + i) nature desc; response (10 + i) resp ])
      (List.init 16 Fun.id)
  in
  [
    W.Hello { client = 3; schema = Some own };
    W.Welcome { server = 1; incarnation = 4; schema = Some own };
  ]
  @ traffic
  @ [
      W.Stats_query;
      W.Stats
        {
          W.st_server = 1;
          st_incarnation = 4;
          st_storage_bits = 1 lsl 20;
          st_max_bits = 1 lsl 21;
          st_dedup_hits = 17;
          st_applied = 123;
          st_keys = 0;
          st_shards = [];
        };
    ]

(* The same traffic the way the SDK frames it at the current version:
   requests and responses coalesced into batch frames, handshakes and
   stats still singles. *)
let wire_mix_batched =
  let module W = Sb_service.Wire in
  let reqs = List.filter_map (function W.Request r -> Some r | _ -> None) wire_mix in
  let resps = List.filter_map (function W.Response r -> Some r | _ -> None) wire_mix in
  let singles =
    List.filter (function W.Request _ | W.Response _ -> false | _ -> true) wire_mix
  in
  singles @ [ W.Req_batch reqs; W.Resp_batch resps ]

let wire_overhead () =
  let module W = Sb_service.Wire in
  let enc v mix () = List.iter (fun m -> ignore (W.encode_msg ~version:v m)) mix in
  let bodies v mix =
    List.map
      (fun m ->
        let f = W.encode_msg ~version:v m in
        Bytes.sub f 4 (Bytes.length f - 4))
      mix
  in
  let b1 = bodies 1 wire_mix
  and bs = bodies W.version wire_mix
  and bb = bodies W.version wire_mix_batched in
  let dec bs () =
    List.iter
      (fun b ->
        match W.decode_msg b with
        | Ok _ -> ()
        | Error e -> failwith ("wire bench frame rejected: " ^ e))
      bs
  in
  let results =
    measure ~name:"perf-wire"
      [
        Test.make ~name:"v1-encode" (Staged.stage (enc 1 wire_mix));
        Test.make ~name:"vN-single-encode" (Staged.stage (enc W.version wire_mix));
        Test.make ~name:"vN-batch-encode" (Staged.stage (enc W.version wire_mix_batched));
        Test.make ~name:"v1-decode" (Staged.stage (dec b1));
        Test.make ~name:"vN-single-decode" (Staged.stage (dec bs));
        Test.make ~name:"vN-batch-decode" (Staged.stage (dec bb));
      ]
  in
  let us key = ns_per_run results ("perf-wire/" ^ key) /. 1e3 in
  let e1 = us "v1-encode" and es = us "vN-single-encode" and eb = us "vN-batch-encode" in
  let d1 = us "v1-decode" and ds = us "vN-single-decode" and db = us "vN-batch-decode" in
  let single_ratio = (es +. ds) /. (e1 +. d1) in
  let batch_ratio = (eb +. db) /. (e1 +. d1) in
  (e1, es, eb, d1, ds, db, single_ratio, batch_ratio)

(* Gates 25% below the pre-optimisation B1 numbers (~130 us encode-all,
   ~47 us decode for 1 KiB over rs-vandermonde k=4 n=12): the row
   multiplies must stay measurably faster than the element loops they
   replaced. *)
let perf_codec ~calib =
  let open Sb_codec.Codec in
  let codec = rs_vandermonde ~value_bytes ~k:4 ~n:12 in
  let codec16 = rs_vandermonde16 ~value_bytes ~k:4 ~n:12 in
  let mk name codec =
    let k = codec.k in
    let avail = match codec.n with Some n -> min n (k + 2) | None -> k + 2 in
    let blocks = List.init avail (fun i -> (i, codec.encode value i)) in
    let last_k = List.filteri (fun idx _ -> idx >= avail - k) blocks in
    [
      Test.make
        ~name:(name ^ "-encode-all")
        (Staged.stage (fun () ->
             let n = match codec.n with Some n -> n | None -> k + 4 in
             for i = 0 to n - 1 do
               ignore (codec.encode value i)
             done));
      Test.make ~name:(name ^ "-decode")
        (Staged.stage (fun () -> ignore (codec.decode last_k)));
    ]
  in
  let results = measure ~name:"perf-codec" (mk "rs8" codec @ mk "rs16" codec16) in
  let us key = ns_per_run results ("perf-codec/" ^ key) /. 1e3 in
  let enc = us "rs8-encode-all" and dec = us "rs8-decode" in
  let enc16 = us "rs16-encode-all" and dec16 = us "rs16-decode" in
  let enc_gate = 97.5 and dec_gate = 35.0 in
  let we1, wes, web, wd1, wds, wdb, wire_single, wire_ratio = wire_overhead () in
  let wire_gate = 1.25 in
  let pass = enc < enc_gate && dec < dec_gate && wire_ratio < wire_gate in
  let table =
    Sb_util.Table.create ~title:"P2  codec hot path (1 KiB, rs-vandermonde k=4 n=12)"
      [ ("measurement", Sb_util.Table.Left); ("value", Sb_util.Table.Right) ]
  in
  List.iter
    (fun (k, v) -> Sb_util.Table.add_row table [ k; v ])
    [
      ("encode-all (12 blocks)", Printf.sprintf "%.1f us (gate: < %.1f us)" enc enc_gate);
      ("decode (from 4 blocks)", Printf.sprintf "%.1f us (gate: < %.1f us)" dec dec_gate);
      ("gf2p16 encode-all", Printf.sprintf "%.1f us" enc16);
      ("gf2p16 decode", Printf.sprintf "%.1f us" dec16);
      ("wire mix v1 enc+dec", Printf.sprintf "%.1f us" (we1 +. wd1));
      ( "wire mix vN singles",
        Printf.sprintf "%.1f us (%.3fx, not gated)" (wes +. wds) wire_single );
      ("wire mix vN batched", Printf.sprintf "%.1f us" (web +. wdb));
      ( "wire framing overhead",
        Printf.sprintf "%.3fx (gate: < %.2fx, batched)" wire_ratio wire_gate );
    ];
  Sb_util.Table.print table;
  json_out "BENCH_codec.json"
    [
      ("suite", "\"codec\"");
      ("calibration_ns", jfloat calib);
      ("value_bytes", string_of_int value_bytes);
      ("encode_all_us", jfloat enc);
      ("decode_us", jfloat dec);
      ("encode_all_gate_us", jfloat enc_gate);
      ("decode_gate_us", jfloat dec_gate);
      ("rs16_encode_all_us", jfloat enc16);
      ("rs16_decode_us", jfloat dec16);
      ("norm_encode_all", jfloat (enc *. 1e3 /. calib));
      ("norm_decode", jfloat (dec *. 1e3 /. calib));
      ("wire_v1_encode_us", jfloat we1);
      ("wire_vN_single_encode_us", jfloat wes);
      ("wire_vN_batch_encode_us", jfloat web);
      ("wire_v1_decode_us", jfloat wd1);
      ("wire_vN_single_decode_us", jfloat wds);
      ("wire_vN_batch_decode_us", jfloat wdb);
      ("wire_single_overhead_ratio", jfloat wire_single);
      ("wire_overhead_ratio", jfloat wire_ratio);
      ("wire_overhead_gate", jfloat wire_gate);
      ("pass", jbool pass);
    ];
  pass

(* Compare this run's calibration-normalised metrics against the
   committed baselines; >25% slower on any is a regression. *)
let perf_check () =
  let checks =
    [
      ("BENCH_explore.json", "bench/baselines/BENCH_explore.json", [ "norm_jobs1" ]);
      ( "BENCH_codec.json",
        "bench/baselines/BENCH_codec.json",
        [ "norm_encode_all"; "norm_decode" ] );
    ]
  in
  List.fold_left
    (fun acc (current, baseline, keys) ->
      Sb_util.Jsonx.check ~current ~baseline ~keys () && acc)
    true checks

let perf ~quick ~check =
  let calib = calibration_ns () in
  Printf.printf "calibration   : %.0f ns (fixed integer workload)\n" calib;
  let explore_ok = perf_explore ~quick ~calib in
  let codec_ok = perf_codec ~calib in
  let check_ok = if check then perf_check () else true in
  let ok = explore_ok && codec_ok && check_ok in
  Printf.printf "perf gates    : %s\n" (if ok then "ok" else "FAILED");
  ok

let micro () =
  run_group ~name:"galois-field" gf_tests;
  run_group ~name:"codecs-1KiB" codec_tests;
  run_group ~name:"collision-finder" collision_tests;
  run_group ~name:"simulator" sim_tests

let tables () =
  List.iter Sb_experiments.Experiments.print_outcome
    (Sb_experiments.Experiments.all ())

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let has flag = Array.exists (String.equal flag) Sys.argv in
  match mode with
  | "tables" -> tables ()
  | "micro" -> micro ()
  | "perf" -> if not (perf ~quick:(has "--quick") ~check:(has "--check")) then exit 1
  | "sanitize-overhead" -> if not (sanitize_overhead ()) then exit 1
  | "chaos-overhead" -> if not (chaos_overhead ()) then exit 1
  | "all" ->
    tables ();
    micro ();
    ignore (sanitize_overhead ());
    ignore (chaos_overhead ())
  | _ ->
    prerr_endline
      "usage: main.exe [tables|micro|perf [--quick] [--check]|sanitize-overhead|chaos-overhead|all]";
    exit 2
