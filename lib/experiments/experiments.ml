module Codec = Sb_codec.Codec
module Table = Sb_util.Table

type outcome = {
  id : string;
  title : string;
  table : Table.t;
  ok : bool;
  notes : string list;
}

let default_value_bytes = 64

let abd_cfg ~value_bytes ~f =
  let n = (2 * f) + 1 in
  { Sb_registers.Common.n; f; codec = Codec.replication ~value_bytes ~n }

let d_bits ~value_bytes = 8 * value_bytes

let branch_name = function
  | Sb_adversary.Lower_bound.Frozen_objects -> "frozen"
  | Sb_adversary.Lower_bound.Saturated_writes -> "saturated"
  | Sb_adversary.Lower_bound.Exhausted -> "exhausted"

(* ------------------------------------------------------------------ *)
(* E1: Theorem 1, storage grows linearly with concurrency              *)
(* ------------------------------------------------------------------ *)

let e1_concurrency_blowup ?(value_bytes = default_value_bytes) ?(f = 8)
    ?(cs = [ 1; 2; 3; 4; 6; 8 ]) () =
  let k = f in
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let d = d_bits ~value_bytes in
  let table =
    Table.create
      ~title:"E1  Adversary Ad vs pure erasure coding: storage grows with c"
      [
        ("c", Table.Right); ("branch", Table.Left); ("steps", Table.Right);
        ("max_storage", Table.Right); ("bound", Table.Right); ("cD/2", Table.Right);
      ]
  in
  let rows =
    List.map
      (fun c ->
        let algo = Sb_registers.Adaptive.make_unbounded cfg in
        let r = Sb_adversary.Lower_bound.run ~algorithm:algo ~cfg ~c () in
        Table.add_row table
          [
            string_of_int c; branch_name r.branch; string_of_int r.steps;
            string_of_int r.max_total_bits; string_of_int r.lower_bound_bits;
            string_of_int (c * d / 2);
          ];
        r)
      cs
  in
  let bound_ok =
    List.for_all
      (fun (r : Sb_adversary.Lower_bound.result) ->
        r.max_total_bits >= r.lower_bound_bits)
      rows
  in
  let no_completion =
    List.for_all (fun (r : Sb_adversary.Lower_bound.result) -> r.completed_writes = 0) rows
  in
  let grows =
    let storages = List.map (fun (r : Sb_adversary.Lower_bound.result) -> r.max_total_bits) rows in
    List.length storages < 2
    || List.nth storages (List.length storages - 1) > List.hd storages
  in
  {
    id = "E1";
    title = "Lower bound, saturation branch (Theorem 1 / Corollary 2)";
    table;
    ok = bound_ok && no_completion && grows;
    notes =
      [
        Printf.sprintf "D=%d bits, f=k=%d, n=%d, ell=D/2=%d" d f cfg.n (d / 2);
        "Ad prevents every write from returning while storage exceeds the bound.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E2: Theorem 1, freeze branch against replication                    *)
(* ------------------------------------------------------------------ *)

let e2_freeze_branch ?(value_bytes = default_value_bytes) ?(f = 4) () =
  let d = d_bits ~value_bytes in
  let ell = d / 2 in
  let c = f + 2 in
  let algos =
    [
      ("abd-replication", Sb_registers.Abd.make (abd_cfg ~value_bytes ~f), abd_cfg ~value_bytes ~f);
      ( "adaptive(k=2)",
        Sb_registers.Adaptive.make (Catalog.coded_cfg ~value_bytes ~f ~k:2),
        Catalog.coded_cfg ~value_bytes ~f ~k:2 );
    ]
  in
  let table =
    Table.create ~title:"E2  Adversary Ad freeze branch: f+1 objects hold >= ell bits"
      [
        ("algorithm", Table.Left); ("branch", Table.Left); ("frozen", Table.Right);
        ("f", Table.Right); ("max_obj_bits", Table.Right); ("(f+1)*ell", Table.Right);
      ]
  in
  let rows =
    List.map
      (fun (name, algo, cfg) ->
        let r = Sb_adversary.Lower_bound.run ~algorithm:algo ~cfg ~c () in
        Table.add_row table
          [
            name; branch_name r.branch; string_of_int r.final_frozen;
            string_of_int f; string_of_int r.max_obj_bits;
            string_of_int ((f + 1) * ell);
          ];
        r)
      algos
  in
  let ok =
    List.for_all
      (fun (r : Sb_adversary.Lower_bound.result) ->
        r.branch = Sb_adversary.Lower_bound.Frozen_objects
        && r.max_obj_bits >= (f + 1) * ell)
      rows
  in
  {
    id = "E2";
    title = "Lower bound, freeze branch (Theorem 1)";
    table;
    ok;
    notes =
      [
        Printf.sprintf "D=%d bits, f=%d, ell=D/2=%d, c=%d" d f ell c;
        "Replication stores D bits in every object, so |F| > f from the start \
         (Corollary 2's exemption).";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E3: Theorem 2, adaptive storage bound under fair schedules          *)
(* ------------------------------------------------------------------ *)

(* Theorem 2 / Lemmas 6-7: with fewer than k-1 concurrent writes every
   object holds at most c+1 pieces (and Vf stays empty); otherwise each
   object holds at most 2k pieces (k in Vp, k in Vf).  Pieces are
   ceil(D/k) bits when k does not divide the value size, so the bound is
   computed from the codec's actual piece size. *)
let adaptive_bound_bits ~(cfg : Sb_registers.Common.config) ~c =
  let k = cfg.codec.Codec.k in
  let piece_bits = Codec.block_bits cfg.codec 0 in
  let pieces_per_obj = if c < k - 1 then c + 1 else 2 * k in
  cfg.n * pieces_per_obj * piece_bits

(* The eventual (post-GC) storage of Theorem 2: one piece per object. *)
let quiescent_bound_bits (cfg : Sb_registers.Common.config) =
  cfg.n * Codec.block_bits cfg.codec 0

let e3_adaptive_bound ?(value_bytes = default_value_bytes) ?(f = 4) ?(k = 4)
    ?(cs = [ 1; 2; 3; 4; 6; 8 ]) () =
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let d = d_bits ~value_bytes in
  let table =
    Table.create ~title:"E3  Adaptive algorithm: measured storage vs Theorem 2 bound"
      [
        ("c", Table.Right); ("max_obj_bits", Table.Right); ("bound", Table.Right);
        ("paper_(2f+k)^2D", Table.Right); ("strongly_regular", Table.Left);
      ]
  in
  let algo = Sb_registers.Adaptive.make cfg in
  let rows =
    List.map
      (fun c ->
        let workload =
          Workloads.writers_and_readers ~value_bytes ~writers:c ~writes_each:3
            ~readers:2 ~reads_each:2
        in
        let ms = Runs.measure_many ~algorithm:algo ~cfg ~workload () in
        let m = Runs.worst ms in
        let bound = adaptive_bound_bits ~cfg ~c in
        let all_strong =
          List.for_all (fun m -> Sb_spec.Regularity.ok m.Runs.strong) ms
        in
        Table.add_row table
          [
            string_of_int c; string_of_int m.Runs.max_obj_bits; string_of_int bound;
            string_of_int (cfg.n * cfg.n * d);
            (if all_strong then "yes" else "VIOLATION");
          ];
        (m, bound, all_strong))
      cs
  in
  let ok =
    List.for_all
      (fun ((m : Runs.measurement), bound, strong) ->
        m.max_obj_bits <= bound && strong && m.completed_writes = m.invoked_writes)
      rows
  in
  {
    id = "E3";
    title = "Adaptive storage bound (Theorem 2)";
    table;
    ok;
    notes =
      [
        Printf.sprintf "D=%d bits, f=%d, k=%d, n=%d; worst of 5 random schedules" d f k cfg.n;
        "bound = min((c+1)(2f+k)D/k, 2(2f+k)D); the paper states the looser (2f+k)^2 D.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E4: eventual GC down to (2f+k)D/k                                   *)
(* ------------------------------------------------------------------ *)

let e4_eventual_gc ?(value_bytes = default_value_bytes) ?(f = 4) ?(k = 4)
    ?(seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]) () =
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let d = d_bits ~value_bytes in
  let quiescent_bound = quiescent_bound_bits cfg in
  let algo = Sb_registers.Adaptive.make cfg in
  let workload = Workloads.writers_only ~value_bytes ~c:4 ~writes_each:3 in
  let table =
    Table.create ~title:"E4  Eventual storage after all writes complete"
      [
        ("seed", Table.Right); ("max_obj_bits", Table.Right);
        ("final_obj_bits", Table.Right); ("(2f+k)D/k", Table.Right);
        ("quiescent", Table.Left);
      ]
  in
  let rows =
    List.map
      (fun seed ->
        let m = Runs.measure ~seed ~algorithm:algo ~cfg ~workload () in
        Table.add_row table
          [
            string_of_int seed; string_of_int m.Runs.max_obj_bits;
            string_of_int m.Runs.final_obj_bits; string_of_int quiescent_bound;
            (if m.Runs.quiescent then "yes" else "no");
          ];
        m)
      seeds
  in
  let ok =
    List.for_all
      (fun (m : Runs.measurement) ->
        m.quiescent && m.final_obj_bits <= quiescent_bound
        && m.completed_writes = m.invoked_writes)
      rows
  in
  {
    id = "E4";
    title = "Eventual garbage collection (Theorem 2, final clause)";
    table;
    ok;
    notes = [ Printf.sprintf "D=%d bits, f=%d, k=%d, n=%d, 4 writers x 3 writes" d f k cfg.n ];
  }

(* ------------------------------------------------------------------ *)
(* E5: crossover between replication, pure EC, adaptive                *)
(* ------------------------------------------------------------------ *)

let e5_crossover ?(value_bytes = default_value_bytes) ?(f = 4)
    ?(cs = [ 1; 2; 4; 6; 8; 12 ]) () =
  let k = f in
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let cfg_abd = abd_cfg ~value_bytes ~f in
  let d = d_bits ~value_bytes in
  let table =
    Table.create
      ~title:"E5  Max storage (bits) vs concurrency: who wins where"
      [
        ("c", Table.Right); ("replication", Table.Right); ("pure-ec", Table.Right);
        ("adaptive", Table.Right); ("winner", Table.Left);
      ]
  in
  let measure_algo algo cfg c =
    let workload =
      Workloads.writers_only ~value_bytes ~c ~writes_each:3
    in
    (Runs.worst (Runs.measure_many ~algorithm:algo ~cfg ~workload ())).Runs.max_obj_bits
  in
  let rows =
    List.map
      (fun c ->
        let abd = measure_algo (Sb_registers.Abd.make cfg_abd) cfg_abd c in
        let ec = measure_algo (Sb_registers.Adaptive.make_unbounded cfg) cfg c in
        let ad = measure_algo (Sb_registers.Adaptive.make cfg) cfg c in
        let winner = if abd <= ec then "replication" else "erasure-coding" in
        Table.add_row table
          [
            string_of_int c; string_of_int abd; string_of_int ec; string_of_int ad;
            winner;
          ];
        (c, abd, ec, ad))
      cs
  in
  (* Shape checks: replication is flat; pure EC grows; the adaptive
     algorithm is never much above the best of the two. *)
  let flat =
    match rows with
    | (_, first, _, _) :: _ ->
      List.for_all (fun (_, abd, _, _) -> abd = first) rows
    | [] -> false
  in
  let ec_grows =
    match (rows, List.rev rows) with
    | (_, _, first, _) :: _, (_, _, last, _) :: _ -> last > first
    | _ -> false
  in
  let adaptive_tracks =
    List.for_all
      (fun (_, abd, ec, ad) ->
        (* within a small constant of the minimum; the adaptive cap is
           2(2f+k)D vs replication's (2f+1)D, a factor <= 3 for k=f *)
        ad <= 3 * min abd ec)
      rows
  in
  {
    id = "E5";
    title = "Replication vs coding crossover (Section 1)";
    table;
    ok = flat && ec_grows && adaptive_tracks;
    notes =
      [
        Printf.sprintf "D=%d bits, f=%d; replication n=%d, coded n=%d, k=%d" d f
          cfg_abd.n cfg.n k;
        "Worst of 5 random schedules per cell.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E6: sweep over f                                                    *)
(* ------------------------------------------------------------------ *)

let e6_f_sweep ?(value_bytes = default_value_bytes) ?(c = 3) ?(fs = [ 1; 2; 4; 6; 8 ]) () =
  let d = d_bits ~value_bytes in
  let table =
    Table.create ~title:"E6  Max storage (bits) vs fault tolerance f (k = f)"
      [
        ("f", Table.Right); ("replication", Table.Right); ("adaptive", Table.Right);
        ("Thm2_bound", Table.Right);
      ]
  in
  let rows =
    List.map
      (fun f ->
        let k = max f 1 in
        let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
        let cfg_abd = abd_cfg ~value_bytes ~f in
        let workload = Workloads.writers_only ~value_bytes ~c ~writes_each:2 in
        let abd =
          (Runs.worst
             (Runs.measure_many ~algorithm:(Sb_registers.Abd.make cfg_abd)
                ~cfg:cfg_abd ~workload ()))
            .Runs.max_obj_bits
        in
        let ad =
          (Runs.worst
             (Runs.measure_many ~algorithm:(Sb_registers.Adaptive.make cfg) ~cfg
                ~workload ()))
            .Runs.max_obj_bits
        in
        let bound = adaptive_bound_bits ~cfg ~c in
        Table.add_row table
          [ string_of_int f; string_of_int abd; string_of_int ad; string_of_int bound ];
        (abd, ad, bound))
      fs
  in
  let abd_grows =
    match (rows, List.rev rows) with
    | (first, _, _) :: _, (last, _, _) :: _ -> last > first
    | _ -> false
  in
  let adaptive_bounded = List.for_all (fun (_, ad, bound) -> ad <= bound) rows in
  {
    id = "E6";
    title = "Storage vs f at fixed concurrency";
    table;
    ok = abd_grows && adaptive_bounded;
    notes =
      [
        Printf.sprintf
          "D=%d bits, c=%d; adaptive uses k=f, so for c < k-1 the bound \
           (c+1)(2f+k)D/k = (c+1)*3D is f-independent while replication pays \
           (2f+1)D" d c;
      ];
  }

(* ------------------------------------------------------------------ *)
(* E7: ablation over k                                                 *)
(* ------------------------------------------------------------------ *)

let e7_k_ablation ?(value_bytes = default_value_bytes) ?(f = 4) ?(c = 4)
    ?(ks = [ 1; 2; 4; 8 ]) () =
  let d = d_bits ~value_bytes in
  let table =
    Table.create ~title:"E7  Adaptive algorithm vs code dimension k (n = 2f + k)"
      [
        ("k", Table.Right); ("n", Table.Right); ("max_obj_bits", Table.Right);
        ("final_obj_bits", Table.Right); ("(2f+k)D/k", Table.Right);
      ]
  in
  let rows =
    List.map
      (fun k ->
        let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
        let workload = Workloads.writers_only ~value_bytes ~c ~writes_each:2 in
        let m =
          Runs.worst
            (Runs.measure_many ~algorithm:(Sb_registers.Adaptive.make cfg) ~cfg
               ~workload ())
        in
        let quiescent_bound = quiescent_bound_bits cfg in
        Table.add_row table
          [
            string_of_int k; string_of_int cfg.n; string_of_int m.Runs.max_obj_bits;
            string_of_int m.Runs.final_obj_bits; string_of_int quiescent_bound;
          ];
        (k, m, quiescent_bound))
      ks
  in
  let ok =
    List.for_all
      (fun (_, (m : Runs.measurement), qb) ->
        m.final_obj_bits <= qb && m.completed_writes = m.invoked_writes)
      rows
  in
  {
    id = "E7";
    title = "Ablation: choice of k";
    table;
    ok;
    notes = [ Printf.sprintf "D=%d bits, f=%d, c=%d; worst of 5 random schedules" d f c ];
  }

(* ------------------------------------------------------------------ *)
(* E8: safe register constant storage                                  *)
(* ------------------------------------------------------------------ *)

let e8_safe_constant ?(value_bytes = default_value_bytes) ?(f = 4) ?(k = 4)
    ?(cs = [ 1; 2; 4; 8; 16 ]) () =
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let d = d_bits ~value_bytes in
  let expected = quiescent_bound_bits cfg in
  let algo = Sb_registers.Safe_register.make cfg in
  let table =
    Table.create ~title:"E8  Safe register (Appendix E): storage is constant in c"
      [
        ("c", Table.Right); ("max_obj_bits", Table.Right); ("nD/k", Table.Right);
        ("writes_done", Table.Right);
      ]
  in
  let rows =
    List.map
      (fun c ->
        let workload = Workloads.writers_only ~value_bytes ~c ~writes_each:2 in
        let m = Runs.worst (Runs.measure_many ~algorithm:algo ~cfg ~workload ()) in
        Table.add_row table
          [
            string_of_int c; string_of_int m.Runs.max_obj_bits; string_of_int expected;
            string_of_int m.Runs.completed_writes;
          ];
        m)
      cs
  in
  let ok =
    List.for_all
      (fun (m : Runs.measurement) ->
        m.max_obj_bits = expected && m.completed_writes = m.invoked_writes)
      rows
  in
  {
    id = "E8";
    title = "Safe register storage (Corollary 7)";
    table;
    ok;
    notes =
      [
        Printf.sprintf "D=%d bits, f=%d, k=%d, n=%d: nD/k = (2f/k+1)D = %d bits" d f k
          cfg.n expected;
        "Below the regular-register lower bound: safe semantics escape it.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E9: FW-termination and read round counts                            *)
(* ------------------------------------------------------------------ *)

let e9_read_rounds ?(value_bytes = default_value_bytes) ?(f = 4) ?(k = 4)
    ?(writers = [ 1; 2; 4; 8 ]) () =
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let algo = Sb_registers.Adaptive.make cfg in
  let table =
    Table.create ~title:"E9  FW-termination: read rounds vs concurrent writers"
      [
        ("writers", Table.Right); ("reads_done", Table.Right);
        ("reads_invoked", Table.Right); ("max_read_rounds", Table.Right);
        ("writes_done", Table.Right);
      ]
  in
  let rows =
    List.map
      (fun wr ->
        let workload =
          Workloads.writers_and_readers ~value_bytes ~writers:wr ~writes_each:3
            ~readers:3 ~reads_each:3
        in
        let ms = Runs.measure_many ~algorithm:algo ~cfg ~workload () in
        let reads_done = List.fold_left (fun a m -> a + m.Runs.completed_reads) 0 ms in
        let reads_inv = List.fold_left (fun a m -> a + m.Runs.invoked_reads) 0 ms in
        let max_rounds = List.fold_left (fun a m -> max a m.Runs.max_read_rounds) 0 ms in
        let writes_done = List.fold_left (fun a m -> a + m.Runs.completed_writes) 0 ms in
        Table.add_row table
          [
            string_of_int wr; string_of_int reads_done; string_of_int reads_inv;
            string_of_int max_rounds; string_of_int writes_done;
          ];
        (reads_done, reads_inv, writes_done,
         List.fold_left (fun a m -> a + m.Runs.invoked_writes) 0 ms))
      writers
  in
  let ok =
    List.for_all
      (fun (rd, ri, wd, wi) -> rd = ri && wd = wi)
      rows
  in
  {
    id = "E9";
    title = "FW-termination (Theorem 2 liveness)";
    table;
    ok;
    notes =
      [
        "Finitely many writes: every read returns; rounds grow with write \
         concurrency (sum over 5 seeds).";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E10: liveness under Ad — safe escapes, regular algorithms do not    *)
(* ------------------------------------------------------------------ *)

let e10_liveness_under_ad ?(value_bytes = default_value_bytes) ?(f = 4) ?(k = 4)
    ?(c = 4) () =
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let cfg_abd = abd_cfg ~value_bytes ~f in
  let algos =
    [
      ("abd-replication", Sb_registers.Abd.make cfg_abd, cfg_abd, false);
      ("pure-ec", Sb_registers.Adaptive.make_unbounded cfg, cfg, false);
      ("adaptive", Sb_registers.Adaptive.make cfg, cfg, false);
      ("safe (App. E)", Sb_registers.Safe_register.make cfg, cfg, true);
    ]
  in
  let table =
    Table.create ~title:"E10  Writes completed within 200k adversary steps"
      [
        ("algorithm", Table.Left); ("semantics", Table.Left);
        ("writes_done", Table.Right); ("branch", Table.Left);
        ("max_storage", Table.Right);
      ]
  in
  let rows =
    List.map
      (fun (name, algo, cfg, is_safe) ->
        let r =
          Sb_adversary.Lower_bound.run ~max_steps:200_000 ~halt_on_branch:false
            ~algorithm:algo ~cfg ~c ()
        in
        Table.add_row table
          [
            name; (if is_safe then "safe" else "regular");
            string_of_int r.completed_writes; branch_name r.branch;
            string_of_int r.max_total_bits;
          ];
        (is_safe, r))
      algos
  in
  let ok =
    List.for_all
      (fun (is_safe, (r : Sb_adversary.Lower_bound.result)) ->
        if is_safe then r.completed_writes > 0 else r.completed_writes = 0)
      rows
  in
  {
    id = "E10";
    title = "Lock-freedom denial under Ad vs the safe register";
    table;
    ok;
    notes =
      [
        Printf.sprintf "D=%d bits, f=%d, k=%d, c=%d writers" (d_bits ~value_bytes) f k c;
        "Corollary 1: no regular-register write ever returns under Ad. The \
         Appendix-E safe register completes writes even while |F| <= f \
         (impossible for regular registers), because overwrites shrink \
         stalled writes' contributions back below D - ell. (Ad is unfair, \
         so wait-freedom does not oblige it to finish every write.)";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E11: channel storage over message passing (Section 3.2)             *)
(* ------------------------------------------------------------------ *)

let e11_channel_storage ?(value_bytes = default_value_bytes) ?(f = 3) ?(k = 3)
    ?(readers = [ 0; 2; 4; 8 ]) () =
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let algo = Sb_registers.Adaptive.make cfg in
  let module MP = Sb_msgnet.Mp_runtime in
  let table =
    Table.create
      ~title:"E11  Message passing: peak storage at servers vs in channels"
      [
        ("readers", Table.Right); ("server_bits", Table.Right);
        ("channel_bits", Table.Right); ("channel/server", Table.Right);
      ]
  in
  let rows =
    List.map
      (fun readers ->
        let workload =
          Workloads.writers_and_readers ~value_bytes ~writers:2 ~writes_each:2
            ~readers ~reads_each:3
        in
        let best = ref (0, 0) in
        List.iter
          (fun seed ->
            let w = MP.create ~seed ~algorithm:algo ~n:cfg.n ~f:cfg.f ~workload () in
            ignore (MP.run w (MP.random_policy ~seed ()));
            if MP.max_bits_channels w > snd !best then
              best := (MP.max_bits_servers w, MP.max_bits_channels w))
          [ 1; 2; 3; 4; 5 ];
        let server, channel = !best in
        Table.add_row table
          [
            string_of_int readers; string_of_int server; string_of_int channel;
            Printf.sprintf "%.2f" (float_of_int channel /. float_of_int (max server 1));
          ];
        (readers, server, channel))
      readers
  in
  (* Shape: response snapshots make channel storage grow with read
     concurrency, overtaking server-side storage — which is why the
     paper's cost model counts channel contents (Section 3.2). *)
  let grows =
    match (rows, List.rev rows) with
    | (_, _, first) :: _, (_, _, last) :: _ -> last > first
    | _ -> false
  in
  let read_heavy_dominated =
    match List.rev rows with
    | (_, server, channel) :: _ -> channel >= server
    | [] -> false
  in
  {
    id = "E11";
    title = "Channel storage under message passing (Section 3.2)";
    table;
    ok = grows && read_heavy_dominated;
    notes =
      [
        Printf.sprintf "D=%d bits, f=%d, k=%d, n=%d; 2 writers x 2 writes; \
                        worst of 5 random deliveries" (d_bits ~value_bytes) f k cfg.n;
        "Snapshots in responses carry code blocks; counting them is what \
         subjects network-heavy algorithms to the lower bound.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E12: adversary ablation — Ad's selectivity is necessary             *)
(* ------------------------------------------------------------------ *)

let e12_adversary_ablation ?(value_bytes = default_value_bytes) ?(f = 6) ?(c = 6) () =
  let k = f in
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let d = d_bits ~value_bytes in
  let algo () = Sb_registers.Adaptive.make_unbounded cfg in
  let workload =
    Array.init c (fun i ->
        [ Sb_sim.Trace.Write (Sb_util.Values.distinct ~value_bytes i) ])
  in
  let run_policy policy =
    let w =
      Sb_sim.Runtime.create ~algorithm:(algo ()) ~n:cfg.n ~f:cfg.f ~workload ()
    in
    let outcome = Sb_sim.Runtime.run ~max_steps:200_000 w policy in
    let completed =
      List.length
        (List.filter
           (fun (_, _, _, ret, _) -> ret <> None)
           (Sb_sim.Trace.operations (Sb_sim.Runtime.trace w)))
    in
    (Sb_sim.Runtime.max_bits_total w, completed, outcome.Sb_sim.Runtime.steps)
  in
  let halt_when (s : Sb_adversary.Ad.snapshot) =
    List.length s.frozen > cfg.f || List.length s.c_plus >= c
  in
  let policies =
    [
      ("Ad (Definition 7)",
       Sb_adversary.Ad.policy ~ell_bits:(d / 2) ~d_bits:d ~halt_when ());
      ("starve-all", Sb_adversary.Policies.starve_all ());
      ("deliver-budget(2c)", Sb_adversary.Policies.deliver_budget ~budget:(2 * c) ());
      ("starve-one-object", Sb_adversary.Policies.starve_object ~obj:0 ());
    ]
  in
  let table =
    Table.create ~title:"E12  Adversary ablation: storage pinned by each policy"
      [
        ("policy", Table.Left); ("max_storage", Table.Right);
        ("writes_done", Table.Right); ("steps", Table.Right);
      ]
  in
  let rows =
    List.map
      (fun (name, policy) ->
        let storage, completed, steps = run_policy policy in
        Table.add_row table
          [ name; string_of_int storage; string_of_int completed; string_of_int steps ];
        (name, storage, completed))
      policies
  in
  let ad_storage =
    match rows with (_, s, _) :: _ -> s | [] -> 0
  in
  let ok =
    (* Ad pins strictly more storage than every naive starver while
       still denying progress; the harmless starve-one-object policy
       denies nothing. *)
    List.for_all
      (fun (name, storage, completed) ->
        match name with
        | "Ad (Definition 7)" -> completed = 0
        | "starve-one-object" -> completed = c
        | _ -> completed = 0 && storage < ad_storage)
      rows
  in
  {
    id = "E12";
    title = "Adversary ablation: unfairness alone does not force the bound";
    table;
    ok;
    notes =
      [
        Printf.sprintf "D=%d bits, f=k=%d, n=%d, c=%d, pure-EC register" d f cfg.n c;
        "Only Ad's selective rule-1 deliveries force Omega(min(f,c)D) bits \
         while denying completion; blanket starvation pins almost nothing, \
         and starving a single object (f >= 1) denies nothing at all.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E13: negative control — premature GC violates regularity            *)
(* ------------------------------------------------------------------ *)

(* The violating interleaving, built explicitly (n = 6, f = 2, k = 2,
   quorums of 4): write w1 completes on objects {0,1,2,3}; incomplete
   writes w2 and w3 each land a single piece on objects 2 and 3,
   evicting w1's pieces there under the broken rule; a reader then
   samples {2,3,4,5}, where only the initial value still has k = 2
   pieces — and returns v0 after w1 completed.  The correct barrier
   keeps w1's pieces, and the same schedule reads v1. *)
let premature_gc_schedule ~value_bytes algo cfg =
  let module R = Sb_sim.Runtime in
  let workload =
    [|
      [ Sb_sim.Trace.Write (Sb_util.Values.distinct ~value_bytes 0) ];
      [ Sb_sim.Trace.Write (Sb_util.Values.distinct ~value_bytes 1) ];
      [ Sb_sim.Trace.Write (Sb_util.Values.distinct ~value_bytes 2) ];
      [ Sb_sim.Trace.Read ];
    |]
  in
  let w =
    R.create ~algorithm:algo ~n:cfg.Sb_registers.Common.n
      ~f:cfg.Sb_registers.Common.f ~workload ()
  in
  let deliver_on ~client ~objs =
    List.iter
      (fun (p : R.pending_info) ->
        if p.p_client = client && List.mem p.p_obj objs then
          ignore (R.step w (R.Deliver p.ticket)))
      (R.deliverable w)
  in
  let all = [ 0; 1; 2; 3; 4; 5 ] in
  (* w1 completes on {0,1,2,3}. *)
  ignore (R.step w (R.Step 0));
  deliver_on ~client:0 ~objs:all;
  ignore (R.step w (R.Step 0));
  deliver_on ~client:0 ~objs:[ 0; 1; 2; 3 ];
  ignore (R.step w (R.Step 0));
  deliver_on ~client:0 ~objs:[ 0; 1; 2; 3 ];
  ignore (R.step w (R.Step 0));
  (* w2: one update piece on object 2. *)
  ignore (R.step w (R.Step 1));
  deliver_on ~client:1 ~objs:all;
  ignore (R.step w (R.Step 1));
  deliver_on ~client:1 ~objs:[ 2 ];
  (* w3: one update piece on object 3. *)
  ignore (R.step w (R.Step 2));
  deliver_on ~client:2 ~objs:all;
  ignore (R.step w (R.Step 2));
  deliver_on ~client:2 ~objs:[ 3 ];
  (* Reader samples {2,3,4,5}. *)
  ignore (R.step w (R.Step 3));
  deliver_on ~client:3 ~objs:[ 2; 3; 4; 5 ];
  ignore (R.step w (R.Step 3));
  let read_result =
    List.find_map
      (fun (_, kind, _, ret, res) ->
        match (kind, ret) with Sb_sim.Trace.Read, Some _ -> Some res | _ -> None)
      (Sb_sim.Trace.operations (R.trace w))
  in
  let history =
    Sb_spec.History.of_trace ~initial:(Bytes.make value_bytes '\000') (R.trace w)
  in
  (read_result, Sb_spec.Regularity.check_weak history)

let e13_premature_gc ?(value_bytes = default_value_bytes) ?(f = 2) ?(k = 2) () =
  if f <> 2 || k <> 2 then
    invalid_arg "e13_premature_gc: the crafted schedule needs f = k = 2";
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let algos =
    [
      ("pure-ec (correct barrier)", Sb_registers.Adaptive.make_unbounded cfg, true);
      ("premature-gc (broken)", Sb_registers.Adaptive.make_premature_gc cfg, false);
    ]
  in
  let table =
    Table.create
      ~title:"E13  Deleting values before the new write completes: violation caught"
      [
        ("algorithm", Table.Left); ("read_returned", Table.Left);
        ("weak_regularity", Table.Left);
      ]
  in
  let v0 = Bytes.make value_bytes '\000' in
  let v1 = Sb_util.Values.distinct ~value_bytes 0 in
  let rows =
    List.map
      (fun (name, algo, expect_ok) ->
        let read_result, verdict = premature_gc_schedule ~value_bytes algo cfg in
        let shown =
          match read_result with
          | Some (Some v) when Bytes.equal v v0 -> "v0 (stale!)"
          | Some (Some v) when Bytes.equal v v1 -> "w1's value"
          | Some (Some _) -> "other"
          | Some None -> "bottom"
          | None -> "no read returned"
        in
        Table.add_row table
          [ name; shown; Format.asprintf "%a" Sb_spec.Regularity.pp_verdict verdict ];
        (expect_ok, Sb_spec.Regularity.ok verdict))
      algos
  in
  let ok = List.for_all (fun (expect_ok, got_ok) -> expect_ok = got_ok) rows in
  {
    id = "E13";
    title = "Negative control: premature GC loses written values (Section 1)";
    table;
    ok;
    notes =
      [
        Printf.sprintf "D=%d bits, f=k=2, n=6; crafted schedule, cf. the ABD \
                        inversion construction" (d_bits ~value_bytes);
        "\"Old values cannot be deleted before sufficiently many blocks of \
         the new value are in place\": two incomplete writes each evict one \
         of w1's pieces, and a reader quorum seeing only the initial value's \
         pieces returns v0 after w1 completed — flagged by the MWRegWeak \
         checker.  The correct storedTS barrier keeps w1 readable under the \
         identical schedule.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E14: Claim 1 / Lemma 1, executable indistinguishability             *)
(* ------------------------------------------------------------------ *)

(* Run Ad against the pure-EC register with [c] writers plus one reader,
   returning the world. *)
let e14_run ~(cfg : Sb_registers.Common.config) ~values () =
  let module R = Sb_sim.Runtime in
  let d = Sb_codec.Codec.value_bits cfg.codec in
  let workload =
    Array.append
      (Array.map (fun v -> [ Sb_sim.Trace.Write v ]) values)
      [| [ Sb_sim.Trace.Read ] |]
  in
  let w =
    R.create
      ~algorithm:(Sb_registers.Adaptive.make_unbounded cfg)
      ~n:cfg.n ~f:cfg.f ~workload ()
  in
  let halt_when (s : Sb_adversary.Ad.snapshot) =
    List.length s.c_plus >= Array.length values
  in
  let policy = Sb_adversary.Ad.policy ~ell_bits:(d / 2) ~d_bits:d ~halt_when () in
  ignore (R.run ~max_steps:200_000 w policy);
  w

let e14_indistinguishability ?(value_bytes = default_value_bytes) ?(f = 8) ?(c = 3) () =
  let module R = Sb_sim.Runtime in
  let k = f in
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let d = d_bits ~value_bytes in
  let values = Array.init c (fun i -> Workloads.distinct_value ~value_bytes i) in
  let base_world = e14_run ~cfg ~values () in
  let reader_result w =
    List.find_map
      (fun (_, kind, _, ret, res) ->
        match (kind, ret) with Sb_sim.Trace.Read, Some _ -> Some res | _ -> None)
      (Sb_sim.Trace.operations (R.trace w))
  in
  let object_blocks w =
    List.concat_map
      (fun i -> Sb_storage.Objstate.blocks (R.obj_state w i))
      (List.init cfg.n Fun.id)
  in
  let table =
    Table.create
      ~title:"E14  Lemma 1 executable: colliding-value runs are indistinguishable"
      [
        ("write", Table.Left); ("stored_bits", Table.Right); ("D", Table.Right);
        ("indices", Table.Right); ("collision", Table.Left);
        ("states_identical", Table.Left); ("reader_agrees", Table.Left);
      ]
  in
  let writes =
    List.filter
      (fun (op : R.op) ->
        match op.kind with Sb_sim.Trace.Write _ -> true | _ -> false)
      (R.all_ops base_world)
  in
  let rows =
    List.map
      (fun (op : R.op) ->
        let stored = R.op_contribution base_world op in
        let indices =
          Sb_storage.Accounting.indices_of ~source:op.id (object_blocks base_world)
        in
        let base_value =
          match op.kind with Sb_sim.Trace.Write v -> v | _ -> assert false
        in
        let collision =
          Codec.rs_vandermonde_colliding ~value_bytes ~k ~n:cfg.n ~indices
            ~base:base_value
        in
        let ok =
          match collision with
          | None -> false
          | Some v' ->
            (* Re-run the identical adversary schedule with the write's
               value substituted (Definition 5's run r_v). *)
            let values' = Array.copy values in
            values'.(op.client) <- v';
            let alt_world = e14_run ~cfg ~values:values' () in
            let states_equal =
              List.for_all
                (fun i -> R.obj_state base_world i = R.obj_state alt_world i)
                (List.init cfg.n Fun.id)
            in
            let reader_equal = reader_result base_world = reader_result alt_world in
            Table.add_row table
              [
                Printf.sprintf "w%d" op.id; string_of_int stored; string_of_int d;
                string_of_int (List.length indices); "found";
                (if states_equal then "yes" else "NO");
                (if reader_equal then "yes" else "NO");
              ];
            states_equal && reader_equal && stored < d
        in
        (match collision with
         | None ->
           Table.add_row table
             [
               Printf.sprintf "w%d" op.id; string_of_int stored; string_of_int d;
               string_of_int (List.length indices); "NONE"; "-"; "-";
             ]
         | Some _ -> ());
        ok)
      writes
  in
  {
    id = "E14";
    title = "Pigeonhole collisions and indistinguishable runs (Claim 1 / Lemma 1)";
    table;
    ok = rows <> [] && List.for_all Fun.id rows;
    notes =
      [
        Printf.sprintf "D=%d bits, f=k=%d, n=%d, c=%d, pure-EC register under Ad" d f
          cfg.n c;
        "Each stalled write has < D stored bits, so a different value exists \
         whose blocks agree on every stored index (computed from the RS \
         generator's kernel); replaying the schedule with the substituted \
         value leaves every base object byte-identical and the reader's \
         return unchanged — no one can tell which value was written.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E15: bounded-version registers must provision delta >= c            *)
(* ------------------------------------------------------------------ *)

let e15_version_bound ?(value_bytes = default_value_bytes) ?(f = 2) ?(k = 8) ?(c = 10)
    ?(deltas = [ 0; 1; 2; 4; 10 ]) () =
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let piece = Codec.block_bits cfg.codec 0 in
  let table =
    Table.create
      ~title:"E15  Version-bounded register: storage and read latency vs delta"
      [
        ("delta", Table.Right); ("max_obj_bits", Table.Right);
        ("(d+1)n*piece", Table.Right); ("max_read_rounds", Table.Right);
        ("reads_done", Table.Right); ("strongly_regular", Table.Left);
      ]
  in
  let workload =
    Workloads.writers_and_readers ~value_bytes ~writers:c ~writes_each:3 ~readers:4
      ~reads_each:3
  in
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let rows =
    List.map
      (fun delta ->
        let algo = Sb_registers.Adaptive.make_versioned ~delta cfg in
        let ms =
          Runs.measure_many ~seeds ~max_steps:500_000 ~algorithm:algo ~cfg ~workload ()
        in
        let m = Runs.worst ms in
        let rounds = List.fold_left (fun a m -> max a m.Runs.max_read_rounds) 0 ms in
        let reads_done = List.fold_left (fun a m -> a + m.Runs.completed_reads) 0 ms in
        let reads_inv = List.fold_left (fun a m -> a + m.Runs.invoked_reads) 0 ms in
        let storage_bound = (delta + 1) * cfg.n * piece in
        let all_strong =
          List.for_all (fun m -> Sb_spec.Regularity.ok m.Runs.strong) ms
        in
        Table.add_row table
          [
            string_of_int delta; string_of_int m.Runs.max_obj_bits;
            string_of_int storage_bound; string_of_int rounds;
            Printf.sprintf "%d/%d" reads_done reads_inv;
            (if all_strong then "yes" else "VIOLATION");
          ];
        (m.Runs.max_obj_bits <= storage_bound, rounds, reads_done = reads_inv, all_strong))
      deltas
  in
  let storage_ok = List.for_all (fun (b, _, _, _) -> b) rows in
  let liveness_ok = List.for_all (fun (_, _, done_, _) -> done_) rows in
  let safety_ok = List.for_all (fun (_, _, _, s) -> s) rows in
  let rounds_of = List.map (fun (_, r, _, _) -> r) rows in
  let latency_degrades =
    match (rounds_of, List.rev rounds_of) with
    | tight :: _, provisioned :: _ -> tight > provisioned
    | _ -> false
  in
  {
    id = "E15";
    title = "Bounded versions: delta must scale with concurrency (cf. [6])";
    table;
    ok = storage_ok && liveness_ok && safety_ok && latency_degrades;
    notes =
      [
        Printf.sprintf "D=%d bits, f=%d, k=%d, n=%d, %d writers x 3; sum/max over 8 seeds"
          (d_bits ~value_bytes) f k cfg.n c;
        "Storage obeys (delta+1)(2f+k)D/k for every delta, but tight deltas \
         make reads re-sample while the write backlog drains: bounding \
         versions below the concurrency trades latency, never safety.  \
         Provisioning delta >= c is exactly the Theta(cD) storage the lower \
         bound demands.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E16: the lower bound over message passing                           *)
(* ------------------------------------------------------------------ *)

let e16_lower_bound_mp ?(value_bytes = default_value_bytes) ?(f = 6)
    ?(cs = [ 1; 2; 4; 6 ]) () =
  let k = f in
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let d = d_bits ~value_bytes in
  let table =
    Table.create
      ~title:"E16  Adversary Ad over message passing: channels cannot hide the bound"
      [
        ("c", Table.Right); ("branch", Table.Left); ("server_bits", Table.Right);
        ("total_bits", Table.Right); ("bound", Table.Right); ("writes_done", Table.Right);
      ]
  in
  let rows =
    List.map
      (fun c ->
        let r =
          Sb_adversary.Lower_bound.run_mp
            ~algorithm:(Sb_registers.Adaptive.make_unbounded cfg) ~cfg ~c ()
        in
        Table.add_row table
          [
            string_of_int c; branch_name r.branch; string_of_int r.max_obj_bits;
            string_of_int r.max_total_bits; string_of_int r.lower_bound_bits;
            string_of_int r.completed_writes;
          ];
        r)
      cs
  in
  let ok =
    List.for_all
      (fun (r : Sb_adversary.Lower_bound.result) ->
        r.max_total_bits >= r.lower_bound_bits
        && r.completed_writes = 0
        && r.branch <> Sb_adversary.Lower_bound.Exhausted)
      rows
  in
  {
    id = "E16";
    title = "Lower bound with channel-inclusive accounting (Theorem 1 + Section 3.2)";
    table;
    ok;
    notes =
      [
        Printf.sprintf "D=%d bits, f=k=%d, n=%d, ell=D/2; pure-EC register over \
                        Mp_runtime" d f cfg.n;
        "Contributions count blocks at servers AND in flight (request payloads, \
         snapshot responses), so parking data in the network does not evade \
         Ad: storage still exceeds min((f+1)ell, c(D-ell+1)) and no write \
         returns.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E17: the adversary's ell parameter                                  *)
(* ------------------------------------------------------------------ *)

let e17_ell_sweep ?(value_bytes = default_value_bytes) ?(f = 6) ?(c = 6) () =
  let k = f in
  let cfg = Catalog.coded_cfg ~value_bytes ~f ~k in
  let d = d_bits ~value_bytes in
  let table =
    Table.create
      ~title:"E17  Sweeping the adversary threshold ell (Theorem 1's free parameter)"
      [
        ("ell", Table.Right); ("branch", Table.Left); ("(f+1)ell", Table.Right);
        ("c(D-ell+1)", Table.Right); ("bound=min", Table.Right);
        ("max_storage", Table.Right);
      ]
  in
  let ells = [ d / 8; d / 4; d / 2; 3 * d / 4; d ] in
  let rows =
    List.map
      (fun ell ->
        let r =
          Sb_adversary.Lower_bound.run ~ell_bits:ell
            ~algorithm:(Sb_registers.Adaptive.make_unbounded cfg) ~cfg ~c ()
        in
        Table.add_row table
          [
            string_of_int ell; branch_name r.branch;
            string_of_int ((f + 1) * ell);
            string_of_int (c * (d - ell + 1));
            string_of_int r.lower_bound_bits; string_of_int r.max_total_bits;
          ];
        (ell, r))
      ells
  in
  (* Shape: the bound always holds; small ell favours the freeze branch
     (cheap freezing), large ell the saturation branch (cheap
     saturation); ell = D/2 balances them — the proof's choice. *)
  let bound_ok =
    List.for_all
      (fun (_, (r : Sb_adversary.Lower_bound.result)) ->
        r.max_total_bits >= r.lower_bound_bits && r.completed_writes = 0)
      rows
  in
  let best_bound =
    List.fold_left
      (fun acc (_, (r : Sb_adversary.Lower_bound.result)) ->
        max acc r.lower_bound_bits)
      0 rows
  in
  let mid_is_best =
    match List.find_opt (fun (ell, _) -> ell = d / 2) rows with
    | Some (_, r) -> 2 * r.lower_bound_bits >= best_bound
    | None -> false
  in
  {
    id = "E17";
    title = "Ablation: the proof's choice of ell = D/2";
    table;
    ok = bound_ok && mid_is_best;
    notes =
      [
        Printf.sprintf "D=%d bits, f=k=%d, n=%d, c=%d, pure-EC register" d f cfg.n c;
        "min((f+1)ell, c(D-ell+1)) is maximised near ell = D/2 when c ~ f \
         — exactly the instantiation the proof of Theorem 1 picks; extreme \
         ell values still hold but certify a weaker bound (ell = D gives \
         Corollary 2's qualitative form).";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E18: sibling-paper bounds over restricted base-object models        *)
(* ------------------------------------------------------------------ *)

(* The storage landscape as a function of the base-object model, all
   four corners executable: over read/write base objects a regular
   register pays the (f+1)*D replication floor exactly (arXiv:1705.07212)
   while the same cells under full RMW store (2f+k)*D/k; weakening the
   register to safe wins the coded rate back; and over non-authenticated
   Byzantine objects the masking emulation again stores full replicas
   (arXiv:1805.06265's collapse). *)
let e18_base_model_floors ?(value_bytes = default_value_bytes) ?(f = 1)
    ?(k = 4) () =
  let d = d_bits ~value_bytes in
  let floor_bits = (f + 1) * d in
  let workload =
    Workloads.writers_and_readers ~value_bytes ~writers:1 ~writes_each:2
      ~readers:2 ~reads_each:2
  in
  let measure_worst ~base_model ~algorithm ~cfg =
    let budget = Sb_baseobj.Model.budget base_model in
    let ms =
      List.map
        (fun seed ->
          let byz =
            if budget > 0 then
              Some
                (Sb_adversary.Byz.policy ~seed ~n:cfg.Sb_registers.Common.n
                   ~budget Sb_adversary.Byz.Stale_echo)
            else None
          in
          Runs.measure ~seed ~base_model ?byz ~algorithm ~cfg ~workload ())
        [ 1; 2; 3 ]
    in
    Runs.worst ms
  in
  let rows =
    Catalog.
      [
        ("rw-regular", Rw_regular, Some floor_bits);
        ("rw-fcopy", Rw_fcopy, Some (f * d));
        ("rw-safe", Rw_safe, Some (((2 * f) + k) * d / k));
        ("adaptive(rmw)", Adaptive, None);
        ("byz-regular:0", Byz_reg 0, None);
        ("byz-regular:1", Byz_reg 1, None);
      ]
  in
  let table =
    Table.create
      ~title:
        "E18  Base-object models: the sibling papers' storage floors, measured"
      [
        ("emulation", Table.Left); ("base model", Table.Left);
        ("n", Table.Right); ("quiescent bits", Table.Right);
        ("(f+1)D floor", Table.Right); ("vs floor", Table.Left);
        ("regular", Table.Left);
      ]
  in
  let measured =
    List.map
      (fun (name, register, expect) ->
        let algorithm, cfg =
          Catalog.build ~writers:1 register ~value_bytes ~f ~k
        in
        let base_model = Catalog.base_model register in
        let m = measure_worst ~base_model ~algorithm ~cfg in
        let rel =
          if m.Runs.final_obj_bits < floor_bits then "below"
          else if m.Runs.final_obj_bits = floor_bits then "at"
          else "above"
        in
        Table.add_row table
          [
            name;
            Format.asprintf "%a" Sb_baseobj.Model.pp base_model;
            string_of_int cfg.Sb_registers.Common.n;
            string_of_int m.Runs.final_obj_bits;
            string_of_int floor_bits;
            rel;
            (if Sb_spec.Regularity.ok m.Runs.strong then "ok" else "no");
          ];
        (name, m, expect))
      rows
  in
  let find name =
    let _, m, _ = List.find (fun (n, _, _) -> n = name) measured in
    m
  in
  let exact_ok =
    List.for_all
      (fun (_, m, expect) ->
        match expect with
        | None -> true
        | Some bits -> m.Runs.quiescent && m.Runs.final_obj_bits = bits)
      measured
  in
  let floors_ok =
    (* The two emulations whose models carry the replication floor sit
       at or above it; the coded/safe escapes sit strictly below; the
       seeded f-copy bug sits below (the sanitizer suite catches it). *)
    (find "rw-regular").Runs.final_obj_bits = floor_bits
    && (find "byz-regular:0").Runs.final_obj_bits >= floor_bits
    && (find "byz-regular:1").Runs.final_obj_bits >= floor_bits
    && (find "rw-safe").Runs.final_obj_bits < floor_bits
    && (find "adaptive(rmw)").Runs.final_obj_bits < floor_bits
    && (find "rw-fcopy").Runs.final_obj_bits < floor_bits
  in
  let regular_ok =
    List.for_all
      (fun name -> Sb_spec.Regularity.ok (find name).Runs.strong)
      [ "rw-regular"; "adaptive(rmw)"; "byz-regular:0"; "byz-regular:1" ]
  in
  {
    id = "E18";
    title = "Sibling bounds: base-object model decides the storage floor";
    table;
    ok = exact_ok && floors_ok && regular_ok;
    notes =
      [
        Printf.sprintf "D=%d bits, f=%d, k=%d; worst quiescent storage over 3 seeds" d f k;
        "Read/write base objects force (f+1) live full copies on any regular \
         emulation (arXiv:1705.07212) — rw-regular lands on the floor to the \
         bit, while the same workload over RMW objects stores (2f+k)D/k.";
        "byz-regular masks up to b lying objects (stale-echo policy, b=f) \
         and stores full replicas at 2f+2b+1 cells: disintegrated coding \
         collapses over non-authenticated Byzantine objects \
         (arXiv:1805.06265).";
        "rw-safe shows the escape hatch the rw bound leaves open: weaken \
         regular to safe and coding is admissible again; rw-fcopy is the \
         seeded below-floor bug the storage-floor sanitizer refutes.";
      ];
  }

let all () =
  [
    e1_concurrency_blowup (); e2_freeze_branch (); e3_adaptive_bound ();
    e4_eventual_gc (); e5_crossover (); e6_f_sweep (); e7_k_ablation ();
    e8_safe_constant (); e9_read_rounds (); e10_liveness_under_ad ();
    e11_channel_storage (); e12_adversary_ablation (); e13_premature_gc ();
    e14_indistinguishability (); e15_version_bound (); e16_lower_bound_mp ();
    e17_ell_sweep (); e18_base_model_floors ();
  ]

let print_outcome o =
  Printf.printf "== %s: %s [%s]\n" o.id o.title (if o.ok then "OK" else "MISMATCH");
  Table.print o.table;
  List.iter (fun n -> Printf.printf "   note: %s\n" n) o.notes;
  print_newline ()

let to_markdown outcomes =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# Experiment report\n\n";
  Buffer.add_string buf
    "Generated by `spacebounds experiments --markdown`; one section per\n\
     reproduced claim, with the measured table and the shape verdict.\n\n";
  List.iter
    (fun o ->
      Buffer.add_string buf
        (Printf.sprintf "## %s — %s\n\n**Shape vs. paper: %s**\n\n```\n%s```\n\n" o.id
           o.title
           (if o.ok then "match" else "MISMATCH")
           (Table.render o.table));
      List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "- %s\n" n)) o.notes;
      Buffer.add_char buf '\n')
    outcomes;
  Buffer.contents buf
