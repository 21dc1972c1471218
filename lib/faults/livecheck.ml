module Wire = Sb_service.Wire
module Catalog = Sb_experiments.Catalog
module Regularity = Sb_spec.Regularity

type verdict = { label : string; detail : string; ok : bool; failure : string }

let verdict label ok detail failure = { label; detail; ok; failure }

type latency = { p50 : float; p95 : float; p99 : float; max : float }

let latency samples =
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  let at p = Sb_experiments.Stats.nearest_rank sorted ~p in
  { p50 = at 50.0; p95 = at 95.0; p99 = at 99.0; max = at 100.0 }

let sum f stats = List.fold_left (fun acc st -> acc + f st) 0 stats
let sum_max_bits = sum (fun (st : Wire.stats) -> st.Wire.st_max_bits)
let peak_bits ~sampled stats = max sampled (sum_max_bits stats)
let quiescent_bits = sum (fun (st : Wire.stats) -> st.Wire.st_storage_bits)

let per_key_peak_bits =
  sum (fun (st : Wire.stats) ->
      match st.Wire.st_shards with
      | [] -> st.Wire.st_max_bits
      | shards ->
        List.fold_left
          (fun acc (ss : Wire.shard_stat) -> max acc ss.Wire.ss_max_key_bits)
          0 shards)

let fleet_keys ~keys stats =
  keys
  + List.fold_left
      (fun acc (st : Wire.stats) -> max acc (List.length st.Wire.st_shards))
      1 stats

type bounds = { ceiling_bits : int; floor_bits : int }

let bounds ~f ~k ~c ~d_bits =
  let m = (2 * f) + k in
  { ceiling_bits = min ((c + 1) * m) (m * m) * d_bits / k;
    floor_bits = m * d_bits / k }

let fleet b ~keys =
  { ceiling_bits = keys * b.ceiling_bits; floor_bits = keys * b.floor_bits }

let closed_verdicts b ~peak ~quiescent =
  let { ceiling_bits = ceiling; floor_bits = floor } = b in
  [ verdict "theorem 2" (peak <= ceiling)
      (Printf.sprintf "peak %d <= ceiling min((c+1)(2f+k),(2f+k)^2)D/k = %d"
         peak ceiling)
      (Printf.sprintf "peak storage %d exceeds Theorem 2 ceiling %d" peak
         ceiling);
    verdict "gc floor" (quiescent <= floor)
      (Printf.sprintf "quiescent %d <= (2f+k)D/k = %d" quiescent floor)
      (Printf.sprintf "quiescent storage %d exceeds GC floor %d" quiescent
         floor) ]

let open_verdicts b ~keys ~per_key_peak ~peak ~quiescent =
  let all = fleet b ~keys in
  [ verdict "theorem 2 (key)" (per_key_peak <= b.ceiling_bits)
      (Printf.sprintf "per-key peak %d <= min((c+1)(2f+k),(2f+k)^2)D/k = %d"
         per_key_peak b.ceiling_bits)
      (Printf.sprintf "per-key peak storage %d exceeds Theorem 2 ceiling %d"
         per_key_peak b.ceiling_bits);
    verdict "theorem 2 (all)" (peak <= all.ceiling_bits)
      (Printf.sprintf "peak %d <= %d keys x ceiling = %d" peak keys
         all.ceiling_bits)
      (Printf.sprintf "fleet peak storage %d exceeds %d-key ceiling %d" peak
         keys all.ceiling_bits);
    verdict "gc floor (all)" (quiescent <= 2 * all.floor_bits)
      (Printf.sprintf
         "quiescent %d vs %d keys x (2f+k)D/k = %d (%.3fx, budget <= 2x)"
         quiescent keys all.floor_bits
         (float_of_int quiescent /. float_of_int (max 1 all.floor_bits)))
      (Printf.sprintf "fleet quiescent storage %d exceeds 2x the %d-key GC floor %d"
         quiescent keys all.floor_bits) ]

type regularity = {
  weak : Regularity.verdict;
  level : Regularity.verdict;
  level_name : string;
}

let regularity algo history =
  let level = Catalog.level algo in
  { weak = Regularity.check_weak history;
    level = Catalog.checker level history;
    level_name = Catalog.level_name level }

let baseline_gate ~current ~baseline ~throughput ~p99 =
  let within =
    Sb_util.Jsonx.check ~current ~baseline ~keys:[ "ms_per_op"; "p99_ms" ] ()
  in
  let gate key mk = Option.map mk (Sb_util.Jsonx.field baseline key) in
  ( within,
    if not (Sys.file_exists baseline) then []
    else
    List.filter_map Fun.id
      [ gate "gate_min_throughput_ops_s" (fun g ->
            verdict "gate" (throughput >= g)
              (Printf.sprintf "throughput %.1f >= %.1f ops/s" throughput g)
              (Printf.sprintf "throughput %.1f ops/s below baseline gate %.1f"
                 throughput g));
        gate "gate_max_p99_ms" (fun g ->
            verdict "gate" (p99 <= g)
              (Printf.sprintf "p99 %.2f <= %.2f ms" p99 g)
              (Printf.sprintf "p99 %.2f ms above baseline gate %.2f ms" p99 g))
      ] )
