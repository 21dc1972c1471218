module MP = Sb_msgnet.Mp_runtime
module Trace = Sb_sim.Trace
module Monitor = Sb_sanitize.Monitor
module Table = Sb_util.Table

type spec = {
  sp_name : string;
  sp_make : unit -> Sb_sim.Runtime.algorithm;
  sp_n : int;
  sp_f : int;
  sp_k : int;
  sp_value_bytes : int;
  sp_reg_avail : bool;
  sp_check : Sb_spec.History.t -> Sb_spec.Regularity.verdict;
  sp_base_model : Sb_baseobj.Model.t;
  sp_byz : Sb_adversary.Byz.behaviour option;
      (** Lying behaviour for [Byzantine] base models; the policy is
          seeded per run ([Sb_adversary.Byz.policy]) with the model's
          budget, so liar selection varies across the seed sweep. *)
  sp_floor : (int * int) option;
      (** [(copies, d_bits)] arms the sanitizer's replication-floor
          monitor — [(f+1, D)] for the emulations whose sibling bounds
          prove that floor. *)
  sp_workload : (value_bytes:int -> Sb_sim.Trace.op_kind list array) option;
      (** Override the default two-writers-one-reader workload (the
          single-writer emulations need SWMR drives). *)
}

type config = {
  seeds : int;
  base_seed : int;
  drops : float list;
  duplicate : float;
  delay : float;
  crash_recovery : bool;
  sanitize : bool;
  rto : int;
  max_steps : int;
  watchdog_budget : int;
}

let default_config =
  { seeds = 10;
    base_seed = 1;
    drops = [ 0.0; 0.1; 0.3 ];
    duplicate = 0.1;
    delay = 0.05;
    crash_recovery = true;
    sanitize = true;
    rto = 50;
    max_steps = 100_000;
    watchdog_budget = 25_000;
  }

let quick_config =
  { default_config with seeds = 3; drops = [ 0.0; 0.2 ]; max_steps = 50_000 }

type run_result = {
  r_seed : int;
  r_steps : int;
  r_quiescent : bool;
  r_ops : int;
  r_completed : int;
  r_stuck : Inject.stuck list;
  r_verdict : Sb_spec.Regularity.verdict;
  r_violations : Monitor.violation list;
  r_stats : MP.net_stats;
  r_requests : int;
  r_max_server_bits : int;
  r_max_channel_bits : int;
  r_max_combined_bits : int;
  r_accounting_ok : bool;
}

let run_ok r =
  r.r_quiescent
  && r.r_completed = r.r_ops
  && r.r_stuck = []
  && Sb_spec.Regularity.ok r.r_verdict
  && r.r_violations = []
  && r.r_accounting_ok

(* Three clients: two writers racing and a reader sampling twice.  Small
   enough that a campaign cell is cheap, rich enough that regularity has
   something to say under faults. *)
let workload ~value_bytes =
  let v i = Sb_util.Values.distinct ~value_bytes i in
  [| [ Trace.Write (v 1); Trace.Read ];
     [ Trace.Write (v 2) ];
     [ Trace.Read; Trace.Read ];
  |]

(* One writer, two readers: the drive for the single-writer emulations
   (rw-safe, byz-regular), where blind overwrites or masking quorums are
   only claimed correct under SWMR. *)
let swmr_workload ~value_bytes =
  let v i = Sb_util.Values.distinct ~value_bytes i in
  [| [ Trace.Write (v 1); Trace.Write (v 2) ];
     [ Trace.Read; Trace.Read ];
     [ Trace.Read ];
  |]

let catalog_spec ~byz_behaviour algo ~value_bytes ~f ~k =
  let module Catalog = Sb_experiments.Catalog in
  (* The default workload races two writers; rw-regular and rw-fcopy
     then provision one cell group per writer. *)
  let single = Catalog.single_writer algo in
  let writers = if single then 1 else 2 in
  let build () = Catalog.build ~writers algo ~value_bytes ~f ~k in
  let cfg = snd (build ()) in
  let model = Catalog.base_model algo in
  { sp_name = Catalog.to_string algo;
    sp_make = (fun () -> fst (build ()));
    sp_n = cfg.Sb_registers.Common.n;
    sp_f = f;
    sp_k = Catalog.code_k algo ~k;
    sp_value_bytes = value_bytes;
    sp_reg_avail = Catalog.reg_avail algo;
    sp_check = Catalog.checker (Catalog.level algo);
    sp_base_model = model;
    sp_byz =
      (if Sb_baseobj.Model.budget model > 0 then Some byz_behaviour else None);
    sp_floor = Catalog.storage_floor ~writers algo ~value_bytes ~f;
    sp_workload = (if single then Some swmr_workload else None);
  }

let plan_for cfg ~drop =
  let p =
    Plan.lossy ~duplicate:cfg.duplicate ~delay:cfg.delay drop
  in
  if cfg.crash_recovery then
    Plan.crash_recovery ~server:0 ~crash_at:(cfg.rto) ~recover_at:(3 * cfg.rto) p
  else p

let run_one cfg (sp : spec) ~drop ~seed =
  let plan = plan_for cfg ~drop in
  Plan.validate ~n:sp.sp_n ~f:sp.sp_f plan;
  let byz =
    Option.map
      (fun behaviour ->
        Sb_adversary.Byz.policy ~seed ~n:sp.sp_n
          ~budget:(Sb_baseobj.Model.budget sp.sp_base_model)
          behaviour)
      sp.sp_byz
  in
  let wl =
    match sp.sp_workload with
    | Some mk -> mk ~value_bytes:sp.sp_value_bytes
    | None -> workload ~value_bytes:sp.sp_value_bytes
  in
  let w =
    MP.create ~seed ~retransmit:{ MP.rto = cfg.rto; max_attempts = 0 }
      ~base_model:sp.sp_base_model ?byz ~algorithm:(sp.sp_make ()) ~n:sp.sp_n
      ~f:sp.sp_f ~workload:wl ()
  in
  let monitor =
    if cfg.sanitize then
      Some
        (Monitor.attach_mp
           (Monitor.config ~mode:Monitor.Collect ~reg_avail:sp.sp_reg_avail
              ?floor:sp.sp_floor
              ?byz:
                (Option.map
                   (fun (p : Sb_baseobj.Model.byz_policy) ->
                     p.Sb_baseobj.Model.bp_compromised)
                   byz)
              ~k:sp.sp_k ())
           w)
    else None
  in
  let outcome = MP.run ~max_steps:cfg.max_steps w (Inject.policy ~seed plan) in
  let ops = Trace.operations (MP.trace w) in
  let completed =
    List.length (List.filter (fun (_, _, _, ret, _) -> ret <> None) ops)
  in
  let initial = Bytes.make sp.sp_value_bytes '\000' in
  let verdict = sp.sp_check (Sb_spec.History.of_trace ~initial (MP.trace w)) in
  let violations =
    match monitor with Some m -> Monitor.violations m | None -> []
  in
  (* Channel accounting must survive duplication and retransmission: the
     live counter has to agree with a recount of what is in flight, and
     the combined high-water mark can never fall below the decodability
     floor D (the initial value alone pins k blocks of D/k bits). *)
  let channel_recount =
    List.fold_left (fun acc (m : MP.message_info) -> acc + m.MP.m_bits) 0
      (MP.in_flight w)
  in
  let d_bits = 8 * sp.sp_value_bytes in
  let accounting_ok =
    channel_recount = MP.storage_bits_channels w
    && MP.max_bits_combined w >= MP.max_bits_servers w
    && MP.max_bits_combined w >= d_bits
  in
  { r_seed = seed;
    r_steps = outcome.MP.steps;
    r_quiescent = outcome.MP.quiescent;
    r_ops = List.length ops;
    r_completed = completed;
    r_stuck = Inject.watchdog ~budget:cfg.watchdog_budget w;
    r_verdict = verdict;
    r_violations = violations;
    r_stats = MP.net_stats w;
    r_requests = MP.requests_sent w;
    r_max_server_bits = MP.max_bits_servers w;
    r_max_channel_bits = MP.max_bits_channels w;
    r_max_combined_bits = MP.max_bits_combined w;
    r_accounting_ok = accounting_ok;
  }

type cell = {
  cl_algo : string;
  cl_drop : float;
  cl_runs : run_result list;
  cl_ok : bool;
}

let cell cfg sp ~drop =
  let runs =
    List.init cfg.seeds (fun i ->
        run_one cfg sp ~drop ~seed:(cfg.base_seed + i))
  in
  { cl_algo = sp.sp_name;
    cl_drop = drop;
    cl_runs = runs;
    cl_ok = List.for_all run_ok runs;
  }

let campaign cfg specs =
  List.concat_map
    (fun sp -> List.map (fun drop -> cell cfg sp ~drop) cfg.drops)
    specs

let all_ok cells = List.for_all (fun c -> c.cl_ok) cells

let mean f runs =
  match runs with
  | [] -> 0.0
  | _ ->
    float_of_int (List.fold_left (fun acc r -> acc + f r) 0 runs)
    /. float_of_int (List.length runs)

let max_over f runs = List.fold_left (fun acc r -> max acc (f r)) 0 runs

(* The graceful-degradation report: one row per (algorithm, drop rate),
   mean cost metrics over the seed sweep plus channel-inclusive storage
   high-water marks.  Retransmissions and duplicates inflate the channel
   columns — visibly, rather than escaping the accounting. *)
let report cells =
  let t =
    Table.create ~title:"chaos: graceful degradation under message faults"
      [ ("algorithm", Table.Left);
        ("drop", Table.Right);
        ("runs", Table.Right);
        ("done", Table.Right);
        ("steps", Table.Right);
        ("req/op", Table.Right);
        ("retrans", Table.Right);
        ("dup", Table.Right);
        ("fenced", Table.Right);
        ("dedup", Table.Right);
        ("stuck", Table.Right);
        ("viol", Table.Right);
        ("srvB", Table.Right);
        ("chanB", Table.Right);
        ("totB", Table.Right);
        ("verdict", Table.Left);
      ]
  in
  List.iter
    (fun c ->
      let runs = c.cl_runs in
      let n_runs = List.length runs in
      let completed = List.filter run_ok runs in
      let verdicts_ok =
        List.for_all (fun r -> Sb_spec.Regularity.ok r.r_verdict) runs
      in
      Table.add_row t
        [ c.cl_algo;
          Printf.sprintf "%.2f" c.cl_drop;
          string_of_int n_runs;
          string_of_int (List.length completed);
          Printf.sprintf "%.0f" (mean (fun r -> r.r_steps) runs);
          Printf.sprintf "%.1f"
            (mean (fun r -> r.r_requests) runs
            /. Float.max 1.0 (mean (fun r -> r.r_ops) runs));
          Printf.sprintf "%.1f" (mean (fun r -> r.r_stats.MP.retransmissions) runs);
          Printf.sprintf "%.1f" (mean (fun r -> r.r_stats.MP.duplicated) runs);
          Printf.sprintf "%.1f" (mean (fun r -> r.r_stats.MP.fenced) runs);
          Printf.sprintf "%.1f" (mean (fun r -> r.r_stats.MP.dedup_hits) runs);
          string_of_int
            (List.fold_left (fun acc r -> acc + List.length r.r_stuck) 0 runs);
          string_of_int
            (List.fold_left
               (fun acc r -> acc + List.length r.r_violations)
               0 runs);
          string_of_int (max_over (fun r -> r.r_max_server_bits) runs);
          string_of_int (max_over (fun r -> r.r_max_channel_bits) runs);
          string_of_int (max_over (fun r -> r.r_max_combined_bits) runs);
          (if verdicts_ok then "ok" else "VIOLATION");
        ])
    cells;
  t

let explain_failures ppf cells =
  List.iter
    (fun c ->
      if not c.cl_ok then
        List.iter
          (fun r ->
            if not (run_ok r) then begin
              Format.fprintf ppf "%s drop=%.2f seed=%d:@." c.cl_algo c.cl_drop
                r.r_seed;
              if not r.r_quiescent then
                Format.fprintf ppf "  not quiescent after %d steps@." r.r_steps;
              if r.r_completed < r.r_ops then
                Format.fprintf ppf "  %d/%d operations completed@." r.r_completed
                  r.r_ops;
              List.iter
                (fun s -> Format.fprintf ppf "  stuck: %a@." Inject.pp_stuck s)
                r.r_stuck;
              (match r.r_verdict with
              | Sb_spec.Regularity.Ok -> ()
              | Sb_spec.Regularity.Violation _ ->
                Format.fprintf ppf "  regularity violation@.");
              List.iter
                (fun v ->
                  Format.fprintf ppf "  sanitizer: %a@." Monitor.pp_violation v)
                r.r_violations;
              if not r.r_accounting_ok then
                Format.fprintf ppf "  channel-inclusive accounting mismatch@."
            end)
          c.cl_runs)
    cells
