module Daemon = Sb_service.Daemon
module Netfault = Sb_service.Netfault
module Sdk = Sb_service.Sdk
module Wire = Sb_service.Wire
module Prng = Sb_util.Prng
module J = Sb_util.Jsonx
module Catalog = Sb_experiments.Catalog

(* ------------------------------------------------------------------ *)
(* Socket-layer interpretation of a Plan                               *)
(* ------------------------------------------------------------------ *)

(* Split a frame into 2..4 chunks at seeded cut points.  Chunks carry
   small staggered delays; the peer's incremental reader must reassemble
   the frame from adversarial partial writes. *)
let fragment_frame prng frame =
  let len = Bytes.length frame in
  if len < 2 then [ (0, frame) ]
  else begin
    let pieces = min (2 + Prng.int prng 3) len in
    let cuts = Array.init (pieces - 1) (fun _ -> 1 + Prng.int prng (len - 1)) in
    Array.sort compare cuts;
    let bounds = Array.to_list cuts @ [ len ] in
    let rec chunks start acc = function
      | [] -> List.rev acc
      | b :: rest ->
        if b <= start then chunks start acc rest
        else chunks b (Bytes.sub frame start (b - start) :: acc) rest
    in
    List.mapi
      (fun i c -> ((if i = 0 then 0 else i + Prng.int prng 3), c))
      (chunks 0 [] bounds)
  end

(* Latest heal time over hold-partitions isolating [server] at [now];
   [now] itself when none. *)
let hold_until (plan : Plan.t) ~now server =
  List.fold_left
    (fun acc (p : Plan.partition) ->
      if
        p.Plan.p_start <= now && now < p.Plan.p_heal
        && List.mem server p.Plan.p_servers
        && p.Plan.p_mode = Plan.Isolate_hold
      then max acc p.Plan.p_heal
      else acc)
    now plan.Plan.partitions

let hooks ?(seed = 1) (plan : Plan.t) : Netfault.t =
  let prng = Prng.create seed in
  let epoch = Unix.gettimeofday () in
  let now_ms () = int_of_float ((Unix.gettimeofday () -. epoch) *. 1000.0) in
  let roll rate =
    rate > 0.0 && Prng.int prng 10_000 < int_of_float (rate *. 10_000.0)
  in
  let gate ~server =
    match Plan.isolation plan ~now:(now_ms ()) server with
    | Some Plan.Isolate_drop -> false
    | Some Plan.Isolate_hold | None -> not (roll (plan.Plan.drop *. 0.5))
  in
  let delay_of () =
    if roll plan.Plan.delay then 1 + Prng.int prng (max 1 plan.Plan.delay_steps)
    else 0
  in
  let nf_frame ~server frame =
    (* Handshake frames always pass: faults exercise the data plane,
       not version negotiation (which has its own mixed-version
       scenarios). *)
    if Wire.is_handshake_frame frame then Netfault.Pass
    else
      let now = now_ms () in
      match Plan.isolation plan ~now server with
      | Some Plan.Isolate_drop -> Netfault.Drop
      | Some Plan.Isolate_hold ->
        (* Held until the partition heals, like the simulator's
           hold-partitions: the bytes stay in flight, delivery resumes
           after the heal. *)
        Netfault.Emit [ (hold_until plan ~now server - now + 1, frame) ]
      | None ->
        if roll plan.Plan.drop then Netfault.Drop
        else begin
          let copies =
            if roll plan.Plan.duplicate then [ frame; frame ] else [ frame ]
          in
          let segs =
            List.concat_map
              (fun fr ->
                if roll plan.Plan.fragment then
                  let d0 = delay_of () in
                  List.map (fun (d, c) -> (d0 + d, c)) (fragment_frame prng fr)
                else [ (delay_of (), fr) ])
              copies
          in
          (* Occasional slow-close: emit a strict prefix of the frame,
             then close — the peer is left holding a partial frame. *)
          if plan.Plan.fragment > 0.0 && roll (plan.Plan.fragment *. 0.1) then
            match segs with
            | (d, c) :: _ when Bytes.length c > 1 ->
              Netfault.Emit_close [ (d, Bytes.sub c 0 (Bytes.length c - 1)) ]
            | _ -> Netfault.Emit_close []
          else Netfault.Emit segs
        end
  in
  {
    Netfault.nf_accept = (fun ~server -> gate ~server);
    nf_connect = (fun ~server -> gate ~server);
    nf_frame;
  }

(* ------------------------------------------------------------------ *)
(* Disk faults                                                         *)
(* ------------------------------------------------------------------ *)

type disk_fault = Df_none | Df_truncate | Df_bitflip

let disk_fault_name = function
  | Df_none -> "none"
  | Df_truncate -> "truncate"
  | Df_bitflip -> "bitflip"

let corrupt_file ~seed fault file =
  match fault with
  | Df_none -> false
  | Df_truncate | Df_bitflip ->
    if not (Sys.file_exists file) then false
    else begin
      let prng = Prng.create seed in
      let ic = open_in_bin file in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      let rewrite s =
        let oc = open_out_bin file in
        output_string oc s;
        close_out oc
      in
      (match fault with
       | Df_none -> ()
       | Df_truncate ->
         rewrite (String.sub body 0 (if len <= 1 then 0 else Prng.int prng len))
       | Df_bitflip ->
         if len = 0 then rewrite "\x00"
         else begin
           let b = Bytes.of_string body in
           let i = Prng.int prng len in
           Bytes.set_uint8 b i
             (Bytes.get_uint8 b i lxor (1 lsl Prng.int prng 8));
           rewrite (Bytes.to_string b)
         end);
      true
    end

(* ------------------------------------------------------------------ *)
(* Campaign plumbing                                                   *)
(* ------------------------------------------------------------------ *)

type spec = {
  sp_algo : Catalog.t;
  sp_make : unit -> Sb_sim.Runtime.algorithm;
  sp_n : int;
  sp_f : int;
  sp_k : int;
  sp_value_bytes : int;
}

let spec algo ~value_bytes ~f ~k =
  let build () = Catalog.build ~writers:1 algo ~value_bytes ~f ~k in
  { sp_algo = algo;
    sp_make = (fun () -> fst (build ()));
    sp_n = (snd (build ())).Sb_registers.Common.n;
    sp_f = f;
    sp_k = Catalog.code_k algo ~k;
    sp_value_bytes = value_bytes }

type config = {
  lc_seeds : int;
  lc_base_seed : int;
  lc_writers : int;
  lc_writes_each : int;
  lc_readers : int;
  lc_reads_each : int;
  lc_rto_ms : int;
  lc_think_ms : int;
  lc_deadline_ms : int;
  lc_settle_ms : int;
  lc_tmproot : string;
}

let default_config =
  {
    lc_seeds = 3;
    lc_base_seed = 1;
    lc_writers = 2;
    lc_writes_each = 10;
    lc_readers = 2;
    lc_reads_each = 10;
    lc_rto_ms = 40;
    lc_think_ms = 15;
    lc_deadline_ms = 60_000;
    lc_settle_ms = 300;
    lc_tmproot = Filename.get_temp_dir_name ();
  }

let quick_config =
  { default_config with lc_seeds = 1; lc_writes_each = 6; lc_reads_each = 6 }

type scenario = {
  sc_name : string;
  sc_plan : Plan.t;
  sc_crashes : (int * Daemon.crash_point) list;
  sc_disk : disk_fault;
  sc_green : bool;
}

let scenarios spec =
  let n = spec.sp_n in
  [
    {
      sc_name = "lossy-frag";
      sc_plan =
        Plan.lossy ~duplicate:0.05 ~delay:0.15 ~delay_steps:8 ~fragment:0.25
          0.03;
      sc_crashes = [];
      sc_disk = Df_none;
      sc_green = true;
    };
    {
      sc_name = "partition-heal";
      sc_plan =
        Plan.partition ~name:"iso" ~servers:[ n - 1 ] ~start:250 ~heal:650
          ~mode:Plan.Isolate_hold
          (Plan.lossy ~delay:0.1 ~delay_steps:5 ~fragment:0.1 0.02);
      sc_crashes = [];
      sc_disk = Df_none;
      sc_green = true;
    };
    {
      sc_name = "crash-torn";
      sc_plan = Plan.lossy ~fragment:0.1 0.0;
      sc_crashes =
        List.init (max 1 spec.sp_f) (fun i ->
            ( i,
              {
                Daemon.cp_stage = Daemon.Crash_before_rename;
                cp_persist = 4 + (3 * i);
              } ));
      sc_disk = Df_none;
      sc_green = true;
    };
  ]

(* Disk-corruption scenarios are robustness-mode: a wiped server can
   legitimately break regular-register quorum math, so they gate on
   recovery behaviour (all operations complete, the corrupt file is
   quarantined, every server answers stats, no decode crashes) rather
   than on consistency/bounds. *)
let robustness_scenarios =
  let crash =
    [ (0, { Daemon.cp_stage = Daemon.Crash_after_rename; cp_persist = 4 }) ]
  in
  [
    {
      sc_name = "corrupt-truncate";
      sc_plan = Plan.none;
      sc_crashes = crash;
      sc_disk = Df_truncate;
      sc_green = false;
    };
    {
      sc_name = "corrupt-bitflip";
      sc_plan = Plan.none;
      sc_crashes = crash;
      sc_disk = Df_bitflip;
      sc_green = false;
    };
  ]

type run_result = {
  lr_seed : int;
  lr_ops : int;
  lr_completed : int;
  lr_wall_ms : float;
  lr_weak_ok : bool;
  lr_check_ok : bool;
  lr_peak_bits : int;
  lr_quiescent_bits : int;
  lr_ceiling_bits : int;
  lr_floor_bits : int;
  lr_recoveries : int;
  lr_reconnects : int;
  lr_retransmissions : int;
  lr_op_failures : int;
  lr_timed_out : bool;
  lr_stats_servers : int;
  lr_crash_exits : int;
  lr_quarantined : int;
  lr_ok : bool;
  lr_why : string;
}

type cell = {
  cl_scenario : string;
  cl_algo : string;
  cl_green : bool;
  cl_runs : run_result list;
  cl_ok : bool;
}

(* --- child <-> conductor plumbing: key=value lines over a pipe ----- *)

let parse_kv s =
  List.filter_map
    (fun line ->
      match String.index_opt line '=' with
      | Some i ->
        Some
          ( String.sub line 0 i,
            String.sub line (i + 1) (String.length line - i - 1) )
      | None -> None)
    (String.split_on_char '\n' s)

let kv_int kv key = match List.assoc_opt key kv with
  | Some v -> (try int_of_string v with Failure _ -> 0)
  | None -> 0

let kv_float kv key = match List.assoc_opt key kv with
  | Some v -> (try float_of_string v with Failure _ -> 0.0)
  | None -> 0.0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> ()

let run_counter = ref 0

let bounds cfg spec =
  Livecheck.bounds ~f:spec.sp_f ~k:spec.sp_k ~c:cfg.lc_writers
    ~d_bits:(8 * spec.sp_value_bytes)

(* The workload half of a cell, forked so a cluster meltdown can never
   take the conductor down: runs the SDK under client-side fault hooks,
   judges the trace, samples quiescent storage, and reports key=value
   lines back up the pipe. *)
let sdk_child cfg spec sc ~seed ~sockdir wfd =
  let out = Unix.out_channel_of_descr wfd in
  (try
     let algorithm = spec.sp_make () in
     let workload =
       Sb_experiments.Workloads.writers_and_readers
         ~value_bytes:spec.sp_value_bytes ~writers:cfg.lc_writers
         ~writes_each:cfg.lc_writes_each ~readers:cfg.lc_readers
         ~reads_each:cfg.lc_reads_each
     in
     let sdk_cfg =
       {
         (Sdk.default_config ~n:spec.sp_n ~f:spec.sp_f ~sockdir) with
         Sdk.rto_ms = cfg.lc_rto_ms;
         max_attempts = 0;
         sample_every_ms = 20;
         deadline_ms = cfg.lc_deadline_ms;
         think_ms = cfg.lc_think_ms;
       }
     in
     let h = hooks ~seed:((seed * 131) + 97) sc.sc_plan in
     let r =
       Sdk.run_keyed ~hooks:h ~algorithm ~seed
         ~workload:(Array.map (List.map (fun kind -> ("", kind))) workload)
         sdk_cfg
     in
     let history =
       Sb_spec.History.of_trace
         ~initial:(Bytes.make spec.sp_value_bytes '\000')
         r.Sdk.trace
     in
     let reg = Livecheck.regularity spec.sp_algo history in
     let ok_of v = Bool.to_int (Sb_spec.Regularity.ok v) in
     (if (ok_of reg.weak = 0 || ok_of reg.level = 0)
         && Sys.getenv_opt "SB_LIVE_DEBUG" <> None
      then begin
        Format.eprintf
          "@[<v>live debug (%s/%s seed %d):@,weak: %a@,check: %a@,%a@]@."
          sc.sc_name (Catalog.to_string spec.sp_algo) seed
          Sb_spec.Regularity.pp_verdict reg.weak
          Sb_spec.Regularity.pp_verdict reg.level Sb_spec.History.pp history
      end);
     (* Clean flush writes before judging the GC floor.  Quorum
        protocols cancel retransmission once a quorum answers, so
        under message loss a server can permanently miss the final GC
        round and legitimately retain a stale block — the paper's
        floor presumes eventual delivery.  Fault-free writes from
        fresh client ids (clear of the main run's timestamps, and of
        each other's — a repeated cid could reuse the timestamp of a
        write an earlier run left incomplete) stand in for it.  One flush
        usually suffices, but the daemon-side hooks still fault its
        *replies* and can refuse its dials, so a server can miss even
        the flush's GC round; we retry with a new client id until the
        census is at the floor (the paper's "eventually"), bounded.
        The peak above is measured before any of this, on the faulted
        run alone. *)
     let floor_bits = (bounds cfg spec).floor_bits in
     let flush_cfg =
       {
         sdk_cfg with
         Sdk.deadline_ms = 10_000;
         think_ms = 0;
         sample_every_ms = 0;
       }
     in
     let census () =
       if cfg.lc_settle_ms > 0 then
         Unix.sleepf (float_of_int cfg.lc_settle_ms /. 1000.0);
       let stats =
         Sdk.fetch_stats ~sockdir ~servers:(List.init spec.sp_n Fun.id) ()
       in
       (stats, Livecheck.quiescent_bits stats)
     in
     let flush_once attempt =
       let flush_cid = 63 - attempt in
       let flush_workload =
         Array.init (flush_cid + 1) (fun i ->
             if i = flush_cid then
               [
                 ( "",
                   Sb_sim.Trace.Write
                     (Sb_util.Values.distinct
                        ~value_bytes:spec.sp_value_bytes
                        (1000 + (seed * 8) + attempt)) );
               ]
             else [])
       in
       ignore
         (Sdk.run_keyed ~algorithm:(spec.sp_make ())
            ~seed:(seed + 7777 + attempt) ~workload:flush_workload flush_cfg);
       census ()
     in
     let quiescent_stats, quiescent =
       let rec settle attempt (stats, bits) =
         if
           attempt >= 5
           || (List.length stats = spec.sp_n && bits <= floor_bits)
         then (stats, bits)
         else settle (attempt + 1) (flush_once attempt)
       in
       settle 1 (flush_once 0)
     in
     (* Ground truth for crash-recovery, free of client-side timing: a
        server restarted over its state file reports incarnation >= 2
        in the final stats round, whether or not the engine happened
        to reconnect to it before the workload drained.  The engine's
        own [recoveries_observed] (bumps it saw in-band) is reported
        alongside. *)
     let recov_stats =
       List.length
         (List.filter
            (fun (st : Wire.stats) -> st.Wire.st_incarnation > 1)
            quiescent_stats)
     in
     Printf.fprintf out
       "ops=%d\ncompleted=%d\nwall_ms=%.1f\nweak_ok=%d\ncheck_ok=%d\n\
        peak=%d\nquiescent=%d\nrecoveries=%d\nrecov_stats=%d\nreconnects=%d\n\
        retrans=%d\nopfail=%d\ntimedout=%d\nstats_servers=%d\n"
       r.Sdk.ops_invoked r.Sdk.ops_completed r.Sdk.wall_ms
       (ok_of reg.weak) (ok_of reg.level)
       (Livecheck.peak_bits ~sampled:r.Sdk.peak_sampled_bits r.Sdk.final_stats)
       quiescent r.Sdk.recoveries_observed recov_stats r.Sdk.reconnects
       r.Sdk.retransmissions
       (List.length r.Sdk.failures)
       (if r.Sdk.timed_out then 1 else 0)
       (List.length quiescent_stats);
     flush out
   with e ->
     Printf.fprintf out "child_error=%s\n" (Printexc.to_string e);
     (try flush out with Sys_error _ -> ()));
  Unix._exit 0

let run_one cfg spec sc ~seed =
  Plan.validate ~n:spec.sp_n ~f:spec.sp_f sc.sc_plan;
  incr run_counter;
  let base =
    Filename.concat cfg.lc_tmproot
      (Printf.sprintf "sb-live-%d-%d" (Unix.getpid ()) !run_counter)
  in
  let sockdir = Filename.concat base "sock" in
  let statedir = Filename.concat base "state" in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir sockdir 0o755;
  Unix.mkdir statedir 0o755;
  let rfd, wfd = Unix.pipe () in
  let fork_daemon ?crash_at sid =
    match Unix.fork () with
    | 0 ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ rfd; wfd ];
      (try
         let algorithm = spec.sp_make () in
         Daemon.run ~statedir ~sockdir ~servers:[ sid ]
           ~init_obj:algorithm.Sb_sim.Runtime.init_obj
           ~hooks:(hooks ~seed:((seed * 131) + sid) sc.sc_plan)
           ?crash_at ();
         Unix._exit 0
       with e ->
         (* An escaping exception is a daemon bug the campaign must
            see, not a quiet exit the quorum can ride out. *)
         Printf.eprintf "daemon: server %d died: %s\n%!" sid
           (Printexc.to_string e);
         Unix._exit 71)
    | pid -> pid
  in
  let daemons =
    Array.init spec.sp_n (fun sid ->
        fork_daemon ?crash_at:(List.assoc_opt sid sc.sc_crashes) sid)
  in
  let sdk_pid =
    match Unix.fork () with
    | 0 ->
      (try Unix.close rfd with Unix.Unix_error _ -> ());
      sdk_child cfg spec sc ~seed ~sockdir wfd
    | pid ->
      Unix.close wfd;
      pid
  in
  let crash_exits = ref 0 in
  let unexpected_deaths = ref [] in
  let poll_daemons () =
    Array.iteri
      (fun sid pid ->
        if pid > 0 then
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _, Unix.WEXITED 70 ->
            (* A crash point fired.  Optionally corrupt the state it
               left behind, then restart it (without the crash point)
               a beat later. *)
            incr crash_exits;
            (match sc.sc_disk with
             | Df_none -> ()
             | df ->
               ignore
                 (corrupt_file ~seed:(seed + (sid * 17)) df
                    (Daemon.statefile ~statedir sid)));
            Unix.sleepf 0.15;
            daemons.(sid) <- fork_daemon sid
          | _, st ->
            (* Not a crash point: the daemon died of its own accord —
               a hardening failure, reported loudly, never papered
               over by the quorum riding it out. *)
            let why =
              match st with
              | Unix.WEXITED c -> Printf.sprintf "exit %d" c
              | Unix.WSIGNALED sg -> Printf.sprintf "signal %d" sg
              | Unix.WSTOPPED sg -> Printf.sprintf "stopped %d" sg
            in
            unexpected_deaths :=
              Printf.sprintf "server %d died (%s)" sid why
              :: !unexpected_deaths;
            daemons.(sid) <- 0
          | exception Unix.Unix_error _ -> daemons.(sid) <- 0)
      daemons
  in
  let buf = Buffer.create 512 in
  let eof = ref false in
  while not !eof do
    (match Unix.select [ rfd ] [] [] 0.05 with
     | [ _ ], _, _ ->
       let b = Bytes.create 4096 in
       let nread = Unix.read rfd b 0 (Bytes.length b) in
       if nread = 0 then eof := true else Buffer.add_subbytes buf b 0 nread
     | _ -> ()
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    poll_daemons ()
  done;
  Unix.close rfd;
  reap sdk_pid;
  let quarantined =
    List.length
      (List.filter
         (fun sid ->
           Sys.file_exists
             (Daemon.quarantine_path (Daemon.statefile ~statedir sid)))
         (List.init spec.sp_n Fun.id))
  in
  Array.iter
    (fun pid ->
      if pid > 0 then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap pid
      end)
    daemons;
  rm_rf base;
  let kv = parse_kv (Buffer.contents buf) in
  let b = bounds cfg spec in
  let ops = kv_int kv "ops" in
  let completed = kv_int kv "completed" in
  let weak_ok = kv_int kv "weak_ok" = 1 in
  let check_ok = kv_int kv "check_ok" = 1 in
  let peak = kv_int kv "peak" in
  let quiescent = kv_int kv "quiescent" in
  let recoveries = kv_int kv "recoveries" in
  let recov_stats = kv_int kv "recov_stats" in
  let timed_out = kv_int kv "timedout" = 1 in
  let stats_servers = kv_int kv "stats_servers" in
  let expected_crashes = List.length sc.sc_crashes in
  let problems = ref [] in
  let need cond msg = if not cond then problems := msg :: !problems in
  (match List.assoc_opt "child_error" kv with
   | Some e -> need false ("workload child crashed: " ^ e)
   | None -> ());
  need (not timed_out) "deadline expired before completion";
  need (ops > 0 && completed = ops)
    (Printf.sprintf "%d/%d operations completed" completed ops);
  need (stats_servers = spec.sp_n)
    (Printf.sprintf "only %d/%d servers answered the final stats round"
       stats_servers spec.sp_n);
  need (!crash_exits >= expected_crashes)
    (Printf.sprintf "%d/%d crash points fired" !crash_exits expected_crashes);
  need (!unexpected_deaths = [])
    (String.concat ", " (List.rev !unexpected_deaths));
  if sc.sc_green then begin
    (* Judged from the stats round (incarnation >= 2), not from the
       engine's in-band observations: a crash near the end of the run
       can complete the remaining quorums without ever reconnecting to
       the crashed server, so the client-side count is timing-dependent
       while the servers' own incarnations are not. *)
    if expected_crashes > 0 then
      need (recov_stats >= expected_crashes)
        (Printf.sprintf "%d crashed servers rejoined bumped, wanted >= %d"
           recov_stats expected_crashes);
    need weak_ok "weak regularity violated";
    need check_ok
      (Catalog.level_name (Catalog.level spec.sp_algo) ^ " regularity violated");
    if Catalog.bounded spec.sp_algo then
      List.iter
        (fun (v : Livecheck.verdict) -> need v.ok v.failure)
        (Livecheck.closed_verdicts b ~peak ~quiescent)
  end
  else
    need (quarantined >= 1) "corrupt state file was not quarantined";
  {
    lr_seed = seed;
    lr_ops = ops;
    lr_completed = completed;
    lr_wall_ms = kv_float kv "wall_ms";
    lr_weak_ok = weak_ok;
    lr_check_ok = check_ok;
    lr_peak_bits = peak;
    lr_quiescent_bits = quiescent;
    lr_ceiling_bits = b.ceiling_bits;
    lr_floor_bits = b.floor_bits;
    lr_recoveries = max recoveries recov_stats;
    lr_reconnects = kv_int kv "reconnects";
    lr_retransmissions = kv_int kv "retrans";
    lr_op_failures = kv_int kv "opfail";
    lr_timed_out = timed_out;
    lr_stats_servers = stats_servers;
    lr_crash_exits = !crash_exits;
    lr_quarantined = quarantined;
    lr_ok = !problems = [];
    lr_why = String.concat "; " (List.rev !problems);
  }

let run_cell cfg spec sc =
  let seeds =
    if sc.sc_green then List.init cfg.lc_seeds (fun i -> cfg.lc_base_seed + i)
    else [ cfg.lc_base_seed ]
  in
  let runs = List.map (fun seed -> run_one cfg spec sc ~seed) seeds in
  {
    cl_scenario = sc.sc_name;
    cl_algo = Catalog.to_string spec.sp_algo;
    cl_green = sc.sc_green;
    cl_runs = runs;
    cl_ok = List.for_all (fun r -> r.lr_ok) runs;
  }

let campaign cfg specs =
  List.concat_map
    (fun spec ->
      List.map (run_cell cfg spec) (scenarios spec @ robustness_scenarios))
    specs

let all_ok cells = List.for_all (fun c -> c.cl_ok) cells

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let report cells =
  let t =
    Sb_util.Table.create ~title:"live chaos campaign"
      [
        ("scenario", Sb_util.Table.Left);
        ("algo", Sb_util.Table.Left);
        ("runs", Sb_util.Table.Right);
        ("ok", Sb_util.Table.Left);
        ("ops", Sb_util.Table.Right);
        ("retrans", Sb_util.Table.Right);
        ("reconn", Sb_util.Table.Right);
        ("crashes", Sb_util.Table.Right);
        ("recov", Sb_util.Table.Right);
        ("quarant", Sb_util.Table.Right);
        ("peak/ceil", Sb_util.Table.Right);
        ("quiesc/floor", Sb_util.Table.Right);
      ]
  in
  List.iter
    (fun c ->
      let sum f = List.fold_left (fun a r -> a + f r) 0 c.cl_runs in
      let mx f = List.fold_left (fun a r -> max a (f r)) 0 c.cl_runs in
      Sb_util.Table.add_row t
        [
          c.cl_scenario;
          c.cl_algo;
          string_of_int (List.length c.cl_runs);
          (if c.cl_ok then "yes" else "NO");
          Printf.sprintf "%d/%d"
            (sum (fun r -> r.lr_completed))
            (sum (fun r -> r.lr_ops));
          string_of_int (sum (fun r -> r.lr_retransmissions));
          string_of_int (sum (fun r -> r.lr_reconnects));
          string_of_int (sum (fun r -> r.lr_crash_exits));
          string_of_int (sum (fun r -> r.lr_recoveries));
          string_of_int (sum (fun r -> r.lr_quarantined));
          Printf.sprintf "%d/%d"
            (mx (fun r -> r.lr_peak_bits))
            (mx (fun r -> r.lr_ceiling_bits));
          Printf.sprintf "%d/%d"
            (mx (fun r -> r.lr_quiescent_bits))
            (mx (fun r -> r.lr_floor_bits));
        ])
    cells;
  t

let explain_failures fmt cells =
  List.iter
    (fun c ->
      if not c.cl_ok then
        List.iter
          (fun r ->
            if not r.lr_ok then
              Format.fprintf fmt "FAIL %s/%s seed %d: %s@." c.cl_scenario
                c.cl_algo r.lr_seed r.lr_why)
          c.cl_runs)
    cells

let write_report file cells =
  let cell_json c =
    J.obj
      [
        ("scenario", J.str c.cl_scenario);
        ("algo", J.str c.cl_algo);
        ("mode", J.str (if c.cl_green then "green" else "robustness"));
        ("runs", J.int (List.length c.cl_runs));
        ("ok", J.bool c.cl_ok);
        ( "crash_exits",
          J.int (List.fold_left (fun a r -> a + r.lr_crash_exits) 0 c.cl_runs)
        );
        ( "recoveries",
          J.int (List.fold_left (fun a r -> a + r.lr_recoveries) 0 c.cl_runs)
        );
        ( "quarantined",
          J.int (List.fold_left (fun a r -> a + r.lr_quarantined) 0 c.cl_runs)
        );
        ( "op_failures",
          J.int (List.fold_left (fun a r -> a + r.lr_op_failures) 0 c.cl_runs)
        );
        ( "peak_bits",
          J.int (List.fold_left (fun a r -> max a r.lr_peak_bits) 0 c.cl_runs)
        );
        ( "quiescent_bits",
          J.int
            (List.fold_left (fun a r -> max a r.lr_quiescent_bits) 0 c.cl_runs)
        );
      ]
  in
  J.write file
    [
      ("suite", J.str "chaos-live");
      ("cells", J.int (List.length cells));
      ( "runs",
        J.int
          (List.fold_left (fun a c -> a + List.length c.cl_runs) 0 cells) );
      ("ok", J.bool (all_ok cells));
      ("cell_results", J.arr (List.map cell_json cells));
    ]
