(* The register-service benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Forks a daemon hosting all n servers on one event loop, drives it
   from one SDK engine in this process tree, checks every output, and
   prints each metric by name with its unit; the last line of standard
   output is one JSON object.  Each measured pass runs in its own
   forked process, so peak-RSS and CPU readings belong to that pass
   alone.  A run is: set-up (daemon up, every key written once), the
   [open] phase (Poisson arrivals at a fixed rate), a quiescent
   read-back of every key, the [cap] phase (closed loop, fixed in-flight
   count, in several SDK runs), a quiescent stats round, and daemon
   shutdown.  With
   [--trace 1] an untraced pass is followed by a traced one, and the
   per-layer numbers come from the traced pass: counters on both sides
   of the wire, a wrapped codec, [/proc] readings of the daemon, and an
   offline replay of each server's captured requests. *)

module W = Servbench.Workload
module M = Servbench.Measure
module Replay = Servbench.Replay
module Sdk = Sb_service.Sdk
module Wire = Sb_service.Wire
module Daemon = Sb_service.Daemon
module Netfault = Sb_service.Netfault
module Trace = Sb_sim.Trace
module History = Sb_spec.History

let now () = Unix.gettimeofday ()
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Run directories and child processes                                 *)
(* ------------------------------------------------------------------ *)

(* Relative to the repository root the benchmark runs from, which keeps
   socket paths far below the 108-byte limit. *)
let run_root = Filename.concat "servbench" "_run"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let entries dir = try Array.to_list (Sys.readdir dir) with Sys_error _ -> []

let accepts path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

(* A run directory is [r<pid>]; its passes use [r<pid>/<pass>/sock]. *)
let live_socket () =
  List.find_map
    (fun r ->
      List.find_map
        (fun pass ->
          let sockdir = Filename.concat (Filename.concat (Filename.concat run_root r) pass) "sock" in
          List.find_map
            (fun s ->
              let p = Filename.concat sockdir s in
              if accepts p then Some p else None)
            (entries sockdir))
        (entries (Filename.concat run_root r)))
    (entries run_root)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

let remove_stale_runs () =
  List.iter
    (fun r ->
      match int_of_string_opt (String.sub r 1 (String.length r - 1)) with
      | Some pid when r.[0] = 'r' && not (pid_alive pid) ->
        rm_rf (Filename.concat run_root r)
      | _ -> ())
    (List.filter (fun r -> String.length r > 1) (entries run_root))

let wait_exit ?(grace_s = 5.0) pid =
  let deadline = now () +. grace_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let on_signals f =
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> f ())))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ]

(* The daemon of the current pass, and the pipe a pass child reports
   on (which the daemon must not inherit). *)
let daemon_pid = ref None
let report_fd = ref None

let stop_daemon () =
  match !daemon_pid with
  | None -> ()
  | Some pid ->
    daemon_pid := None;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    wait_exit pid

(* Run [f] in a forked child and return its marshalled result; the
   child stops its daemon on every exit path, signals included. *)
let child_pid = ref None

let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    report_fd := Some wr;
    on_signals (fun () ->
        stop_daemon ();
        Unix._exit 1);
    let r =
      match Fun.protect ~finally:stop_daemon f with
      | v -> Ok v
      | exception e -> Error (Printexc.to_string e)
    in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc r [];
    close_out oc;
    flush_all ();
    Unix._exit 0
  | pid ->
    Unix.close wr;
    child_pid := Some pid;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      match Marshal.from_channel ic with
      | r -> r
      | exception End_of_file -> Error "pass process died"
    in
    close_in ic;
    wait_exit ~grace_s:10.0 pid;
    child_pid := None;
    r

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

let servers w = List.init (W.n w) Fun.id

let spawn_daemon w ~dir ~algorithm ~hooks =
  let sockdir = Filename.concat dir "sock" in
  flush_all ();
  let parent = Unix.getpid () in
  match Unix.fork () with
  | 0 ->
    Option.iter Unix.close !report_fd;
    List.iter
      (fun s -> Sys.set_signal s Sys.Signal_default)
      [ Sys.sigterm; Sys.sigint; Sys.sighup ];
    (* Orphaned daemons stop by themselves: the parent is polled at most
       every 100 ms between select rounds. *)
    let last = ref 0.0 in
    let stop () =
      let t = now () in
      t -. !last >= 0.1
      && begin
        last := t;
        Unix.getppid () <> parent
      end
    in
    (match
       Daemon.run ~shards:W.shards ~domains:1 ~hooks ~stop ~sockdir
         ~servers:(servers w) ~init_obj:algorithm.Sb_sim.Runtime.init_obj ()
     with
     | () -> ()
     | exception e ->
       prerr_endline ("servbench: daemon: " ^ Printexc.to_string e);
       flush_all ();
       Unix._exit 2);
    Unix._exit 0
  | pid ->
    daemon_pid := Some pid;
    let up = Sdk.fetch_stats ~timeout_ms:10_000 ~sockdir ~servers:(servers w) () in
    if List.length up < W.n w then
      failwith (Printf.sprintf "daemon up: %d/%d servers answered" (List.length up) (W.n w));
    (pid, sockdir)

(* ------------------------------------------------------------------ *)
(* Operations, failures and checks                                     *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable kinds : (string * int) list;
}

let tally () = { attempted = 0; failed = 0; kinds = [] }

let fail_kind t kind count =
  if count > 0 then begin
    t.failed <- t.failed + count;
    t.kinds <-
      (kind, count + Option.value ~default:0 (List.assoc_opt kind t.kinds))
      :: List.remove_assoc kind t.kinds
  end

(* Every operation an SDK run was handed, against what completed: typed
   failures, deadline cuts, and operations never invoked. *)
let count_ops t ~phase ~expected (r : Sdk.report) =
  t.attempted <- t.attempted + expected;
  List.iter
    (fun (fl : Sdk.op_failure) ->
      fail_kind t
        (match fl.Sdk.fl_reason with
         | Sdk.Attempts_exhausted _ -> phase ^ ":attempts-exhausted"
         | Sdk.Deadline_expired -> phase ^ ":deadline-expired")
        1)
    r.Sdk.failures;
  fail_kind t (phase ^ ":not-invoked") (expected - r.Sdk.ops_invoked);
  fail_kind t (phase ^ ":incomplete")
    (r.Sdk.ops_invoked - r.Sdk.ops_completed - List.length r.Sdk.failures)

type check = { c_name : string; c_ok : bool; c_detail : string }

let check c_name c_ok c_detail = { c_name; c_ok; c_detail }

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

let sdk_config w ~sockdir ~deadline_ms =
  {
    (Sdk.default_config ~n:(W.n w) ~f:w.W.f ~sockdir) with
    Sdk.sample_every_ms = 0;
    deadline_ms;
    batch_max = W.batch_max;
    flush_ms = W.flush_ms;
  }

(* The daemon's at-most-once table is keyed by (key, client, ticket),
   and every SDK run numbers its clients from 0 and its tickets from 1:
   a write RMW of a later run that repeats an earlier run's triple is
   answered from the table and never applied.  Runs that write against
   the same daemon therefore get disjoint client ids, by leading with
   [first] idle slots (the open loop, which cannot be shifted, keeps
   0 ..  inflight-1; read-only RMWs never touch the table). *)
let keyed w ~first ops =
  Array.append (Array.make first [])
    (Array.map
       (List.map (fun (r, id) ->
            ( Sdk.key_name r,
              match id with Some id -> Trace.Write (W.value w id) | None -> Trace.Read )))
       ops)

(* Op id -> key rank of a keyed run: a slot's [Invoke]s follow its op
   list. *)
let keyed_ops ~first (slots : int array array) (r : Sdk.report) =
  let next = Array.make (Array.length slots) 0 in
  let key_of = Hashtbl.create 1024 in
  List.iter
    (function
      | Trace.Invoke { op; client; _ } ->
        let s = client - first in
        Hashtbl.replace key_of op slots.(s).(next.(s));
        next.(s) <- next.(s) + 1
      | _ -> ())
    (Trace.events r.Sdk.trace);
  key_of

(* (slot, latency) of each completion of a keyed run: its Returns and
   its latencies are both in completion order. *)
let completions (r : Sdk.report) =
  let lat = ref r.Sdk.latencies_ms in
  List.filter_map
    (function
      | Trace.Return { client; _ } -> (
        match !lat with
        | l :: rest ->
          lat := rest;
          Some (client, l)
        | [] -> None)
      | _ -> None)
    (Trace.events r.Sdk.trace)

(* Cap runs are joined on one logical clock: run j's times and op ids
   are shifted by j of these. *)
let cap_shift = 1 lsl 40

type setup = { s_time : float; s_pid : int; s_sockdir : string }

let run_setup w inp ~dir ~seed ~algorithm ~sdk_hooks ~daemon_hooks t =
  let t0 = now () in
  let pid, sockdir = spawn_daemon w ~dir ~algorithm ~hooks:daemon_hooks in
  let r =
    Sdk.run_keyed ~hooks:sdk_hooks ~algorithm ~seed
      ~workload:
        (keyed w ~first:w.W.inflight
           (Array.map (List.map (fun (k, id) -> (k, Some id))) inp.W.setup))
      (sdk_config w ~sockdir ~deadline_ms:60_000)
  in
  let s_time = now () -. t0 in
  count_ops t ~phase:"setup" ~expected:w.W.keys r;
  { s_time; s_pid = pid; s_sockdir = sockdir }

(* A set-up alone, for the median of several: its own process, daemon
   and directories. *)
let setup_only w inp ~dir ~seed =
  let algorithm = Sb_registers.Adaptive.make (W.config w) in
  let t = tally () in
  let s =
    run_setup w inp ~dir ~seed ~algorithm ~sdk_hooks:Netfault.none
      ~daemon_hooks:Netfault.none t
  in
  stop_daemon ();
  (s.s_time, t)

type pass = {
  p_lat : float array;  (* open phase, completion order *)
  p_e2e : (string * float * string) list;
  p_layers : (string * float * string) list;
  p_checks : check list;
  p_tally : tally;
  p_notes : string list;
}

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let run_pass w inp ~dir ~seed ~seconds ~traced =
  let n = W.n w in
  let t = tally () in
  let checks = ref [] in
  let add c = checks := c :: !checks in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  (* Instrumentation, all of it off in an untraced pass. *)
  let enc_n = ref 0 and enc_s = ref 0.0 and dec_s = ref 0.0 in
  let timed acc f =
    let t0 = now () in
    let r = f () in
    acc := !acc +. (now () -. t0);
    r
  in
  let wrap (c : Sb_codec.Codec.t) =
    if not traced then c
    else
      {
        c with
        Sb_codec.Codec.encode =
          (fun v i ->
            incr enc_n;
            timed enc_s (fun () -> c.Sb_codec.Codec.encode v i));
        decode = (fun bs -> timed dec_s (fun () -> c.Sb_codec.Codec.decode bs));
      }
  in
  let algorithm = Sb_registers.Adaptive.make (W.config ~wrap w) in
  let capture = Replay.create ~n in
  let capturing = ref traced in
  let sdk_frames = ref 0 and sdk_bytes = ref 0 in
  let sdk_hooks =
    if not traced then Netfault.none
    else
      {
        Netfault.none with
        Netfault.nf_frame =
          (fun ~server frame ->
            incr sdk_frames;
            sdk_bytes := !sdk_bytes + Bytes.length frame;
            if !capturing then Replay.record capture ~server frame;
            Netfault.Pass);
      }
  in
  (* Daemon-side counters live in a shared mapping that the daemon's
     frame hook bumps and this process reads at phase boundaries. *)
  let shared =
    let fd =
      Unix.openfile (Filename.concat dir "counters")
        [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
    in
    let a =
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| 2 |])
    in
    Unix.close fd;
    Bigarray.Array1.fill a 0;
    a
  in
  let daemon_hooks =
    if not traced then Netfault.none
    else
      {
        Netfault.none with
        Netfault.nf_frame =
          (fun ~server:_ frame ->
            shared.{0} <- shared.{0} + 1;
            shared.{1} <- shared.{1} + Bytes.length frame;
            Netfault.Pass);
      }
  in
  let s = run_setup w inp ~dir ~seed ~algorithm ~sdk_hooks ~daemon_hooks t in
  let sockdir = s.s_sockdir and dpid = s.s_pid in
  let cfg deadline_ms = sdk_config w ~sockdir ~deadline_ms in
  let fetch () = Sdk.fetch_stats ~sockdir ~servers:(servers w) () in
  (* --- open: Poisson arrivals at the fixed rate --- *)
  let open_ms = W.open_ms w ~seconds in
  let pre_stats = fetch () in
  (* Each measured phase starts from a collected heap, so it is not
     charged for collecting what earlier phases left behind. *)
  Gc.compact ();
  Replay.mark capture;
  enc_n := 0;
  enc_s := 0.0;
  dec_s := 0.0;
  sdk_frames := 0;
  sdk_bytes := 0;
  let d_frames0 = shared.{0} and d_bytes0 = shared.{1} in
  let d0 = M.sample dpid and c0 = Unix.times () in
  let ro =
    Sdk.run_open ~hooks:sdk_hooks ~algorithm ~seed
      {
        Sdk.ol_rate = w.W.open_rate;
        ol_duration_ms = open_ms;
        ol_keys = w.W.keys;
        ol_zipf = w.W.zipf;
        ol_write_ratio = w.W.write_ratio;
        ol_max_inflight = w.W.inflight;
        ol_value = (fun i -> W.value w (W.open_value_id w i));
      }
      (cfg (open_ms + 60_000))
  in
  let c1 = Unix.times () and d1 = M.sample dpid in
  capturing := false;
  let o_frames = !sdk_frames and o_bytes = !sdk_bytes in
  let o_enc_n = !enc_n and o_enc_s = !enc_s and o_dec_s = !dec_s in
  let d_frames = shared.{0} - d_frames0 and d_bytes = shared.{1} - d_bytes0 in
  let arrivals = Array.length inp.W.arrivals in
  count_ops t ~phase:"open" ~expected:arrivals ro;
  add
    (check "open arrivals"
       (ro.Sdk.ops_invoked = arrivals)
       (Printf.sprintf "%d invoked, %d generated from the seed" ro.Sdk.ops_invoked
          arrivals));
  let ops = fi (max 1 ro.Sdk.ops_completed) in
  let lat = Array.of_list ro.Sdk.latencies_ms in
  if Array.length lat < W.chunks then failwith "open phase completed too few operations";
  let open_writes =
    Array.fold_left (fun a x -> if x.W.write = None then a else a + 1) 0 inp.W.arrivals
  in
  let sdk_cpu =
    c1.Unix.tms_utime +. c1.Unix.tms_stime -. c0.Unix.tms_utime -. c0.Unix.tms_stime
  in
  let daemon_cpu = d1.M.cpu_s -. d0.M.cpu_s in
  (* --- read-back: every key's value once the open phase is over --- *)
  let rb =
    Sdk.run_keyed ~hooks:sdk_hooks ~algorithm ~seed:(seed + 2)
      ~workload:(keyed w ~first:0 (Array.map (List.map (fun r -> (r, None))) inp.W.readback))
      (cfg 60_000)
  in
  count_ops t ~phase:"readback" ~expected:w.W.keys rb;
  let rb_key = keyed_ops ~first:0 (Array.map Array.of_list inp.W.readback) rb in
  let start = Array.make w.W.keys None in
  List.iter
    (function
      | Trace.Return { op; result; _ } ->
        Option.iter (fun r -> start.(r) <- result) (Hashtbl.find_opt rb_key op)
      | _ -> ())
    (Trace.events rb.Sdk.trace);
  (* The open phase records no history; what it left behind is checked:
     each key holds a value written to it, and a key the open phase
     wrote no longer holds its set-up value. *)
  let open_written = Array.make w.W.keys false in
  Array.iter
    (fun a -> if a.W.write <> None then open_written.(a.W.key) <- true)
    inp.W.arrivals;
  let first_cap_id = w.W.keys + open_writes in
  let bad = ref [] in
  Array.iteri
    (fun r v ->
      let why =
        match Option.map (W.value_id w) v with
        | None -> Some "no value read"
        | Some None -> Some "a value no write wrote"
        | Some (Some id) when id >= first_cap_id || inp.W.value_key.(id) <> r ->
          Some (Printf.sprintf "value %d, never written to it" id)
        | Some (Some id) when id = r && open_written.(r) ->
          Some "its set-up value, overwritten in the open phase"
        | Some (Some _) -> None
      in
      Option.iter (fun s -> bad := Printf.sprintf "key %d: %s" r s :: !bad) why)
    start;
  add
    (check "open end state" (!bad = [])
       (match List.rev !bad with
        | [] -> Printf.sprintf "%d keys hold a value written to them" w.W.keys
        | b :: _ -> Printf.sprintf "%d keys wrong, first %s" (List.length !bad) b));
  (* --- cap: closed loop at the fixed in-flight count --- *)
  (* Each slot's op list runs in [W.cap_runs] consecutive pieces, one
     SDK run per piece on a fresh engine and a compacted heap, so no run
     pays for an earlier run's mailbox.  Each run's clients lead with
     idle slots past every earlier run's ids.  A run's rate is timed over
     its middle completions; tput_ops_s is the fastest run's, the one
     least disturbed from outside the program.  Each key
     is its own register: the runs' histories are split by the
     generated op lists and joined key by key, later runs shifted past
     earlier ones on the logical clock, and checked from the value the
     read-back saw. *)
  let per_key = Array.make w.W.keys ([], []) in
  let cap_done = ref 0 and cap_retx = ref 0 and cap_wall = ref 0.0 in
  let cap_rates =
    List.init W.cap_runs (fun j ->
        let piece =
          Array.map
            (fun l ->
              let m = List.length l in
              List.filteri (fun i _ -> i * W.cap_runs / m = j) l)
            inp.W.cap
        in
        let first = (2 + j) * w.W.inflight in
        Gc.compact ();
        let rc =
          Sdk.run_keyed ~hooks:sdk_hooks ~algorithm ~seed:(seed + 3 + j)
            ~workload:(keyed w ~first piece) (cfg 90_000)
        in
        count_ops t ~phase:"cap"
          ~expected:(Array.fold_left (fun a l -> a + List.length l) 0 piece)
          rc;
        cap_done := !cap_done + rc.Sdk.ops_completed;
        cap_retx := !cap_retx + rc.Sdk.retransmissions;
        cap_wall := !cap_wall +. rc.Sdk.wall_ms;
        let key_of =
          keyed_ops ~first (Array.map (fun l -> Array.of_list (List.map fst l)) piece) rc
        in
        let shift x = x + (j * cap_shift) in
        let h = History.of_trace ~initial:Bytes.empty rc.Sdk.trace in
        List.iter
          (fun (x : History.write) ->
            Option.iter
              (fun k ->
                let ws, rs = per_key.(k) in
                let x =
                  {
                    x with
                    History.w_op = shift x.History.w_op;
                    w_inv = shift x.History.w_inv;
                    w_ret = Option.map shift x.History.w_ret;
                  }
                in
                per_key.(k) <- (x :: ws, rs))
              (Hashtbl.find_opt key_of x.History.w_op))
          h.History.writes;
        List.iter
          (fun (x : History.read) ->
            Option.iter
              (fun k ->
                let ws, rs = per_key.(k) in
                let x =
                  {
                    x with
                    History.r_op = shift x.History.r_op;
                    r_inv = shift x.History.r_inv;
                    r_ret = Option.map shift x.History.r_ret;
                  }
                in
                per_key.(k) <- (ws, x :: rs))
              (Hashtbl.find_opt key_of x.History.r_op))
          h.History.reads;
        M.middle_rate (M.closed_loop_times (completions rc)) ~trim:W.cap_trim)
  in
  let tput = List.fold_left max 0.0 cap_rates in
  let checked = ref 0 and violations = ref [] in
  Array.iteri
    (fun k (ws, rs) ->
      if ws <> [] || rs <> [] then begin
        incr checked;
        let initial = Option.value ~default:Bytes.empty start.(k) in
        match
          Sb_spec.Regularity.check_weak
            (History.make ~initial ~writes:(List.rev ws) ~reads:(List.rev rs))
        with
        | Sb_spec.Regularity.Ok -> ()
        | Sb_spec.Regularity.Violation cx ->
          violations := (k, Sb_spec.Regularity.to_string cx) :: !violations
      end)
    per_key;
  add
    (check "cap weak regularity" (!violations = [])
       (match List.rev !violations with
        | [] -> Printf.sprintf "%d keys checked, %d ops" !checked !cap_done
        | (k, cx) :: _ ->
          Printf.sprintf "%d of %d keys violate, first key %d: %s"
            (List.length !violations) !checked k cx));
  (* --- quiescent stats against the paper's bounds --- *)
  Unix.sleepf 0.3;
  let qs = fetch () in
  add
    (check "stats" (List.length qs = n)
       (Printf.sprintf "%d/%d servers answered" (List.length qs) n));
  let live = M.live_registers ~keys:w.W.keys qs in
  let peak_bits = sum (fun st -> st.Wire.st_max_bits) qs in
  let quiescent_bits = sum (fun st -> st.Wire.st_storage_bits) qs in
  let key_peak = M.per_key_peak_bits qs in
  let vb = w.W.value_bytes in
  let ceiling = M.ceiling_bits ~f:w.W.f ~k:w.W.k ~c:w.W.inflight ~value_bytes:vb in
  let floor = M.floor_bits ~f:w.W.f ~k:w.W.k ~value_bytes:vb in
  add
    (check "theorem 2 per key" (key_peak <= ceiling)
       (Printf.sprintf "peak %d <= min((c+1)(2f+k),(2f+k)^2)D/k = %d, c = %d" key_peak
          ceiling w.W.inflight));
  add
    (check "theorem 2 fleet" (peak_bits <= live * ceiling)
       (Printf.sprintf "peak %d <= %d registers x %d" peak_bits live ceiling));
  add
    (check "gc floor" (quiescent_bits <= 2 * live * floor)
       (Printf.sprintf "quiescent %d <= 2 x %d registers x (2f+k)D/k = %d" quiescent_bits
          live (2 * live * floor)));
  let dproc = M.sample dpid in
  let self = M.sample (Unix.getpid ()) in
  stop_daemon ();
  note "open: %d ops, %d writes, wall %.0f ms, %d retransmissions" ro.Sdk.ops_completed
    open_writes ro.Sdk.wall_ms ro.Sdk.retransmissions;
  List.iter
    (fun p ->
      note "open p%g by part: %s ms" p
        (String.concat " "
           (List.map (Printf.sprintf "%.2f") (M.by_chunk lat ~chunks:W.chunks p))))
    [ 50.0; 90.0; 95.0 ];
  note "cap: %d ops in %d runs, %.0f ms, %d retransmissions; ops/s by run: %s" !cap_done
    W.cap_runs !cap_wall !cap_retx
    (String.concat " " (List.map (Printf.sprintf "%.0f") cap_rates));
  let e2e =
    [
      ("setup_s", s.s_time, "s");
      ("p50_ms", M.fastest_chunk lat ~chunks:W.chunks 50.0, "ms");
      ("p90_ms", M.fastest_chunk lat ~chunks:W.chunks 90.0, "ms");
      ("tput_ops_s", tput, "ops/s");
      ("cpu_us_per_op", (sdk_cpu +. daemon_cpu) /. ops *. 1e6, "us");
      ("storage_peak_x", M.storage_x ~bits:peak_bits ~live ~value_bytes:vb, "x");
      ("storage_quiescent_x", M.storage_x ~bits:quiescent_bits ~live ~value_bytes:vb, "x");
      ("rss_mb", fi (self.M.hwm_kb + dproc.M.hwm_kb) /. 1024.0, "MB");
    ]
  in
  (* --- replay of the open phase's captured requests --- *)
  let layers =
    if not traced then []
    else begin
      let save_dir = Filename.concat dir "replay" in
      mkdir_p save_dir;
      let rp = Replay.run ~save_dir ~shards:W.shards ~init_obj:algorithm.Sb_sim.Runtime.init_obj capture in
      let mism = Replay.mismatches rp ro.Sdk.final_stats in
      add
        (check "replay" (mism = [])
           (match mism with
            | [] -> "replayed shards match the daemon's stats after the open phase"
            | m :: _ -> Printf.sprintf "%d mismatches, first %s" (List.length mism) m));
      note "replay: %d frames, %d requests, %.1f us/request routing, %d saves; daemon sent %d frames"
        rp.Replay.frames rp.Replay.requests
        (ratio rp.Replay.route_s (fi rp.Replay.requests) *. 1e6)
        rp.Replay.saves d_frames;
      let dedup =
        sum (fun st -> st.Wire.st_dedup_hits) ro.Sdk.final_stats
        - sum (fun st -> st.Wire.st_dedup_hits) pre_stats
      and applied =
        sum (fun st -> st.Wire.st_applied) ro.Sdk.final_stats
        - sum (fun st -> st.Wire.st_applied) pre_stats
      in
      let req = fi rp.Replay.requests in
      [
        ("sdk.cpu_us_per_op", (sdk_cpu -. o_enc_s -. o_dec_s) /. ops *. 1e6, "us");
        ("sdk.rss_mb", fi self.M.hwm_kb /. 1024.0, "MB");
        ("sdk.frames_per_op", fi o_frames /. ops, "frames/op");
        ("sdk.requests_per_frame", ratio req (fi rp.Replay.request_frames), "requests/frame");
        ("sdk.retransmits_per_op", fi ro.Sdk.retransmissions /. ops, "count/op");
        ("proto.requests_per_op", req /. ops, "requests/op");
        ("proto.req_bytes_per_op", fi rp.Replay.request_bytes /. ops, "B/op");
        ("codec.encodes_per_write", ratio (fi o_enc_n) (fi open_writes), "count/write");
        ("codec.encode_us_per_op", o_enc_s /. ops *. 1e6, "us");
        ("codec.decode_us_per_op", o_dec_s /. ops *. 1e6, "us");
        ("wire.bytes_per_op", fi (o_bytes + d_bytes) /. ops, "B/op");
        ( "wire.encode_us_per_frame",
          ratio rp.Replay.encode_s (fi rp.Replay.request_frames) *. 1e6,
          "us" );
        ("wire.decode_us_per_frame", ratio rp.Replay.decode_s (fi rp.Replay.frames) *. 1e6, "us");
        ("daemon.cpu_us_per_op", daemon_cpu /. ops *. 1e6, "us");
        ( "daemon.vol_ctx_switches_per_op",
          fi (d1.M.vol_switches - d0.M.vol_switches) /. ops,
          "count/op" );
        ("daemon.rss_mb", fi dproc.M.hwm_kb /. 1024.0, "MB");
        ("core.apply_us_per_request", ratio rp.Replay.apply_s req *. 1e6, "us");
        ("core.dedup_hit_ratio", ratio (fi dedup) (fi applied), "ratio");
        ("core.key_peak_x", fi key_peak /. fi (8 * vb), "x");
        ("persist.save_us", ratio rp.Replay.save_s (fi rp.Replay.saves) *. 1e6, "us");
      ]
    end
  in
  {
    p_lat = lat;
    p_e2e = e2e;
    p_layers = layers;
    p_checks = List.rev !checks;
    p_tally = t;
    p_notes = List.rev !notes;
  }

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let json_number v = Printf.sprintf "%.17g" v

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct (max 1 attempted) failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number v) unit)
          metrics))

let fs_type path =
  let abs = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path in
  let best = ref ("?", -1) in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | _ :: mnt :: ty :: _ ->
        let inside =
          mnt = "/"
          || String.starts_with ~prefix:(mnt ^ "/") (abs ^ "/")
        in
        if inside && String.length mnt > snd !best then best := (ty, String.length mnt)
      | _ -> ())
    (String.split_on_char '\n' (try M.read_file "/proc/mounts" with Sys_error _ -> ""));
  fst !best

let loadavg () =
  match String.split_on_char ' ' (try M.read_file "/proc/loadavg" with Sys_error _ -> "") with
  | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
  | _ -> "?"

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
  ^ String.concat ", " (List.map (fun w -> w.W.name) W.all)

(* How many set-ups a run times: setup_s is their median. *)
let setups = 3

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S run length (>= 2)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from a traced pass");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match W.find !workload with
    | Some w when !seed >= 0 && !seconds >= 2 && (!trace = 0 || !trace = 1) -> w
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  mkdir_p run_root;
  (match live_socket () with
   | Some p ->
     Printf.eprintf "servbench: refusing to start: an earlier daemon still serves %s\n" p;
     exit 3
   | None -> ());
  remove_stale_runs ();
  let run_dir = Filename.concat run_root (Printf.sprintf "r%d" (Unix.getpid ())) in
  mkdir_p run_dir;
  let cleanup () = try rm_rf run_dir with Unix.Unix_error _ | Sys_error _ -> () in
  at_exit cleanup;
  on_signals (fun () ->
      Option.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          wait_exit pid)
        !child_pid;
      cleanup ();
      Unix._exit 130);
  Printf.printf "servbench: workload %s, seed %d, %d s, trace %d: %s\n" w.W.name seed seconds
    !trace w.W.why;
  let cpu0 = M.host_cpu () in
  Printf.printf "box: nproc %d, loadavg %s, run directory on %s\n"
    (Domain.recommended_domain_count ())
    (loadavg ()) (fs_type run_dir);
  let inp = W.inputs w ~seed ~seconds in
  Printf.printf
    "inputs: digest %s; set-up %d writes; open %d arrivals over %d ms at %.0f ops/s; cap %d \
     slots x %d ops\n"
    inp.W.digest w.W.keys (Array.length inp.W.arrivals) (W.open_ms w ~seconds)
    w.W.open_rate w.W.inflight (W.cap_per_slot w ~seconds);
  let dir name =
    let d = Filename.concat run_dir name in
    mkdir_p d;
    d
  in
  let fail_run attempted failed msg =
    Printf.printf "servbench: FAILED: %s\n" msg;
    print_endline (json ~correct:false ~attempted ~failed []);
    exit 1
  in
  let pass name ~traced =
    match in_child (fun () -> run_pass w inp ~dir:(dir name) ~seed ~seconds ~traced) with
    | Ok p -> p
    | Error e -> fail_run 1 1 (Printf.sprintf "%s pass: %s" name e)
  in
  let extra_setups =
    if traced then []
    else
      List.init (setups - 1) (fun i ->
          match in_child (fun () -> setup_only w inp ~dir:(dir (Printf.sprintf "s%d" i)) ~seed) with
          | Ok r -> r
          | Error e -> fail_run 1 1 ("set-up: " ^ e))
  in
  let passes =
    if traced then [ ("untraced", pass "p0" ~traced:false); ("traced", pass "p1" ~traced:true) ]
    else [ ("untraced", pass "p0" ~traced:false) ]
  in
  let attempted =
    sum (fun (_, p) -> p.p_tally.attempted) passes + sum (fun (_, t) -> t.attempted) extra_setups
  and failed =
    sum (fun (_, p) -> p.p_tally.failed) passes + sum (fun (_, t) -> t.failed) extra_setups
  in
  let ok = ref (failed = 0) in
  List.iter
    (fun (label, p) ->
      List.iter (Printf.printf "%s: %s\n" label) p.p_notes;
      List.iter
        (fun c ->
          if not c.c_ok then ok := false;
          Printf.printf "%s check %-20s %s  %s\n" label c.c_name
            (if c.c_ok then "ok" else "FAILED")
            c.c_detail)
        p.p_checks;
      List.iter
        (fun (kind, count) -> Printf.printf "%s failed operations: %d %s\n" label count kind)
        p.p_tally.kinds;
      let lat = Array.copy p.p_lat in
      Array.sort compare lat;
      Printf.printf
        "%s open latency: %d samples; p50 %.3f p90 %.3f p95 %.3f ms; p99 %.3f ms (%d beyond); \
         max %.3f ms (not gated)\n"
        label (Array.length lat) (M.nearest_rank lat 50.0) (M.nearest_rank lat 90.0)
        (M.nearest_rank lat 95.0) (M.nearest_rank lat 99.0) (M.beyond lat 99.0)
        lat.(Array.length lat - 1))
    passes;
  List.iter
    (fun (_, t) ->
      List.iter (fun (kind, count) -> Printf.printf "set-up failed operations: %d %s\n" count kind) t.kinds)
    extra_setups;
  let steal, busy = M.steal_and_busy ~before:cpu0 ~after:(M.host_cpu ()) in
  Printf.printf "box: during the run the vCPUs were %.0f%% busy and %.1f%% stolen\n"
    (100.0 *. busy) (100.0 *. steal);
  if not !ok then fail_run attempted failed "output checks failed";
  let base = List.assoc "untraced" passes in
  let setup_times =
    List.filter_map (fun (name, v, _) -> if name = "setup_s" then Some v else None) base.p_e2e
    @ List.map fst extra_setups
  in
  Printf.printf "setup: %s s, median reported\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
  let e2e =
    List.map
      (fun (name, v, unit) ->
        if name = "setup_s" then (name, M.median setup_times, unit) else (name, v, unit))
      base.p_e2e
  in
  let metrics =
    match List.assoc_opt "traced" passes with
    | None -> e2e
    | Some tp ->
      tp.p_layers
      @ List.map2
          (fun (name, v, unit) (_, tv, _) -> ("overhead." ^ name, tv -. v, unit))
          base.p_e2e tp.p_e2e
  in
  if traced then
    List.iter
      (fun (label, p) ->
        List.iter (fun (name, v, unit) -> Printf.printf "%s %s = %.6g %s\n" label name v unit) p.p_e2e)
      passes;
  List.iter (fun (name, v, unit) -> Printf.printf "metric %s = %.6g %s\n" name v unit) metrics;
  if List.exists (fun (_, v, _) -> not (Float.is_finite v)) metrics then
    fail_run attempted failed "a metric is not a finite number";
  print_endline (json ~correct:true ~attempted ~failed metrics)
