module D = Sb_sim.Rmwdesc
module Sch = Sb_schema.Schema

let sockpath ~sockdir i = Filename.concat sockdir (Printf.sprintf "server-%d.sock" i)

let statefile ~statedir i =
  Filename.concat statedir (Printf.sprintf "server-%d.state" i)

(* Shard 0 of a single-shard server keeps the historical file name, so
   pre-sharding state files restart unchanged under the default
   [~shards:1]. *)
let statefile_shard ~statedir ~shards i j =
  if shards = 1 then statefile ~statedir i
  else Filename.concat statedir (Printf.sprintf "server-%d-shard-%d.state" i j)

(* ------------------------------------------------------------------ *)
(* Durable state: a checksummed [Wire.persisted] container in a file,   *)
(* written atomically (temp + fsync + rename + directory fsync) once    *)
(* per event-loop round for every shard the round dirtied.              *)
(* ------------------------------------------------------------------ *)

let fsync_dir dir =
  (* Persist the rename itself.  Directory fsync is a Linux-ism some
     filesystems refuse; a refusal only loses the last durability
     notch, so it is best-effort. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    (try Unix.close dfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let save_state ?(before_rename = fun () -> ()) ~version file
    (p : Wire.persisted) =
  let tmp = file ^ ".tmp" in
  let buf = Wire.seal_persisted ~version p in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let len = Bytes.length buf in
  let rec write_all off =
    if off < len then write_all (off + Unix.write fd buf off (len - off))
  in
  write_all 0;
  (* The temp file must be on disk before the rename publishes it:
     renaming an unsynced file is exactly the torn-write window where a
     crash leaves a half-written file as the durable state. *)
  Unix.fsync fd;
  Unix.close fd;
  before_rename ();
  Sys.rename tmp file;
  fsync_dir (Filename.dirname file)

type load_result =
  | Loaded of Wire.persisted
  | Absent
  | Corrupt of string

(* Never raises and never guesses: a state file either verifies its
   checksum and decodes exactly, or it is [Corrupt] — truncations,
   bit-flips, and garbage all land there deterministically. *)
let load_state ~max_version file : load_result =
  if not (Sys.file_exists file) then Absent
  else
    match
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          let buf = Bytes.create len in
          really_input ic buf 0 len;
          buf)
    with
    | buf -> (
      match Wire.unseal_persisted ~max_version buf with
      | Ok p -> Loaded p
      | Error e -> Corrupt e)
    | exception Sys_error e -> Corrupt e
    | exception End_of_file -> Corrupt "unreadable state file"

let quarantine_path file = file ^ ".corrupt"

(* ------------------------------------------------------------------ *)
(* Crash points: deterministic process aborts around the persist path   *)
(* ------------------------------------------------------------------ *)

type crash_stage = Crash_before_write | Crash_before_rename | Crash_after_rename

type crash_point = { cp_stage : crash_stage; cp_persist : int }

let crash_point_of_string s =
  let parse stage rest =
    match int_of_string_opt rest with
    | Some n when n >= 1 -> Ok { cp_stage = stage; cp_persist = n }
    | _ -> Error (Printf.sprintf "bad crash-point count %S" rest)
  in
  match String.index_opt s ':' with
  | Some i -> (
    let key = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match key with
    | "persist" -> parse Crash_before_rename rest
    | "persist-pre" -> parse Crash_before_write rest
    | "persist-post" -> parse Crash_after_rename rest
    | k -> Error (Printf.sprintf "unknown crash point %S" k))
  | None ->
    Error
      (Printf.sprintf
         "crash point %S: expected persist:<n>, persist-pre:<n>, or \
          persist-post:<n>"
         s)

let crash_point_to_string cp =
  Printf.sprintf "%s:%d"
    (match cp.cp_stage with
    | Crash_before_write -> "persist-pre"
    | Crash_before_rename -> "persist"
    | Crash_after_rename -> "persist-post")
    cp.cp_persist

(* Simulate a hard crash: no cleanup, no at_exit, sockets left behind
   — indistinguishable from SIGKILL to everyone else. *)
let crash_now cp =
  Printf.eprintf "daemon: crash point %s reached, aborting\n%!"
    (crash_point_to_string cp);
  Unix._exit 70

(* ------------------------------------------------------------------ *)
(* Connections                                                          *)
(* ------------------------------------------------------------------ *)

type conn = {
  io : Conn.t;
  mutable peer_version : int;
      (** Negotiated at [Hello]; replies are framed at this version. *)
}

(* One shard: a keyed [Server_core] with its own state file and
   incarnation.  Keys are routed to shards by the consistent-hash ring
   below; all of a server's shards live behind the same listen socket
   and the same event loop (or the same domain when the loops are
   spread across cores). *)
type shard = {
  sh_id : int;
  sh_core : Server_core.t;
  sh_path : string option;
  mutable sh_dirty : bool;
      (* Set by the request path, cleared by the per-round group
         commit: every frame read in one event-loop round shares one
         persist (two fsyncs) per touched shard. *)
}

type server = {
  sid : int;
  shards : shard array;
  ring : Sb_kv.Shard.t;
  listen_fd : Unix.file_descr;
  wire_version : int;
  own_schema : Wire.peer_schema;
  hooks : Netfault.t;
  started : float;
  crash : (crash_point * int ref) option;
      (** Crash-point config and the persist counter it watches — the
          counter is shared across the servers a process hosts, so
          [persist:<n>] means "this process's nth persist". *)
  mutable conns : conn list;
}

let shard_of_key srv key = srv.shards.(Sb_kv.Shard.lookup srv.ring key)

(* The server-level incarnation (Welcome, v≤2 stats): all shards crash
   and recover together with the process, so the max is what a
   single-register client means by "the server's incarnation". *)
let server_incarnation srv =
  Array.fold_left
    (fun acc sh -> max acc (Server_core.incarnation sh.sh_core))
    0 srv.shards

let now_ms srv = (Unix.gettimeofday () -. srv.started) *. 1000.0

let enqueue srv conn msg =
  Conn.send_msg conn.io ~now:(now_ms srv) ~version:conn.peer_version msg

let persist srv sh =
  match sh.sh_path with
  | None -> ()
  | Some file ->
    let entries = Server_core.entries sh.sh_core in
    let p =
      {
        Wire.p_incarnation = Server_core.incarnation sh.sh_core;
        p_state = Server_core.state sh.sh_core;
        p_keyed = List.filter (fun (k, _) -> k <> "") entries;
      }
    in
    (* Keyed states need v3 frames; a daemon pinned below v3 never
       receives keyed traffic (its reader rejects v3 frames), so its
       [p_keyed] stays empty and the pinned version is honoured. *)
    let version =
      if p.Wire.p_keyed = [] then srv.wire_version else max srv.wire_version 3
    in
    (match srv.crash with
     | None -> save_state ~version file p
     | Some (cp, count) ->
       incr count;
       let armed = !count = cp.cp_persist in
       if armed && cp.cp_stage = Crash_before_write then crash_now cp;
       save_state
         ~before_rename:(fun () ->
           if armed && cp.cp_stage = Crash_before_rename then crash_now cp)
         ~version file p;
       if armed && cp.cp_stage = Crash_after_rename then crash_now cp)

(* Connect-time schema negotiation ([Wire.answer_hello]): cross-version
   pairs are certified decode-compatible at build time by [spacebounds
   schema check]; a drifted peer gets a typed [Reject] instead of decode
   crashes later, and the connection closes once the reject is out. *)
let handle_hello srv conn peer =
  let version, reply =
    Wire.answer_hello ~serving:srv.own_schema ~server:srv.sid
      ~incarnation:(server_incarnation srv) peer
  in
  conn.peer_version <- version;
  enqueue srv conn reply;
  match reply with
  | Wire.Reject _ -> Conn.close_when_drained conn.io
  | _ -> ()

(* Apply one keyed request to its shard.  The caller marks the touched
   shard dirty; the event loop persists it once per round. *)
let apply_request srv (rq : Wire.request) =
  let sh = shard_of_key srv rq.Wire.rq_key in
  let rmw = D.apply rq.Wire.rq_desc in
  let oc =
    Server_core.handle_key sh.sh_core ~key:rq.Wire.rq_key
      ~client:rq.Wire.rq_client ~ticket:rq.Wire.rq_ticket
      ~nature:rq.Wire.rq_nature rmw
  in
  let dirty =
    (not oc.Server_core.dedup_hit)
    && oc.Server_core.after != oc.Server_core.before
  in
  let resp =
    {
      Wire.rs_key = rq.Wire.rq_key;
      rs_ticket = rq.Wire.rq_ticket;
      rs_op = rq.Wire.rq_op;
      rs_server = srv.sid;
      rs_incarnation = Server_core.incarnation sh.sh_core;
      rs_dedup = oc.Server_core.dedup_hit;
      rs_resp = oc.Server_core.resp;
    }
  in
  (sh, dirty, resp)

let shard_stats srv =
  Array.to_list
    (Array.map
       (fun sh ->
         {
           Wire.ss_shard = sh.sh_id;
           ss_incarnation = Server_core.incarnation sh.sh_core;
           ss_keys = Server_core.key_count sh.sh_core;
           ss_storage_bits = Server_core.storage_bits sh.sh_core;
           ss_max_bits = Server_core.max_bits sh.sh_core;
           ss_max_key_bits = Server_core.max_key_bits sh.sh_core;
         })
       srv.shards)

let sum f srv = Array.fold_left (fun acc sh -> acc + f sh.sh_core) 0 srv.shards

let handle_msg srv conn (msg : Wire.msg) =
  match msg with
  | Wire.Hello { client = _; schema } -> handle_hello srv conn schema
  | Wire.Request rq when rq.Wire.rq_key <> "" && conn.peer_version < 3 ->
    (* A keyed RMW on a connection negotiated below v3 has no reply
       framing that can echo the key; a conforming client never does
       this, so drop the peer rather than mis-answer. *)
    Conn.close conn.io
  | Wire.Request rq ->
    let sh, dirty, resp = apply_request srv rq in
    if dirty then sh.sh_dirty <- true;
    enqueue srv conn (Wire.Response resp)
  | Wire.Req_batch reqs
    when conn.peer_version < 3
         && List.exists (fun r -> r.Wire.rq_key <> "") reqs ->
    Conn.close conn.io
  | Wire.Req_batch reqs ->
    (* Apply in list order, answer with one frame.  Touched shards are
       only marked dirty here; the event loop group-commits them after
       the whole read phase and before any response bytes hit a socket,
       the same durability order the single-request path keeps.  A
       batch can only arrive in a v3 frame, but the reply must still
       respect the negotiated version (a client that never said Hello
       is served at v1 and gets singles). *)
    let outcomes = List.map (apply_request srv) reqs in
    List.iter (fun (sh, dirty, _) -> if dirty then sh.sh_dirty <- true) outcomes;
    let resps = List.map (fun (_, _, r) -> r) outcomes in
    if conn.peer_version >= 3 then enqueue srv conn (Wire.Resp_batch resps)
    else List.iter (fun r -> enqueue srv conn (Wire.Response r)) resps
  | Wire.Stats_query ->
    enqueue srv conn
      (Wire.Stats
         {
           st_server = srv.sid;
           st_incarnation = server_incarnation srv;
           st_storage_bits = sum Server_core.storage_bits srv;
           st_max_bits = sum Server_core.max_bits srv;
           st_dedup_hits = sum Server_core.dedup_hits srv;
           st_applied = sum Server_core.applied_count srv;
           st_keys = sum Server_core.key_count srv;
           st_shards = shard_stats srv;
         })
  | Wire.Welcome _ | Wire.Response _ | Wire.Stats _ | Wire.Reject _
  | Wire.Resp_batch _ ->
    (* Server-to-client messages arriving at a server: drop the peer. *)
    Conn.close conn.io

let accept_conn srv =
  match Unix.accept srv.listen_fd with
  | fd, _ ->
    if not (srv.hooks.Netfault.nf_accept ~server:srv.sid) then
      (* A refused accept: the peer's dial succeeds and then the
         connection resets — what a dying or overloaded daemon looks
         like from outside. *)
      (try Unix.close fd with Unix.Unix_error _ -> ())
    else begin
      Unix.set_nonblock fd;
      srv.conns <-
        {
          io =
            Conn.create ~max_version:srv.wire_version ~hooks:srv.hooks
              ~server:srv.sid fd;
          peer_version = 1;
        }
        :: srv.conns
    end
  | exception Unix.Unix_error _ ->
    (* EAGAIN/EINTR, or a peer that reset before we accepted
       (ECONNABORTED) — all transient; never worth dying over. *)
    ()

(* ------------------------------------------------------------------ *)
(* The event loop                                                       *)
(* ------------------------------------------------------------------ *)

(* Atomic, not a plain ref: with [~domains:n] every event-loop domain
   polls the flag the signal handler (running on the main domain)
   sets. *)
let interrupted = Atomic.make false

let install_signals () =
  let handler = Sys.Signal_handle (fun _ -> Atomic.set interrupted true) in
  (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let make_shard ?statedir ~wire_version ~shards ~init_obj sid j =
  let fresh () = Server_core.create (init_obj sid) in
  let core =
    match statedir with
    | None -> fresh ()
    | Some dir -> (
      (* Keyed states are v3 frames whatever the serving version: a
         pinned daemon must still reload its own durable keys. *)
      let file = statefile_shard ~statedir:dir ~shards sid j in
      match load_state ~max_version:(max wire_version 3) file with
      | Loaded p ->
        (* Restarting over a persisted state is a recovery: the
           at-most-once table died with the process, so the shard
           comes back in a fresh incarnation. *)
        Server_core.load ~incarnation:(p.Wire.p_incarnation + 1)
          ~initial:p.Wire.p_state p.Wire.p_keyed
      | Absent -> fresh ()
      | Corrupt reason ->
        (* Never load garbage, never crash: quarantine the damaged file
           for post-mortem and rejoin as a fresh base object.  Losing a
           base object's contents is a failure the protocols budget for
           (it spends one of the f tolerated failures); serving a
           misdecoded state would not be. *)
        (try Sys.rename file (quarantine_path file)
         with Sys_error _ -> (
           try Sys.remove file with Sys_error _ -> ()));
        Printf.eprintf
          "daemon: server %d shard %d state corrupt (%s); quarantined to %s, \
           recovering fresh\n\
           %!"
          sid j reason (quarantine_path file);
        fresh ())
  in
  {
    sh_id = j;
    sh_core = core;
    sh_path =
      Option.map (fun d -> statefile_shard ~statedir:d ~shards sid j) statedir;
    sh_dirty = false;
  }

let make_server ?statedir ~wire_version ~shards ~ring ~sockdir ~init_obj ~hooks
    ~crash sid =
  let shard_arr =
    Array.init shards (make_shard ?statedir ~wire_version ~shards ~init_obj sid)
  in
  let path = sockpath ~sockdir sid in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.set_nonblock listen_fd;
  Unix.bind listen_fd (ADDR_UNIX path);
  Unix.listen listen_fd 64;
  let srv =
    {
      sid;
      shards = shard_arr;
      ring;
      listen_fd;
      wire_version;
      own_schema =
        {
          Wire.ps_version = wire_version;
          ps_hash = Sch.hash (Wire.schema_v ~version:wire_version);
        };
      hooks;
      started = Unix.gettimeofday ();
      crash;
      conns = [];
    }
  in
  Array.iter (persist srv) srv.shards;
  srv

(* One select loop over a partition of the servers.  With [~domains:1]
   (the default) there is a single partition holding everything — the
   historical daemon.  With more domains each partition runs its own
   loop on its own domain: servers (and therefore shards and their
   object states) are partitioned, never shared, so there is no
   cross-domain locking anywhere on the request path. *)
let event_loop ~tick ~should_stop srvs =
  let finished = ref false in
  while not !finished do
    if should_stop () then finished := true
    else begin
      List.iter
        (fun s ->
          let now = now_ms s in
          List.iter (fun c -> Conn.tick c.io ~now) s.conns)
        srvs;
      (* Prune after the ticks, which land slow closes: a freshly closed
         fd in the select set is EBADF, which would take the whole
         process down. *)
      List.iter
        (fun s ->
          s.conns <- List.filter (fun c -> not (Conn.closed c.io)) s.conns)
        srvs;
      let rds =
        List.concat_map
          (fun s -> s.listen_fd :: List.map (fun c -> Conn.fd c.io) s.conns)
          srvs
      in
      let wrs =
        List.concat_map
          (fun s ->
            List.filter_map
              (fun c -> if Conn.pending c.io then Some (Conn.fd c.io) else None)
              s.conns)
          srvs
      in
      match Unix.select rds wrs [] tick with
      | readable, _writable, _ ->
        List.iter
          (fun s ->
            if List.memq s.listen_fd readable then accept_conn s;
            (* A closing connection applies no further requests. *)
            List.iter
              (fun c ->
                if List.memq (Conn.fd c.io) readable then
                  Conn.receive c.io ~while_closing:false (handle_msg s c))
              s.conns)
          srvs;
        (* Group commit: every shard dirtied by this round's read phase
           persists exactly once, before any response from the round is
           allowed onto a socket — the ack-after-fsync order of the
           per-request path, at a fraction of the fsyncs.  Under load
           the commit batch grows by itself: frames queue up behind a
           slow fsync and the next round persists them all together. *)
        List.iter
          (fun s ->
            Array.iter
              (fun sh ->
                if sh.sh_dirty then begin
                  persist s sh;
                  sh.sh_dirty <- false
                end)
              s.shards)
          srvs;
        (* Opportunistic flush: don't sit on this round's responses
           until the next select round says the fd is writable — a
           freshly drained socket almost always is, and [Conn.flush]
           already treats EAGAIN as "try again later". *)
        List.iter (fun s -> List.iter (fun c -> Conn.flush c.io) s.conns) srvs
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    end
  done

let check_args ~wire_version ~shards ~domains ~statedir ~crash_at =
  if wire_version < Wire.min_version || wire_version > Wire.version then
    Error
      (Printf.sprintf "wire version %d outside %d..%d" wire_version
         Wire.min_version Wire.version)
  else if shards < 1 then Error "shards must be >= 1"
  else if domains < 1 then Error "domains must be >= 1"
  else if domains > 1 && crash_at <> None then
    Error
      "a crash point counts process-wide persists and needs a single \
       event-loop domain"
  else if statedir = None && crash_at <> None then
    Error
      "a crash point needs a state directory: without one nothing is \
       persisted and it never fires"
  else Ok ()

let run ?(wire_version = Wire.version) ?(shards = 1)
    ?(domains = 1) ?statedir ?stop ?(hooks = Netfault.none) ?crash_at ~sockdir
    ~servers ~init_obj () =
  (match check_args ~wire_version ~shards ~domains ~statedir ~crash_at with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Daemon.run: " ^ msg));
  Atomic.set interrupted false;
  install_signals ();
  (match statedir with
   | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
   | _ -> ());
  if not (Sys.file_exists sockdir) then Unix.mkdir sockdir 0o755;
  let crash =
    (* One persist counter per process, whichever server persists. *)
    Option.map (fun cp -> (cp, ref 0)) crash_at
  in
  let ring = Sb_kv.Shard.create ~shards () in
  let srvs =
    List.map
      (make_server ?statedir ~wire_version ~shards ~ring ~sockdir
         ~init_obj ~hooks ~crash)
      servers
  in
  let should_stop () =
    Atomic.get interrupted || (match stop with Some f -> f () | None -> false)
  in
  (* Delayed fault segments need a finer clock than the idle 200 ms
     select round. *)
  let tick = if hooks == Netfault.none then 0.2 else 0.02 in
  let jobs = min domains (List.length srvs) in
  if jobs <= 1 then event_loop ~tick ~should_stop srvs
  else begin
    (* Shard affinity by partition: server i is owned by domain
       i mod jobs, for its whole lifetime.  [Pool.run] claims one
       partition per domain; each loop touches only its own servers. *)
    let parts =
      Array.init jobs (fun d ->
          List.filteri (fun i _ -> i mod jobs = d) srvs)
    in
    Sb_parallel.Pool.run ~jobs jobs (fun d ->
        event_loop ~tick ~should_stop parts.(d))
  end;
  List.iter
    (fun s ->
      List.iter (fun c -> Conn.close c.io) s.conns;
      (try Unix.close s.listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink (sockpath ~sockdir s.sid) with Unix.Unix_error _ -> ())
    srvs
