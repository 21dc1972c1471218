module Wire = Sb_service.Wire
module Core = Sb_service.Server_core

type capture = { frames : bytes list array; (* reversed *) marked : int array }

let create ~n = { frames = Array.make n []; marked = Array.make n (-1) }
let record c ~server frame = c.frames.(server) <- frame :: c.frames.(server)

let mark c =
  Array.iteri (fun s fs -> c.marked.(s) <- List.length fs) c.frames

type shard_state = {
  keys : int;
  storage_bits : int;
  max_bits : int;
  max_key_bits : int;
  applied : int;
  dedup_hits : int;
}

type result = {
  frames : int;
  requests : int;
  request_frames : int;
  request_bytes : int;
  decode_s : float;
  route_s : float;
  apply_s : float;
  encode_s : float;
  saves : int;
  save_s : float;
  shards : shard_state array array;
}

(* How many times each shard's final state is saved: the daemon saves
   a shard once per group commit, and its state size barely moves over
   a phase once every key exists. *)
let saves_per_shard = 3

let body frame = Bytes.sub frame 4 (Bytes.length frame - 4)

let decode frame =
  match Wire.decode_msg (body frame) with
  | Ok m -> m
  | Error e -> failwith ("replay: undecodable captured frame: " ^ e)

let requests_of = function
  | Wire.Request rq -> [ rq ]
  | Wire.Req_batch rqs -> rqs
  | _ -> []

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let apply ~sid cores ~shard (rq : Wire.request) =
  let core = cores.(shard) in
  let oc =
    Core.handle_key core ~key:rq.Wire.rq_key ~client:rq.Wire.rq_client
      ~ticket:rq.Wire.rq_ticket ~nature:rq.Wire.rq_nature
      (Sb_sim.Rmwdesc.apply rq.Wire.rq_desc)
  in
  {
    Wire.rs_key = rq.Wire.rq_key;
    rs_ticket = rq.Wire.rq_ticket;
    rs_op = rq.Wire.rq_op;
    rs_server = sid;
    rs_incarnation = Core.incarnation core;
    rs_dedup = oc.Core.dedup_hit;
    rs_resp = oc.Core.resp;
  }

let zero =
  {
    frames = 0;
    requests = 0;
    request_frames = 0;
    request_bytes = 0;
    decode_s = 0.0;
    route_s = 0.0;
    apply_s = 0.0;
    encode_s = 0.0;
    saves = 0;
    save_s = 0.0;
    shards = [||];
  }

let replay_server ?save_dir ~shards ~init_obj ~ring sid frames marked acc =
  let cores = Array.init shards (fun _ -> Core.create (init_obj sid)) in
  let route (rq : Wire.request) = Sb_kv.Shard.lookup ring rq.Wire.rq_key in
  let all = List.rev frames in
  let warm, timed =
    if marked < 0 then (all, [])
    else (List.filteri (fun i _ -> i < marked) all, List.filteri (fun i _ -> i >= marked) all)
  in
  List.iter
    (fun fr ->
      List.iter
        (fun rq -> ignore (apply ~sid cores ~shard:(route rq) rq))
        (requests_of (decode fr)))
    warm;
  (* Each step runs over the whole timed portion at once, so one clock
     read brackets thousands of calls. *)
  let msgs, decode_s = time (fun () -> List.map decode timed) in
  let carrying = List.filter (fun (_, m) -> requests_of m <> []) (List.combine timed msgs) in
  let batches = List.map snd carrying in
  let routed, route_s =
    time (fun () ->
        List.map (fun m -> List.map (fun rq -> (route rq, rq)) (requests_of m)) batches)
  in
  let responses, apply_s =
    time (fun () ->
        List.map2
          (fun m rqs ->
            let rss = List.map (fun (shard, rq) -> apply ~sid cores ~shard rq) rqs in
            match m with
            | Wire.Request _ -> Wire.Response (List.hd rss)
            | _ -> Wire.Resp_batch rss)
          batches routed)
  in
  let (), encode_s =
    time (fun () -> List.iter (fun m -> ignore (Wire.encode_msg m)) responses)
  in
  let saves, save_s =
    match save_dir with
    | None -> (0, 0.0)
    | Some dir ->
      let total = ref 0.0 and count = ref 0 in
      Array.iteri
        (fun j core ->
          let entries = Core.entries core in
          let p =
            {
              Wire.p_incarnation = Core.incarnation core;
              p_state = Core.state core;
              p_keyed = List.filter (fun (k, _) -> k <> "") entries;
            }
          in
          let file = Sb_service.Daemon.statefile_shard ~statedir:dir ~shards sid j in
          for _ = 1 to saves_per_shard do
            let (), dt =
              time (fun () -> Sb_service.Daemon.save_state ~version:Wire.version file p)
            in
            total := !total +. dt;
            incr count
          done)
        cores;
      (!count, !total)
  in
  let state core =
    {
      keys = Core.key_count core;
      storage_bits = Core.storage_bits core;
      max_bits = Core.max_bits core;
      max_key_bits = Core.max_key_bits core;
      applied = Core.applied_count core;
      dedup_hits = Core.dedup_hits core;
    }
  in
  {
    frames = acc.frames + List.length msgs;
    requests = acc.requests + List.fold_left (fun n rqs -> n + List.length rqs) 0 routed;
    request_frames = acc.request_frames + List.length batches;
    request_bytes =
      List.fold_left (fun n (fr, _) -> n + Bytes.length fr) acc.request_bytes carrying;
    decode_s = acc.decode_s +. decode_s;
    route_s = acc.route_s +. route_s;
    apply_s = acc.apply_s +. apply_s;
    encode_s = acc.encode_s +. encode_s;
    saves = acc.saves + saves;
    save_s = acc.save_s +. save_s;
    shards = Array.append acc.shards [| Array.map state cores |];
  }

let run ?save_dir ~shards ~init_obj c =
  let ring = Sb_kv.Shard.create ~shards () in
  let acc = ref zero in
  Array.iteri
    (fun sid frames ->
      acc :=
        replay_server ?save_dir ~shards ~init_obj ~ring sid frames c.marked.(sid) !acc)
    c.frames;
  !acc

let mismatches r (stats : Wire.stats list) =
  List.concat_map
    (fun (st : Wire.stats) ->
      let sid = st.Wire.st_server in
      if sid < 0 || sid >= Array.length r.shards then
        [ Printf.sprintf "server %d: not replayed" sid ]
      else begin
        let mine = r.shards.(sid) in
        let sum f = Array.fold_left (fun a s -> a + f s) 0 mine in
        let diff what ours theirs =
          if ours = theirs then []
          else [ Printf.sprintf "server %d %s: replay %d, daemon %d" sid what ours theirs ]
        in
        diff "applied" (sum (fun s -> s.applied)) st.Wire.st_applied
        @ diff "dedup hits" (sum (fun s -> s.dedup_hits)) st.Wire.st_dedup_hits
        @ diff "shards" (Array.length mine) (List.length st.Wire.st_shards)
        @ List.concat_map
            (fun (ss : Wire.shard_stat) ->
              let j = ss.Wire.ss_shard in
              if j < 0 || j >= Array.length mine then
                [ Printf.sprintf "server %d shard %d: not replayed" sid j ]
              else
                let m = mine.(j) in
                let what s = Printf.sprintf "shard %d %s" j s in
                diff (what "keys") m.keys ss.Wire.ss_keys
                @ diff (what "storage bits") m.storage_bits ss.Wire.ss_storage_bits
                @ diff (what "max bits") m.max_bits ss.Wire.ss_max_bits
                @ diff (what "max key bits") m.max_key_bits ss.Wire.ss_max_key_bits)
            st.Wire.st_shards
      end)
    stats
