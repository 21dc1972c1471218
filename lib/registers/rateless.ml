open Sb_storage
module R = Sb_sim.Runtime
module D = Sb_sim.Rmwdesc

(* The store/GC semantics live in [Sb_sim.Rmwdesc]: [Rateless_update]
   stores all of one write's pieces (distinct block numbers) at an
   object, evicting chunks staler than the round-1 barrier — the same
   discipline as the purely coded register — and [Rateless_gc] keeps
   only this object's own share of the completed write. *)
let make ?(blocks_per_object = 2) ~codec_seed (cfg : Common.config) =
  if blocks_per_object < 1 then
    invalid_arg "Rateless.make: need at least one block per object";
  let value_bytes = cfg.codec.Sb_codec.Codec.value_bytes in
  let k = cfg.codec.Sb_codec.Codec.k in
  if cfg.n < (2 * cfg.f) + k then invalid_arg "Rateless.make: need n >= 2f + k";
  let fountain = Sb_codec.Codec.fountain ~seed:codec_seed ~value_bytes ~k () in
  let b = blocks_per_object in
  let indices_for_object i = List.init b (fun j -> (b * i) + j) in
  let quorum = cfg.n - cfg.f in
  let v0 = Bytes.make value_bytes '\000' in
  let init_obj i =
    let vp =
      List.map
        (fun idx ->
          Chunk.v ~ts:Timestamp.zero
            (Block.initial ~index:idx (fountain.Sb_codec.Codec.encode v0 idx)))
        (indices_for_object i)
    in
    Objstate.init ~vp ()
  in
  let write (ctx : R.ctx) v =
    let encoder = Oracle.Encoder.create fountain ~op:ctx.op.id ~value:v in
    let pieces_for i = List.map (Oracle.Encoder.get encoder) (indices_for_object i) in
    let rs = Common.read_value cfg ctx in
    let stored_ts = rs.max_stored_ts in
    let ts = Timestamp.make ~num:(Common.max_num rs + 1) ~client:ctx.self in
    ctx.op.rounds <- ctx.op.rounds + 1;
    let tickets =
      R.broadcast ~n:cfg.n (fun i ->
          D.Rateless_update { pieces = pieces_for i; ts; stored_ts })
    in
    ignore (R.await ~tickets ~quorum);
    ctx.op.rounds <- ctx.op.rounds + 1;
    let tickets =
      R.broadcast ~n:cfg.n (fun i -> D.Rateless_gc { pieces = pieces_for i; ts })
    in
    ignore (R.await ~tickets ~quorum)
  in
  let read (ctx : R.ctx) =
    (* Accumulate chunks across sampling rounds: rateless decoding only
       gets easier with more blocks. *)
    let rec loop seen barrier =
      let rs = Common.read_value cfg ctx in
      let seen = rs.chunks @ seen in
      let barrier = Timestamp.max barrier rs.max_stored_ts in
      let candidates =
        List.sort_uniq Timestamp.compare
          (List.map (fun (c : Chunk.t) -> c.ts) seen)
        |> List.filter (fun ts -> Timestamp.(ts >= barrier))
        |> List.rev (* newest first *)
      in
      let decoded =
        List.find_map
          (fun ts ->
            match
              fountain.Sb_codec.Codec.decode (Common.distinct_pieces seen ~ts)
            with
            | Some v -> Some v
            | None -> None)
          candidates
      in
      match decoded with Some v -> Some v | None -> loop seen barrier
    in
    loop [] Timestamp.zero
  in
  { R.name = Printf.sprintf "rateless(b=%d)" b; init_obj; write; read }
