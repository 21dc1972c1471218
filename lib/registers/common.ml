open Sb_storage

type config = { n : int; f : int; codec : Sb_codec.Codec.t }

let validate cfg =
  if cfg.f < 0 then invalid_arg "register config: f must be non-negative";
  if cfg.n < (2 * cfg.f) + cfg.codec.Sb_codec.Codec.k then
    invalid_arg "register config: need n >= 2f + k";
  match cfg.codec.Sb_codec.Codec.n with
  | None -> invalid_arg "register config: codec must be fixed-rate"
  | Some cn ->
    if cn < cfg.n then invalid_arg "register config: codec produces fewer than n blocks"

let quorum cfg = cfg.n - cfg.f
let initial_value cfg = Bytes.make cfg.codec.Sb_codec.Codec.value_bytes '\000'

type read_set = {
  max_stored_ts : Timestamp.t;
  chunks : Chunk.t list;
}

let read_value cfg (ctx : Sb_sim.Runtime.ctx) =
  ctx.op.rounds <- ctx.op.rounds + 1;
  let tickets =
    Sb_sim.Runtime.broadcast ~n:cfg.n (fun _ -> Sb_sim.Rmwdesc.Snapshot)
  in
  let resps = Sb_sim.Runtime.await ~tickets ~quorum:(quorum cfg) in
  List.fold_left
    (fun acc (_, resp) ->
      match resp with
      | Sb_sim.Runtime.Ack -> acc
      | Sb_sim.Runtime.Snap (st : Objstate.t) ->
        {
          max_stored_ts = Timestamp.max acc.max_stored_ts st.stored_ts;
          chunks = st.vp @ st.vf @ acc.chunks;
        })
    { max_stored_ts = Timestamp.zero; chunks = [] }
    resps

let max_num rs =
  List.fold_left
    (fun acc (c : Chunk.t) -> max acc c.ts.Timestamp.num)
    rs.max_stored_ts.Timestamp.num rs.chunks

(* Idempotent chunk insertion, now provided by [Sb_storage.Chunk] so the
   RMW interpreter in [Sb_sim.Rmwdesc] can use it too; re-exported here
   because the register protocols and their tests reach it through
   [Common]. *)
let add_chunk = Chunk.add
let add_chunks = Chunk.add_list

let distinct_pieces chunks ~ts =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (c : Chunk.t) ->
      if Timestamp.equal c.ts ts && not (Hashtbl.mem seen c.block.Block.index) then begin
        Hashtbl.add seen c.block.Block.index ();
        Some (c.block.Block.index, c.block.Block.data)
      end
      else None)
    chunks

let decodable_ts codec chunks ~min_ts =
  let k = codec.Sb_codec.Codec.k in
  let candidates =
    List.sort_uniq Timestamp.compare (List.map (fun (c : Chunk.t) -> c.ts) chunks)
  in
  List.fold_left
    (fun best ts ->
      if Timestamp.(ts >= min_ts) && List.length (distinct_pieces chunks ~ts) >= k then
        match best with
        | Some b when Timestamp.(b >= ts) -> best
        | _ -> Some ts
      else best)
    None candidates

let decode_at codec chunks ~ts =
  let decoder = Oracle.Decoder.create codec in
  let group = (ts.Timestamp.num * 65599) + ts.Timestamp.client in
  List.iter
    (fun (index, data) -> Oracle.Decoder.push decoder ~group ~index data)
    (distinct_pieces chunks ~ts);
  Oracle.Decoder.finish decoder ~group
