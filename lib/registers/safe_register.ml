open Sb_storage
module R = Sb_sim.Runtime

(* The update semantics (Algorithm 5, lines 10-12 — overwrite the single
   stored piece only if the incoming timestamp is strictly higher) live
   in [Sb_sim.Rmwdesc.Safe_update]. *)
let make (cfg : Common.config) =
  Common.validate cfg;
  let v0 = Common.initial_value cfg in
  let init_obj i =
    let block = Block.initial ~index:i (cfg.codec.Sb_codec.Codec.encode v0 i) in
    Objstate.init ~vp:[ Chunk.v ~ts:Timestamp.zero block ] ()
  in
  let write (ctx : R.ctx) v =
    let encoder = Oracle.Encoder.create cfg.codec ~op:ctx.op.id ~value:v in
    let rs = Common.read_value cfg ctx in
    let ts = Timestamp.make ~num:(Common.max_num rs + 1) ~client:ctx.self in
    ctx.op.rounds <- ctx.op.rounds + 1;
    let tickets =
      R.broadcast ~n:cfg.n (fun i ->
          Sb_sim.Rmwdesc.Safe_update (Chunk.v ~ts (Oracle.Encoder.get encoder i)))
    in
    ignore (R.await ~tickets ~quorum:(Common.quorum cfg))
  in
  let read (ctx : R.ctx) =
    let rs = Common.read_value cfg ctx in
    (* Algorithm 5, lines 15-18: decode if some timestamp has k pieces,
       otherwise any outstanding write is concurrent and safety lets us
       return v0. *)
    match Common.decodable_ts cfg.codec rs.chunks ~min_ts:Timestamp.zero with
    | Some ts -> Common.decode_at cfg.codec rs.chunks ~ts
    | None -> Some (Common.initial_value cfg)
  in
  { R.name = "safe"; init_obj; write; read }
