open Sb_storage
module R = Sb_sim.Runtime

let make (cfg : Common.config) =
  Common.validate cfg;
  if cfg.codec.Sb_codec.Codec.k <> 1 then
    invalid_arg "Abd_atomic.make: requires a replication codec (k = 1)";
  let base = Abd.make cfg in
  (* The write-back propagates an {e existing} write, so it re-encodes
     under that write's op id ([source]), not the reader's: the blocks
     it stores are byte-identical to the originals.  Tagging them with
     the reader's op would create replicas no tracked write owns —
     concurrent write-backs of one value would then fail to commute,
     and the [Sb_sanitize] availability monitor would see quorum
     subsets holding only orphaned blocks.  Because the write-back
     stores through [Rmwdesc.Abd_store] (an idempotent join), a duplicated
     or retransmitted write-back re-applied after a server recovery is
     also harmless. *)
  let write_back (ctx : R.ctx) ~source ts value =
    let encoder = Oracle.Encoder.create cfg.codec ~op:source ~value in
    ctx.op.rounds <- ctx.op.rounds + 1;
    let tickets =
      R.broadcast ~n:cfg.n (fun i ->
          Sb_sim.Rmwdesc.Abd_store (Chunk.v ~ts (Oracle.Encoder.get encoder i)))
    in
    ignore (R.await ~tickets ~quorum:(Common.quorum cfg))
  in
  let read (ctx : R.ctx) =
    let rs = Common.read_value cfg ctx in
    match Common.decodable_ts cfg.codec rs.chunks ~min_ts:Timestamp.zero with
    | None -> None
    | Some ts -> (
      match Common.decode_at cfg.codec rs.chunks ~ts with
      | None -> None
      | Some value ->
        let source =
          match
            List.find_opt
              (fun (c : Chunk.t) -> Timestamp.compare c.ts ts = 0)
              rs.chunks
          with
          | Some c -> c.block.Block.source
          | None -> ctx.op.id
        in
        (* Second phase: ensure a quorum holds this value before
           returning, so no later read can see an older one. *)
        write_back ctx ~source ts value;
        Some value)
  in
  { base with R.name = "abd-atomic"; read }
