open Sb_storage
module R = Sb_sim.Runtime
module D = Sb_sim.Rmwdesc

(* The store semantics live in [Sb_sim.Rmwdesc]: [Abd_store] keeps the
   lexicographically larger (timestamp, chunk) — a commuting, idempotent
   join — and [Lww_store] is the last-writer-wins overwrite used only by
   [make_misdeclared_merge] below, whose concurrent stores do NOT
   commute even though the broadcast still declares [`Merge]. *)
let make_gen ?(store = fun c -> D.Abd_store c) ~name ~write_quorum
    (cfg : Common.config) =
  Common.validate cfg;
  if cfg.codec.Sb_codec.Codec.k <> 1 then
    invalid_arg "Abd.make: ABD requires a replication codec (k = 1)";
  let v0 = Common.initial_value cfg in
  let init_obj i =
    let block = Block.initial ~index:i (cfg.codec.Sb_codec.Codec.encode v0 i) in
    Objstate.init ~vf:[ Chunk.v ~ts:Timestamp.zero block ] ()
  in
  let write (ctx : R.ctx) v =
    let encoder = Oracle.Encoder.create cfg.codec ~op:ctx.op.id ~value:v in
    (* Round 1: collect timestamps. *)
    let rs = Common.read_value cfg ctx in
    let ts = Timestamp.make ~num:(Common.max_num rs + 1) ~client:ctx.self in
    (* Round 2: store the replica everywhere, await a quorum. *)
    ctx.op.rounds <- ctx.op.rounds + 1;
    let tickets =
      (* [Abd_store] is a "keep the higher timestamp" join: merge-class,
         so deliveries of two stores to the same object commute.  The
         [`Merge] declaration is explicit (not derived from the
         description) because [make_misdeclared_merge] keeps it while
         swapping in the non-commuting store. *)
      R.broadcast ~nature:`Merge ~n:cfg.n (fun i ->
          store (Chunk.v ~ts (Oracle.Encoder.get encoder i)))
    in
    ignore (R.await ~tickets ~quorum:write_quorum)
  in
  let read (ctx : R.ctx) =
    let rs = Common.read_value cfg ctx in
    (* Return the highest-timestamped replica; regularity needs no
       write-back. *)
    match Common.decodable_ts cfg.codec rs.chunks ~min_ts:Timestamp.zero with
    | None -> None
    | Some ts -> Common.decode_at cfg.codec rs.chunks ~ts
  in
  { R.name = name; init_obj; write; read }

let make cfg = make_gen ~name:"abd" ~write_quorum:(Common.quorum cfg) cfg

let make_broken ?(quorum_slack = 1) cfg =
  if quorum_slack < 1 then invalid_arg "Abd.make_broken: quorum_slack must be >= 1";
  make_gen ~name:"abd-broken" ~write_quorum:(Common.quorum cfg - quorum_slack) cfg

let make_misdeclared_merge cfg =
  make_gen
    ~store:(fun c -> D.Lww_store c)
    ~name:"abd-misdeclared-merge" ~write_quorum:(Common.quorum cfg) cfg
