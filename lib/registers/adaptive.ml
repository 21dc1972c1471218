open Sb_storage
module R = Sb_sim.Runtime
module D = Sb_sim.Rmwdesc

(* The RMW semantics (Algorithm 3, lines 32-45) live in
   [Sb_sim.Rmwdesc]: this module only constructs descriptions, so the
   same updates run over the in-process runtimes and the socket
   transport.  [replicate] selects between the paper's adaptive rule
   (switch to a full replica once Vp is saturated) and the unbounded
   purely-coded baseline (always append to Vp).  [eviction] selects the
   GC barrier used when storing a piece: the correct rule keeps
   everything at or above the round-1 [storedTS] (the last known
   complete write); the deliberately broken [Own_ts] rule evicts
   everything below the {e incomplete} write's own timestamp — the
   premature-GC bug whose regularity violations the negative-control
   experiment demonstrates. *)

let make_gen ~name ~replicate ?(eviction = D.Barrier) ?(read_barrier = true)
    ?(trim = D.Keep_all) (cfg : Common.config) =
  Common.validate cfg;
  let k = cfg.codec.Sb_codec.Codec.k in
  let v0 = Common.initial_value cfg in
  let init_obj i =
    let block = Block.initial ~index:i (cfg.codec.Sb_codec.Codec.encode v0 i) in
    Objstate.init ~vp:[ Chunk.v ~ts:Timestamp.zero block ] ()
  in
  let write (ctx : R.ctx) v =
    let encoder = Oracle.Encoder.create cfg.codec ~op:ctx.op.id ~value:v in
    let piece i = Oracle.Encoder.get encoder i in
    let replica_pieces = List.init k piece in
    (* Round 1: read timestamps (Algorithm 2, lines 5-7). *)
    let rs = Common.read_value cfg ctx in
    let stored_ts = rs.max_stored_ts in
    let ts = Timestamp.make ~num:(Common.max_num rs + 1) ~client:ctx.self in
    (* Round 2: update (lines 8-10). *)
    ctx.op.rounds <- ctx.op.rounds + 1;
    let tickets =
      R.broadcast ~n:cfg.n (fun i ->
          D.Adaptive_update
            {
              replicate;
              eviction;
              trim;
              k;
              piece = piece i;
              replica_pieces;
              ts;
              stored_ts;
            })
    in
    ignore (R.await ~tickets ~quorum:(Common.quorum cfg));
    (* Round 3: garbage collection (lines 11-13). *)
    ctx.op.rounds <- ctx.op.rounds + 1;
    let tickets =
      R.broadcast ~n:cfg.n (fun i -> D.Adaptive_gc { piece = piece i; ts })
    in
    ignore (R.await ~tickets ~quorum:(Common.quorum cfg))
  in
  let read (ctx : R.ctx) =
    (* Algorithm 2, lines 16-22: sample rounds until a value no older
       than the commit barrier is decodable. *)
    let rec loop () =
      let rs = Common.read_value cfg ctx in
      let min_ts = if read_barrier then rs.max_stored_ts else Timestamp.zero in
      match Common.decodable_ts cfg.codec rs.chunks ~min_ts with
      | Some ts -> Common.decode_at cfg.codec rs.chunks ~ts
      | None -> loop ()
    in
    loop ()
  in
  { R.name; init_obj; write; read }

let make cfg = make_gen ~name:"adaptive" ~replicate:true cfg
let make_unbounded cfg = make_gen ~name:"pure-ec" ~replicate:false cfg

let make_premature_gc cfg =
  make_gen ~name:"premature-gc" ~replicate:false ~eviction:D.Own_ts
    ~read_barrier:false cfg

let make_versioned ~delta cfg =
  if delta < 0 then invalid_arg "Adaptive.make_versioned: delta must be >= 0";
  (* Keep only the delta+1 newest versions' pieces in Vp, like the
     bounded-version algorithms of [6]: correct for concurrency <= delta,
     degraded read latency beyond. *)
  make_gen
    ~name:(Printf.sprintf "versioned(delta=%d)" delta)
    ~replicate:false ~trim:(D.Keep_newest delta) cfg
