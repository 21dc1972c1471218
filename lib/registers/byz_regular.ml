open Sb_storage
module R = Sb_sim.Runtime
module D = Sb_sim.Rmwdesc

(* Byzantine-tolerant regular register over non-authenticated base
   objects, after "Integrated Bounds for Disintegrated Storage"
   (Berger-Keidar-Spiegelman, arXiv:1805.06265).  Up to [budget] base
   objects may answer with fabricated-but-well-formed states
   ([Sb_baseobj.Model.Byzantine]); there are no signatures, so a reader
   can only trust what enough objects {e independently corroborate}.

   Structure: ABD-style full-replication writes to [n >= 2f + 2b + 1]
   objects, and masking-quorum reads — a candidate value is eligible
   only if at least [b+1] distinct objects returned an identical
   (timestamp, provenance, contents) triple, so at least one honest
   object vouches for it.  Matching is on the block {e data}, not just
   the timestamp tags: a poisoned chunk keeps its provenance but alters
   the bytes, and must not pool with honest copies.

   This is where the sibling paper's collapse shows up executably:
   because nothing an object stores can be trusted in isolation, a coded
   piece is worthless (b liars can fabricate consistent pieces and no
   honest corroboration distinguishes them), so the emulation stores
   full copies and its live storage is >= (f+1) * D — the
   common-information bound integrates replication back in. *)

(* Candidate keys in ascending (ts, source, data) order. *)
let compare_key (n1, c1, s1, d1) (n2, c2, s2, d2) =
  match Int.compare n1 n2 with
  | 0 -> (
    match Int.compare c1 c2 with
    | 0 -> ( match Int.compare s1 s2 with 0 -> String.compare d1 d2 | r -> r)
    | r -> r)
  | r -> r

let support_key (obj_chunks : (int * Chunk.t) list) =
  (* Groups candidates by (ts, source, data); support = number of
     distinct objects corroborating the triple.  The result is sorted by
     that key: the read keeps the first of equally-timestamped
     candidates, so equal worlds must list them in the same order
     whatever the table's insertion history. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (obj, (c : Chunk.t)) ->
      let key =
        ( c.ts.Timestamp.num,
          c.ts.Timestamp.client,
          c.block.Block.source,
          Bytes.to_string c.block.Block.data )
      in
      let objs, _ =
        Option.value (Hashtbl.find_opt tbl key) ~default:([], c)
      in
      if not (List.mem obj objs) then Hashtbl.replace tbl key (obj :: objs, c))
    obj_chunks;
  (* sb-lint: allow hashtbl-order — collected then sorted by key *)
  Hashtbl.fold (fun key (objs, c) acc -> (key, (List.length objs, c)) :: acc) tbl []
  |> List.sort (fun (k1, _) (k2, _) -> compare_key k1 k2)
  |> List.map snd

let make ~budget (cfg : Common.config) =
  Common.validate cfg;
  if budget < 0 then invalid_arg "Byz_regular.make: negative budget";
  if cfg.codec.Sb_codec.Codec.k <> 1 then
    invalid_arg "Byz_regular.make: full replication requires k = 1";
  if cfg.n < (2 * cfg.f) + (2 * budget) + 1 then
    invalid_arg
      (Printf.sprintf
         "Byz_regular.make: masking quorums need n >= 2f + 2b + 1 (n = %d, f \
          = %d, b = %d)"
         cfg.n cfg.f budget);
  let v0 = Common.initial_value cfg in
  let init_obj i =
    let block = Block.initial ~index:i (cfg.codec.Sb_codec.Codec.encode v0 i) in
    Objstate.init ~vf:[ Chunk.v ~ts:Timestamp.zero block ] ()
  in
  let write (ctx : R.ctx) v =
    let rs = Common.read_value cfg ctx in
    let ts =
      Timestamp.make ~num:(Common.max_num rs + 1) ~client:ctx.self
    in
    ctx.op.rounds <- ctx.op.rounds + 1;
    let encoder = Oracle.Encoder.create cfg.codec ~op:ctx.op.id ~value:v in
    let tickets =
      R.broadcast ~nature:`Merge ~n:cfg.n (fun i ->
          D.Abd_store (Chunk.v ~ts (Oracle.Encoder.get encoder i)))
    in
    ignore (R.await ~tickets ~quorum:(Common.quorum cfg))
  in
  let read (ctx : R.ctx) =
    ctx.op.rounds <- ctx.op.rounds + 1;
    let tickets =
      R.broadcast ~n:cfg.n (fun _ -> D.Snapshot)
    in
    let rs = R.await ~tickets ~quorum:(Common.quorum cfg) in
    let candidates =
      List.concat_map
        (fun (obj, resp) ->
          match resp with
          | R.Ack -> []
          | R.Snap (st : Objstate.t) ->
            List.map (fun c -> (obj, c)) (st.vp @ st.vf))
        rs
    in
    (* Highest-timestamped candidate with honest corroboration.  Within
       budget this never falls through to [v0]: the quorum holds
       [n - f >= f + 2b + 1] objects, so the latest complete write has
       [b+1] honest supporters in it, and fabricated triples cap out at
       [b] supporters. *)
    let best =
      List.fold_left
        (fun best (support, (c : Chunk.t)) ->
          if support < budget + 1 then best
          else
            match best with
            | Some (b : Chunk.t) when Timestamp.(b.ts >= c.ts) -> best
            | _ -> Some c)
        None
        (support_key candidates)
    in
    match best with
    | Some c -> (
      match Common.decode_at cfg.codec [ c ] ~ts:c.ts with
      | Some v -> Some v
      | None -> Some v0)
    | None -> Some v0
  in
  { R.name = Printf.sprintf "byz-regular(b=%d)" budget; init_obj; write; read }
