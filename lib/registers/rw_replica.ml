open Sb_storage
module R = Sb_sim.Runtime
module D = Sb_sim.Rmwdesc

(* Register emulations over READ/WRITE base objects — the model of
   "Space Complexity of Fault Tolerant Register Emulations"
   (Chockler-Spiegelman, arXiv:1705.07212).  A base object here offers
   only [Snapshot] and the blind [Rw_write] overwrite; there is no
   conditional application, so nothing server-side can arbitrate between
   concurrent writers.  The emulations compensate structurally:

   - each writer owns a disjoint {e group} of [2f+1] cells and only ever
     overwrites its own group (multi-writer arbitration moves into the
     timestamps chosen at round 1);
   - within a group, the [Read_write] base-object model's
     per-(client, object) FIFO discipline makes a cell a faithful
     register: a client's overwrites land in issue order.

   The paper's lower bound says a {e regular} emulation must keep [f+1]
   full copies alive per writer — adaptivity and coding buy nothing.
   [make] hits that floor exactly: a write stores [2f+1] full copies,
   awaits [f+1] acks (the "keepers"), then trims every non-keeper cell
   back to a meta-data-only stub, so the quiescent live storage of a
   group is exactly [(f+1) * D] bits.  [make_fcopy] awaits the same
   honest [f+1] quorum but then trims down to [f] full copies — the
   seeded negative control the storage-floor sanitizer must catch.  [make_safe] is the coded contrast: a {e safe} register over
   the same base objects storing [(2f+k) * D/k] bits, executably below
   the regular floor for [k > 2] — the escape hatch the bound leaves
   open for weaker-than-regular semantics. *)

type layout = { writers : int; group : int }

let layout ~writers (cfg : Common.config) =
  if writers <= 0 then invalid_arg "Rw_replica.make: need at least one writer";
  if cfg.n mod writers <> 0 then
    invalid_arg "Rw_replica.make: n must be writers * (2f + 1)";
  let group = cfg.n / writers in
  if group <> (2 * cfg.f) + 1 then
    invalid_arg "Rw_replica.make: each write group needs exactly 2f + 1 cells";
  { writers; group }

(* Cells of writer [g]'s group, as global object ids. *)
let cells lay g = List.init lay.group (fun j -> (g * lay.group) + j)

let overwrite ~obj ~chunks ~ts = R.trigger ~obj (D.Rw_write { chunks; ts })

let snapshot_round (cfg : Common.config) (ctx : R.ctx) =
  ctx.op.rounds <- ctx.op.rounds + 1;
  let tickets =
    R.broadcast ~n:cfg.n (fun _ -> D.Snapshot)
  in
  R.await ~tickets ~quorum:(Common.quorum cfg)

(* The highest round number visible in a snapshot response set: cell
   contents and [storedTS] both count — a stub carries its write's
   timestamp in [storedTS] only. *)
let max_round rs =
  List.fold_left
    (fun acc (_, resp) ->
      match resp with
      | R.Ack -> acc
      | R.Snap (st : Objstate.t) ->
        List.fold_left
          (fun acc (c : Chunk.t) -> max acc c.ts.Timestamp.num)
          (max acc st.stored_ts.Timestamp.num)
          (st.vp @ st.vf))
    0 rs

let make_gen ~name ~keepers ~keep ~retry_reads ~writers (cfg : Common.config) =
  Common.validate cfg;
  if cfg.codec.Sb_codec.Codec.k <> 1 then
    invalid_arg "Rw_replica.make: full replication requires k = 1";
  let lay = layout ~writers cfg in
  if keepers < 1 || keepers > lay.group - cfg.f then
    invalid_arg "Rw_replica.make: keepers must lie in [1, f+1]";
  if keep < 1 || keep > keepers then
    invalid_arg "Rw_replica.make: keep must lie in [1, keepers]";
  let v0 = Common.initial_value cfg in
  let init_obj i =
    let block = Block.initial ~index:i (cfg.codec.Sb_codec.Codec.encode v0 i) in
    Objstate.init ~vf:[ Chunk.v ~ts:Timestamp.zero block ] ()
  in
  let write (ctx : R.ctx) v =
    let g = ctx.self in
    if g >= lay.writers then
      invalid_arg
        (Printf.sprintf "%s: client %d has no write group (writers = %d)" name
           g lay.writers);
    (* Round 1: snapshot ALL cells (n - f responses) to pick a timestamp
       above every write any later operation could have seen complete. *)
    let rs = snapshot_round cfg ctx in
    let ts = Timestamp.make ~num:(max_round rs + 1) ~client:g in
    (* Round 2: overwrite the own group with full copies; await
       [keepers] acks.  FIFO per (client, cell) means these can never be
       rolled back by this writer's own earlier stragglers. *)
    ctx.op.rounds <- ctx.op.rounds + 1;
    let encoder = Oracle.Encoder.create cfg.codec ~op:ctx.op.id ~value:v in
    let tickets =
      List.map
        (fun i ->
          overwrite ~obj:i
            ~chunks:[ Chunk.v ~ts (Oracle.Encoder.get encoder i) ]
            ~ts)
        (cells lay g)
    in
    let acks = R.await ~tickets ~quorum:keepers in
    (* Trim round: the first [keep] responders keep their full copy;
       every other group cell is overwritten with a meta-data-only stub
       (it still carries [ts] in storedTS, so round 1 keeps seeing the
       write).  Stubs are fired without awaiting — FIFO guarantees each
       lands after the full copy it trims.  [keep = keepers = f+1] for
       the correct register; [make_fcopy] trims one keeper too. *)
    let kept = List.filteri (fun idx _ -> idx < keep) acks |> List.map fst in
    List.iter
      (fun i ->
        if not (List.mem i kept) then ignore (overwrite ~obj:i ~chunks:[] ~ts))
      (cells lay g)
  in
  let read (ctx : R.ctx) =
    (* The newest full copy among the responding cells, and the newest
       [storedTS] seen anywhere.  A stub's [storedTS] is {e completion
       evidence}: stubs are only fired after the write collected its
       [keepers] acks, so a stub at [ts] proves write [ts] completed and
       regularity forbids returning anything older.  Because the
       snapshot samples cells one at a time, a single round can catch
       {e different} writes' trim victims — e.g. cell A as the previous
       write's stub before the next overwrite lands, then cell B as the
       next write's stub — and hold no full copy at all even though
       [keepers] full copies exist at every instant.  So the read
       retries until it holds a full copy at least as new as its
       evidence.  Termination: a quiescent [n - f] quorum reaches at
       least [group - f = f+1] cells of the newest write's group, of
       which at most [f] are stubs, so some full copy at the maximal
       [storedTS] responds; mid-flight, each fooled round consumes
       writer deliveries, which are finite.  [make_fcopy] keeps only
       [f] full copies, which breaks exactly this arithmetic — its
       one-shot read ([retry_reads = false]) would otherwise spin at
       quiescence. *)
    let rec attempt () =
      let rs = snapshot_round cfg ctx in
      let best, evidence =
        List.fold_left
          (fun ((best, ev) as acc) (_, resp) ->
            match resp with
            | R.Ack -> acc
            | R.Snap (st : Objstate.t) ->
              let ev =
                if Timestamp.compare st.stored_ts ev > 0 then st.stored_ts
                else ev
              in
              let best =
                List.fold_left
                  (fun best (c : Chunk.t) ->
                    match best with
                    | Some (b : Chunk.t) when Timestamp.(b.ts >= c.ts) -> best
                    | _ -> Some c)
                  best st.vf
              in
              (best, ev))
          (None, Timestamp.zero) rs
      in
      match best with
      | Some c when (not retry_reads) || Timestamp.(c.ts >= evidence) ->
        Common.decode_at cfg.codec [ c ] ~ts:c.ts
      | None when (not retry_reads) || Timestamp.equal evidence Timestamp.zero
        ->
        Some v0
      | _ -> attempt ()
    in
    attempt ()
  in
  { R.name; init_obj; write; read }

let make ?(writers = 1) cfg =
  let keepers = cfg.Common.f + 1 in
  make_gen ~name:"rw-regular" ~keepers ~keep:keepers ~retry_reads:true ~writers
    cfg

let make_fcopy ?(writers = 1) cfg =
  if cfg.Common.f < 1 then
    invalid_arg "Rw_replica.make_fcopy: needs f >= 1 to have f copies";
  make_gen ~name:"rw-fcopy" ~keepers:(cfg.Common.f + 1) ~keep:cfg.Common.f
    ~retry_reads:false ~writers cfg

(* The safe/coded contrast register: one coded piece per cell, no trim
   round.  Stores [(2f+k) * D/k] bits at quiescence — strictly below the
   regular floor [(f+1) * D] once [k > 2] — but reads overlapping a
   write may legitimately return [v0]: the emulation is only {e safe}.
   Single-writer by construction (blind overwrites by multiple writers
   to the same cell would race); the workloads enforce it. *)
let make_safe (cfg : Common.config) =
  Common.validate cfg;
  let v0 = Common.initial_value cfg in
  let init_obj i =
    let block = Block.initial ~index:i (cfg.codec.Sb_codec.Codec.encode v0 i) in
    Objstate.init ~vf:[ Chunk.v ~ts:Timestamp.zero block ] ()
  in
  let write (ctx : R.ctx) v =
    let rs = snapshot_round cfg ctx in
    let ts = Timestamp.make ~num:(max_round rs + 1) ~client:ctx.self in
    ctx.op.rounds <- ctx.op.rounds + 1;
    let encoder = Oracle.Encoder.create cfg.codec ~op:ctx.op.id ~value:v in
    let tickets =
      List.init cfg.n (fun i ->
          overwrite ~obj:i
            ~chunks:[ Chunk.v ~ts (Oracle.Encoder.get encoder i) ]
            ~ts)
    in
    ignore (R.await ~tickets ~quorum:(Common.quorum cfg))
  in
  let read (ctx : R.ctx) =
    let rs = Common.read_value cfg ctx in
    (* Algorithm 5's read rule transplanted: decode the newest timestamp
       with k pieces in the quorum; any undecodable mix means a write is
       concurrent, and safety lets the read return v0. *)
    match Common.decodable_ts cfg.codec rs.chunks ~min_ts:Timestamp.zero with
    | Some ts -> Common.decode_at cfg.codec rs.chunks ~ts
    | None -> Some v0
  in
  { R.name = "rw-safe"; init_obj; write; read }
