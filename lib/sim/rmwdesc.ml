open Sb_storage

type resp = Ack | Snap of Objstate.t
type rmw = Objstate.t -> Objstate.t * resp
type eviction = Barrier | Own_ts
type trim = Keep_all | Keep_newest of int

type t =
  | Snapshot
  | Abd_store of Chunk.t
  | Lww_store of Chunk.t
  | Safe_update of Chunk.t
  | Adaptive_update of {
      replicate : bool;
      eviction : eviction;
      trim : trim;
      k : int;
      piece : Block.t;
      replica_pieces : Block.t list;
      ts : Timestamp.t;
      stored_ts : Timestamp.t;
    }
  | Adaptive_gc of { piece : Block.t; ts : Timestamp.t }
  | Rateless_update of {
      pieces : Block.t list;
      ts : Timestamp.t;
      stored_ts : Timestamp.t;
    }
  | Rateless_gc of { pieces : Block.t list; ts : Timestamp.t }
  | Rw_write of { chunks : Chunk.t list; ts : Timestamp.t }

let apply_trim trim chunks =
  match trim with
  | Keep_all -> chunks
  | Keep_newest delta ->
    let sorted =
      List.sort
        (fun (a : Chunk.t) (b : Chunk.t) -> Timestamp.compare b.ts a.ts)
        chunks
    in
    List.filteri (fun i _ -> i <= delta) sorted

(* The RMW bodies below are THE protocol semantics: the register modules
   in [lib/registers] trigger descriptions, the shared-memory simulator
   applies them, the message-passing simulator carries them in its
   messages, and the socket transport serializes them — all three
   execute exactly this code, so "simulator and real transport make
   identical protocol decisions" holds by construction rather than by
   testing. *)

(* Algorithm 2, line 16 / Algorithm 1: a read round samples the full
   object state and changes nothing. *)
let snapshot : rmw = fun st -> (st, Snap st)

(* ABD store: keep the lexicographically larger of (timestamp, chunk).
   The chunk tie-break matters: [Abd_atomic]'s read write-back
   re-encodes an existing timestamp under the original write's op id, so
   ties must break deterministically towards the existing chunk to stay
   a commuting [`Merge].  Idempotent by construction. *)
let abd_store chunk : rmw =
  fun st ->
    let keep =
      match st.Objstate.vf with
      | [ existing ] ->
        let c = Timestamp.compare existing.Chunk.ts chunk.Chunk.ts in
        (* sb-lint: allow poly-compare — deliberate structural tie-break among equal-timestamp chunks; any total order works, this one is the spec'd one *)
        c > 0 || (c = 0 && compare existing chunk >= 0)
      | _ -> false
    in
    let st =
      if keep then st
      else
        { st with
          vf = [ chunk ];
          stored_ts = Timestamp.max st.stored_ts chunk.Chunk.ts;
        }
    in
    (st, Ack)

(* Last-writer-wins overwrite: ignores the stored timestamp, so two
   concurrent stores do NOT commute — the delivery order decides which
   replica survives.  Used only by the mis-declared-merge seeded bug. *)
let lww_store chunk : rmw =
  fun st ->
    ( { st with
        Objstate.vf = [ chunk ];
        stored_ts = Timestamp.max st.Objstate.stored_ts chunk.Chunk.ts;
      },
      Ack )

(* Algorithm 5, lines 10-12: overwrite the single stored piece only if
   the incoming timestamp is strictly higher; idempotent conditional
   overwrite. *)
let safe_update chunk : rmw =
  fun st ->
    let current_ts =
      match st.Objstate.vp with [ c ] -> c.Chunk.ts | _ -> Timestamp.zero
    in
    let st =
      if Timestamp.(chunk.Chunk.ts <= current_ts) then st
      else { st with vp = [ chunk ] }
    in
    (st, Ack)

(* Algorithm 3, lines 32-39.  [replicate] selects between the paper's
   adaptive rule (switch to a full replica once Vp is saturated) and the
   unbounded purely-coded baseline; [Own_ts] eviction is the
   premature-GC seeded bug. *)
let adaptive_update ~replicate ~eviction ~trim ~k ~piece ~replica_pieces ~ts
    ~stored_ts : rmw =
  fun st ->
    if Timestamp.(ts <= st.Objstate.stored_ts) then (st, Ack)
    else begin
      let distinct_writes =
        List.length
          (List.sort_uniq Timestamp.compare
             (List.map (fun (c : Chunk.t) -> c.ts) st.vp))
      in
      let barrier = match eviction with Barrier -> stored_ts | Own_ts -> ts in
      let st =
        if (not replicate) || distinct_writes < k then
          let fresh =
            List.filter (fun (c : Chunk.t) -> Timestamp.(c.ts >= barrier)) st.vp
          in
          { st with
            Objstate.vp = apply_trim trim (Chunk.add (Chunk.v ~ts piece) fresh);
          }
        else if
          st.vf = []
          || List.exists (fun (c : Chunk.t) -> Timestamp.(c.ts < ts)) st.vf
        then
          (* Vp is saturated: store a full replica as k pieces. *)
          { st with Objstate.vf = List.map (fun p -> Chunk.v ~ts p) replica_pieces }
        else st
      in
      (Objstate.with_stored_ts st stored_ts, Ack)
    end

(* Algorithm 3, lines 40-45. *)
let adaptive_gc ~piece ~ts : rmw =
  fun st ->
    let keep = List.filter (fun (c : Chunk.t) -> Timestamp.(c.ts >= ts)) in
    let vp = keep st.Objstate.vp in
    let vf = keep st.vf in
    let vf =
      if List.exists (fun (c : Chunk.t) -> Timestamp.equal c.ts ts) vf then
        [ Chunk.v ~ts piece ]
      else vf
    in
    (Objstate.with_stored_ts { st with Objstate.vp; vf } ts, Ack)

(* Rateless store: all of one write's pieces for this object, evicting
   chunks staler than the round-1 barrier. *)
let rateless_update ~pieces ~ts ~stored_ts : rmw =
  fun st ->
    if Timestamp.(ts <= st.Objstate.stored_ts) then (st, Ack)
    else begin
      let fresh =
        List.filter (fun (c : Chunk.t) -> Timestamp.(c.ts >= stored_ts)) st.vp
      in
      let added = List.map (fun p -> Chunk.v ~ts p) pieces in
      let vp = Chunk.add_list added fresh in
      (Objstate.with_stored_ts { st with Objstate.vp } stored_ts, Ack)
    end

let rateless_gc ~pieces ~ts : rmw =
  fun st ->
    let keep = List.filter (fun (c : Chunk.t) -> Timestamp.(c.ts >= ts)) in
    let vp = keep st.Objstate.vp in
    let vp =
      if List.exists (fun (c : Chunk.t) -> Timestamp.equal c.ts ts) vp then
        List.filter (fun (c : Chunk.t) -> not (Timestamp.equal c.ts ts)) vp
        @ List.map (fun p -> Chunk.v ~ts p) pieces
      else vp
    in
    (Objstate.with_stored_ts { st with Objstate.vp } ts, Ack)

(* Blind overwrite — the whole interface a read/write base object offers
   besides [snapshot] (Chockler-Spiegelman, arXiv:1705.07212, Section 2).
   No condition, no merge: the cell becomes exactly the written content,
   timestamps included, and delivery order decides what survives.  The
   runtimes compensate with per-(client, object) FIFO delivery under the
   [Read_write] model — a base object there is an atomic register behind
   a sequential channel.  An empty [chunks] list is the "stub" overwrite
   the rw-replica register uses to trim non-keeper cells down to
   meta-data only. *)
let rw_write ~chunks ~ts : rmw =
  fun _st -> ({ Objstate.vf = chunks; vp = []; stored_ts = ts }, Ack)

let apply = function
  | Snapshot -> snapshot
  | Abd_store c -> abd_store c
  | Lww_store c -> lww_store c
  | Safe_update c -> safe_update c
  | Adaptive_update { replicate; eviction; trim; k; piece; replica_pieces; ts; stored_ts }
    ->
    adaptive_update ~replicate ~eviction ~trim ~k ~piece ~replica_pieces ~ts
      ~stored_ts
  | Adaptive_gc { piece; ts } -> adaptive_gc ~piece ~ts
  | Rateless_update { pieces; ts; stored_ts } -> rateless_update ~pieces ~ts ~stored_ts
  | Rateless_gc { pieces; ts } -> rateless_gc ~pieces ~ts
  | Rw_write { chunks; ts } -> rw_write ~chunks ~ts

let payload = function
  | Snapshot -> []
  | Abd_store c | Lww_store c | Safe_update c -> [ c.Chunk.block ]
  | Adaptive_update { replicate = true; piece; replica_pieces; _ } ->
    if
      List.exists
        (fun (b : Block.t) -> b.source = piece.source && b.index = piece.index)
        replica_pieces
    then replica_pieces
    else piece :: replica_pieces
  | Adaptive_update { piece; _ } | Adaptive_gc { piece; _ } -> [ piece ]
  | Rateless_update { pieces; _ } | Rateless_gc { pieces; _ } -> pieces
  | Rw_write { chunks; _ } -> List.map (fun (c : Chunk.t) -> c.block) chunks

let default_nature = function
  | Snapshot -> `Readonly
  | Abd_store _ -> `Merge
  | Lww_store _ | Safe_update _ | Adaptive_update _ | Adaptive_gc _
  | Rateless_update _ | Rateless_gc _ | Rw_write _ ->
    `Mutating

(* Operation classes the base-object models discriminate on: a
   [Read_write] base object accepts [Read] and [Overwrite] only; every
   conditional or merging description is [General] and RMW-only. *)
let op_class = function
  | Snapshot -> Sb_baseobj.Model.Read
  | Rw_write _ -> Sb_baseobj.Model.Overwrite
  | Abd_store _ | Lww_store _ | Safe_update _ | Adaptive_update _
  | Adaptive_gc _ | Rateless_update _ | Rateless_gc _ ->
    Sb_baseobj.Model.General

(* sb-lint: allow poly-compare — descs are first-order data (no closures); structural equality is the definition *)
let equal (a : t) (b : t) = a = b

let pp_chunk ppf (c : Chunk.t) =
  Format.fprintf ppf "%a#%d.%d" Timestamp.pp c.ts c.block.Block.source
    c.block.Block.index

let pp_block ppf (b : Block.t) = Format.fprintf ppf "#%d.%d" b.Block.source b.Block.index

let pp ppf = function
  | Snapshot -> Format.fprintf ppf "snapshot"
  | Abd_store c -> Format.fprintf ppf "abd-store(%a)" pp_chunk c
  | Lww_store c -> Format.fprintf ppf "lww-store(%a)" pp_chunk c
  | Safe_update c -> Format.fprintf ppf "safe-update(%a)" pp_chunk c
  | Adaptive_update { replicate; eviction; trim; k; piece; replica_pieces; ts; stored_ts }
    ->
    Format.fprintf ppf
      "adaptive-update(replicate=%b eviction=%s trim=%s k=%d piece=%a \
       replicas=[%a] ts=%a barrier=%a)"
      replicate
      (match eviction with Barrier -> "barrier" | Own_ts -> "own-ts")
      (match trim with
      | Keep_all -> "all"
      | Keep_newest d -> Printf.sprintf "newest(%d)" d)
      k pp_block piece
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_block)
      replica_pieces Timestamp.pp ts Timestamp.pp stored_ts
  | Adaptive_gc { piece; ts } ->
    Format.fprintf ppf "adaptive-gc(%a ts=%a)" pp_block piece Timestamp.pp ts
  | Rateless_update { pieces; ts; stored_ts } ->
    Format.fprintf ppf "rateless-update([%a] ts=%a barrier=%a)"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_block)
      pieces Timestamp.pp ts Timestamp.pp stored_ts
  | Rateless_gc { pieces; ts } ->
    Format.fprintf ppf "rateless-gc([%a] ts=%a)"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_block)
      pieces Timestamp.pp ts
  | Rw_write { chunks; ts } ->
    Format.fprintf ppf "rw-write([%a] ts=%a)"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_chunk)
      chunks Timestamp.pp ts
