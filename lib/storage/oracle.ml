module Encoder = struct
  type t = {
    codec : Sb_codec.Codec.t;
    op : int;
    value : bytes;
    mutable blocks : Block.t option array;  (* E(v, i) at [i], once computed *)
    mutable calls : int;
  }

  let create codec ~op ~value =
    if Bytes.length value <> codec.Sb_codec.Codec.value_bytes then
      invalid_arg "Oracle.Encoder.create: value size mismatch";
    let n = Option.value codec.Sb_codec.Codec.n ~default:0 in
    { codec; op; value; blocks = Array.make n None; calls = 0 }

  let get t i =
    t.calls <- t.calls + 1;
    let known = Array.length t.blocks in
    match if i >= 0 && i < known then t.blocks.(i) else None with
    | Some b -> b
    | None ->
      let data = t.codec.Sb_codec.Codec.encode t.value i in
      let b = Block.v ~source:t.op ~index:i data in
      if i >= known then begin
        (* A rateless codec's indices are unbounded. *)
        let grown = Array.make (max (i + 1) (2 * known)) None in
        Array.blit t.blocks 0 grown 0 known;
        t.blocks <- grown
      end;
      t.blocks.(i) <- Some b;
      b

  let get_all t =
    match t.codec.Sb_codec.Codec.n with
    | None -> invalid_arg "Oracle.Encoder.get_all: rateless codec"
    | Some n -> List.init n (fun i -> get t i)

  let calls t = t.calls
end

module Decoder = struct
  type t = {
    codec : Sb_codec.Codec.t;
    groups : (int, (int * bytes) list ref) Hashtbl.t;
  }

  let create codec = { codec; groups = Hashtbl.create 8 }

  let group t g =
    match Hashtbl.find_opt t.groups g with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add t.groups g r;
      r

  let push t ~group:g ~index data =
    let r = group t g in
    r := (index, data) :: !r

  let group_size t ~group:g =
    List.length (Sb_codec.Codec.dedup_blocks !(group t g))

  let finish t ~group:g = t.codec.Sb_codec.Codec.decode !(group t g)
end
