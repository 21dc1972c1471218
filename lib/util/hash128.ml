(* A fast 128-bit streaming hash: two independent 64-bit lanes, each
   mixed with a murmur3-style round per absorbed word.  Its output is
   persisted — the checksum trailer of durable state files, shard
   placement, the schema hash in the golden schemas/*.json — so the
   constants and the absorption order below must never change.

   Not cryptographic.  Two independent 64-bit lanes make an accidental
   collision between distinct inputs negligible at the scale of a
   key space or a state directory. *)

type t = { mutable a : int64; mutable b : int64 }

(* Distinct odd constants per lane (from murmur3/splitmix64). *)
let c1a = 0x87c37b91114253d5L
let c2a = 0x4cf5ad432745937fL
let c1b = 0xff51afd7ed558ccdL
let c2b = 0xc4ceb9fe1a85ec53L

let create () = { a = 0x9e3779b97f4a7c15L; b = 0x6a09e667f3bcc909L }

let[@inline] rotl x r = Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))

let[@inline] add_int64 t w =
  let ka = Int64.mul w c1a in
  let ka = rotl ka 31 in
  let ka = Int64.mul ka c2a in
  let a = Int64.logxor t.a ka in
  let a = rotl a 27 in
  t.a <- Int64.add (Int64.mul a 5L) 0x52dce729L;
  let kb = Int64.mul w c1b in
  let kb = rotl kb 33 in
  let kb = Int64.mul kb c2b in
  let b = Int64.logxor t.b kb in
  let b = rotl b 29 in
  t.b <- Int64.add (Int64.mul b 5L) 0x38495ab5L

let[@inline] add_int t i = add_int64 t (Int64.of_int i)

let add_subbytes t buf pos len =
  let words = len / 8 in
  for i = 0 to words - 1 do
    add_int64 t (Bytes.get_int64_le buf (pos + (i * 8)))
  done;
  let tail = len land 7 in
  if tail > 0 then begin
    (* Pack the tail into one word; length is mixed separately so
       "ab" + "c" never aliases "abc". *)
    let w = ref 0L in
    for i = 0 to tail - 1 do
      w :=
        Int64.logor !w
          (Int64.shift_left
             (Int64.of_int (Char.code (Bytes.unsafe_get buf (pos + (words * 8) + i))))
             (8 * i))
    done;
    add_int64 t !w
  end;
  add_int t len

let add_bytes t buf = add_subbytes t buf 0 (Bytes.length buf)
let add_string t s = add_subbytes t (Bytes.unsafe_of_string s) 0 (String.length s)

(* splitmix64 finalizer — avalanche both lanes before exposing them. *)
let[@inline] fmix k =
  let k = Int64.logxor k (Int64.shift_right_logical k 33) in
  let k = Int64.mul k 0xff51afd7ed558ccdL in
  let k = Int64.logxor k (Int64.shift_right_logical k 33) in
  let k = Int64.mul k 0xc4ceb9fe1a85ec53L in
  Int64.logxor k (Int64.shift_right_logical k 33)

let lanes t = (fmix t.a, fmix t.b)

let digest t =
  let x, y = lanes t in
  let buf = Bytes.create 16 in
  Bytes.set_int64_le buf 0 x;
  Bytes.set_int64_le buf 8 y;
  Bytes.unsafe_to_string buf

let to_hex t =
  let x, y = lanes t in
  Printf.sprintf "%016Lx%016Lx" x y
