(* Tests for Sb_util: PRNG, byte helpers, tables, distinct values. *)

module Prng = Sb_util.Prng
module Bytesx = Sb_util.Bytesx
module Table = Sb_util.Table
module Values = Sb_util.Values

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_copy_independent () =
  let a = Prng.create 7 in
  let b = Prng.copy a in
  let xa = Prng.bits64 a in
  let xb = Prng.bits64 b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  ignore (Prng.bits64 a);
  let xa2 = Prng.bits64 a and xb2 = Prng.bits64 b in
  Alcotest.(check bool) "desynchronised after extra draw" true (xa2 <> xb2)

let test_prng_split_diverges () =
  let a = Prng.create 9 in
  let child = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 child then incr same
  done;
  Alcotest.(check bool) "parent and child streams differ" true (!same < 4)

let test_prng_int_range () =
  let t = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_invalid () =
  let t = Prng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_int_covers () =
  let t = Prng.create 6 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Prng.int t 8) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let t = Prng.create 8 in
  for _ = 1 to 1000 do
    let v = Prng.float t 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_prng_bool_mixes () =
  let t = Prng.create 10 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool t then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 400 && !trues < 600)

let test_prng_shuffle_permutes () =
  let t = Prng.create 3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_prng_pick () =
  let t = Prng.create 4 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Prng.pick t arr in
    Alcotest.(check bool) "member" true (Array.mem v arr)
  done;
  Alcotest.check_raises "empty array" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Prng.pick t [||]))

let test_prng_bytes_len () =
  let t = Prng.create 12 in
  Alcotest.(check int) "length" 33 (Bytes.length (Prng.bytes t 33))

(* ------------------------------------------------------------------ *)
(* Bytesx                                                              *)
(* ------------------------------------------------------------------ *)

let bytes_gen n = QCheck2.Gen.(map Bytes.of_string (string_size ~gen:char (return n)))

let test_xor_involution =
  qtest "xor is an involution"
    QCheck2.Gen.(pair (bytes_gen 16) (bytes_gen 16))
    (fun (a, b) -> Bytes.equal (Bytesx.xor (Bytesx.xor a b) b) a)

let test_xor_self_zero =
  qtest "xor with self is zero" (bytes_gen 16) (fun a ->
      Bytes.equal (Bytesx.xor a a) (Bytes.make 16 '\000'))

let test_xor_commutes =
  qtest "xor commutes"
    QCheck2.Gen.(pair (bytes_gen 16) (bytes_gen 16))
    (fun (a, b) -> Bytes.equal (Bytesx.xor a b) (Bytesx.xor b a))

let test_xor_into_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Bytesx.xor_into: length mismatch") (fun () ->
      Bytesx.xor_into ~src:(Bytes.create 3) ~dst:(Bytes.create 4))

let test_int_le_roundtrip =
  qtest "of_int_le/to_int_le roundtrip"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun v -> Bytesx.to_int_le (Bytesx.of_int_le v ~width:4) = v)

let test_int_le_overflow () =
  Alcotest.check_raises "overflow" (Invalid_argument "Bytesx.of_int_le: overflow")
    (fun () -> ignore (Bytesx.of_int_le 256 ~width:1))

let test_pad_to () =
  let b = Bytes.of_string "ab" in
  let p = Bytesx.pad_to b 5 in
  Alcotest.(check int) "padded length" 5 (Bytes.length p);
  Alcotest.(check string) "prefix preserved" "ab" (Bytes.to_string (Bytes.sub p 0 2));
  Alcotest.(check bool) "no-op when long enough" true (Bytesx.pad_to b 1 == b)

let test_chunks_roundtrip =
  qtest "chunks/concat roundtrip"
    QCheck2.Gen.(pair (int_range 1 40) (int_range 1 8))
    (fun (len, k) ->
      let t = Prng.create (len + (k * 1000)) in
      let b = Prng.bytes t len in
      let size = (len + k - 1) / k in
      let cs = Bytesx.chunks b ~size ~count:k in
      Array.length cs = k
      && Array.for_all (fun c -> Bytes.length c = size) cs
      && Bytes.equal (Bytesx.concat_chunks cs ~len) b)

let test_compact () =
  let buf = Bytes.of_string "xxabcdef" in
  let same = Bytesx.compact buf ~from:2 ~upto:5 ~room:4 in
  Alcotest.(check bool) "fits: the same buffer" true (same == buf);
  Alcotest.(check string) "live bytes at the front" "abc"
    (Bytes.sub_string same 0 3);
  let grown = Bytesx.compact (Bytes.of_string "xxabcdef") ~from:2 ~upto:8 ~room:5 in
  Alcotest.(check bool) "grown: at least twice the size" true
    (Bytes.length grown >= 16);
  Alcotest.(check string) "live bytes kept" "abcdef" (Bytes.sub_string grown 0 6)

let test_hex () =
  Alcotest.(check string) "hex" "00ff10" (Bytesx.hex (Bytes.of_string "\x00\xff\x10"))

let test_hex_roundtrip =
  qtest "hex/of_hex roundtrip" (bytes_gen 24) (fun b ->
      Bytes.equal (Bytesx.of_hex (Bytesx.hex b)) b)

let test_of_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Bytesx.of_hex: odd length")
    (fun () -> ignore (Bytesx.of_hex "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Bytesx.of_hex: not a hex digit")
    (fun () -> ignore (Bytesx.of_hex "zz"));
  Alcotest.(check bytes) "uppercase accepted" (Bytes.of_string "\xab") (Bytesx.of_hex "AB")

let test_hamming () =
  let a = Bytes.of_string "\x00\x0f" and b = Bytes.of_string "\x01\x0e" in
  Alcotest.(check int) "distance" 2 (Bytesx.hamming_distance a b);
  Alcotest.(check int) "zero for equal" 0 (Bytesx.hamming_distance a a)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~title:"T" [ ("a", Table.Left); ("bbb", Table.Right) ] in
  Table.add_row t [ "xx"; "1" ];
  Table.add_int_row t [ 7; 12345 ];
  let s = Table.render t in
  Alcotest.(check bool) "title present" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains rule" true
    (String.exists (fun c -> c = '-') s);
  Alcotest.(check bool) "right-aligned numbers" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> String.length l > 0 && l.[String.length l - 1] = '1') lines)

let test_table_wrong_arity () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "wrong cells"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "x"; "y" ])

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let test_values_distinct =
  qtest "distinct values never collide"
    QCheck2.Gen.(pair (int_bound 500) (int_bound 500))
    (fun (i, j) ->
      let a = Values.distinct ~value_bytes:16 i in
      let b = Values.distinct ~value_bytes:16 j in
      (i = j) = Bytes.equal a b)

let test_values_nonzero =
  qtest "distinct values are never v0" (QCheck2.Gen.int_bound 1000) (fun i ->
      not (Bytes.equal (Values.distinct ~value_bytes:8 i) (Bytes.make 8 '\000')))

let test_values_deterministic () =
  Alcotest.(check bytes) "deterministic"
    (Values.distinct ~value_bytes:32 7)
    (Values.distinct ~value_bytes:32 7)

let test_values_invalid () =
  Alcotest.check_raises "negative" (Invalid_argument "Values.distinct: negative index")
    (fun () -> ignore (Values.distinct ~value_bytes:8 (-1)))

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_prng_split_diverges;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "int covers residues" `Quick test_prng_int_covers;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "bool mixes" `Quick test_prng_bool_mixes;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "pick" `Quick test_prng_pick;
          Alcotest.test_case "bytes length" `Quick test_prng_bytes_len;
        ] );
      ( "bytesx",
        [
          test_xor_involution;
          test_xor_self_zero;
          test_xor_commutes;
          Alcotest.test_case "xor_into mismatch" `Quick test_xor_into_mismatch;
          test_int_le_roundtrip;
          Alcotest.test_case "int overflow" `Quick test_int_le_overflow;
          Alcotest.test_case "pad_to" `Quick test_pad_to;
          test_chunks_roundtrip;
          Alcotest.test_case "compact" `Quick test_compact;
          Alcotest.test_case "hex" `Quick test_hex;
          test_hex_roundtrip;
          Alcotest.test_case "of_hex errors" `Quick test_of_hex_errors;
          Alcotest.test_case "hamming" `Quick test_hamming;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "wrong arity" `Quick test_table_wrong_arity;
        ] );
      ( "values",
        [
          test_values_distinct;
          test_values_nonzero;
          Alcotest.test_case "deterministic" `Quick test_values_deterministic;
          Alcotest.test_case "invalid" `Quick test_values_invalid;
        ] );
    ]
