(* Tests for Sb_schema and its integration with the service codec: the
   golden-schema drift gate (committed schemas/v<N>.json must equal what
   the codec programmatically describes), the schema-driven interpreter
   agreeing byte-for-byte with the codec built from the Layout
   declarations, the static compatibility certifier (v1 <-> v2 proved
   compatible, the seeded incompatible edits refuted with concrete
   counterexamples), and the decode-or-reject property for old-schema
   payloads. *)

module Sch = Sb_schema.Schema
module Compat = Sb_schema.Compat
module W = Sb_service.Wire

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let versions =
  List.init (W.version - W.min_version + 1) (fun i -> W.min_version + i)

let root name (s : Sch.t) =
  match List.assoc_opt name s.Sch.s_roots with
  | Some ty -> ty
  | None -> Alcotest.failf "schema v%d has no root %S" s.Sch.s_version name

(* ------------------------------------------------------------------ *)
(* Golden drift gate                                                    *)
(* ------------------------------------------------------------------ *)

(* dune runtest runs with cwd = the staged test directory; dune exec
   from the project root. *)
let golden_dir =
  List.find_opt Sys.file_exists [ "schemas"; "../schemas"; "../../schemas" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The committed golden description of every supported wire version
   must equal the one the codec produces: a layout edit without a
   version bump (or a forgotten regeneration) fails here, with the
   field-level diff in the failure message. *)
let test_golden_matches_code () =
  let dir =
    match golden_dir with
    | Some d -> d
    | None -> Alcotest.fail "schemas/ directory not found from the test cwd"
  in
  List.iter
    (fun v ->
      let path = Filename.concat dir (Printf.sprintf "v%d.json" v) in
      if not (Sys.file_exists path) then
        Alcotest.failf
          "%s missing — regenerate: spacebounds schema dump --schema-version \
           %d -o %s"
          path v path;
      match Sch.of_json (read_file path) with
      | Error e -> Alcotest.failf "%s unreadable: %s" path e
      | Ok golden ->
        let code = W.schema_v ~version:v in
        if not (Sch.equal golden code) then
          Alcotest.failf "%s drifted from the code:\n  %s" path
            (String.concat "\n  " (Sch.diff golden code)))
    versions

let test_json_roundtrip () =
  List.iter
    (fun v ->
      let s = W.schema_v ~version:v in
      (match Sch.validate s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "schema v%d invalid: %s" v e);
      match Sch.of_json (Sch.to_json s) with
      | Error e -> Alcotest.failf "v%d round-trip parse: %s" v e
      | Ok s' ->
        Alcotest.(check bool)
          (Printf.sprintf "v%d of_json (to_json s) = s" v)
          true (Sch.equal s s');
        Alcotest.(check string)
          (Printf.sprintf "v%d hash stable" v)
          (Sch.hash_hex s) (Sch.hash_hex s'))
    versions

let test_hashes_distinct () =
  Alcotest.(check bool) "v1 and v2 hashes differ" false
    (Sch.hash (W.schema_v ~version:1) = Sch.hash (W.schema_v ~version:2));
  Alcotest.(check string) "Wire.schema_hash is the newest version's hash"
    (Sch.hash_hex W.schema) W.schema_hash_hex;
  Alcotest.(check int) "handshake hash is 16 bytes" 16
    (String.length W.schema_hash)

(* ------------------------------------------------------------------ *)
(* Schema interpreter vs the declared codec                           *)
(* ------------------------------------------------------------------ *)

(* [decode_msg]/[decode_persisted] take the de-framed body: a version
   byte followed by the root's bytes.  [encode_msg] returns the framed
   form (u32 length + body); [unframe] strips the length prefix so the
   two sides compare byte-for-byte. *)
let body_of ~v bytes =
  let f = Bytes.create (1 + Bytes.length bytes) in
  Bytes.set_uint8 f 0 v;
  Bytes.blit bytes 0 f 1 (Bytes.length bytes);
  f

let unframe frame = Bytes.sub frame 4 (Bytes.length frame - 4)

(* Every deterministic witness sample of the msg schema, encoded by the
   schema interpreter, must be accepted by the codec's reader and
   re-encoded by its writer to the exact same frame: the
   description and the codec cannot disagree on a single byte. *)
let test_msg_codec_agreement () =
  List.iter
    (fun v ->
      let ty = root "msg" (W.schema_v ~version:v) in
      let n_ok = ref 0 in
      List.iter
        (fun sample ->
          let body = body_of ~v (Sch.encode ty sample) in
          match W.decode_msg ~max_version:W.version body with
          | Error e ->
            Alcotest.failf "v%d sample %s rejected by the codec: %s" v
              (Format.asprintf "%a" Sch.pp_value sample)
              e
          | Ok m ->
            incr n_ok;
            let re = unframe (W.encode_msg ~version:v m) in
            if re <> body then
              Alcotest.failf "v%d sample %s re-encoded differently" v
                (Format.asprintf "%a" Sch.pp_value sample))
        (Sch.samples ty);
      Alcotest.(check bool)
        (Printf.sprintf "v%d corpus nonempty" v)
        true (!n_ok > 10))
    versions

let test_persisted_codec_agreement () =
  let ty = root "persisted" W.schema in
  List.iter
    (fun sample ->
      let body = body_of ~v:W.version (Sch.encode ty sample) in
      match W.decode_persisted ~max_version:W.version body with
      | Error e ->
        Alcotest.failf "persisted sample rejected: %s (%s)" e
          (Format.asprintf "%a" Sch.pp_value sample)
      | Ok p ->
        let re = unframe (W.encode_persisted ~version:W.version p) in
        Alcotest.(check bool) "persisted re-encode byte-identical" true
          (re = body))
    (Sch.samples ty)

(* ------------------------------------------------------------------ *)
(* Compatibility certifier                                              *)
(* ------------------------------------------------------------------ *)

let test_v1_v2_compatible () =
  let r =
    Compat.check ~old_:(W.schema_v ~version:1) ~new_:(W.schema_v ~version:2)
  in
  if not r.Compat.r_compatible then
    Alcotest.failf "v1 <-> v2 flagged incompatible:\n%s" (Compat.render r);
  Alcotest.(check bool) "no misinterpret cell" true
    (List.for_all
       (fun c -> c.Compat.c_verdict <> Compat.Misinterpret)
       r.Compat.r_cells)

(* The certifier's teeth: both seeded incompatible edits must be
   refuted, and the field transposition must come with a concrete
   counterexample payload that the two schemas decode differently. *)
let test_seeded_edits_refuted () =
  let edits = Compat.seeded_edits W.schema in
  Alcotest.(check bool) "both seeded edits present" true
    (List.length edits >= 2);
  List.iter
    (fun (name, _desc, edited) ->
      let r = Compat.check ~old_:W.schema ~new_:edited in
      if r.Compat.r_compatible then
        Alcotest.failf "seeded edit %S accepted: the certifier lost its teeth"
          name;
      if name = "reordered-welcome-fields" then begin
        let witnesses =
          List.filter_map
            (fun c ->
              if c.Compat.c_verdict = Compat.Misinterpret then
                c.Compat.c_witness
              else None)
            r.Compat.r_cells
        in
        Alcotest.(check bool) "reorder has a MISINTERPRET witness" true
          (witnesses <> []);
        List.iter
          (fun w ->
            Alcotest.(check bool) "witness names the diverging field" true
              (w.Compat.w_diverges <> "");
            Alcotest.(check bool) "witness carries the payload" true
              (w.Compat.w_payload <> "");
            Alcotest.(check bool) "witness shows two decodings" true
              (w.Compat.w_writer <> w.Compat.w_reader))
          witnesses
      end)
    edits

(* ------------------------------------------------------------------ *)
(* Decode-or-reject, never misinterpret, never raise                    *)
(* ------------------------------------------------------------------ *)

(* An old-schema (v1) payload hitting the newest reader either decodes
   to a message that re-encodes at v1 to the exact original frame, or
   is rejected cleanly — there is no third outcome where it decodes to
   a different meaning. *)
let test_v1_payloads_never_misinterpreted () =
  let ty = root "msg" (W.schema_v ~version:1) in
  List.iter
    (fun sample ->
      let body = body_of ~v:1 (Sch.encode ty sample) in
      match W.decode_msg ~max_version:W.version body with
      | Error _ -> () (* clean reject *)
      | Ok m ->
        Alcotest.(check bool) "v1 meaning preserved under the v2 reader" true
          (unframe (W.encode_msg ~version:1 m) = body))
    (Sch.samples ty)

let gen_raw_body =
  QCheck2.Gen.(string_size ~gen:char (0 -- 160))

(* The generic interpreter is total on adversarial bytes: Ok or Error,
   never an exception — and when it accepts, its encoding is canonical
   (re-encode reproduces the input exactly). *)
let test_decode_total_and_canonical =
  qtest "schema decode: total on random bytes, canonical on accept"
    gen_raw_body (fun s ->
      let ty = root "msg" W.schema in
      let buf = Bytes.of_string s in
      match Sch.decode ty buf with
      | Error _ -> true
      | Ok v -> Sch.encode ty v = buf
      | exception e ->
        QCheck2.Test.fail_reportf "schema decode raised %s"
          (Printexc.to_string e))

let () =
  Alcotest.run "schema"
    [
      ( "golden",
        [
          Alcotest.test_case "committed schemas match the code" `Quick
            test_golden_matches_code;
          Alcotest.test_case "JSON round-trip and validate" `Quick
            test_json_roundtrip;
          Alcotest.test_case "version hashes distinct" `Quick
            test_hashes_distinct;
        ] );
      ( "codec-agreement",
        [
          Alcotest.test_case "msg: schema bytes = codec bytes" `Quick
            test_msg_codec_agreement;
          Alcotest.test_case "persisted: schema bytes = codec bytes" `Quick
            test_persisted_codec_agreement;
        ] );
      ( "compat",
        [
          Alcotest.test_case "v1 <-> v2 certified compatible" `Quick
            test_v1_v2_compatible;
          Alcotest.test_case "seeded edits refuted with witnesses" `Quick
            test_seeded_edits_refuted;
        ] );
      ( "decode-or-reject",
        [
          Alcotest.test_case "v1 payloads never misinterpreted" `Quick
            test_v1_payloads_never_misinterpreted;
          test_decode_total_and_canonical;
        ] );
    ]
