type rule = Nondet | Poly_compare | Marshal | Hashtbl_order | Wire_catchall

let all_rules = [ Nondet; Poly_compare; Marshal; Hashtbl_order; Wire_catchall ]

let rule_name = function
  | Nondet -> "nondet"
  | Poly_compare -> "poly-compare"
  | Marshal -> "marshal"
  | Hashtbl_order -> "hashtbl-order"
  | Wire_catchall -> "wire-catchall"

let rule_of_name s = List.find_opt (fun r -> rule_name r = s) all_rules

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : rule;
  f_message : string;
  f_allowed : string option;
}

type report = {
  rp_files : int;
  rp_findings : finding list;
  rp_errors : (string * string) list;
}

let active f = f.f_allowed = None
let failures rp = List.filter active rp.rp_findings

(* ------------------------------------------------------------------ *)
(* Pragmas                                                             *)
(* ------------------------------------------------------------------ *)

type pragma = { p_line : int; p_rule : rule; p_reason : string }

let is_sep c = c = ' ' || c = '\t' || c = '-' || c = ':'

(* Strip leading separators including a UTF-8 em-dash, and the trailing
   comment close. *)
let clean_reason s =
  let n = String.length s in
  let i = ref 0 in
  let advancing = ref true in
  while !advancing do
    if !i < n && is_sep s.[!i] then incr i
    else if !i + 3 <= n && String.sub s !i 3 = "\xe2\x80\x94" then i := !i + 3
    else advancing := false
  done;
  let s = String.sub s !i (n - !i) in
  let s =
    match String.index_opt s '*' with
    | Some j when j + 1 < String.length s && s.[j + 1] = ')' -> String.sub s 0 j
    | _ -> s
  in
  String.trim s

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let contains hay needle = find_sub hay needle <> None

let scan_pragmas src =
  let pragmas = ref [] in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i line ->
      match find_sub line "sb-lint:" with
      | None -> ()
      | Some j -> (
        let rest = String.sub line (j + 8) (String.length line - j - 8) in
        let rest = String.trim rest in
        match String.index_opt rest ' ' with
        | Some k when String.sub rest 0 k = "allow" -> (
          let rest = String.trim (String.sub rest k (String.length rest - k)) in
          let name_len =
            let rec go n =
              if n < String.length rest && (rest.[n] = '-' || (rest.[n] >= 'a' && rest.[n] <= 'z'))
              then go (n + 1)
              else n
            in
            go 0
          in
          match rule_of_name (String.sub rest 0 name_len) with
          | Some r ->
            let reason =
              clean_reason (String.sub rest name_len (String.length rest - name_len))
            in
            pragmas := { p_line = i + 1; p_rule = r; p_reason = reason } :: !pragmas
          | None -> ())
        | _ -> ()))
    lines;
  List.rev !pragmas

let apply_pragmas pragmas findings =
  List.map
    (fun f ->
      let covering =
        List.find_opt
          (fun p ->
            p.p_rule = f.f_rule && (p.p_line = f.f_line || p.p_line = f.f_line - 1))
          pragmas
      in
      match covering with
      | Some p ->
        { f with f_allowed = Some (if p.p_reason = "" then "(no reason)" else p.p_reason) }
      | None -> f)
    findings

(* ------------------------------------------------------------------ *)
(* The AST pass                                                        *)
(* ------------------------------------------------------------------ *)

(* Type names whose values must never meet polymorphic [=]/[<>]: the
   RMW descriptions, object states and their components.  Matched
   against explicit annotations ([let equal (a : t) (b : t) = ...]); the
   lint is syntactic, so unannotated flows are out of scope — the
   negative fixtures pin what it does catch. *)
let watched_type_names =
  [
    "t"; "desc"; "Rmwdesc.t"; "D.t"; "Objstate.t"; "Chunk.t"; "Block.t";
    "Timestamp.t"; "Sb_sim.Rmwdesc.t"; "Sb_storage.Objstate.t";
    "Sb_storage.Timestamp.t";
  ]

let collect ~rules ~filename src =
  let findings = ref [] in
  let watched_vars : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let shadowed : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let on r = List.mem r rules in
  let flag loc r msg =
    if on r then begin
      let p = loc.Location.loc_start in
      findings :=
        {
          f_file = filename;
          f_line = p.Lexing.pos_lnum;
          f_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
          f_rule = r;
          f_message = msg;
          f_allowed = None;
        }
        :: !findings
    end
  in
  let type_watched (ct : Parsetree.core_type) =
    match ct.ptyp_desc with
    | Parsetree.Ptyp_constr (lid, _) -> (
      match try Some (Longident.flatten lid.txt) with _ -> None with
      | Some parts -> List.mem (String.concat "." parts) watched_type_names
      | None -> false)
    | _ -> false
  in
  let check_longident lid loc =
    let parts = try Longident.flatten lid with _ -> [] in
    let parts = match parts with "Stdlib" :: rest -> rest | p -> p in
    match parts with
    | [ "Random"; _ ] ->
      flag loc Nondet
        "process-global Random in a protocol core; draw from the world's seeded \
         Sb_util.Prng"
    | [ "Unix"; ("time" | "gettimeofday") ] | [ "Sys"; "time" ] ->
      flag loc Nondet "wall-clock read in a protocol core breaks deterministic replay"
    | [ "Marshal"; _ ] ->
      flag loc Marshal
        "Marshal digests are representation-dependent; only the in-process \
         Runtime.fingerprint and Runtime.audit_key digests may use them"
    | [ "Hashtbl"; ("iter" | "fold") ] ->
      flag loc Hashtbl_order
        "Hashtbl iteration order depends on insertion history; order-sensitive \
         accumulation diverges on logically equal worlds"
    | [ "Hashtbl"; ("hash" | "seeded_hash") ] ->
      flag loc Poly_compare "polymorphic Hashtbl.hash is not a stable key"
    | [ "compare" ] when not (Hashtbl.mem shadowed "compare") ->
      flag loc Poly_compare
        "bare polymorphic compare; use the type's own compare (Timestamp.compare, \
         Int.compare, ...)"
    | _ -> ()
  in
  let default = Ast_iterator.default_iterator in
  let pat it (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Parsetree.Ppat_constraint ({ ppat_desc = Parsetree.Ppat_var v; _ }, ct)
      when type_watched ct ->
      Hashtbl.replace watched_vars v.txt ()
    | _ -> ());
    default.pat it p
  in
  let structure_item it (si : Parsetree.structure_item) =
    (match si.pstr_desc with
    | Parsetree.Pstr_value (_, vbs) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          match vb.pvb_pat.ppat_desc with
          | Parsetree.Ppat_var { txt = "compare"; _ } -> Hashtbl.replace shadowed "compare" ()
          | _ -> ())
        vbs
    | _ -> ());
    default.structure_item it si
  in
  let expr it (e : Parsetree.expression) =
    match e.pexp_desc with
    | Parsetree.Pexp_apply
        ( { pexp_desc = Parsetree.Pexp_ident { txt = Longident.Lident (("=" | "<>" | "==" | "!=") as op); _ };
            pexp_loc = oploc;
            _;
          },
          args ) ->
      let watched_arg =
        List.exists
          (fun (_, (a : Parsetree.expression)) ->
            match a.pexp_desc with
            | Parsetree.Pexp_ident { txt = Longident.Lident x; _ } ->
              Hashtbl.mem watched_vars x
            | _ -> false)
          args
      in
      if watched_arg then
        flag oploc Poly_compare
          (Printf.sprintf
             "polymorphic (%s) on a value of a watched protocol type (desc/state/\
              timestamp); use a dedicated equality"
             op);
      (* Iterate the arguments only: visiting the operator identifier
         itself would double-report every comparison as a first-class
         use. *)
      List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
    | Parsetree.Pexp_match (scrut, cases) ->
      (* A match whose scrutinee is a wire discriminant (an identifier
         mentioning "tag" or "version") with a [_] arm: the arm
         swallows tags the codec does not know, which is exactly how a
         schema bump turns into silent misdecoding instead of a typed
         reject.  Bind the value ([| n -> ...]) and reject it. *)
      let is_discriminant (e : Parsetree.expression) =
        match e.pexp_desc with
        | Parsetree.Pexp_ident { txt; _ } -> (
          match try Longident.flatten txt with _ -> [] with
          | [] -> false
          | parts ->
            let last =
              String.lowercase_ascii (List.nth parts (List.length parts - 1))
            in
            contains last "tag" || contains last "version")
        | _ -> false
      in
      if is_discriminant scrut then
        List.iter
          (fun (c : Parsetree.case) ->
            match c.pc_lhs.ppat_desc with
            | Parsetree.Ppat_any ->
              flag c.pc_lhs.ppat_loc Wire_catchall
                "catch-all _ arm on a wire tag/version match accepts unknown \
                 discriminants silently; bind the value and reject it \
                 explicitly"
            | _ -> ())
          cases;
      default.expr it e
    | _ ->
      (match e.pexp_desc with
      | Parsetree.Pexp_ident { txt; _ } -> check_longident txt e.pexp_loc
      | _ -> ());
      default.expr it e
  in
  let it = { default with expr; pat; structure_item } in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf filename;
  let str = Parse.implementation lexbuf in
  it.structure it str;
  List.rev !findings

let sort_findings fs =
  List.sort
    (fun a b ->
      match compare (a.f_line : int) b.f_line with
      | 0 -> compare (a.f_col : int) b.f_col
      | c -> c)
    fs

let lint_source ?(rules = all_rules) ~filename src =
  match collect ~rules ~filename src with
  | findings -> sort_findings (apply_pragmas (scan_pragmas src) findings)
  | exception _ -> []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ?(rules = all_rules) path =
  match read_file path with
  | exception Sys_error e -> Error e
  | src -> (
    match collect ~rules ~filename:path src with
    | findings -> Ok (sort_findings (apply_pragmas (scan_pragmas src) findings))
    | exception e -> Error (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Path scoping                                                        *)
(* ------------------------------------------------------------------ *)

let ends_with path suffix =
  let np = String.length path and ns = String.length suffix in
  np >= ns && String.sub path (np - ns) ns = suffix

let protocol_core path =
  List.exists (contains path)
    [ "lib/sim/"; "lib/registers/"; "lib/storage/"; "lib/quorums/"; "lib/msgnet/";
      "lib/spec/"; "lib/kv/" ]
  || List.exists (ends_with path)
       [ "lib/service/wire.ml"; "lib/schema/layout.ml"; "lib/service/server_core.ml";
         "lib/service/client_core.ml"; "lib/service/conn.ml" ]

let rules_for path =
  let core = protocol_core path in
  let sanitizer = contains path "lib/sanitize/" in
  let wire = contains path "lib/service/" || ends_with path "lib/schema/layout.ml" in
  (if core then [ Nondet; Poly_compare; Hashtbl_order ] else [])
  @ (if sanitizer then [ Hashtbl_order ] else [])
  @ (if wire then [ Wire_catchall ] else [])
  @ [ Marshal ]

let rec walk dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        if entry = "" || entry.[0] = '.' || entry = "_build" then acc
        else
          let path = Filename.concat dir entry in
          if Sys.is_directory path then walk path acc
          else if Filename.check_suffix entry ".ml" then path :: acc
          else acc)
      acc entries

let lint_tree ~root =
  let files = List.rev (walk root []) in
  let findings, errors =
    List.fold_left
      (fun (fs, errs) path ->
        match lint_file ~rules:(rules_for path) path with
        | Ok f -> (fs @ f, errs)
        | Error e -> (fs, (path, e) :: errs))
      ([], []) files
  in
  { rp_files = List.length files; rp_findings = findings; rp_errors = List.rev errors }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d [%s] %s" f.f_file f.f_line f.f_col (rule_name f.f_rule)
    f.f_message;
  match f.f_allowed with
  | Some reason -> Format.fprintf ppf " (allowed: %s)" reason
  | None -> ()

let pp_report ppf rp =
  let act = failures rp in
  let allowed = List.filter (fun f -> not (active f)) rp.rp_findings in
  Format.fprintf ppf "@[<v>%d files scanned: %d finding(s), %d allowed by pragma@ "
    rp.rp_files (List.length act) (List.length allowed);
  List.iter (fun f -> Format.fprintf ppf "%a@ " pp_finding f) act;
  List.iter (fun f -> Format.fprintf ppf "%a@ " pp_finding f) allowed;
  List.iter
    (fun (file, e) -> Format.fprintf ppf "%s: parse error: %s@ " file e)
    rp.rp_errors;
  Format.fprintf ppf "@]"
