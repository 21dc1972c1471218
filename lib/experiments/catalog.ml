module Codec = Sb_codec.Codec
module Common = Sb_registers.Common
module Model = Sb_baseobj.Model

type t =
  | Adaptive
  | Pure_ec
  | Abd
  | Abd_atomic
  | Abd_broken
  | Abd_misdeclared
  | Premature_gc
  | Safe
  | Versioned of int
  | Rateless
  | Rw_regular
  | Rw_fcopy
  | Rw_safe
  | Byz_reg of int

let names =
  [ ("adaptive", Adaptive); ("pure-ec", Pure_ec); ("abd", Abd);
    ("abd-atomic", Abd_atomic); ("abd-broken", Abd_broken);
    ("abd-misdeclared", Abd_misdeclared); ("premature-gc", Premature_gc);
    ("safe", Safe); ("rateless", Rateless); ("rw-regular", Rw_regular);
    ("rw-fcopy", Rw_fcopy); ("rw-safe", Rw_safe) ]

let of_string s =
  let param name mk p =
    match int_of_string_opt p with
    | Some p when p >= 0 -> Ok (mk p)
    | _ -> Error (Printf.sprintf "%s needs a non-negative integer" name)
  in
  match (List.assoc_opt s names, String.split_on_char ':' s) with
  | Some t, _ -> Ok t
  | None, [ "replication" ] -> Ok Abd
  | None, [ "byz-regular" ] -> Ok (Byz_reg 1)
  | None, [ "versioned"; d ] ->
    param "versioned:<delta>" (fun d -> Versioned d) d
  | None, [ "byz-regular"; b ] -> param "byz-regular:<b>" (fun b -> Byz_reg b) b
  | None, _ -> Error (Printf.sprintf "unknown algorithm %S" s)

let to_string = function
  | Versioned d -> Printf.sprintf "versioned:%d" d
  | Byz_reg b -> Printf.sprintf "byz-regular:%d" b
  | t -> fst (List.find (fun (_, t') -> t' = t) names)

let coded_cfg ~value_bytes ~f ~k =
  let n = (2 * f) + k in
  let codec =
    if n <= 256 then Codec.rs_vandermonde ~value_bytes ~k ~n
    else Codec.rs_vandermonde16 ~value_bytes ~k ~n
  in
  { Common.n; f; codec }

let build ~writers t ~value_bytes ~f ~k =
  let replicated n make =
    let cfg = { Common.n; f; codec = Codec.replication ~value_bytes ~n } in
    (make cfg, cfg)
  in
  let coded make =
    let cfg = coded_cfg ~value_bytes ~f ~k in
    (make cfg, cfg)
  in
  let m = (2 * f) + 1 in
  let module R = Sb_registers in
  match t with
  | Abd -> replicated m R.Abd.make
  | Abd_atomic -> replicated m R.Abd_atomic.make
  | Abd_broken -> replicated m (R.Abd.make_broken ~quorum_slack:1)
  | Abd_misdeclared -> replicated m R.Abd.make_misdeclared_merge
  | Rw_regular -> replicated (writers * m) (R.Rw_replica.make ~writers)
  | Rw_fcopy -> replicated (writers * m) (R.Rw_replica.make_fcopy ~writers)
  | Byz_reg b -> replicated (m + (2 * b)) (R.Byz_regular.make ~budget:b)
  | Adaptive -> coded R.Adaptive.make
  | Pure_ec -> coded R.Adaptive.make_unbounded
  | Premature_gc -> coded R.Adaptive.make_premature_gc
  | Versioned delta -> coded (R.Adaptive.make_versioned ~delta)
  | Safe -> coded R.Safe_register.make
  | Rw_safe -> coded R.Rw_replica.make_safe
  | Rateless -> coded (fun cfg -> R.Rateless.make ~codec_seed:7 cfg)

let code_k t ~k =
  match t with
  | Abd | Abd_atomic | Abd_broken | Abd_misdeclared | Rw_regular | Rw_fcopy
  | Byz_reg _ -> 1
  | Adaptive | Pure_ec | Premature_gc | Versioned _ | Safe | Rw_safe | Rateless
    -> k

let base_model = function
  | Rw_regular | Rw_fcopy | Rw_safe -> Model.Read_write
  | Byz_reg b -> Model.Byzantine { budget = b }
  | _ -> Model.Rmw

let check_live t =
  match base_model t with
  | Model.Rmw -> Ok ()
  | m ->
    Error
      (Printf.sprintf
         "%s is written for %s base objects; the live service runs rmw objects only"
         (to_string t) (Model.to_string m))

let single_writer = function Rw_safe | Byz_reg _ -> true | _ -> false

let check_writers t ~writers =
  if single_writer t && writers > 1 then
    Error
      (Printf.sprintf "%s is a single-writer emulation; rerun with --writers 1"
         (to_string t))
  else Ok ()

type level = [ `Weak | `Strong | `Safe | `Atomic ]

let level = function
  | Abd_atomic -> `Atomic
  | Safe | Rw_safe -> `Safe
  | _ -> `Strong

let level_name : level -> string = function
  | `Weak -> "weak"
  | `Strong -> "strong"
  | `Safe -> "safe"
  | `Atomic -> "atomic"

let checker : level -> _ = function
  | `Weak -> Sb_spec.Regularity.check_weak
  | `Strong -> Sb_spec.Regularity.check_strong
  | `Safe -> Sb_spec.Regularity.check_safe
  | `Atomic -> Sb_spec.Regularity.check_atomic ?budget:None

let reg_avail = function
  | Adaptive | Pure_ec | Abd | Abd_atomic | Premature_gc | Rw_regular
  | Byz_reg _ -> true
  | Abd_broken | Abd_misdeclared | Safe | Versioned _ | Rateless | Rw_fcopy
  | Rw_safe -> false

let storage_floor ~writers t ~value_bytes ~f =
  match t with
  | Rw_regular | Rw_fcopy -> Some (writers * (f + 1), 8 * value_bytes)
  | Byz_reg _ -> Some (f + 1, 8 * value_bytes)
  | _ -> None

let bounded t = (t = Adaptive)
