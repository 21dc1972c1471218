open Sb_storage
module D = Sb_sim.Rmwdesc
module U = Universe

type nature = [ `Mutating | `Readonly | `Merge ]

type counterexample = {
  cx_state : Objstate.t;
  cx_d1 : D.t;
  cx_d2 : D.t option;
  cx_detail : string;
}

type verdict = Proved | Refuted of counterexample

type entry = {
  en_ctor : U.ctor;
  en_readonly : verdict;
  en_idempotent : verdict;
  en_self_commute : verdict;
  en_declared : nature;
  en_certified : nature;
}

type t = {
  entries : entry list;
  pairs : ((U.ctor * U.ctor) * verdict) list;
  n_states : int;
  n_descs : int;
  applies : int;
}

(* ------------------------------------------------------------------ *)
(* Structural state/response equality                                  *)
(* ------------------------------------------------------------------ *)

(* Literal equality, deliberately: DPOR's independence needs the two
   orders to reach the {e same} world state (the audit key and the
   replay fingerprint digest chunk lists as they are), so set-equal-
   but-reordered piece lists do not count as commuting. *)
let equal_block (a : Block.t) (b : Block.t) =
  a.Block.source = b.Block.source
  && a.Block.index = b.Block.index
  && Bytes.equal a.Block.data b.Block.data

let equal_chunk (a : Chunk.t) (b : Chunk.t) =
  Timestamp.equal a.Chunk.ts b.Chunk.ts && equal_block a.Chunk.block b.Chunk.block

let equal_state (a : Objstate.t) (b : Objstate.t) =
  Timestamp.equal a.Objstate.stored_ts b.Objstate.stored_ts
  && List.equal equal_chunk a.vp b.vp
  && List.equal equal_chunk a.vf b.vf

let equal_resp a b =
  match (a, b) with
  | D.Ack, D.Ack -> true
  | D.Snap a, D.Snap b -> equal_state a b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Property sweeps                                                     *)
(* ------------------------------------------------------------------ *)

let applies = ref 0

let apply d s =
  incr applies;
  D.apply d s

(* [sweep states f] returns the first counterexample [f] reports. *)
let sweep states f =
  let n = Array.length states in
  let rec go i = if i >= n then Proved else
    match f states.(i) with
    | None -> go (i + 1)
    | Some cx -> Refuted cx
  in
  go 0

let readonly_on states d =
  sweep states (fun s ->
      let s', _ = apply d s in
      if equal_state s s' then None
      else Some { cx_state = s; cx_d1 = d; cx_d2 = None; cx_detail = "state changed" })

let idempotent_on states d =
  sweep states (fun s ->
      let s1, _ = apply d s in
      let s2, _ = apply d s1 in
      if equal_state s1 s2 then None
      else
        Some
          {
            cx_state = s;
            cx_d1 = d;
            cx_d2 = None;
            cx_detail = "second application changed the state again";
          })

(* Commutation of a single descriptor pair on a single state: both
   orders must reach the same state and hand each RMW the same
   response (the [`Merge] contract of [Runtime.rmw_nature]). *)
let commute_point s d1 d2 =
  let s1, r1 = apply d1 s in
  let s12, r2 = apply d2 s1 in
  let s2, r2' = apply d2 s in
  let s21, r1' = apply d1 s2 in
  if not (equal_state s12 s21) then
    Some { cx_state = s; cx_d1 = d1; cx_d2 = Some d2; cx_detail = "final states differ" }
  else if not (equal_resp r1 r1') then
    Some
      {
        cx_state = s;
        cx_d1 = d1;
        cx_d2 = Some d2;
        cx_detail = "first RMW's response depends on the order";
      }
  else if not (equal_resp r2 r2') then
    Some
      {
        cx_state = s;
        cx_d1 = d1;
        cx_d2 = Some d2;
        cx_detail = "second RMW's response depends on the order";
      }
  else None

(* All (d1, d2) with d1 from [fam1], d2 from [fam2], over all states.
   Commutation is symmetric in the pair, so the same-family case only
   scans the upper triangle. *)
let commute_families states fam1 fam2 ~same =
  let n1 = Array.length fam1 and n2 = Array.length fam2 in
  let result = ref Proved in
  (try
     for i = 0 to n1 - 1 do
       let j0 = if same then i else 0 in
       for j = j0 to n2 - 1 do
         match sweep states (fun s -> commute_point s fam1.(i) fam2.(j)) with
         | Proved -> ()
         | Refuted _ as r ->
           result := r;
           raise Exit
       done
     done
   with Exit -> ());
  !result

(* ------------------------------------------------------------------ *)
(* Certified natures                                                   *)
(* ------------------------------------------------------------------ *)

let find_pair pairs a b =
  let eq (x, y) = (x = a && y = b) || (x = b && y = a) in
  match List.find_opt (fun (k, _) -> eq k) pairs with
  | Some (_, v) -> v
  | None -> invalid_arg "Certify: missing matrix cell"

(* The greatest set of idempotent, self-commuting, non-readonly
   constructors that commute pairwise: iteratively drop every member
   that fails to commute with another member until nothing changes.
   Any two constructors certified [`Merge] therefore commute — exactly
   what DPOR's merge/merge delivery rule assumes of declarations. *)
let merge_set pairs candidates =
  let rec fix set =
    let bad c =
      List.exists
        (fun c' -> match find_pair pairs c c' with Refuted _ -> true | Proved -> false)
        set
    in
    let set' = List.filter (fun c -> not (bad c)) set in
    if List.length set' = List.length set then set else fix set'
  in
  fix candidates

let rep_desc u c = (U.family u c).(0)

let run ?universe () =
  let u = match universe with Some u -> u | None -> U.default () in
  applies := 0;
  let states = u.U.states in
  let prop_entries =
    List.map
      (fun c ->
        let fam = U.family u c in
        let readonly =
          let rec go i =
            if i >= Array.length fam then Proved
            else match readonly_on states fam.(i) with
              | Proved -> go (i + 1)
              | r -> r
          in
          go 0
        in
        let idempotent =
          let rec go i =
            if i >= Array.length fam then Proved
            else match idempotent_on states fam.(i) with
              | Proved -> go (i + 1)
              | r -> r
          in
          go 0
        in
        (c, readonly, idempotent))
      U.all_ctors
  in
  let ctor_index c =
    let rec go i = function
      | [] -> assert false
      | x :: rest -> if x = c then i else go (i + 1) rest
    in
    go 0 U.all_ctors
  in
  let pairs =
    List.concat_map
      (fun c1 ->
        List.filter_map
          (fun c2 ->
            if ctor_index c2 >= ctor_index c1 then
              Some
                ( (c1, c2),
                  commute_families states (U.family u c1) (U.family u c2)
                    ~same:(c1 = c2) )
            else None)
          U.all_ctors)
      U.all_ctors
  in
  let self_commute c = find_pair pairs c c in
  let readonly_of c =
    let _, r, _ = List.find (fun (c', _, _) -> c' = c) prop_entries in
    r
  in
  let idempotent_of c =
    let _, _, r = List.find (fun (c', _, _) -> c' = c) prop_entries in
    r
  in
  let merge_candidates =
    List.filter
      (fun c ->
        readonly_of c <> Proved
        && idempotent_of c = Proved
        && self_commute c = Proved)
      U.all_ctors
  in
  let merges = merge_set pairs merge_candidates in
  let certified c =
    if readonly_of c = Proved then `Readonly
    else if List.mem c merges then `Merge
    else `Mutating
  in
  let entries =
    List.map
      (fun c ->
        {
          en_ctor = c;
          en_readonly = readonly_of c;
          en_idempotent = idempotent_of c;
          en_self_commute = self_commute c;
          en_declared = D.default_nature (rep_desc u c);
          en_certified = certified c;
        })
      U.all_ctors
  in
  {
    entries;
    pairs;
    n_states = Array.length states;
    n_descs = List.length (U.descs u);
    applies = !applies;
  }

let commutes t a b = find_pair t.pairs a b

let entry t c =
  match List.find_opt (fun e -> e.en_ctor = c) t.entries with
  | Some e -> e
  | None -> invalid_arg "Certify: unknown constructor"

let certified_nature t c = (entry t c).en_certified

let check_declaration t c ~claimed =
  match claimed with
  | `Mutating -> Ok ()
  | `Readonly -> (
    match (entry t c).en_readonly with Proved -> Ok () | Refuted cx -> Error cx)
  | `Merge ->
    let e = entry t c in
    let declared_merges =
      List.filter (fun e -> e.en_declared = `Merge) t.entries
      |> List.map (fun e -> e.en_ctor)
    in
    let partners = List.sort_uniq Stdlib.compare (c :: declared_merges) in
    let rec first_refuted = function
      | [] -> None
      | p :: rest -> (
        match commutes t c p with Refuted cx -> Some cx | Proved -> first_refuted rest)
    in
    (match e.en_idempotent with
    | Refuted cx -> Error cx
    | Proved -> (
      match first_refuted partners with Some cx -> Error cx | None -> Ok ()))

let check_defaults t =
  List.filter_map
    (fun e ->
      if e.en_declared = e.en_certified then None
      else Some (e.en_ctor, e.en_declared, e.en_certified))
    t.entries

let nature_name = function
  | `Mutating -> "mutating"
  | `Readonly -> "readonly"
  | `Merge -> "merge"

let audit_explore_independence t =
  let natures : nature list = [ `Mutating; `Readonly; `Merge ] in
  let of_nature n =
    List.filter (fun e -> e.en_certified = n) t.entries |> List.map (fun e -> e.en_ctor)
  in
  List.concat_map
    (fun n1 ->
      List.concat_map
        (fun n2 ->
          if not (Sb_modelcheck.Explore.natures_commute n1 n2) then []
          else
            List.concat_map
              (fun c1 ->
                List.filter_map
                  (fun c2 ->
                    match commutes t c1 c2 with
                    | Proved -> None
                    | Refuted cx ->
                      Some
                        (Format.asprintf
                           "DPOR treats %s/%s deliveries as commuting, but %s x %s \
                            is refuted: %s on state %a"
                           (nature_name n1) (nature_name n2) (U.ctor_name c1)
                           (U.ctor_name c2) cx.cx_detail Objstate.pp cx.cx_state))
                  (of_nature n2))
              (of_nature n1))
        natures)
    natures

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_counterexample ppf cx =
  (match cx.cx_d2 with
  | None -> Format.fprintf ppf "@[<v2>%s:@ desc : %a@ " cx.cx_detail D.pp cx.cx_d1
  | Some d2 ->
    Format.fprintf ppf "@[<v2>%s:@ d1   : %a@ d2   : %a@ " cx.cx_detail D.pp cx.cx_d1
      D.pp d2);
  Format.fprintf ppf "state: %a@]" Objstate.pp cx.cx_state

let mark = function Proved -> "yes" | Refuted _ -> "no"

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "RMW algebra over %d states x %d descriptors (%d interpreter evaluations)@ @ "
    t.n_states t.n_descs t.applies;
  Format.fprintf ppf "%-16s %-9s %-9s %-9s %-9s %-9s@ " "constructor" "declared"
    "certified" "readonly" "idempot." "self-comm";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-16s %-9s %-9s %-9s %-9s %-9s@ " (U.ctor_name e.en_ctor)
        (nature_name e.en_declared) (nature_name e.en_certified) (mark e.en_readonly)
        (mark e.en_idempotent) (mark e.en_self_commute))
    t.entries;
  Format.fprintf ppf "@ pairwise commutation (upper triangle):@ ";
  List.iter
    (fun ((c1, c2), v) ->
      Format.fprintf ppf "  %-16s x %-16s %s@ " (U.ctor_name c1) (U.ctor_name c2)
        (mark v))
    t.pairs;
  let mismatches = check_defaults t in
  if mismatches <> [] then begin
    Format.fprintf ppf "@ declared/certified mismatches:@ ";
    List.iter
      (fun (c, d, cert) ->
        Format.fprintf ppf "  %s: declared %s, certified %s@ " (U.ctor_name c)
          (nature_name d) (nature_name cert))
      mismatches
  end;
  Format.fprintf ppf "@]"
