open History

(* ------------------------------------------------------------------ *)
(* Structured counterexamples                                          *)
(* ------------------------------------------------------------------ *)

type reason =
  | Bottom_read
  | Unwritten_value
  | Ambiguous_value
  | Stale_initial of { completed_write : int }
  | Future_write of { write : int }
  | Intervening_write of { returned : int; between : int }
  | Order_cycle of int list
  | Not_linearizable
  | Search_budget of { explored : int }

type counterexample = {
  cx_read : int option;
  cx_reason : reason;
  cx_order : int list;
  cx_edge : (int * int) option;
}

type verdict = Ok | Violation of counterexample

let ok = function Ok -> true | Violation _ -> false

let node_name n = if n = 0 then "w0(v0)" else Printf.sprintf "op%d" n

let reason_to_string ~read reason =
  let rd = match read with Some r -> Printf.sprintf "read op%d" r | None -> "history" in
  match reason with
  | Bottom_read -> Printf.sprintf "%s returned bottom" rd
  | Unwritten_value -> Printf.sprintf "%s returned a value never written" rd
  | Ambiguous_value ->
    Printf.sprintf "%s returned a value written more than once; use distinct values" rd
  | Stale_initial { completed_write } ->
    Printf.sprintf "%s returned v0 but write op%d completed before it" rd completed_write
  | Future_write { write } ->
    Printf.sprintf "%s returned the value of write op%d invoked after it" rd write
  | Intervening_write { returned; between } ->
    Printf.sprintf "%s returned write op%d, but write op%d fits between them" rd
      returned between
  | Order_cycle cycle ->
    Printf.sprintf "no single write order satisfies all reads (cycle %s)"
      (String.concat " -> " (List.map node_name cycle))
  | Not_linearizable -> "history is not linearizable"
  | Search_budget { explored } ->
    Printf.sprintf
      "linearizability search exhausted its budget after %d states (inconclusive)"
      explored

let to_string cx =
  let base = reason_to_string ~read:cx.cx_read cx.cx_reason in
  let order =
    match cx.cx_order with
    | [] -> ""
    | o ->
      Printf.sprintf "; candidate write order: %s"
        (String.concat " < " (List.map node_name o))
  in
  let edge =
    match cx.cx_edge with
    | None -> ""
    | Some (u, v) ->
      Printf.sprintf "; violated constraint: %s must precede %s" (node_name u)
        (node_name v)
  in
  base ^ order ^ edge

let pp_counterexample ppf cx = Format.pp_print_string ppf (to_string cx)

let pp_verdict ppf = function
  | Ok -> Format.fprintf ppf "ok"
  | Violation cx -> Format.fprintf ppf "violation: %s" (to_string cx)

let mk ?read ?(order = []) ?edge reason =
  Violation { cx_read = read; cx_reason = reason; cx_order = order; cx_edge = edge }

(* A candidate write order for counterexample reports: invocation order,
   which extends real-time precedence among the completed writes. *)
let invocation_order h =
  0
  :: (List.sort (fun a b -> Int.compare a.w_inv b.w_inv) h.writes
     |> List.map (fun w -> w.w_op))

(* The write (if any) a returned read should be attributed to.  [`Initial]
   is the virtual write of v0.  Ambiguous attribution (the same value
   written twice, or v0 also written explicitly) is resolved towards the
   real write when one exists uniquely. *)
let attribute h (r : read) =
  match r.result with
  | None -> Error Bottom_read
  | Some v -> (
    match List.filter (fun w -> Bytes.equal w.value v) h.writes with
    | [ w ] -> Stdlib.Ok (`Write w)
    | [] -> if Bytes.equal v h.initial then Stdlib.Ok `Initial else Error Unwritten_value
    | _ :: _ :: _ -> Error Ambiguous_value)

(* Writes that completed before [r] was invoked. *)
let writes_before h (r : read) =
  List.filter (fun w -> precedes w.w_ret r.r_inv) h.writes

(* ------------------------------------------------------------------ *)
(* Weak regularity                                                     *)
(* ------------------------------------------------------------------ *)

let check_read_weak h (r : read) =
  let order = invocation_order h in
  match attribute h r with
  | Error reason -> mk ~read:r.r_op reason
  | Stdlib.Ok `Initial ->
    (match writes_before h r with
     | [] -> Ok
     | w :: _ ->
       mk ~read:r.r_op ~order ~edge:(w.w_op, 0)
         (Stale_initial { completed_write = w.w_op }))
  | Stdlib.Ok (`Write w) ->
    if precedes r.r_ret w.w_inv then
      mk ~read:r.r_op ~order (Future_write { write = w.w_op })
    else (
      (* No write may fit entirely between w and the read. *)
      match
        List.find_opt
          (fun w' -> precedes w.w_ret w'.w_inv && precedes w'.w_ret r.r_inv)
          h.writes
      with
      | Some w' ->
        mk ~read:r.r_op ~order ~edge:(w'.w_op, w.w_op)
          (Intervening_write { returned = w.w_op; between = w'.w_op })
      | None -> Ok)

let check_weak h =
  List.fold_left
    (fun acc r -> match acc with Ok -> check_read_weak h r | v -> v)
    Ok (completed_reads h)

(* ------------------------------------------------------------------ *)
(* Strong regularity: one write order for all reads                    *)
(* ------------------------------------------------------------------ *)

(* Constraint graph over write ops (node 0 = the virtual initial write).
   An edge u -> v means u must precede v in the common write order. *)
module Graph = struct
  type t = { nodes : int list; edges : (int, int list) Hashtbl.t }

  let create nodes = { nodes; edges = Hashtbl.create 16 }

  let add_edge g u v =
    let cur = Option.value ~default:[] (Hashtbl.find_opt g.edges u) in
    if not (List.mem v cur) then Hashtbl.replace g.edges u (v :: cur)

  (* Returns the node path of a cycle ([u; ...; u]), if one exists. *)
  let find_cycle g =
    let state = Hashtbl.create 16 in
    (* 0 = in progress, 1 = done *)
    let cycle = ref None in
    let rec visit stack u =
      match Hashtbl.find_opt state u with
      | Some 0 ->
        (* [u] is on the DFS stack: the cycle is the stack segment from
           the previous occurrence of [u] down to here. *)
        let rec take acc = function
          | [] -> acc
          | v :: rest -> if v = u then v :: acc else take (v :: acc) rest
        in
        cycle := Some (take [ u ] stack)
      | Some _ -> ()
      | None ->
        Hashtbl.replace state u 0;
        List.iter
          (fun v -> if !cycle = None then visit (u :: stack) v)
          (Option.value ~default:[] (Hashtbl.find_opt g.edges u));
        Hashtbl.replace state u 1
    in
    List.iter (fun u -> if !cycle = None then visit [] u) g.nodes;
    !cycle
end

let strong_constraints h ~only_quiescent_reads =
  let g = Graph.create (0 :: List.map (fun w -> w.w_op) h.writes) in
  (* Real-time order among writes, and the initial write before all. *)
  List.iter
    (fun w ->
      Graph.add_edge g 0 w.w_op;
      List.iter
        (fun w' -> if precedes w.w_ret w'.w_inv then Graph.add_edge g w.w_op w'.w_op)
        h.writes)
    h.writes;
  let has_concurrent_write (r : read) =
    List.exists
      (fun w ->
        (not (precedes w.w_ret r.r_inv))
        && not (precedes r.r_ret w.w_inv))
      h.writes
  in
  let constrain_read (r : read) =
    match attribute h r with
    | Error reason -> Some (mk ~read:r.r_op reason)
    | Stdlib.Ok target ->
      let target_node = match target with `Initial -> 0 | `Write w -> w.w_op in
      (match target with
       | `Write w when precedes r.r_ret w.w_inv ->
         Some
           (mk ~read:r.r_op ~order:(invocation_order h)
              (Future_write { write = w.w_op }))
       | _ ->
         (* Every write completed before the read must not come after the
            returned write in the common order. *)
         List.iter
           (fun w' ->
             if w'.w_op <> target_node then Graph.add_edge g w'.w_op target_node)
           (writes_before h r);
         None)
  in
  let violations =
    List.filter_map
      (fun r ->
        if only_quiescent_reads && has_concurrent_write r then None
        else constrain_read r)
      (completed_reads h)
  in
  (g, violations)

let check_with_graph h ~only_quiescent_reads =
  let g, violations = strong_constraints h ~only_quiescent_reads in
  match violations with
  | v :: _ -> v
  | [] -> (
    match Graph.find_cycle g with
    | Some cycle ->
      let edge = match cycle with u :: v :: _ -> Some (u, v) | _ -> None in
      mk ?edge (Order_cycle cycle)
    | None -> Ok)

let check_strong h = check_with_graph h ~only_quiescent_reads:false

let check_safe h =
  (* A read with concurrent writes may return anything, but the value
     must still be attributable (bottom is never allowed). *)
  let bottom =
    List.find_opt (fun r -> r.result = None) (completed_reads h)
  in
  match bottom with
  | Some r -> mk ~read:r.r_op Bottom_read
  | None -> check_with_graph h ~only_quiescent_reads:true

(* ------------------------------------------------------------------ *)
(* Atomicity (linearizability) via Wing & Gong search                  *)
(* ------------------------------------------------------------------ *)

exception Budget_spent

let check_atomic ?(budget = 5_000_000) h =
  let ops =
    List.map (fun w -> `W w) h.writes @ List.map (fun r -> `R r) h.reads
  in
  let ops = Array.of_list ops in
  let count = Array.length ops in
  if count > 62 then invalid_arg "check_atomic: history too large (> 62 operations)";
  let inv = function `W w -> w.w_inv | `R r -> r.r_inv in
  let ret = function `W w -> w.w_ret | `R r -> r.r_ret in
  let outstanding i = ret ops.(i) = None in
  (* minimal in the remaining set: no remaining op returned before it
     was invoked *)
  let minimal remaining i =
    let ok = ref true in
    for j = 0 to count - 1 do
      if
        j <> i
        && remaining land (1 lsl j) <> 0
        && precedes (ret ops.(j)) (inv ops.(i))
      then ok := false
    done;
    !ok
  in
  let failed = Hashtbl.create 256 in
  (* current value identified by the op id of the last linearized write,
     0 for v0 *)
  let value_of_write_node node =
    if node = 0 then h.initial
    else (List.find (fun w -> w.w_op = node) h.writes).value
  in
  let visited = ref 0 in
  let rec search remaining current =
    if remaining = 0 then true
    else if Hashtbl.mem failed (remaining, current) then false
    else begin
      incr visited;
      if !visited > budget then raise Budget_spent;
      let progressed = ref false in
      for i = 0 to count - 1 do
        if (not !progressed) && remaining land (1 lsl i) <> 0 && minimal remaining i
        then begin
          let rest = remaining land lnot (1 lsl i) in
          (match ops.(i) with
           | `W w -> if search rest w.w_op then progressed := true
           | `R r ->
             let legal =
               match r.result with
               | Some v -> Bytes.equal v (value_of_write_node current)
               | None -> false
             in
             if legal && search rest current then progressed := true);
          (* An operation outstanding at the end of the run may also
             never take effect. *)
          if (not !progressed) && outstanding i && search rest current then
            progressed := true
        end
      done;
      if not !progressed then Hashtbl.add failed (remaining, current) ();
      !progressed
    end
  in
  (* Reads that returned bottom cannot be part of any linearization
     unless they are outstanding. *)
  match
    List.find_opt (fun r -> r.r_ret <> None && r.result = None) h.reads
  with
  | Some r -> mk ~read:r.r_op Bottom_read
  | None -> (
    (* The search is exact: [Not_linearizable] means the complete Wing &
       Gong search failed — a definitive violation.  Running out of
       [budget] is a different, inconclusive answer and gets its own
       reason so callers never mistake "gave up" for "refuted". *)
    match search ((1 lsl count) - 1) 0 with
    | true -> Ok
    | false -> mk ~order:(invocation_order h) Not_linearizable
    | exception Budget_spent ->
      mk ~order:(invocation_order h) (Search_budget { explored = !visited }))
