module R = Sb_sim.Runtime
module Explore = Sb_modelcheck.Explore

type divergence = {
  d_prefix : R.decision list;
  d_first : R.decision;
  d_second : R.decision;
  d_kind : [ `State | `Disables | `Error of string ];
}

type result = {
  a_states : int;
  a_pairs : int;
  a_truncated : bool;
  a_divergences : divergence list;
}

let ok r = r.a_divergences = []

let pp_divergence ppf d =
  let kind =
    match d.d_kind with
    | `State -> "states diverge"
    | `Disables -> "one order disables the other action"
    | `Error e -> "execution raised " ^ e
  in
  Format.fprintf ppf
    "declared independent, but %s: %s / %s after prefix [%s]" kind
    (R.decision_to_string d.d_first)
    (R.decision_to_string d.d_second)
    (String.concat "; " (List.map R.decision_to_string d.d_prefix))

let crash_budget (cfg : Explore.config) prefix =
  List.fold_left
    (fun (o, c) d ->
      match d with
      | R.Crash_obj _ -> (o - 1, c)
      | R.Crash_client _ -> (o, c - 1)
      | _ -> (o, c))
    (cfg.crash_objs, cfg.crash_clients)
    prefix

let audit ?relation ?(max_states = 500) (cfg : Explore.config) =
  let indep =
    match relation with Some r -> r | None -> Explore.independent
  in
  let fresh () =
    R.create ~seed:cfg.seed ~metrics:false ~algorithm:cfg.algorithm ~n:cfg.n
      ~f:cfg.f ~workload:cfg.workload ()
  in
  let at prefix =
    let w = fresh () in
    ignore (R.replay w prefix);
    w
  in
  let visited = Hashtbl.create 256 in
  (* Depth-first: co-enabled conflicting pairs often only arise deep in
     a schedule (e.g. both ABD writers reaching their round-2 stores),
     and a breadth-first frontier burns the whole state budget near the
     root before any such state is reached.  DFS with key-dedup covers
     a full spine plus local branching instead. *)
  let queue = Stack.create () in
  Stack.push [] queue;
  let states = ref 0 in
  let pairs = ref 0 in
  let divs = ref [] in
  let truncated = ref false in
  while not (Stack.is_empty queue) do
    let prefix = Stack.pop queue in
    if !states >= max_states then truncated := true
    else begin
      let w = at prefix in
      let key = R.audit_key w in
      if not (Hashtbl.mem visited key) then begin
        Hashtbl.add visited key ();
        incr states;
        let obj_left, cli_left = crash_budget cfg prefix in
        let acts =
          Explore.enabled_actions cfg w ~obj_left:(max 0 obj_left)
            ~cli_left:(max 0 cli_left)
        in
        (* The step-visibility attributes the independence relation
           consults are only known from executing the action — observe
           each on its own replica of the state, as the search does. *)
        List.iter
          (fun (a : Explore.action) ->
            Explore.execute_observing (at prefix) a)
          acts;
        List.iter
          (fun (a : Explore.action) -> Stack.push (prefix @ [ a.dec ]) queue)
          acts;
        let arr = Array.of_list acts in
        for i = 0 to Array.length arr - 1 do
          for j = i + 1 to Array.length arr - 1 do
            let a = arr.(i) and b = arr.(j) in
            if indep a b then begin
              incr pairs;
              let diverge kind =
                divs :=
                  { d_prefix = prefix; d_first = a.dec; d_second = b.dec;
                    d_kind = kind }
                  :: !divs
              in
              let in_order (first : Explore.action) (second : Explore.action) =
                let w = at prefix in
                ignore (R.step w first.dec);
                if not (R.decision_enabled w second.dec) then None
                else begin
                  ignore (R.step w second.dec);
                  (* The relation promises convergence only up to
                     verdict-preserving reordering of the event word
                     (inv/inv, ret/ret, crash swaps), which [audit_key]
                     normalises away. *)
                  Some (R.audit_key w)
                end
              in
              match in_order a b, in_order b a with
              | Some k1, Some k2 -> if k1 <> k2 then diverge `State
              | None, _ | _, None -> diverge `Disables
              | exception e -> diverge (`Error (Printexc.to_string e))
            end
          done
        done
      end
    end
  done;
  {
    a_states = !states;
    a_pairs = !pairs;
    a_truncated = !truncated;
    a_divergences = List.rev !divs;
  }
