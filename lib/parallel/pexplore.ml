module E = Sb_modelcheck.Explore

(* ------------------------------------------------------------------ *)
(* Deterministic task frontier                                         *)
(* ------------------------------------------------------------------ *)

(* Expand the root into a frontier of disjoint subtree tasks.  The
   expansion policy is a function of the configuration only — never of
   [jobs] — so every jobs level explores the identical task list and
   merges the identical per-task outcomes: byte-identical totals.

   The root of a typical configuration has only a handful of enabled
   actions (one per client), far too coarse to balance a pool, so the
   frontier is deepened until it holds at least [target] tasks or
   [max_depth] levels were expanded.  Leaf tasks (complete schedules)
   are kept: they still need their history checked. *)
let frontier ?(target = 32) ?(max_depth = 3) cfg =
  let acc = ref [] (* expansions, for root-contribution accounting *) in
  let expand_all tasks =
    List.concat_map
      (fun (t, is_leaf) ->
        if is_leaf then [ (t, true) ]
        else begin
          let x = E.expand cfg t in
          acc := x :: !acc;
          if x.E.x_leaf then [ (t, true) ]
          else List.map (fun c -> (c, false)) x.E.x_tasks
        end)
      tasks
  in
  let rec grow depth tasks =
    if depth >= max_depth || List.length tasks >= target then tasks
    else begin
      let tasks' = expand_all tasks in
      if List.for_all snd tasks' then tasks' else grow (depth + 1) tasks'
    end
  in
  let tasks = grow 0 [ (E.root_task cfg, false) ] in
  (List.map fst tasks, List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)
(* ------------------------------------------------------------------ *)

let zero_stats =
  {
    E.schedules = 0;
    transitions = 0;
    replayed_transitions = 0;
    sleep_skips = 0;
    bound_skips = 0;
    max_depth = 0;
    violations = 0;
    lint_failures = 0;
  }

let add_stats a (b : E.stats) ~depth =
  {
    E.schedules = a.E.schedules + b.E.schedules;
    transitions = a.E.transitions + b.E.transitions;
    replayed_transitions = a.E.replayed_transitions + b.E.replayed_transitions;
    sleep_skips = a.E.sleep_skips + b.E.sleep_skips;
    bound_skips = a.E.bound_skips + b.E.bound_skips;
    max_depth = max a.E.max_depth (depth + b.E.max_depth);
    violations = a.E.violations + b.E.violations;
    lint_failures = a.E.lint_failures + b.E.lint_failures;
  }

let add_expansion a (x : E.expansion) =
  {
    a with
    E.transitions = a.E.transitions + x.E.x_transitions;
    replayed_transitions = a.E.replayed_transitions + x.E.x_replayed;
    sleep_skips = a.E.sleep_skips + x.E.x_sleep_skips;
    bound_skips = a.E.bound_skips + x.E.x_bound_skips;
    max_depth = max a.E.max_depth x.E.x_depth_seen;
  }

(* ------------------------------------------------------------------ *)
(* The parallel driver                                                 *)
(* ------------------------------------------------------------------ *)

(* Features that entangle subtrees or share user state across domains
   force the plain sequential search (identical at every jobs level):
   - [max_schedules] is a global budget a partitioned run cannot cut
     deterministically;
   - [on_history] / [instrument] run user callbacks that would fire
     concurrently from several domains. *)
let must_run_sequentially (cfg : E.config) =
  cfg.E.max_schedules > 0 || cfg.E.on_history <> None
  || cfg.E.instrument <> None

let explore ?(jobs = 1) cfg =
  let jobs = if jobs <= 0 then Pool.default_jobs () else jobs in
  if must_run_sequentially cfg then E.explore cfg
  else begin
    let tasks, expansions = frontier cfg in
    match tasks with
    | [] | [ _ ] -> E.explore cfg
    | _ ->
      let tasks = Array.of_list tasks in
      let n = Array.length tasks in
      let results : (E.outcome, exn) result option array = Array.make n None in
      (* Index of the first subtree known to hold a violation.  Tasks
         with a higher index may be aborted — their outcomes are
         discarded by the merge — while tasks at or below it always run
         to completion, keeping the merge jobs-independent. *)
      let min_violation = Atomic.make max_int in
      let run_task i =
        let abort () = i > Atomic.get min_violation in
        let r =
          match E.explore_task ~abort cfg tasks.(i) with
          | out -> Ok out
          | exception e -> Error e
        in
        (match r with
         | Ok out when cfg.E.stop_on_violation && out.E.first_violation <> None
           ->
           let rec lower () =
             let cur = Atomic.get min_violation in
             if i < cur && not (Atomic.compare_and_set min_violation cur i) then
               lower ()
           in
           lower ()
         | _ -> ());
        results.(i) <- Some r
      in
      if jobs = 1 then begin
        (* In-order with early stop: identical to what the merge below
           reconstructs from a full parallel run. *)
        let i = ref 0 in
        let stop = ref false in
        while (not !stop) && !i < n do
          run_task !i;
          (match results.(!i) with
           | Some (Ok out)
             when cfg.E.stop_on_violation && out.E.first_violation <> None ->
             stop := true
           | _ -> ());
          incr i
        done
      end
      else Pool.run ~jobs n run_task;
      (* Deterministic merge, in task (= sequential exploration) order:
         everything up to and including the first violating subtree
         counts; later subtrees (possibly aborted) are discarded,
         exactly what the jobs=1 early stop produced. *)
      let viol_idx = ref None in
      (try
         for i = 0 to n - 1 do
           match results.(i) with
           | Some (Ok out) when out.E.first_violation <> None ->
             viol_idx := Some i;
             raise Exit
           | _ -> ()
         done
       with Exit -> ());
      let upto =
        match !viol_idx with
        | Some v when cfg.E.stop_on_violation -> v
        | _ -> n - 1
      in
      (* A task below the cut that failed (or is missing) breaks the
         merge: re-raise the earliest failure deterministically. *)
      let stats = ref (List.fold_left add_expansion zero_stats expansions) in
      let first = ref None in
      for i = 0 to upto do
        match results.(i) with
        | Some (Ok out) ->
          stats := add_stats !stats out.E.stats ~depth:(E.task_depth tasks.(i));
          if !first = None then first := out.E.first_violation
        | Some (Error e) -> raise e
        | None ->
          invalid_arg "Pexplore.explore: missing subtree outcome in merge"
      done;
      let complete =
        match !viol_idx with
        | Some _ when cfg.E.stop_on_violation -> false
        | _ -> true
      in
      { E.stats = !stats; first_violation = !first; complete }
  end
