module R = Sb_sim.Runtime

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type bound = Exhaustive | Delay of int | Preempt of int

type config = {
  algorithm : R.algorithm;
  n : int;
  f : int;
  workload : Sb_sim.Trace.op_kind list array;
  base_model : Sb_baseobj.Model.t;
  byz : Sb_baseobj.Model.byz_policy option;
  seed : int;
  initial : bytes;
  check : Sb_spec.History.t -> Sb_spec.Regularity.verdict;
  dpor : bool;
  bound : bound;
  crash_objs : int;
  crash_clients : int;
  max_schedules : int;
  stop_on_violation : bool;
  lint : bool;
  on_history : (R.decision list -> Sb_spec.History.t -> unit) option;
  instrument : (R.world -> unit) option;
}

exception Instrumented_failure of exn * R.decision list

let config ?(seed = 1) ?(dpor = true) ?(bound = Exhaustive) ?(crash_objs = 0)
    ?(crash_clients = 0) ?(max_schedules = 0) ?(stop_on_violation = true)
    ?(lint = false) ?(base_model = Sb_baseobj.Model.Rmw) ?byz ?on_history
    ?instrument ~algorithm ~n ~f ~workload ~initial ~check () =
  {
    algorithm;
    n;
    f;
    workload;
    base_model;
    byz;
    seed;
    initial;
    check;
    dpor;
    bound;
    crash_objs;
    crash_clients;
    max_schedules;
    stop_on_violation;
    lint;
    on_history;
    instrument;
  }

(* ------------------------------------------------------------------ *)
(* Statistics and results                                              *)
(* ------------------------------------------------------------------ *)

type stats = {
  schedules : int;
  transitions : int;
  replayed_transitions : int;
  sleep_skips : int;
  bound_skips : int;
  max_depth : int;
  violations : int;
  lint_failures : int;
}

type violation = {
  v_decisions : R.decision list;
  v_history : Sb_spec.History.t;
  v_counterexample : Sb_spec.Regularity.counterexample;
}

type outcome = {
  stats : stats;
  first_violation : violation option;
  complete : bool;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>schedules explored : %d@ transitions        : %d (+%d replayed)@ \
     sleep-set prunes   : %d@ bound prunes       : %d@ max depth          : \
     %d@ violations         : %d@ lint failures      : %d@]"
    s.schedules s.transitions s.replayed_transitions s.sleep_skips s.bound_skips
    s.max_depth s.violations s.lint_failures

(* ------------------------------------------------------------------ *)
(* Decision points and the independence relation                       *)
(* ------------------------------------------------------------------ *)

type kind = KDeliver | KStep | KCrashObj | KCrashClient

type action = {
  dec : R.decision;
  kind : kind;
  a_obj : int;
  a_client : int;
  a_nature : R.rmw_nature;  (* for Deliver: the pending RMW's nature *)
  mutable a_inv : bool;  (* the Step emitted an Invoke event *)
  mutable a_ret : bool;
      (* ... or a Return event.  Observed when the action is executed;
         every action entering a sleep set has been executed, and a
         step's behaviour depends only on client-local state, which
         surviving the independence filter leaves untouched, so the
         observation stays valid down the tree. *)
  mutable a_awaited : int list;
      (* For a Step: the tickets whose responses it read or started
         awaiting, observed at execution like [a_inv]/[a_ret].  A Deliver
         of any other ticket cannot change the step's behaviour. *)
}

(* Two enabled actions are independent when they commute (executing them
   in either order reaches the same state, and neither disables the
   other) AND swapping adjacent occurrences leaves the operation
   history's precedence relation unchanged, so every consistency verdict
   is preserved.  The relation is deliberately conservative:

   - RMW deliveries on distinct base objects commute: they touch
     different object states and different response slots; quorum
     satisfaction of the owner is order-insensitive.  Same-object
     deliveries are dependent (RMWs need not commute) — except when both
     are read-only (neither changes the object, so each computes the
     same response in either order) or both are declared merge-class
     (the algorithm promises state and responses are order-insensitive,
     e.g. ABD's keep-the-higher-timestamp store).
   - A delivery and a client step are independent unless the step reads
     or awaits that very ticket's response: a step only consults the
     responses of the awaits it consumes or enters, and only one of the
     two emits operation events, so no invocation/return pair changes
     sides.  Deliveries for other clients trivially qualify; so do
     same-client deliveries of stale stragglers relative to the owner's
     later steps.
   - Two client steps of distinct clients touch disjoint client state,
     so they commute as transitions (up to renaming of the tickets each
     allocates, which histories never mention and which the dynamic
     enumeration re-derives per branch).  What can distinguish the two
     orders is the operation history — but the consistency checkers
     consume it only through the precedence relation "return(x) before
     invoke(y)", so the steps are dependent exactly when one emits a
     return and the other an invocation (swapping those flips a
     precedence edge).  Invocation/invocation and return/return swaps,
     like swaps involving an invisible round transition, preserve every
     verdict and every read's returned value.
   - An object crash commutes with every step and with deliveries on
     other objects (it only flips one liveness bit); crashes are
     mutually dependent because they share the [f] / budget limits.
   - A client crash is dependent on everything touching that client. *)
(* The nature-level core of the delivery/delivery case, exported so
   [Sb_analyze.Certify] can check every commutation this predicate
   claims against the enumerated RMW algebra instead of trusting the
   declarations. *)
let natures_commute (a : R.rmw_nature) (b : R.rmw_nature) =
  (a = `Readonly && b = `Readonly) || (a = `Merge && b = `Merge)

let independent a b =
  match (a.kind, b.kind) with
  | KDeliver, KDeliver -> a.a_obj <> b.a_obj || natures_commute a.a_nature b.a_nature
  | KDeliver, KStep | KStep, KDeliver ->
    let d, s = if a.kind = KDeliver then (a, b) else (b, a) in
    d.a_client <> s.a_client
    ||
    (match d.dec with
     | R.Deliver t -> not (List.mem t s.a_awaited)
     | _ -> false)
  | KStep, KStep ->
    a.a_client <> b.a_client
    && not ((a.a_inv && b.a_ret) || (a.a_ret && b.a_inv))
  | KCrashObj, KCrashObj | KCrashClient, KCrashClient -> false
  | KCrashObj, KDeliver | KDeliver, KCrashObj -> a.a_obj <> b.a_obj
  | KCrashObj, KStep | KStep, KCrashObj -> true
  | KCrashObj, KCrashClient | KCrashClient, KCrashObj -> true
  | KCrashClient, (KDeliver | KStep) | (KDeliver | KStep), KCrashClient ->
    a.a_client <> b.a_client

(* Enabled actions in the deterministic baseline order (the order the
   delay bound is counted against): oldest deliverable RMW first, then
   steppable clients by id — the fifo policy — then crash choices. *)
let actions cfg w ~obj_left ~cli_left =
  (* Once every client is permanently done — crashed, or idle with an
     empty operation queue — no further invocation or return can occur:
     the operation history is fixed.  Crashes injected after this point
     cannot change any verdict (the crash-free drain of the same prefix
     has the identical history and is always explored), so the crash
     budget is withdrawn here.  Without this, the budget gets spliced
     between every ordering of end-of-run straggler deliveries,
     multiplying the schedule count for nothing.  The stragglers
     themselves still drain — they are mutually independent, so sleep
     sets collapse their orderings to one — keeping exactly one leaf
     per operation-history class. *)
  let all_done =
    let rec go c =
      c >= Array.length cfg.workload
      ||
      match R.client_status w c with
      | R.Crashed -> go (c + 1)
      | R.Idle -> (not (R.client_has_work w c)) && go (c + 1)
      | R.Parked | R.Runnable -> false
    in
    go 0
  in
  let delivers =
    List.map
      (fun (p : R.pending_info) ->
        {
          dec = R.Deliver p.ticket;
          kind = KDeliver;
          a_obj = p.p_obj;
          a_client = p.p_client;
          a_nature = p.p_nature;
          a_inv = false;
          a_ret = false;
          a_awaited = [];
        })
      (R.deliverable w)
  in
  let steps =
    List.map
      (fun c ->
        {
          dec = R.Step c;
          kind = KStep;
          a_obj = -1;
          a_client = c;
          a_nature = `Mutating;
          a_inv = false;
          a_ret = false;
          a_awaited = [];
        })
      (R.steppable w)
  in
  let crash_objs =
    if obj_left <= 0 || all_done then []
    else
      List.init cfg.n (fun i -> i)
      |> List.filter (fun i -> R.decision_enabled w (R.Crash_obj i))
      |> List.map (fun i ->
             {
               dec = R.Crash_obj i;
               kind = KCrashObj;
               a_obj = i;
               a_client = -1;
               a_nature = `Mutating;
               a_inv = false;
               a_ret = false;
               a_awaited = [];
             })
  in
  let crash_clients =
    if cli_left <= 0 then []
    else
      List.init (Array.length cfg.workload) (fun c -> c)
      |> List.filter (fun c ->
             R.decision_enabled w (R.Crash_client c)
             (* Crashing a client that is idle with nothing queued cannot
                change any future history: skip the branch. *)
             && (R.client_status w c <> R.Idle || R.client_has_work w c))
      |> List.map (fun c ->
             {
               dec = R.Crash_client c;
               kind = KCrashClient;
               a_obj = -1;
               a_client = c;
               a_nature = `Mutating;
               a_inv = false;
               a_ret = false;
               a_awaited = [];
             })
  in
  delivers @ steps @ crash_objs @ crash_clients

let enabled_actions = actions

(* Execute the action's decision on [w], observing the attributes the
   independence relation consults for steps (operation-event visibility
   and the awaited-ticket set): exactly what the DPOR search records when
   it first explores an action at a node. *)
let execute_observing w (a : action) =
  let inv_before = R.invoke_events w in
  let ret_before = R.return_events w in
  ignore (R.step w a.dec);
  match a.kind with
  | KStep ->
    a.a_inv <- R.invoke_events w > inv_before;
    a.a_ret <- R.return_events w > ret_before;
    a.a_awaited <- R.last_step_awaits w
  | KDeliver | KCrashObj | KCrashClient -> ()

(* ------------------------------------------------------------------ *)
(* The depth-first search with sleep sets                              *)
(* ------------------------------------------------------------------ *)

type mstats = {
  mutable m_schedules : int;
  mutable m_transitions : int;
  mutable m_replayed : int;
  mutable m_sleep_skips : int;
  mutable m_bound_skips : int;
  mutable m_max_depth : int;
  mutable m_violations : int;
  mutable m_lint_failures : int;
}

let mk_mstats () =
  {
    m_schedules = 0;
    m_transitions = 0;
    m_replayed = 0;
    m_sleep_skips = 0;
    m_bound_skips = 0;
    m_max_depth = 0;
    m_violations = 0;
    m_lint_failures = 0;
  }

exception Stop

(* One node on the current root-to-leaf path: its enabled actions in
   baseline order, a cursor over them, the actions already explored here
   (for sleep-set propagation), and the node's scheduling context. *)
type frame = {
  f_acts : action array;
  mutable f_idx : int;
  mutable f_cur : action option; (* action taken into the child below *)
  mutable f_done : action list;
  f_sleep : action list;
  f_budget : int;
  f_last : int; (* last stepped client, for preemption counting *)
  f_obj_left : int;
  f_cli_left : int;
}

let budget0 cfg =
  match cfg.bound with Exhaustive -> max_int | Delay d -> d | Preempt p -> p

let fresh_world cfg =
  let w =
    R.create ~seed:cfg.seed ~metrics:false ~base_model:cfg.base_model
      ?byz:cfg.byz ~algorithm:cfg.algorithm ~n:cfg.n ~f:cfg.f
      ~workload:cfg.workload ()
  in
  (match cfg.instrument with Some f -> f w | None -> ());
  w

let mk_frame cfg w ~sleep ~budget ~last ~obj_left ~cli_left =
  {
    f_acts = Array.of_list (actions cfg w ~obj_left ~cli_left);
    f_idx = 0;
    f_cur = None;
    f_done = [];
    f_sleep = sleep;
    f_budget = budget;
    f_last = last;
    f_obj_left = obj_left;
    f_cli_left = cli_left;
  }

(* A crash only ever disables behaviour — deliveries on the crashed
   object, the crashed client's steps and read-only stragglers, crash
   choices beyond the decremented budget — and never enables anything,
   so the child's action set is computable from the parent's without
   executing the crash.  When every surviving action would land in the
   child's sleep set, the whole subtree is sterile: it can reach no
   leaf, because crashes sort last in the baseline order and thus
   every surviving sibling has already been explored here (the crash
   commutes backward past all of them).  Detecting this *before*
   descending skips the child outright — otherwise each such child
   costs a full prefix replay just to discover there is nothing
   underneath (measured: ~10x the useful transition count on
   crash-budget configurations).  An empty surviving set is a leaf,
   not sterile, and is never skipped. *)
let crash_child_sterile fr a =
  let sleep' = List.filter (independent a) (fr.f_sleep @ fr.f_done) in
  let survives b =
    b.dec <> a.dec
    &&
    match (b.kind, a.kind) with
    | KDeliver, KCrashObj -> b.a_obj <> a.a_obj
    | KDeliver, KCrashClient ->
      not (b.a_client = a.a_client && b.a_nature = `Readonly)
    | KStep, KCrashObj -> true
    | KStep, KCrashClient -> b.a_client <> a.a_client
    | KCrashObj, KCrashObj -> fr.f_obj_left > 1
    | KCrashObj, KCrashClient -> fr.f_obj_left > 0
    | KCrashClient, KCrashObj -> fr.f_cli_left > 0
    | KCrashClient, KCrashClient -> fr.f_cli_left > 1
    | _, (KDeliver | KStep) -> assert false
  in
  let enabled' = List.filter survives (Array.to_list fr.f_acts) in
  enabled' <> []
  && List.for_all
       (fun b -> List.exists (fun s -> s.dec = b.dec) sleep')
       enabled'

(* Advance the frame's cursor to its next explorable action, counting
   the sleep-set and bound prunes passed over (each action is
   considered exactly once per node). *)
let rec next_action cfg st fr =
  if fr.f_idx >= Array.length fr.f_acts then None
  else begin
    let a = fr.f_acts.(fr.f_idx) in
    if
      cfg.dpor
      && (List.exists (fun b -> b.dec = a.dec) fr.f_sleep
         ||
         match a.kind with
         | KCrashObj | KCrashClient -> crash_child_sterile fr a
         | KDeliver | KStep -> false)
    then begin
      st.m_sleep_skips <- st.m_sleep_skips + 1;
      fr.f_idx <- fr.f_idx + 1;
      next_action cfg st fr
    end
    else begin
      let cost =
        match cfg.bound with
        | Exhaustive -> 0
        | Delay _ -> fr.f_idx
        | Preempt _ -> (
          (* A preemption: stepping a different client while the
             previously scheduled one could still run. *)
          match a.kind with
          | KStep
            when fr.f_last >= 0
                 && a.a_client <> fr.f_last
                 && Array.exists
                      (fun b -> b.kind = KStep && b.a_client = fr.f_last)
                      fr.f_acts -> 1
          | _ -> 0)
      in
      if cost > fr.f_budget then begin
        st.m_bound_skips <- st.m_bound_skips + 1;
        fr.f_idx <- fr.f_idx + 1;
        next_action cfg st fr
      end
      else Some (a, cost)
    end
  end

(* ------------------------------------------------------------------ *)
(* Search tasks (subtree partitioning)                                 *)
(* ------------------------------------------------------------------ *)

(* A task is a node of the schedule tree packaged for independent
   exploration: the decision prefix reaching it, the sleep set it
   inherits (observed actions the parent already explored and found
   independent), and its scheduling context.  [explore] runs the root
   task; the parallel driver in [Sb_parallel] expands the root into a
   frontier of disjoint tasks and farms them out — sleep sets make the
   subtrees non-overlapping exactly as in the sequential search, since
   each task's sleep set is computed by the same propagation rule. *)
type task = {
  t_prefix : R.decision list; (* oldest first *)
  t_sleep : action list;
  t_budget : int;
  t_last : int;
  t_obj_left : int;
  t_cli_left : int;
}

let root_task cfg =
  {
    t_prefix = [];
    t_sleep = [];
    t_budget = budget0 cfg;
    t_last = -1;
    t_obj_left = cfg.crash_objs;
    t_cli_left = cfg.crash_clients;
  }

let task_depth t = List.length t.t_prefix

let explore_task ?(abort = fun () -> false) cfg (task : task) =
  let st = mk_mstats () in
  let first = ref None in
  let fresh () = fresh_world cfg in
  let prefix = task.t_prefix in
  let prefix_rev = List.rev prefix in
  (* Replay a decision list against [w].  When the search is
     instrumented, an exception raised by a monitor mid-replay is
     re-raised as [Instrumented_failure] carrying the decision prefix up
     to and including the offending decision, so the caller can shrink
     it. *)
  let replay_checked w ds =
    let applied = ref [] in
    List.iter
      (fun d ->
        st.m_replayed <- st.m_replayed + 1;
        (try ignore (R.step w d)
         with e when cfg.instrument <> None ->
           raise (Instrumented_failure (e, List.rev (d :: !applied))));
        applied := d :: !applied)
      ds
  in
  (* The search is stateless: backtracking re-executes the decision
     prefix against a fresh world (worlds hold continuations and cannot
     be copied).  [path_rev] is the prefix, newest decision first. *)
  let replay_path path_rev =
    let w = fresh () in
    replay_checked w (List.rev path_rev);
    w
  in
  let finish w path_rev =
    st.m_schedules <- st.m_schedules + 1;
    let h = Sb_spec.History.of_trace ~initial:cfg.initial (R.trace w) in
    (match cfg.on_history with
     | Some f -> f (List.rev path_rev) h
     | None -> ());
    if cfg.lint then begin
      let w2 = replay_path path_rev in
      if
        Sb_sim.Trace.to_lines (R.trace w2) <> Sb_sim.Trace.to_lines (R.trace w)
        || R.fingerprint w2 <> R.fingerprint w
      then st.m_lint_failures <- st.m_lint_failures + 1
    end;
    (match cfg.check h with
     | Sb_spec.Regularity.Ok -> ()
     | Sb_spec.Regularity.Violation cx ->
       st.m_violations <- st.m_violations + 1;
       if !first = None then
         first :=
           Some
             {
               v_decisions = List.rev path_rev;
               v_history = h;
               v_counterexample = cx;
             };
       if cfg.stop_on_violation then raise Stop);
    if cfg.max_schedules > 0 && st.m_schedules >= cfg.max_schedules then raise Stop
  in
  (* The search is an explicit-stack DFS over {e frames} — one per node
     on the current root-to-leaf path, each holding the node's enabled
     actions, a cursor, and its sleep-set bookkeeping.  Backtracking re-
     executes the committed prefix against a fresh world (worlds hold
     continuations and cannot be copied), but crucially only {e once per
     schedule}, not once per branch point: an iteration replays the
     prefix of the deepest frame with an unexplored alternative and then
     runs straight down to a leaf, so the total work is about (schedules
     x depth) transitions instead of (branch points x depth).  Frames
     persist the deterministic per-node data (action lists, observed
     step visibility, sleep sets) across iterations, so nothing is
     recomputed during descent. *)
  let stack = ref [] in
  let nframes = ref 0 in
  let path_of_stack () =
    List.filter_map
      (fun fr -> match fr.f_cur with Some a -> Some a.dec | None -> None)
      !stack
    @ prefix_rev
  in
  let complete_child parent =
    match parent.f_cur with
    | Some a ->
      parent.f_done <- a :: parent.f_done;
      parent.f_cur <- None
    | None -> assert false
  in
  (* Mutually tail-recursive driver: [backtrack] pops exhausted frames
     without touching any world; [run] replays the committed prefix once
     and hands the live world to [descend], which executes new
     transitions down to a leaf. *)
  let rec backtrack () =
    match !stack with
    | [] -> ()
    | fr :: rest -> (
      match next_action cfg st fr with
      | Some _ -> run ()
      | None ->
        stack := rest;
        decr nframes;
        (match rest with
         | parent :: _ -> complete_child parent
         | [] -> ());
        backtrack ())
  and run () =
    if abort () then raise Stop;
    let w = fresh () in
    (match !stack with
     | _ :: below ->
       replay_checked w
         (prefix
         @ List.rev_map
             (fun fr ->
               match fr.f_cur with Some a -> a.dec | None -> assert false)
             below)
     | [] -> assert false);
    descend w
  and descend w =
    match !stack with
    | [] -> assert false
    | fr :: _ -> (
      match next_action cfg st fr with
      | None -> backtrack ()
      | Some (a, cost) ->
        fr.f_idx <- fr.f_idx + 1;
        fr.f_cur <- Some a;
        st.m_transitions <- st.m_transitions + 1;
        (try execute_observing w a
         with e when cfg.instrument <> None ->
           raise (Instrumented_failure (e, List.rev (path_of_stack ()))));
        let sleep' =
          if cfg.dpor then
            List.filter (fun b -> independent a b) (fr.f_sleep @ fr.f_done)
          else []
        in
        let child =
          mk_frame cfg w ~sleep:sleep'
            ~budget:(fr.f_budget - cost)
            ~last:(match a.kind with KStep -> a.a_client | _ -> fr.f_last)
            ~obj_left:
              (match a.kind with
              | KCrashObj -> fr.f_obj_left - 1
              | _ -> fr.f_obj_left)
            ~cli_left:
              (match a.kind with
              | KCrashClient -> fr.f_cli_left - 1
              | _ -> fr.f_cli_left)
        in
        stack := child :: !stack;
        incr nframes;
        if !nframes - 1 > st.m_max_depth then st.m_max_depth <- !nframes - 1;
        if Array.length child.f_acts = 0 then begin
          finish w (path_of_stack ());
          stack := List.tl !stack;
          decr nframes;
          complete_child fr;
          backtrack ()
        end
        else descend w)
  in
  let complete =
    try
      let w0 = fresh () in
      replay_checked w0 prefix;
      let root =
        mk_frame cfg w0 ~sleep:task.t_sleep ~budget:task.t_budget
          ~last:task.t_last ~obj_left:task.t_obj_left ~cli_left:task.t_cli_left
      in
      stack := [ root ];
      nframes := 1;
      if Array.length root.f_acts = 0 then finish w0 prefix_rev
      else descend w0;
      true
    with Stop -> false
  in
  {
    stats =
      {
        schedules = st.m_schedules;
        transitions = st.m_transitions;
        replayed_transitions = st.m_replayed;
        sleep_skips = st.m_sleep_skips;
        bound_skips = st.m_bound_skips;
        max_depth = st.m_max_depth;
        violations = st.m_violations;
        lint_failures = st.m_lint_failures;
      };
    first_violation = !first;
    complete;
  }

let explore cfg = explore_task cfg (root_task cfg)

(* ------------------------------------------------------------------ *)
(* Task expansion (for the parallel driver)                            *)
(* ------------------------------------------------------------------ *)

type expansion = {
  x_tasks : task list; (* children in exploration order *)
  x_leaf : bool; (* the task's node has no enabled actions *)
  x_transitions : int;
  x_replayed : int;
  x_sleep_skips : int;
  x_bound_skips : int;
  x_depth_seen : int;
      (* Deepest node materialised while expanding (children sit one
         level below the task's own node); the merged [max_depth] must
         cover nodes whose subtrees turn out empty. *)
}

(* Expands a task one level: enumerates its node's explorable actions
   exactly as [explore_task] would — same baseline order, same sleep /
   sterile-crash / bound skips — executing each on its own fresh replay
   to observe the step attributes the child sleep sets depend on.  The
   children partition the task's schedules: child [i]'s sleep set
   contains every earlier-explored independent sibling, so no schedule
   is explored twice and none is lost (the same propagation the
   sequential search performs at this node).  Skip and transition
   counts are reported so a driver can merge them with the children's
   outcomes into totals that match a jobs-independent accounting. *)
let expand cfg (t : task) =
  let st = mk_mstats () in
  let replay_raw w =
    List.iter
      (fun d ->
        st.m_replayed <- st.m_replayed + 1;
        ignore (R.step w d))
      t.t_prefix
  in
  let w0 = fresh_world cfg in
  replay_raw w0;
  let fr =
    mk_frame cfg w0 ~sleep:t.t_sleep ~budget:t.t_budget ~last:t.t_last
      ~obj_left:t.t_obj_left ~cli_left:t.t_cli_left
  in
  let leaf = Array.length fr.f_acts = 0 in
  let children = ref [] in
  let depth_seen = ref 0 in
  let rec loop () =
    match next_action cfg st fr with
    | None -> ()
    | Some (a, cost) ->
      fr.f_idx <- fr.f_idx + 1;
      st.m_transitions <- st.m_transitions + 1;
      let w = fresh_world cfg in
      replay_raw w;
      execute_observing w a;
      depth_seen := List.length t.t_prefix + 1;
      let sleep' =
        if cfg.dpor then List.filter (independent a) (fr.f_sleep @ fr.f_done)
        else []
      in
      children :=
        {
          t_prefix = t.t_prefix @ [ a.dec ];
          t_sleep = sleep';
          t_budget = fr.f_budget - cost;
          t_last = (match a.kind with KStep -> a.a_client | _ -> fr.f_last);
          t_obj_left =
            (match a.kind with
            | KCrashObj -> fr.f_obj_left - 1
            | _ -> fr.f_obj_left);
          t_cli_left =
            (match a.kind with
            | KCrashClient -> fr.f_cli_left - 1
            | _ -> fr.f_cli_left);
        }
        :: !children;
      fr.f_done <- a :: fr.f_done;
      loop ()
  in
  loop ();
  {
    x_tasks = List.rev !children;
    x_leaf = leaf;
    x_transitions = st.m_transitions;
    x_replayed = st.m_replayed;
    x_sleep_skips = st.m_sleep_skips;
    x_bound_skips = st.m_bound_skips;
    x_depth_seen = !depth_seen;
  }

let pp_decisions ppf ds =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i d -> Format.fprintf ppf "%3d. %s@ " (i + 1) (R.decision_to_string d))
    ds;
  Format.fprintf ppf "@]"
