module D = Sb_sim.Rmwdesc

module Mailbox = struct
  type t = (int, int * D.resp) Hashtbl.t

  let create () = Hashtbl.create 64
  let record t ~ticket ~obj resp = Hashtbl.replace t ticket (obj, resp)
  let find t ticket = Hashtbl.find_opt t ticket
  let has t ticket = Hashtbl.mem t ticket

  let satisfied t ~tickets ~quorum =
    List.fold_left (fun acc tk -> if has t tk then acc + 1 else acc) 0 tickets
    >= quorum

  let responses_for t ~tickets = List.filter_map (find t) tickets

  let consume t ~tickets =
    let rs = responses_for t ~tickets in
    List.iter (Hashtbl.remove t) tickets;
    rs
end

module Retransmit = struct
  type config = { rto : int; max_attempts : int }

  type 'req timer = {
    owner : int;
    req : 'req;
    mutable deadline : int;
    mutable attempt : int;
  }

  type 'req t = (int, 'req timer) Hashtbl.t

  let create () = Hashtbl.create 16

  let arm t ~ticket ~owner ~deadline req =
    Hashtbl.replace t ticket { owner; req; deadline; attempt = 0 }

  let find t ticket = Hashtbl.find_opt t ticket
  let cancel t ticket = Hashtbl.remove t ticket
  let cancel_list t tickets = List.iter (cancel t) tickets

  let owned t ~owner =
    (* sb-lint: allow hashtbl-order — collected then sorted *)
    Hashtbl.fold
      (fun ticket tm acc -> if tm.owner = owner then ticket :: acc else acc)
      t []
    |> List.sort Int.compare

  let within_budget cfg tm =
    cfg.max_attempts <= 0 || tm.attempt < cfg.max_attempts

  let pending t ~live =
    (* sb-lint: allow hashtbl-order — collected then sorted *)
    Hashtbl.fold
      (fun ticket tm acc -> if live ticket tm then ticket :: acc else acc)
      t []
    |> List.sort Int.compare

  let due t ~now ~live =
    (* sb-lint: allow hashtbl-order — collected then sorted *)
    Hashtbl.fold
      (fun ticket tm acc ->
        if live ticket tm && now >= tm.deadline then ticket :: acc else acc)
      t []
    |> List.sort Int.compare

  let backoff ?cap ?(jitter = 0) cfg tm ~now =
    tm.attempt <- tm.attempt + 1;
    (* Exponential backoff, capped to keep deadlines reachable.  The
       caller may tighten the cap and add jitter it drew from its own
       seeded source — this module stays deterministic. *)
    let d = cfg.rto * (1 lsl min tm.attempt 16) in
    let d = match cap with Some c -> min d (max cfg.rto c) | None -> d in
    tm.deadline <- now + d + max 0 jitter
end
