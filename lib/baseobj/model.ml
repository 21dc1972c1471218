type t =
  | Rmw
  | Read_write
  | Byzantine of { budget : int }

type op_class = Read | Overwrite | General

type error =
  | Negative_budget of { budget : int }
  | Budget_exceeds_f of { budget : int; f : int }
  | Op_not_supported of { model : t; cls : op_class }
  | Policy_mismatch of { model : t; reason : string }

exception Error of error

let class_name = function
  | Read -> "read"
  | Overwrite -> "overwrite"
  | General -> "general-rmw"

let to_string = function
  | Rmw -> "rmw"
  | Read_write -> "rw"
  | Byzantine { budget } -> Printf.sprintf "byz:%d" budget

let error_to_string = function
  | Negative_budget { budget } ->
    Printf.sprintf "byzantine budget %d is negative" budget
  | Budget_exceeds_f { budget; f } ->
    Printf.sprintf
      "byzantine budget %d exceeds the failure budget f = %d: the masking \
       emulations are only claimed for b <= f (run the over-budget case as an \
       explicit negative control, not as a plan)"
      budget f
  | Op_not_supported { model; cls } ->
    Printf.sprintf
      "base-object model '%s' does not support %s operations: read/write base \
       objects offer read and blind overwrite only (Chockler-Spiegelman, \
       arXiv:1705.07212)"
      (to_string model) (class_name cls)
  | Policy_mismatch { model; reason } ->
    Printf.sprintf "byzantine policy rejected under model '%s': %s"
      (to_string model) reason

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Sb_baseobj.Model.Error: " ^ error_to_string e)
    | _ -> None)

let allows t cls =
  match (t, cls) with
  | (Rmw | Byzantine _), _ -> true
  | Read_write, (Read | Overwrite) -> true
  | Read_write, General -> false

let check_op t cls =
  if not (allows t cls) then raise (Error (Op_not_supported { model = t; cls }))

let fifo_writes = function Read_write -> true | Rmw | Byzantine _ -> false
let budget = function Byzantine { budget } -> budget | Rmw | Read_write -> 0

let validate ~f = function
  | Rmw | Read_write -> ()
  | Byzantine { budget } ->
    if budget < 0 then raise (Error (Negative_budget { budget }));
    if budget > f then raise (Error (Budget_exceeds_f { budget; f }))

let equal a b =
  match (a, b) with
  | Rmw, Rmw | Read_write, Read_write -> true
  | Byzantine { budget = a }, Byzantine { budget = b } -> a = b
  | (Rmw | Read_write | Byzantine _), _ -> false

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "rmw" -> Ok Rmw
  | "rw" | "read-write" | "read_write" -> Ok Read_write
  | "byz" -> Ok (Byzantine { budget = 0 })
  | s when String.length s > 4 && String.sub s 0 4 = "byz:" -> (
    match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
    | Some b when b >= 0 -> Ok (Byzantine { budget = b })
    | Some b -> Error (Printf.sprintf "byzantine budget %d is negative" b)
    | None -> Error (Printf.sprintf "cannot parse byzantine budget in %S" s))
  | other ->
    Error
      (Printf.sprintf "unknown base-object model %S (expected rmw|rw|byz:<b>)"
         other)

type byz_action =
  | Honest
  | Drop_write
  | Fabricate of Sb_storage.Objstate.t

type byz_policy = {
  bp_name : string;
  bp_budget : int;
  bp_compromised : int -> bool;
  bp_act :
    obj:int ->
    client:int ->
    cls:op_class ->
    before:Sb_storage.Objstate.t ->
    init:Sb_storage.Objstate.t ->
    byz_action;
}

let honest_policy =
  {
    bp_name = "honest";
    bp_budget = 0;
    bp_compromised = (fun _ -> false);
    bp_act = (fun ~obj:_ ~client:_ ~cls:_ ~before:_ ~init:_ -> Honest);
  }

let check_policy t ~n policy =
  match t with
  | Rmw | Read_write ->
    raise
      (Error
         (Policy_mismatch
            {
              model = t;
              reason =
                Printf.sprintf "policy %S supplied, but nobody may lie"
                  policy.bp_name;
            }))
  | Byzantine { budget } ->
    let compromised =
      List.length
        (List.filter policy.bp_compromised (List.init n (fun i -> i)))
    in
    if compromised > budget then
      raise
        (Error
           (Policy_mismatch
              {
                model = t;
                reason =
                  Printf.sprintf
                    "policy %S compromises %d of %d objects, budget is %d"
                    policy.bp_name compromised n budget;
              }))
