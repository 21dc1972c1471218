let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Measure.nearest_rank: no samples";
  if not (p > 0.0 && p <= 100.0) then
    invalid_arg "Measure.nearest_rank: percentile outside (0, 100]";
  (* p * n first: 95 * 20 / 100 is exactly 19, 0.95 * 20 is not. *)
  let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let beyond sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
  n - max 1 (min n rank)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  nearest_rank a 50.0

let by_chunk samples ~chunks p =
  let n = Array.length samples in
  if chunks < 1 || n < chunks then invalid_arg "Measure.by_chunk: fewer samples than chunks";
  List.init chunks (fun i ->
      let lo = i * n / chunks and hi = (i + 1) * n / chunks in
      let part = Array.sub samples lo (hi - lo) in
      Array.sort compare part;
      nearest_rank part p)

let fastest_chunk samples ~chunks p =
  List.fold_left min infinity (by_chunk samples ~chunks p)

(* A closed-loop slot invokes its next operation as its previous one
   returns, so its completions fall at the running sums of its
   latencies. *)
let closed_loop_times completions =
  let clock = Hashtbl.create 256 in
  let times =
    Array.of_list
      (List.map
         (fun (slot, lat) ->
           let t = lat +. Option.value ~default:0.0 (Hashtbl.find_opt clock slot) in
           Hashtbl.replace clock slot t;
           t)
         completions)
  in
  Array.sort compare times;
  times

let middle_rate times ~trim =
  let n = Array.length times in
  let lo = int_of_float (float_of_int n *. trim) in
  let hi = n - 1 - lo in
  if not (trim >= 0.0 && hi > lo) then invalid_arg "Measure.middle_rate: nothing left to time";
  float_of_int (hi - lo) /. ((times.(hi) -. times.(lo)) /. 1000.0)

(* Whitespace-separated tokens; /proc separates with spaces and tabs. *)
let words s =
  List.filter (( <> ) "") (String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s))

let cpu_ticks_of_stat line =
  match String.rindex_opt line ')' with
  | None -> invalid_arg "Measure.cpu_ticks_of_stat: no command field"
  | Some i ->
    (* After the command come field 3 (state) onwards: utime and stime
       are fields 14 and 15. *)
    let fields = words (String.sub line (i + 1) (String.length line - i - 1)) in
    let nth j =
      match List.nth_opt fields (j - 3) with
      | Some s -> int_of_string s
      | None -> invalid_arg "Measure.cpu_ticks_of_stat: short line"
    in
    nth 14 + nth 15

let field_of text name =
  let prefix = name ^ ":" in
  match List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text) with
  | None -> raise Not_found
  | Some l -> (
    let n = String.length prefix in
    match words (String.sub l n (String.length l - n)) with
    | t :: _ -> int_of_string t
    | [] -> raise Not_found)

let ticks_per_s = 100.0

let cpu_line text =
  match String.split_on_char '\n' text with
  | l :: _ when String.starts_with ~prefix:"cpu " l -> List.map int_of_string (List.tl (words l))
  | _ -> invalid_arg "Measure.cpu_line: no aggregate cpu line"


(* /proc/stat's aggregate line: user nice system idle iowait irq softirq
   steal ... *)
let steal_and_busy ~before ~after =
  let d = try List.map2 ( - ) after before with Invalid_argument _ -> [] in
  let total = List.fold_left ( + ) 0 d in
  let nth i = match List.nth_opt d i with Some x -> x | None -> 0 in
  if total <= 0 then (0.0, 0.0)
  else
    ( float_of_int (nth 7) /. float_of_int total,
      float_of_int (total - nth 3 - nth 4 - nth 7) /. float_of_int total )

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

let host_cpu () = try cpu_line (read_file "/proc/stat") with Sys_error _ | Invalid_argument _ -> []

type proc = {
  cpu_s : float;
  hwm_kb : int;
  vol_switches : int;
}

let sample pid =
  let file name = read_file (Printf.sprintf "/proc/%d/%s" pid name) in
  let status = file "status" in
  {
    cpu_s = float_of_int (cpu_ticks_of_stat (file "stat")) /. ticks_per_s;
    hwm_kb = field_of status "VmHWM";
    vol_switches = field_of status "voluntary_ctxt_switches";
  }

let live_registers ~keys (stats : Sb_service.Wire.stats list) =
  let shards =
    List.fold_left
      (fun acc (st : Sb_service.Wire.stats) ->
        max acc (List.length st.Sb_service.Wire.st_shards))
      1 stats
  in
  keys + shards

let storage_x ~bits ~live ~value_bytes =
  float_of_int bits /. float_of_int (live * 8 * value_bytes)

let per_key_peak_bits (stats : Sb_service.Wire.stats list) =
  List.fold_left
    (fun acc (st : Sb_service.Wire.stats) ->
      acc
      +
      match st.Sb_service.Wire.st_shards with
      | [] -> st.Sb_service.Wire.st_max_bits
      | shards ->
        List.fold_left
          (fun a (ss : Sb_service.Wire.shard_stat) ->
            max a ss.Sb_service.Wire.ss_max_key_bits)
          0 shards)
    0 stats

let ceiling_bits ~f ~k ~c ~value_bytes =
  let m = (2 * f) + k in
  min ((c + 1) * m) (m * m) * 8 * value_bytes / k

let floor_bits ~f ~k ~value_bytes = ((2 * f) + k) * 8 * value_bytes / k
