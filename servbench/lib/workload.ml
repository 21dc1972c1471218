type t = {
  name : string;
  why : string;
  f : int;
  k : int;
  value_bytes : int;
  keys : int;
  zipf : float;
  write_ratio : float;
  open_rate : float;
  inflight : int;
  cap_rate : float;
}

(* Rates are fixed after measuring.  cap_rate is the closed-loop
   capacity at the workload's in-flight count on a shared 2-vCPU box;
   it sizes the [cap] phase.  Each open rate sits at a tenth to a fifth
   of it: on this box, latency repeats run to run only at light load. *)
let all =
  [
    {
      name = "mem-coded-mixed";
      why =
        "k = f = 2 coded register, 1 KiB values, in memory: the codec and \
         KiB frames on the hot path, nothing persisted";
      f = 2;
      k = 2;
      value_bytes = 1024;
      keys = 1000;
      zipf = 0.0;
      write_ratio = 0.5;
      open_rate = 1000.0;
      inflight = 128;
      cap_rate = 5000.0;
    };
    {
      name = "mem-rep-read";
      why =
        "k = 1 replication, 64 B reads on Zipf-hot keys: per-frame and \
         per-round engine costs, no codec or persist work";
      f = 2;
      k = 1;
      value_bytes = 64;
      keys = 10_000;
      zipf = 0.99;
      write_ratio = 0.05;
      open_rate = 1500.0;
      inflight = 128;
      cap_rate = 15_000.0;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let shards = 4
let batch_max = 16
let flush_ms = 1
let chunks = 10
let cap_runs = 9
let cap_trim = 0.1
let n w = (2 * w.f) + w.k

let config ?(wrap = Fun.id) w =
  let n = n w in
  let codec =
    if w.k = 1 then Sb_codec.Codec.replication ~value_bytes:w.value_bytes ~n
    else Sb_codec.Codec.rs_vandermonde ~value_bytes:w.value_bytes ~k:w.k ~n
  in
  { Sb_registers.Common.n; f = w.f; codec = wrap codec }

let open_ms _ ~seconds = seconds * 400

let cap_per_slot w ~seconds =
  max 1
    (int_of_float
       (Float.round
          (w.cap_rate *. float_of_int seconds /. 2.0 /. float_of_int w.inflight)))

type arrival = { at_ms : float; key : int; write : int option }

type inputs = {
  setup : (int * int) list array;
  arrivals : arrival array;
  readback : int list array;
  cap : (int * int option) list array;
  value_key : int array;
  digest : string;
}

(* The key sampler of [Sb_service.Sdk.run_open], step for step: the
   same prng draws in the same order, so a seed fixes the same keys. *)
let key_sampler ~keys ~zipf prng =
  if keys <= 1 then fun () -> 0
  else if zipf <= 0.0 then fun () -> Sb_util.Prng.int prng keys
  else begin
    let cdf = Array.make keys 0.0 in
    let acc = ref 0.0 in
    for r = 0 to keys - 1 do
      acc := !acc +. (1.0 /. (float_of_int (r + 1) ** zipf));
      cdf.(r) <- !acc
    done;
    let total = !acc in
    fun () ->
      let u = Sb_util.Prng.float prng total in
      let lo = ref 0 and hi = ref (keys - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) > u then hi := mid else lo := mid + 1
      done;
      !lo
  end

(* [Sdk.run_open]'s arrival process: one prng seeded from [seed] draws
   the first gap, then per arrival its key, its kind and the next gap.
   An arrival is generated while its intended time is inside the
   window. *)
let open_arrivals w ~seed ~seconds =
  let prng = Sb_util.Prng.create (seed lxor 0x5bd1e995) in
  let sample_key = key_sampler ~keys:w.keys ~zipf:w.zipf prng in
  let gap () =
    let u = Sb_util.Prng.float prng 1.0 in
    -.log (1.0 -. u) /. w.open_rate *. 1000.0
  in
  let window = float_of_int (open_ms w ~seconds) in
  let writes = ref 0 in
  let rec go at acc =
    if at > window then Array.of_list (List.rev acc)
    else begin
      let key = sample_key () in
      let write =
        if Sb_util.Prng.float prng 1.0 < w.write_ratio then begin
          incr writes;
          Some !writes
        end
        else None
      in
      go (at +. gap ()) ({ at_ms = at; key; write } :: acc)
    end
  in
  go (gap ()) []

let open_value_id w i = w.keys + i - 1

let slots_of w ops =
  let slots = Array.make w.inflight [] in
  List.iteri (fun i op -> slots.(i mod w.inflight) <- op :: slots.(i mod w.inflight)) ops;
  Array.map List.rev slots

let inputs w ~seed ~seconds =
  let setup = slots_of w (List.init w.keys (fun r -> (r, r))) in
  let readback = slots_of w (List.init w.keys Fun.id) in
  let arrivals =
    Array.map
      (fun a -> { a with write = Option.map (open_value_id w) a.write })
      (open_arrivals w ~seed ~seconds)
  in
  let open_writes =
    Array.fold_left (fun n a -> if a.write = None then n else n + 1) 0 arrivals
  in
  let prng = Sb_util.Prng.create (seed lxor 0x63617020) in
  let sample_key = key_sampler ~keys:w.keys ~zipf:w.zipf prng in
  let next_id = ref (w.keys + open_writes) in
  let per_slot = cap_per_slot w ~seconds in
  let cap =
    Array.init w.inflight (fun _ ->
        List.init per_slot (fun _ ->
            let key = sample_key () in
            if Sb_util.Prng.float prng 1.0 < w.write_ratio then begin
              let id = !next_id in
              incr next_id;
              (key, Some id)
            end
            else (key, None)))
  in
  let value_key = Array.make !next_id 0 in
  for r = 0 to w.keys - 1 do
    value_key.(r) <- r
  done;
  Array.iter
    (fun a -> Option.iter (fun id -> value_key.(id) <- a.key) a.write)
    arrivals;
  Array.iter
    (List.iter (fun (key, v) -> Option.iter (fun id -> value_key.(id) <- key) v))
    cap;
  let b = Buffer.create (1 lsl 16) in
  Printf.bprintf b "%s seed=%d seconds=%d keys=%d\n" w.name seed seconds w.keys;
  let id = function Some i -> i | None -> -1 in
  Array.iter
    (fun a -> Printf.bprintf b "o %h %d %d\n" a.at_ms a.key (id a.write))
    arrivals;
  Array.iteri
    (fun s ops ->
      List.iter (fun (key, v) -> Printf.bprintf b "c %d %d %d\n" s key (id v)) ops)
    cap;
  {
    setup;
    arrivals;
    readback;
    cap;
    value_key;
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
  }

let value w id = Sb_experiments.Workloads.distinct_value ~value_bytes:w.value_bytes id

(* [distinct_value] stores [id + 1] little-endian in its first
   [min 7 value_bytes] bytes. *)
let value_id w v =
  if Bytes.length v <> w.value_bytes then None
  else begin
    let id = ref 0 in
    for p = min 7 w.value_bytes - 1 downto 0 do
      id := (!id lsl 8) lor Char.code (Bytes.get v p)
    done;
    let id = !id - 1 in
    if id >= 0 && Bytes.equal v (value w id) then Some id else None
  end

