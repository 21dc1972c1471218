type summary = {
  count : int;
  min : int;
  max : int;
  mean : float;
  stddev : float;
  median : float;
}

let percentile samples ~p =
  if samples = [] then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.of_list (List.sort Int.compare samples) in
  let n = Array.length sorted in
  if n = 1 then float_of_int sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    ((1.0 -. frac) *. float_of_int sorted.(lo)) +. (frac *. float_of_int sorted.(hi))
  end

let nearest_rank sorted ~p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let summarize samples =
  match samples with
  | [] -> invalid_arg "Stats.summarize: empty sample"
  | _ ->
    let count = List.length samples in
    let fcount = float_of_int count in
    let mean = float_of_int (List.fold_left ( + ) 0 samples) /. fcount in
    let var =
      List.fold_left
        (fun acc x ->
          let d = float_of_int x -. mean in
          acc +. (d *. d))
        0.0 samples
      /. fcount
    in
    {
      count;
      min = List.fold_left min max_int samples;
      max = List.fold_left max min_int samples;
      mean;
      stddev = sqrt var;
      median = percentile samples ~p:50.0;
    }

let pp ppf s =
  Format.fprintf ppf "%d/%.0f/%d (%.1f ± %.1f)" s.min s.median s.max s.mean s.stddev
