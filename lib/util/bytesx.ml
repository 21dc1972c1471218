let xor_into ~src ~dst =
  let n = Bytes.length dst in
  if Bytes.length src <> n then invalid_arg "Bytesx.xor_into: length mismatch";
  for i = 0 to n - 1 do
    Bytes.unsafe_set dst i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst i)
          lxor Char.code (Bytes.unsafe_get src i)))
  done

let xor a b =
  let out = Bytes.copy a in
  xor_into ~src:b ~dst:out;
  out

let of_int_le v ~width =
  if v < 0 then invalid_arg "Bytesx.of_int_le: negative";
  let b = Bytes.make width '\000' in
  let rec go v i =
    if v > 0 then
      if i >= width then invalid_arg "Bytesx.of_int_le: overflow"
      else begin
        Bytes.set b i (Char.chr (v land 0xff));
        go (v lsr 8) (i + 1)
      end
  in
  go v 0;
  b

let to_int_le b =
  let n = Bytes.length b in
  if n > 7 then invalid_arg "Bytesx.to_int_le: too wide";
  let rec go acc i =
    if i < 0 then acc else go ((acc lsl 8) lor Char.code (Bytes.get b i)) (i - 1)
  in
  go 0 (n - 1)

let pad_to b n =
  if Bytes.length b >= n then b
  else begin
    let out = Bytes.make n '\000' in
    Bytes.blit b 0 out 0 (Bytes.length b);
    out
  end

let chunks b ~size ~count =
  if size <= 0 then invalid_arg "Bytesx.chunks: size must be positive";
  Array.init count (fun i ->
      let chunk = Bytes.make size '\000' in
      let off = i * size in
      let avail = max 0 (min size (Bytes.length b - off)) in
      if avail > 0 then Bytes.blit b off chunk 0 avail;
      chunk)

let concat_chunks cs ~len =
  let total = Array.fold_left (fun acc c -> acc + Bytes.length c) 0 cs in
  let out = Bytes.make total '\000' in
  let off = ref 0 in
  Array.iter
    (fun c ->
      Bytes.blit c 0 out !off (Bytes.length c);
      off := !off + Bytes.length c)
    cs;
  Bytes.sub out 0 (min len total)

let compact buf ~from ~upto ~room =
  let live = upto - from and cap = Bytes.length buf in
  let dst =
    if live + room > cap then Bytes.create (max (live + room) (2 * cap)) else buf
  in
  Bytes.blit buf from dst 0 live;
  dst

let hex b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun ch -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code ch))) b;
  Buffer.contents buf

let of_hex s =
  let len = String.length s in
  if len mod 2 <> 0 then invalid_arg "Bytesx.of_hex: odd length";
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bytesx.of_hex: not a hex digit"
  in
  Bytes.init (len / 2) (fun i ->
      Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))

let popcount_byte = Array.init 256 (fun i ->
    let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
    go i 0)

let hamming_distance a b =
  let n = Bytes.length a in
  if Bytes.length b <> n then invalid_arg "Bytesx.hamming_distance: length mismatch";
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + popcount_byte.(Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i))
  done;
  !acc
