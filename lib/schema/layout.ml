module Sch = Schema

exception Decode of string

let fail fmt = Printf.ksprintf (fun m -> raise (Decode m)) fmt

type cursor = { buf : bytes; mutable pos : int; stop : int }

let cursor ?(off = 0) ?len buf =
  let len = match len with Some n -> n | None -> Bytes.length buf - off in
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Layout.cursor: range outside the buffer";
  { buf; pos = off; stop = off + len }

let at_end c = c.pos = c.stop
let need c n = if c.pos + n > c.stop then raise (Decode "truncated frame")

let get_u8 c =
  need c 1;
  let x = Bytes.get_uint8 c.buf c.pos in
  c.pos <- c.pos + 1;
  x

let get_count c =
  need c 4;
  let n = Int32.to_int (Bytes.get_int32_be c.buf c.pos) in
  c.pos <- c.pos + 4;
  if n < 0 then raise (Decode "negative length");
  n

(* A layout written from ['w] and read as ['r]; the two differ only for
   an enum arm's body, which is read straight into the enum value.
   [newest] is the newest version any part of the layout names: from
   it on, every value fits. *)
type ('w, 'r) codec = {
  ty : int -> Sch.ty;
  write : int -> Buffer.t -> 'w -> unit;
  read : int -> cursor -> 'r;
  fits : int -> 'w -> bool;
  newest : int;
}

type 'a t = ('a, 'a) codec

let ty l ~version = l.ty version
let fits l ~version x = l.fits version x
let write l ~version b x = l.write version b x
let read l ~version c = l.read version c
let always _ _ = true
let guard newest slow = if newest = 0 then always else fun v x -> v >= newest || slow v x
let scalar ty write read = { ty = (fun _ -> ty); write; read; fits = always; newest = 0 }

let u8 =
  scalar Sch.U8 (fun _ b x -> Buffer.add_uint8 b (x land 0xff)) (fun _ c -> get_u8 c)

let bool =
  scalar Sch.Bool
    (fun _ b x -> Buffer.add_uint8 b (if x then 1 else 0))
    (fun _ c -> match get_u8 c with 0 -> false | 1 -> true | n -> fail "bad bool %d" n)

let int =
  scalar Sch.I64
    (fun _ b x -> Buffer.add_int64_be b (Int64.of_int x))
    (fun _ c ->
      need c 8;
      let x = Bytes.get_int64_be c.buf c.pos in
      c.pos <- c.pos + 8;
      let n = Int64.to_int x in
      if not (Int64.equal (Int64.of_int n) x) then fail "i64 %Ld outside the int range" x;
      n)

let bytes =
  scalar Sch.Bytes
    (fun _ b s ->
      Buffer.add_int32_be b (Int32.of_int (Bytes.length s));
      Buffer.add_bytes b s)
    (fun _ c ->
      let n = get_count c in
      need c n;
      let s = Bytes.sub c.buf c.pos n in
      c.pos <- c.pos + n;
      s)

(* The empty string, the single register's key, is shared, not
   allocated. *)
let string =
  scalar Sch.Bytes
    (fun _ b s ->
      Buffer.add_int32_be b (Int32.of_int (String.length s));
      Buffer.add_string b s)
    (fun _ c ->
      let n = get_count c in
      need c n;
      let s = if n = 0 then "" else Bytes.sub_string c.buf c.pos n in
      c.pos <- c.pos + n;
      s)

let list e =
  let ew = e.write and er = e.read in
  {
    ty = (fun v -> Sch.List (e.ty v));
    write =
      (fun v b xs ->
        Buffer.add_int32_be b (Int32.of_int (List.length xs));
        List.iter (fun x -> ew v b x) xs);
    read =
      (fun v c ->
        let n = get_count c in
        if n > c.stop - c.pos then raise (Decode "list longer than frame");
        List.init n (fun _ -> er v c));
    fits = guard e.newest (fun v xs -> List.for_all (e.fits v) xs);
    newest = e.newest;
  }

let option e =
  let ew = e.write and er = e.read in
  {
    ty = (fun v -> Sch.Option (e.ty v));
    write =
      (fun v b -> function
        | None -> Buffer.add_uint8 b 0
        | Some x ->
          Buffer.add_uint8 b 1;
          ew v b x);
    read =
      (fun v c ->
        match get_u8 c with
        | 0 -> None
        | 1 -> Some (er v c)
        | n -> fail "bad presence byte %d" n);
    fits = guard e.newest (fun v -> function None -> true | Some x -> e.fits v x);
    newest = e.newest;
  }

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

type 'a below = Dropped of 'a | Absent of 'a

(* [f_codec] already applies the field's version rule. *)
type 'a field = { f_name : string; f_since : int; f_codec : 'a t }

let field f_name f_codec = { f_name; f_since = 0; f_codec }

let since at f_name c below =
  let old = match below with Dropped x | Absent x -> x in
  let cw = c.write and cr = c.read and cf = c.fits in
  let read v cur = if v >= at then cr v cur else old in
  let f_codec =
    match below with
    | Dropped _ ->
      {
        c with
        write = (fun v b x -> if v >= at then cw v b x);
        read;
        fits = (fun v x -> v < at || cf v x);
      }
    | Absent _ ->
      {
        c with
        write =
          (fun v b x ->
            if v >= at then cw v b x
            else if x <> old then
              invalid_arg (Printf.sprintf "Layout: field %s needs version >= %d" f_name at));
        read;
        fits = (fun v x -> if v >= at then cf v x else x = old);
        newest = max at c.newest;
      }
  in
  { f_name; f_since = at; f_codec }

type ('k, 'r, 'l) fields =
  | [] : ('r, 'r, unit) fields
  | ( :: ) : 'a field * ('k, 'r, 'l) fields -> ('a -> 'k, 'r, 'a * 'l) fields

type 'l values = [] : unit values | ( :: ) : 'a * 'l values -> ('a * 'l) values

let rec field_tys : type k r l. (k, r, l) fields -> int -> Sch.field list =
 fun fs v ->
  match fs with
  | [] -> []
  | f :: fs ->
    if v >= f.f_since then { Sch.f_name = f.f_name; f_ty = f.f_codec.ty v } :: field_tys fs v
    else field_tys fs v

let rec fields_newest : type k r l. (k, r, l) fields -> int = function
  | [] -> 0
  | f :: fs -> max f.f_codec.newest (fields_newest fs)

(* The writer and reader of a field list are closures built once, which
   hold the fields' own closures: a call touches those closures only,
   not the layout's lists and records, which matters when the caches
   are cold. *)
let rec writer : type k r l. (k, r, l) fields -> int -> Buffer.t -> l values -> unit =
  function
  | [] -> fun _ _ [] -> ()
  | f :: fs ->
    let w = f.f_codec.write and rest = writer fs in
    fun v b (x :: xs) ->
      w v b x;
      rest v b xs

let rec fits_fields : type k r l. (k, r, l) fields -> int -> l values -> bool =
 fun fs v xs ->
  match (fs, xs) with
  | [], [] -> true
  | f :: fs, x :: xs -> f.f_codec.fits v x && fits_fields fs v xs

(* Reads every field in wire order, then calls [make] once: applying it
   one field at a time allocates a partial application per field. *)
let reader : type k r l. (k, r, l) fields -> k -> int -> cursor -> r =
 fun fs make ->
  let rd f = f.f_codec.read in
  match fs with
  | [] -> fun _ _ -> make
  | [ a ] ->
    let a = rd a in
    fun v c -> make (a v c)
  | [ a; b ] ->
    let a = rd a and b = rd b in
    fun v c ->
      let a = a v c in
      make a (b v c)
  | [ a; b; d ] ->
    let a = rd a and b = rd b and d = rd d in
    fun v c ->
      let a = a v c in
      let b = b v c in
      make a b (d v c)
  | [ a; b; d; e ] ->
    let a = rd a and b = rd b and d = rd d and e = rd e in
    fun v c ->
      let a = a v c in
      let b = b v c in
      let d = d v c in
      make a b d (e v c)
  | [ a; b; d; e; f ] ->
    let a = rd a and b = rd b and d = rd d and e = rd e and f = rd f in
    fun v c ->
      let a = a v c in
      let b = b v c in
      let d = d v c in
      let e = e v c in
      make a b d e (f v c)
  | [ a; b; d; e; f; g ] ->
    let a = rd a and b = rd b and d = rd d and e = rd e and f = rd f and g = rd g in
    fun v c ->
      let a = a v c in
      let b = b v c in
      let d = d v c in
      let e = e v c in
      let f = f v c in
      make a b d e f (g v c)
  | [ a; b; d; e; f; g; h ] ->
    let a = rd a and b = rd b and d = rd d and e = rd e and f = rd f and g = rd g
    and h = rd h in
    fun v c ->
      let a = a v c in
      let b = b v c in
      let d = d v c in
      let e = e v c in
      let f = f v c in
      let g = g v c in
      make a b d e f g (h v c)
  | [ a; b; d; e; f; g; h; i ] ->
    let a = rd a and b = rd b and d = rd d and e = rd e and f = rd f and g = rd g
    and h = rd h and i = rd i in
    fun v c ->
      let a = a v c in
      let b = b v c in
      let d = d v c in
      let e = e v c in
      let f = f v c in
      let g = g v c in
      let h = h v c in
      make a b d e f g h (i v c)
  | fs ->
    let rec go : type k l. (k, r, l) fields -> k -> int -> cursor -> r =
     fun fs k v c ->
      match fs with
      | [] -> k
      | f :: fs ->
        let x = rd f v c in
        go fs (k x) v c
    in
    fun v c -> go fs make v c

let shape fs make =
  let newest = fields_newest fs in
  {
    ty = (fun v -> Sch.Record (field_tys fs v));
    write = writer fs;
    read = reader fs make;
    fits = guard newest (fun v xs -> fits_fields fs v xs);
    newest;
  }

let record fs make dest =
  let s = shape fs make in
  let w = s.write in
  {
    s with
    write = (fun v b x -> w v b (dest x));
    fits = guard s.newest (fun v x -> fits_fields fs v (dest x));
  }

(* ------------------------------------------------------------------ *)
(* Enums                                                               *)
(* ------------------------------------------------------------------ *)

(* [a_write] writes the tag and the body, and refuses a version below
   the arm's. *)
type ('a, 'p) arm = {
  tag : int;
  name : string;
  a_since : int;
  body : ('p, 'a) codec;
  a_write : int -> Buffer.t -> 'p -> unit;
}
type 'a case = Case : ('a, 'p) arm * 'p -> 'a case
type 'a any_arm = Arm : ('a, 'p) arm -> 'a any_arm

let make_arm since tag name body =
  let w = body.write in
  let a_write v b p =
    if v < since then
      invalid_arg (Printf.sprintf "Layout: arm %s needs version >= %d" name since);
    Buffer.add_uint8 b tag;
    w v b p
  in
  { tag; name; a_since = since; body; a_write }

let arm ?(since = 0) tag name fs make = make_arm since tag name (shape fs make)

let arm_of ?(since = 0) tag name l inj =
  let r = l.read in
  make_arm since tag name { l with read = (fun v c -> inj (r v c)) }

let tag a = a.tag
let case a p = Case (a, p)

let enum name arms select =
  let bad t v _ = fail "bad %s tag %d for version %d" name t v in
  let size = List.fold_left (fun m (Arm a) -> max m (a.tag + 1)) 0 arms in
  let table = Array.init size (fun t -> bad t) in
  List.iter
    (fun (Arm a) ->
      let r = a.body.read and at = a.a_since and t = a.tag in
      table.(t) <- (fun v c -> if v >= at then r v c else bad t v c))
    arms;
  let newest =
    List.fold_left (fun m (Arm a) -> max m (max a.a_since a.body.newest)) 0 arms
  in
  let schema_arm v = function
    | Arm a when v >= a.a_since ->
      Some { Sch.a_tag = a.tag; a_name = a.name; a_body = a.body.ty v }
    | Arm _ -> None
  in
  {
    ty = (fun v -> Sch.Enum (List.filter_map (schema_arm v) arms));
    write = (fun v b x -> match select x with Case (a, p) -> a.a_write v b p);
    read =
      (fun v c ->
        let t = get_u8 c in
        if t < size then table.(t) v c else bad t v c);
    fits =
      guard newest (fun v x ->
          match select x with Case (a, p) -> v >= a.a_since && a.body.fits v p);
    newest;
  }

let constants name xs =
  let cases = List.map (fun (t, n, x) -> (x, Case (arm t n [] x, []))) xs in
  enum name
    (List.map (function _, Case (a, _) -> Arm a) cases)
    (fun x -> List.assq x cases)
