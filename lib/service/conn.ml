type t = {
  fd : Unix.file_descr;
  hooks : Netfault.t;
  in_place : bool;  (* no hook asks to see a frame: encode into [out] *)
  server : int;
  reader : Wire.Reader.t;  (* every read lands in its buffer *)
  mutable out : bytes;  (* [out.[sent, len)] waits for the socket *)
  mutable sent : int;
  mutable len : int;
  delayed : (float * bytes) Queue.t;
      (* (due ms, chunk), in send order.  Once the queue is non-empty
         every later chunk waits behind it, so the byte stream keeps its
         order however the hooks slice and delay it. *)
  mutable closing : bool;
  mutable closed : bool;
  mutable eof : bool;
}

let create ?max_version ~hooks ~server fd =
  {
    fd;
    hooks;
    in_place = hooks.Netfault.nf_frame == Netfault.none.Netfault.nf_frame;
    server;
    reader = Wire.Reader.create ?max_version ();
    out = Bytes.create 256;
    sent = 0;
    len = 0;
    delayed = Queue.create ();
    closing = false;
    closed = false;
    eof = false;
  }

let fd c = c.fd
let closing c = c.closing
let closed c = c.closed
let eof c = c.eof
let pending c = c.len > c.sent
let drained c = (not (pending c)) && Queue.is_empty c.delayed

let close c =
  if not c.closed then begin
    c.closing <- true;
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let close_when_drained c = c.closing <- true

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* Room for [n] more bytes at [out.[len]]: the unsent bytes move to the
   front only when the new ones do not fit behind them. *)
let make_room c n =
  if c.len + n > Bytes.length c.out then begin
    c.out <- Sb_util.Bytesx.compact c.out ~from:c.sent ~upto:c.len ~room:n;
    c.len <- c.len - c.sent;
    c.sent <- 0
  end

let append c chunk =
  let n = Bytes.length chunk in
  make_room c n;
  Bytes.blit chunk 0 c.out c.len n;
  c.len <- c.len + n

let push c ~now (delay_ms, chunk) =
  if delay_ms <= 0 && Queue.is_empty c.delayed then append c chunk
  else Queue.add (now +. float_of_int delay_ms, chunk) c.delayed

let send c ~now frame =
  (* A closing connection's stream may end in a truncated frame: bytes
     appended after it would complete that frame with the next frame's
     header — silent corruption, not loss.  So once closing, frames are
     dropped before the hook sees them. *)
  if not c.closing then
    match c.hooks.Netfault.nf_frame ~server:c.server frame with
    | Netfault.Pass -> push c ~now (0, frame)
    | Netfault.Drop -> ()
    | Netfault.Emit segments -> List.iter (push c ~now) segments
    | Netfault.Emit_close segments ->
      List.iter (push c ~now) segments;
      c.closing <- true

(* Without a hook to show the frame to or a delayed segment to queue it
   behind, the frame goes from the encoder's scratch buffer straight
   into [out]. *)
let send_msg c ~now ~version msg =
  if c.closing then ()
  else if c.in_place && Queue.is_empty c.delayed then
    Wire.encode_msg_into ~version msg (fun n ->
        make_room c n;
        let off = c.len in
        c.len <- off + n;
        (c.out, off))
  else send c ~now (Wire.encode_msg ~version msg)

(* The slow close lands once the last queued byte has left. *)
let settle c = if c.closing && drained c then close c

let tick c ~now =
  let rec release () =
    match Queue.peek_opt c.delayed with
    | Some (due, chunk) when due <= now ->
      ignore (Queue.pop c.delayed);
      append c chunk;
      release ()
    | _ -> ()
  in
  if not c.closed then begin
    release ();
    settle c
  end

let flush c =
  if (not c.closed) && pending c then
    match Unix.write c.fd c.out c.sent (c.len - c.sent) with
    | n ->
      c.sent <- c.sent + n;
      if c.sent = c.len then begin
        c.sent <- 0;
        c.len <- 0
      end;
      settle c
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close c

(* ------------------------------------------------------------------ *)
(* Input                                                               *)
(* ------------------------------------------------------------------ *)

let receive c ~while_closing handle =
  if not c.closed then
    match Wire.Reader.read c.reader (Unix.read c.fd) with
    | 0 ->
      c.eof <- true;
      close c
    | _ ->
      let rec drain () =
        if (not c.closed) && (while_closing || not c.closing) then
          match Wire.Reader.next c.reader with
          | Ok None -> ()
          | Ok (Some msg) ->
            handle msg;
            drain ()
          | Error _ -> close c
      in
      drain ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close c
