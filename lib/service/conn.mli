(** One framed connection of the live service: the socket code the SDK
    engine, [Sdk.fetch_stats] and the daemon share (docs/SERVICE.md,
    "Connections").

    A connection owns its file descriptor, the {!Wire.Reader} that
    reassembles inbound frames, and the ordered output: bytes waiting
    for the socket, then the segments a {!Netfault} hook delayed.  A
    segment leaves only after every segment queued before it, so
    however a hook slices, delays or duplicates frames, the peer reads
    them in send order.  This module never reads a clock: every time
    is the caller's [~now], in milliseconds on the caller's own clock.

    {2 Encoding in place}

    {!send_msg} encodes a message into the output buffer itself, copied
    once from {!Wire}'s per-domain scratch buffer, when the connection's
    frame hook is {!Netfault.none}'s and no delayed segment is queued.
    That is every send of a fault-free SDK engine, daemon and
    [Sdk.fetch_stats].  Otherwise it builds the frame as bytes and
    hands it to {!send}, so the hook sees every frame and a delayed
    segment still leaves first.  Both paths put the same bytes on the
    socket.

    {2 Closing}

    A connection is open, closing or closed.  Closing (an [Emit_close]
    hook action, or {!close_when_drained}) accepts no more frames:
    {!send} drops them, since a frame appended after a truncated one
    would be read as that frame's tail.  A closing connection closes
    itself once its buffered and delayed bytes have left.  It also
    closes itself on end of file, a socket error or a malformed inbound
    frame.  Closing the descriptor is this module's job; the caller
    checks {!closed} and does its own bookkeeping. *)

type t

val create :
  ?max_version:int -> hooks:Netfault.t -> server:int -> Unix.file_descr -> t
(** A connection over a connected socket.  [hooks.nf_frame ~server]
    rules on every frame {!send} is given; [max_version] (default
    {!Wire.version}) bounds the inbound frame versions, as in
    {!Wire.Reader.create}. *)

val fd : t -> Unix.file_descr

val send : t -> now:float -> bytes -> unit
(** Hand one encoded frame to the fault hook and queue what it emits:
    [Pass] queues the frame now, [Drop] nothing, [Emit] its segments
    behind any delayed ones, [Emit_close] its segments and then starts
    the slow close.  Dropped unseen while closing. *)

val send_msg : t -> now:float -> version:int -> Wire.msg -> unit
(** Encode [msg] at [version] and send it as {!send} would; in place
    when no hook needs the frame (see above).  Dropped unencoded while
    closing.  Raises [Invalid_argument] when [version] cannot carry
    [msg] ({!Wire.encodable}). *)

val tick : t -> now:float -> unit
(** Move the delayed segments that are due by [now] to the output, in
    order, and land a slow close whose output has drained.  Call it
    before deciding whether to select for writing. *)

val pending : t -> bool
(** Bytes are waiting for the socket: select for writing. *)

val drained : t -> bool
(** Neither buffered nor delayed bytes remain. *)

val flush : t -> unit
(** Write as much of the pending output as the socket takes, from where
    the last write stopped.  [EAGAIN] leaves the rest for later; a
    socket error closes the connection. *)

val receive : t -> while_closing:bool -> (Wire.msg -> unit) -> unit
(** One read from the socket, then every complete frame to the handler,
    in order, while the connection is open — and, with [while_closing =
    false], while it is not closing either.  End of file, a socket
    error or a malformed frame close the connection.  The handler may
    close the connection; draining stops there. *)

val close_when_drained : t -> unit
(** Start a slow close: accept no more frames, close once the queued
    output has left. *)

val close : t -> unit
(** Close now.  Idempotent. *)

val closing : t -> bool
(** No more frames are accepted (true once closed, too). *)

val closed : t -> bool

val eof : t -> bool
(** The connection closed because the peer hung up (a read returned 0),
    not because of a socket error, a malformed frame or this side. *)
