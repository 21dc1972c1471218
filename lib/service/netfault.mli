(** Socket-layer fault-injection hooks for the live service.

    {!Daemon} and {!Sdk} consult a [t] at two points: when a connection
    is dialled or accepted, and once per {e outbound} frame (faulting
    each side's output covers both directions of the wire).  The
    default {!none} passes everything through untouched; the seeded
    policies that drop, delay, duplicate, and fragment frames are
    built from a fault {e plan} by [Sb_faults.Live] — the service
    layer itself knows nothing about plans or probabilities.

    Frames are self-delimiting (u32 length prefix), so frame-level
    faults keep the byte stream decodable: dropping a frame removes it
    whole, duplicating appends a second copy, and fragmenting splits
    its bytes into delayed segments that arrive as adversarial partial
    writes through [Wire.Reader].  Byte corruption is deliberately not
    in the vocabulary — a real kernel does not flip stream bytes, and
    corruption detection belongs to the disk layer, where persisted
    records are checksummed. *)

type action =
  | Pass  (** Enqueue the frame unchanged, now. *)
  | Drop  (** Discard the frame silently (the peer never sees it). *)
  | Emit of (int * bytes) list
      (** Replace the frame with scheduled segments
          [(delay_ms, chunk)], emitted in list order with at least the
          given delay each — fragmentation, duplication, and delay are
          all spellings of this.  Segment order is preserved relative
          to every later frame on the same connection. *)
  | Emit_close of (int * bytes) list
      (** Emit the segments, then close the connection — a slow-close
          that can leave the peer holding a partial frame. *)

type t = {
  nf_accept : server:int -> bool;
      (** Consulted by the daemon hosting [server] on every accept;
          [false] closes the fresh connection immediately (the client
          sees a refused/reset dial). *)
  nf_connect : server:int -> bool;
      (** Consulted by the SDK before dialling [server]; [false] is
          treated as a failed dial (backoff applies). *)
  nf_frame : server:int -> bytes -> action;
      (** Consulted per outbound frame.  On the daemon side [server]
          is the hosted server id; on the SDK side it is the peer
          server the frame is addressed to. *)
}

val none : t
(** Pass-through hooks: fault-free behaviour, zero overhead. *)
