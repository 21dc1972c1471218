(** Transport-agnostic client side of the register service: the quorum
    mailbox and the retransmission timer wheel, shared by the simulated
    transport ([Sb_msgnet.Mp_runtime]) and the socket client
    ({!Sdk}). *)

(** Responses received so far, keyed by ticket.  Responses can arrive
    before the client's await is even entered; awaits read whatever has
    accumulated. *)
module Mailbox : sig
  type t

  val create : unit -> t

  val record : t -> ticket:int -> obj:int -> Sb_sim.Rmwdesc.resp -> unit
  (** Later copies of the same ticket's response (retransmission after a
      lost reply) simply overwrite — the register RMWs answer duplicates
      deterministically. *)

  val find : t -> int -> (int * Sb_sim.Rmwdesc.resp) option
  val has : t -> int -> bool
  val satisfied : t -> tickets:int list -> quorum:int -> bool
  val responses_for :
    t -> tickets:int list -> (int * Sb_sim.Rmwdesc.resp) list
  (** In ticket-list order; only tickets with responses. *)

  val consume :
    t -> tickets:int list -> (int * Sb_sim.Rmwdesc.resp) list
  (** {!responses_for}, then forget every listed ticket: an await that
      returned never reads its tickets again, so a client that consumes
      them keeps only the responses still awaited. *)
end

(** Per-ticket retransmission timers with exponential backoff.  The
    retained request is polymorphic: the simulator stores its message
    record, the socket client an encoded frame. *)
module Retransmit : sig
  type config = {
    rto : int;          (** Initial timeout (steps or milliseconds). *)
    max_attempts : int; (** 0 = unbounded. *)
  }

  type 'req timer = {
    owner : int;  (** The client the request belongs to. *)
    req : 'req;
    mutable deadline : int;
    mutable attempt : int;
  }

  type 'req t

  val create : unit -> 'req t
  val arm : 'req t -> ticket:int -> owner:int -> deadline:int -> 'req -> unit
  val find : 'req t -> int -> 'req timer option
  val cancel : 'req t -> int -> unit
  val cancel_list : 'req t -> int list -> unit
  val owned : 'req t -> owner:int -> int list

  val within_budget : config -> 'req timer -> bool
  (** The attempts budget ([max_attempts]) is not exhausted. *)

  val pending : 'req t -> live:(int -> 'req timer -> bool) -> int list
  (** Armed tickets passing the caller's liveness test (typically:
      budget not exhausted, no response yet, owner still running),
      sorted. *)

  val due : 'req t -> now:int -> live:(int -> 'req timer -> bool) -> int list
  (** {!pending} restricted to expired deadlines. *)

  val backoff : ?cap:int -> ?jitter:int -> config -> 'req timer -> now:int -> unit
  (** Count an attempt and push the deadline out exponentially
      ([rto * 2^attempt], capped).  [cap] bounds the exponential term
      (floored at [rto]); [jitter] is extra milliseconds/steps the
      caller drew from its own seeded randomness — desynchronising
      retry storms is the caller's policy, determinism is this
      module's. *)
end
