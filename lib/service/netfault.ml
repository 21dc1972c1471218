(* Socket-layer fault hooks.  The daemon and the SDK consult one of
   these at every connection attempt and for every outbound frame; the
   seeded policies that fill them in live in Sb_faults.Live, keeping
   the service itself free of any fault-plan vocabulary. *)

type action =
  | Pass
  | Drop
  | Emit of (int * bytes) list
  | Emit_close of (int * bytes) list

type t = {
  nf_accept : server:int -> bool;
  nf_connect : server:int -> bool;
  nf_frame : server:int -> bytes -> action;
}

let none =
  {
    nf_accept = (fun ~server:_ -> true);
    nf_connect = (fun ~server:_ -> true);
    nf_frame = (fun ~server:_ _ -> Pass);
  }
