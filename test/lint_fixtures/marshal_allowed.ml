(* The same sites as marshal_bad.ml, each silenced by a pragma. *)

(* sb-lint: allow marshal — fixture: pretend this is an in-process replay digest *)
let digest v = Digest.string (Marshal.to_string v [])

(* sb-lint: allow marshal — fixture: pretend this is an in-process replay digest *)
let save oc v = Marshal.to_channel oc v []
