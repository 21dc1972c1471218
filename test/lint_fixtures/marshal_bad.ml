(* Negative control for the marshal rule: a representation-dependent
   digest outside Runtime.fingerprint and Runtime.audit_key.  Never
   compiled — only parsed by the lint. *)

let digest v = Digest.string (Marshal.to_string v [])
let save oc v = Marshal.to_channel oc v []
