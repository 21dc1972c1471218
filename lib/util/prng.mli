(** Deterministic, splittable pseudo-random number generator.

    All randomness in the simulator flows through this module so that every
    run is reproducible from a single 64-bit seed.  The generator is
    xoshiro256** seeded through splitmix64, which is the standard
    recommended seeding procedure and gives full 256-bit state from any
    64-bit seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator deterministically from [seed]. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams
    produced by the parent and the child are statistically independent;
    used to give each simulated client its own stream. *)

val bits64 : t -> int64
(** Next 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] uniformly random bytes. *)
