(** Deterministic pseudo-random number generation (splitmix64).

    All randomness in the simulator flows through this module so that every
    experiment is reproducible from a single seed.  The generator is the
    splitmix64 algorithm: tiny state, excellent statistical quality for
    simulation workloads, and trivially splittable so independent components
    (cores, workload generators) can derive independent streams.

    {b No allocation.}  Drawing never allocates: [int], [bool] and
    [chance] touch no heap at all, and [float] and [next_int64] do not
    either once inlined at the call site (a release build; the dev profile
    compiles with [-opaque], which forbids cross-module inlining, so there
    their result is boxed on return).  The arrival walk draws about a
    thousand Bernoulli trials per served request, so a single boxed word
    per draw would dominate the serving engine's allocation.  The 64-bit
    state is therefore kept unboxed in an 8-byte buffer rather than a
    mutable [int64] field, which would box a fresh value on every store. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of [t]'s
    future output.  Advances [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing it. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
