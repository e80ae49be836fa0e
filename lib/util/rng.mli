(** Deterministic, splittable pseudo-random number generator.

    Every protocol in this library draws randomness exclusively through this
    module, so that any simulation is reproducible from a single integer
    seed.  The generator is SplitMix64 (Steele, Lea & Flood 2014): a small,
    fast, statistically solid 64-bit generator whose defining feature is
    cheap splitting, which we use to hand every simulated node an
    independent stream. *)

type t
(** Mutable generator state.  Draws through [int], [bool],
    [bernoulli] and [bernoulli_pow2] allocate nothing; [bits64] and
    [float] box their result. *)

val create : seed:int -> t
(** [create ~seed] builds a fresh generator from [seed].  Equal seeds yield
    equal streams. *)

val split : t -> t
(** [split t] derives a new generator whose future output is independent of
    [t]'s; both generators advance independently afterwards. *)

val split_n : t -> int -> t array
(** [split_n t n] derives [n] independent generators (one per node). *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy replays [t]'s future. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val bernoulli_pow2 : t -> int -> bool
(** [bernoulli_pow2 t e] is [bernoulli t (1.0 /. float_of_int (1 lsl e))],
    the same draw, computed inside this module: a caller passes an int
    where a computed float argument would be boxed on every call. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct values from
    [\[0, n)], in uniformly random order.  Requires [0 <= k <= n]. *)
