(** Deterministic, splittable pseudo-random number generator.

    The generator is xoshiro256++ seeded through splitmix64, so a single
    integer seed reproduces an entire experiment. [split] derives an
    independent stream, which lets concurrent simulation components draw
    random bits without perturbing each other's sequences. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    independent of the remainder of [t]'s stream. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy replays [t]'s future. *)

val bits64 : t -> int64
(** Next raw 64-bit output word. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val uniform01 : t -> float
(** Uniform in [\[0, 1)], with 53 bits of precision. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on
    an empty array. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct values from
    [0..n-1], in random order. Requires [0 <= k <= n]. *)
