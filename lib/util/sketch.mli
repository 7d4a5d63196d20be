(** Bounded-memory streaming summaries: Space-Saving heavy hitters and a
    relative-accuracy quantile/histogram sketch.

    Exact per-key accounting of a CONGEST run costs O(m) memory — one
    counter per host edge — which is exactly the footprint the Bigarray
    graph refactor reclaimed. These two sketches keep the observability
    questions answerable ("which edges are hot?", "how are per-edge loads
    distributed?") in memory independent of the stream length and, for
    {!Space_saving}, independent of the key universe:

    - {!Space_saving} tracks the heaviest keys of a weighted integer
      stream in a fixed budget of counters, with a per-key deterministic
      overcount bound (Metwally, Agarwal & El Abbadi, 2005).
    - {!Quantile} summarizes a stream of non-negative integers into
      power-of-two octaves split into [2^s] linear sub-buckets (HDR /
      DDSketch-style), so any quantile or histogram query is answered
      within a configurable relative accuracy using pure integer
      bucketing — no libm, so results are bit-stable across platforms.

    All operations are single-threaded. *)

(** Heavy hitters over a weighted stream of integer keys.

    A sketch of capacity [c] maintains at most [c] entries [(key, est,
    err)] such that for every tracked key, [est - err <= true <= est]
    (where [true] is the key's total added weight), and every key that is
    {e not} tracked has total weight at most {!threshold}[ t] — the
    smallest tracked estimate. Hence any key whose true weight exceeds
    [total t / c] is guaranteed to be tracked. *)
module Space_saving : sig
  type t

  val create : ?on_evict:(int -> int -> unit) -> int -> t
  (** [create c] allocates a sketch of capacity [c >= 1]. [on_evict key
      est] is called each time a tracked key is displaced by a new one,
      with the estimate it carried at eviction — the profile collector
      feeds these "episodes" into a {!Quantile} summary so the evicted
      mass still shows up in histograms. *)

  val capacity : t -> int

  val size : t -> int
  (** Tracked keys; [size t <= capacity t]. *)

  val total : t -> int
  (** Sum of all weights ever added (exact). *)

  val evictions : t -> int
  (** Number of displacements so far; [0] means the sketch is exact. *)

  val add : t -> int -> int -> unit
  (** [add t key w] folds weight [w >= 0] of [key] into the sketch.
      [w = 0] is a no-op. *)

  val estimate : t -> int -> (int * int) option
  (** [(est, err)] for a tracked key: [est - err <= true <= est]. [None]
      when the key is not tracked (then [true <= threshold t]). *)

  val entries : t -> (int * int * int) list
  (** All tracked [(key, est, err)], heaviest first, ties by key. *)

  val top : ?k:int -> t -> (int * int) list
  (** The [k] (default 10) heaviest tracked keys as [(key, est)]. *)

  val threshold : t -> int
  (** Smallest tracked estimate when the sketch is full, else [0]: an
      upper bound on the true weight of any untracked key. *)

  val max_overcount : t -> int
  (** Largest [err] over tracked entries — the sketch-wide bound on how
      far any reported estimate can exceed the truth. At most
      [total t / capacity t]. *)
end

(** Relative-accuracy summary of a stream of non-negative integers, for
    quantile and histogram queries. *)
module Quantile : sig
  type t

  val create : ?accuracy:float -> unit -> t
  (** [accuracy] (default [0.01], clamped to [[1e-4, 0.5]]) is the target
      relative error; the realized guarantee is {!accuracy}[ t]. Memory is
      O(octaves / accuracy), lazily grown, independent of stream length. *)

  val accuracy : t -> float
  (** Realized relative accuracy [1 / 2^s] (at most the requested one):
      every recorded value [v] falls in a bucket whose midpoint [m]
      satisfies [|m - v| <= accuracy * v + 1]. *)

  val add : t -> int -> unit
  (** Record one occurrence of value [v >= 0]. *)

  val count : t -> int
  val sum : t -> int

  val min_value : t -> int
  (** Smallest recorded value (exact); [0] when empty. *)

  val max_value : t -> int
  (** Largest recorded value (exact); [0] when empty. *)

  val quantile : t -> float -> int
  (** [quantile t q] for [q] in [[0, 1]]: a value whose rank among the
      recorded values matches [q] up to bucket resolution, i.e. within
      {!accuracy} relative error of the exact [q]-quantile (plus one).
      [0] when empty. *)

  val buckets : t -> (int * int * int) list
  (** Non-empty buckets as [(lo, hi, count)], inclusive ranges, ascending
      in value — the histogram. Bucket widths are 1 for small values and
      grow geometrically, so a [1 .. 10^8] word range yields readable
      octave-scaled bins instead of eight 12.5-million-word slabs. *)

  val merge_into : into:t -> t -> unit
  (** Bucket-wise sum. Both sketches must have the same {!accuracy}
      (raises [Invalid_argument] otherwise). Merging is exact: the merged
      summary is indistinguishable from one fed the concatenated
      streams. *)
end
