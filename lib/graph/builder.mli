(** Mutable edge accumulator for constructing {!Graph.t} values.

    Generators add edges freely; duplicates (in either orientation) are
    silently dropped, which keeps generator code simple, while self-loops
    still raise since they always indicate a generator bug.

    Endpoints accumulate in flat Bigarray-backed vectors, so the builder
    never holds a boxed edge list — this is the streaming build path for
    10^7-node graphs. Use {!create_streaming} when the edge stream is
    known to be duplicate-free (structural generators): the hash table is
    skipped and nothing of size O(m) remains on the OCaml heap. If that
    promise is broken, {!graph} raises on the duplicate. *)

type t

val create : n:int -> t
(** A builder over vertices [0..n-1], with the duplicate-dropping hash
    set. *)

val create_streaming : n:int -> t
(** Like {!create} but without the duplicate table: for edge streams known
    to be duplicate-free (structural generators), so nothing of size O(m)
    lives on the OCaml heap. Adding a duplicate anyway makes {!graph}
    raise. *)

val add_edge : t -> int -> int -> unit
(** Idempotent when [dedup] is on. Raises [Invalid_argument] on self-loops
    or out-of-range endpoints. *)

val mem_edge : t -> int -> int -> bool
(** O(1) with [dedup]; O(edges so far) without. *)

val edge_count : t -> int

val graph : t -> Graph.t
(** Edge ids follow first-insertion order. The builder remains usable
    afterwards (the graph snapshots the current edges). *)
