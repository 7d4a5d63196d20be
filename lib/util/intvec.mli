(** Flat int vectors on a Bigarray payload.

    The payload lives outside the OCaml heap: the GC neither scans nor
    moves it, so vectors of 10^8 entries cost the heap one small record.
    On 64-bit little-endian platforms the payload's memory image is a
    little-endian int64 section, which is what the binary graph format
    ({!Lcs_graph.Graph_io}) maps straight from disk.

    Vectors are growable via {!push}; {!freeze}, {!of_bigarray} and
    {!sub_view} produce fixed-length views that share the payload. Growing
    a source never disturbs a view: [push] writes past every frozen
    length or reallocates, and nothing here mutates initialized prefixes. *)

type payload = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val create : ?capacity:int -> unit -> t
(** Empty vector; [capacity] pre-sizes the payload (default 0, allocated
    lazily on first {!push}). *)

val make : int -> int -> t
(** [make n x]: length [n], every entry [x]. *)

val init : int -> (int -> int) -> t

val length : t -> int

val capacity : t -> int

val get : t -> int -> int
(** Bounds-checked against {!length}. *)

val set : t -> int -> int -> unit

val unsafe_get : t -> int -> int
(** No bounds check at all — hot loops only. *)

val unsafe_set : t -> int -> int -> unit

val push : t -> int -> unit
(** Amortized O(1); doubles the payload when full. *)

val clear : t -> unit
(** Length to 0; keeps the payload. *)

val freeze : t -> t
(** A fixed snapshot sharing the payload: later pushes to the source are
    invisible to it (they write beyond its length or reallocate). *)

val of_bigarray : payload -> t
(** Wrap an existing payload (e.g. an [mmap]ed file section) without
    copying; length = dimension. *)

val data : t -> payload
(** The raw payload; only the first {!length} entries are meaningful. *)

val sub_view : t -> pos:int -> len:int -> t
(** O(1) view sharing the payload. *)

val to_array : t -> int array

val sub_array : t -> pos:int -> len:int -> int array
(** Fresh heap array of the given range. *)

val fill : t -> int -> unit
(** Fill the first {!length} entries. *)

val iter : (int -> unit) -> t -> unit

val iteri : (int -> int -> unit) -> t -> unit

val fold_left : ('a -> int -> 'a) -> 'a -> t -> 'a

val equal : t -> t -> bool
(** Same length and contents. *)

val sort2 : t -> t -> pos:int -> len:int -> unit
(** [sort2 key aux ~pos ~len] sorts [key.(pos..pos+len-1)] ascending in
    place, applying the same permutation to [aux]. Not stable. *)
