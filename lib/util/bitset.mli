(** Fixed-capacity mutable bitsets over [0..capacity-1].

    Used for dense vertex/edge sets in the graph algorithms, where a
    [Hashtbl] or a [Set] would dominate the running time. *)

type t

val create : int -> t
(** [create capacity] is the empty set over [0..capacity-1]. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val cardinal : t -> int
val clear : t -> unit
val copy : t -> t
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
(** Ascending order. *)

val of_list : int -> int list -> t
(** [of_list capacity elements]. *)

val union_into : t -> t -> unit
(** [union_into dst src] adds all elements of [src] to [dst]. The sets must
    have equal capacity. *)

val inter_cardinal : t -> t -> int
(** Size of the intersection. The sets must have equal capacity. *)
