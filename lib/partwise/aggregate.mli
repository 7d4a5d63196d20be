(** The part-wise aggregation problem (Definition 2.1).

    Given values [x_v], every node of part [P_i] must learn an aggregate of
    its part's values — the minimum (maximum reduces to it by negation),
    a leader's token, or a sum. {!Sim_aggregate} solves it through a
    shortcut as a CONGEST program; with a (c,d)-shortcut it completes in
    [O(c + d·log n)] rounds, which {!bound} makes available for the
    measured-vs-bound tables. This module states the problem: the bound
    and the centrally computed answers the engine is checked against. *)

val reference_minima : Lcs_shortcut.Shortcut.t -> values:int array -> int array
(** Ground truth, computed centrally; {!Sim_aggregate.minimum} is checked
    against this. *)

val reference_sums : Lcs_shortcut.Shortcut.t -> values:int array -> int array
(** Ground truth for {!Sim_aggregate.sum}. *)

val surviving_minima :
  Lcs_shortcut.Shortcut.t -> values:int array -> crashed:int list -> int array
(** {!reference_minima} restricted to the nodes {e not} in [crashed] — the
    ground truth a fault-degraded run is validated against ({!Sim_aggregate}'s
    [minimum_outcome]). A part whose members all crashed yields [max_int]. *)

val bound : congestion:int -> dilation:int -> n:int -> int
(** The scheduling bound [c + d·⌈log₂ n⌉] the measurements are compared
    to. *)
