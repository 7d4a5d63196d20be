(** E20 — chaos campaign over part-wise aggregation.

    Sweeps the three canned adversaries (light loss, crash-heavy, and a
    computed cut-severing partition plan) through an intensity ladder
    against raw-transport part-wise aggregation on a grid and a random
    partial 4-tree, bisects each case's failure threshold, and
    delta-debugs the first failing cell down to a minimal reproducing
    plan ({!Core.Chaos}). *)

val default_plans : Core.Graph.t -> (string * Core.Fault.plan) list
(** E20's named adversaries for a graph, which [lcs chaos] also runs when
    no [--plan] is given: ["light_loss"] (seed 7), ["crash_heavy"] (seed
    11) and ["partition"] (seed 23). The last takes down every edge
    crossing the [{v < n/2}] cut for rounds 4–12 over a 1% background
    drop — a graph-agnostic temporary partition. *)

val e20 : ?seed:int -> unit -> Exp_types.outcome
