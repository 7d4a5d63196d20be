(** Self-describing protocol results under faults.

    A protocol entry point that tolerates an adversarial network cannot
    promise the fault-free postcondition; what it can promise is to say
    {e which} one it delivers. ['a t] makes that explicit: [Complete v]
    carries the full-strength result, [Degraded (v, d)] carries the best
    result obtainable together with a {!degradation} record naming exactly
    what was lost — crashed nodes, links given up on by the reliable
    transport, nodes whose values are consequently missing, and whether
    the round budget ran out. The invariant every [_outcome] entry point
    maintains: values present in a [Degraded] result are still {e
    correct} (validated against a sequential recomputation restricted to
    the surviving part of the network); degradation means omission, never
    silent corruption. *)

type degradation = {
  crashed : int list;  (** nodes lost to injected crashes, ascending *)
  unresponsive : (int * int) list;
      (** [(node, neighbor)] links the reliable transport declared dead
          after exhausting retries, from [node]'s perspective *)
  affected : int list;
      (** nodes whose results are missing or unvalidated, ascending *)
  out_of_rounds : bool;  (** the round budget expired before quiescence *)
  rounds : int;  (** rounds actually executed *)
}

type 'a t = Complete of 'a | Degraded of 'a * degradation

val no_degradation : degradation
(** Empty lists, [out_of_rounds = false], [rounds = 0]. *)

val is_clean : degradation -> bool
(** No crashes, no dead links, no affected nodes, budget not exhausted
    ([rounds] is ignored — it is bookkeeping, not damage). *)

val classify : 'a -> degradation -> 'a t
(** [Complete] iff {!is_clean}, else [Degraded]. *)

val value : 'a t -> 'a
val is_complete : 'a t -> bool
val degradation : 'a t -> degradation option

val degradation_to_json : degradation -> Lcs_util.Json.t
