(** Scheduling policies for the shared per-port word queues — the
    ablation axis for the random-delays technique [LMR94, Gha15, HHW19].

    {!Sim_aggregate} serves each port queue by ascending priority (FIFO
    among equals). The policy decides the priority a part's words carry:

    - [Random_delay]: a uniform delay in [0, max_delay) per part — the
      technique the paper's O(c + d log n) aggregation bound rests on;
    - [Fifo]: no priorities, pure arrival order — the natural baseline;
    - [Static_order]: parts served in index order — an adversarial
      stand-in where one part can starve behind all lower-indexed ones.

    {b The O(c + d log n) contract.} For a shortcut with congestion [c]
    and dilation [d], drawing each part's delay uniformly from
    [0, max_delay) with [max_delay = Θ(c)] makes every edge's expected
    per-round load O(1 + c/max_delay) = O(1), so with high probability a
    packet waits O(log n) rounds per hop and the whole part-wise
    aggregation completes in O(c + d log n) rounds [LMR94].
    {!Sim_aggregate} realizes the delays as static priorities rather than
    literal waiting: serving queues in ascending delay order is
    equivalent to each part sitting out its delay, but never leaves an
    edge idle, so measured completion times are at most the scheduled
    ones. [Fifo] and [Static_order] deliberately break the
    argument's load-spreading step; experiment E14 measures the gap. *)

type policy = Random_delay | Fifo | Static_order

val delays : policy -> Lcs_util.Rng.t -> parts:int -> max_delay:int -> int array
(** Per-part priorities realizing the policy. *)

val epochs : max_delay:int -> rounds:int -> (int * int) list
(** Partition rounds [1..rounds] into consecutive inclusive [(first,
    last)] windows of one epoch of the random-delay schedule, [max 1
    max_delay] rounds: the window within which every scheduled start round
    falls, so analyses treat each epoch as one "shifted copy" of the
    flooding (the final window may be shorter).
    Empty when [rounds = 0]. The observability layer attributes a traced
    run's per-round load curve to these windows. *)

val to_string : policy -> string
