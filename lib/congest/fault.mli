(** Deterministic, seeded fault injection for the CONGEST simulator.

    A {e fault plan} declares what the network does to traffic: per-edge
    drop probabilities, message duplication, reordering (an extra round of
    latency on a random subset of deliveries), fixed extra delivery
    latency, scheduled link-down intervals, and node crash-at-round
    events. {!compile} binds a plan to a seeded {!Lcs_util.Rng} stream, so
    a faulty run is exactly as reproducible as a fault-free one: same
    graph, same program, same plan, same seed ⇒ the same faults hit the
    same transmissions, the same trace, the same outcome.

    Plans serialize as the [lcs-fault-plan/1] JSON schema (see README,
    "Fault injection"): all fields are optional except ["schema"], and
    per-edge overrides inherit unspecified fields from the plan's
    ["default"] profile.

    The injector is consumed by {!Simulator.run}'s [?faults] argument; the
    simulator reports every injected fault through the {!Trace} stream
    ([Drop], [Duplicate], [Delayed], [Link_down], [Crash]), so profiles
    and recorded traces distinguish injected loss from protocol
    behavior. *)

val schema : string
(** ["lcs-fault-plan/1"]. *)

type edge_faults = {
  drop : float;  (** per-transmission loss probability, in [\[0,1\]] *)
  duplicate : float;  (** probability a delivery gets an extra copy *)
  reorder : float;
      (** probability a delivery is deferred one extra round, letting later
          messages overtake it *)
  delay : int;  (** fixed extra delivery latency, in rounds *)
  down : (int * int) list;
      (** inclusive round intervals during which the link loses
          everything *)
}

val reliable_edge : edge_faults
(** No faults: all probabilities 0, no delay, never down. *)

type crash = { node : int; round : int }
(** [node] crashes at the start of [round] (1-based): it stops stepping,
    sending and receiving for the rest of the run. *)

type plan = {
  seed : int;  (** default seed; {!compile} can override *)
  default : edge_faults;  (** applied to every edge without an override *)
  edges : (int * edge_faults) list;  (** per-edge-id overrides *)
  crashes : crash list;
}

val empty : plan
(** Seed 1, no faults anywhere — injecting it must not change a run. *)

val max_delay : plan -> int
(** The largest fixed [delay] any edge profile of the plan can impose —
    what the simulator cores size their delayed-delivery rings from. *)

val validate : plan -> (plan, string) result
(** Probabilities in range, delays non-negative, intervals well-formed,
    crash rounds at least 1. *)

val plan_to_json : plan -> Lcs_util.Json.t
val plan_of_json : Lcs_util.Json.t -> (plan, string) result

val plan_of_string : string -> (plan, string) result
(** Parse and validate a JSON fault plan. *)

val load_plan : string -> (plan, string) result
(** Read a plan from a file. *)

(** {1 Plan algebra}

    Deterministic plan transformations for the chaos campaign engine
    ([Lcs_resilience.Chaos]): sweep fault intensity with {!scale},
    compose adversaries with {!merge}, adapt a canned plan to a smaller
    graph with {!clip}. All three are pure — transforming a plan never
    touches an injector. *)

val scale : float -> plan -> plan
(** [scale f p] multiplies the plan's intensity by [f >= 0]
    ([Invalid_argument] otherwise): probabilities are scaled and clamped
    to [\[0,1\]]; fixed delays are scaled and rounded to the nearest
    round; each link-down interval keeps its start and scales its
    length (an interval scaled below one round disappears); the crash
    list is truncated to the first [round (f * count)] entries (capped
    at [count] — scaling cannot invent crashes). [scale 1.0] is the
    identity; [scale 0.0] is a fault-free plan. The seed is
    unchanged. *)

val merge : plan -> plan -> plan
(** [merge a b] is both adversaries at once: per-field, probabilities
    compose as independent events ([1 - (1-pa)(1-pb)]), delays add, and
    down intervals union ([a]'s before [b]'s). Per-edge overrides are
    combined against each plan's own default (an edge overridden in
    only one plan still inherits the other's default). Crashes union,
    keeping the {e earliest} round when both plans crash the same node,
    sorted by [(round, node)]. The seed is [a]'s. *)

val clip : nodes:int -> edges:int -> plan -> plan
(** Drop crashes of nodes [>= nodes] and overrides of edge ids
    [>= edges], so a plan written for one topology can be replayed on a
    smaller one. *)

(** {1 Injector} *)

type t
(** A plan compiled against a seeded random stream, plus fault counters.
    Stateful: each {!transmission} call advances the stream, so decisions
    are a deterministic function of the call sequence. *)

val compile : ?seed:int -> plan -> t
(** [seed] (default: the plan's own) selects the random stream. *)

val plan : t -> plan

type loss = Random_loss | Link_is_down

type verdict =
  | Deliver of int list
      (** one entry per delivered copy: the extra delivery latency in
          rounds (0 = the synchronous round [r + 1]); the head is the
          original copy, any tail entries are duplicates *)
  | Lose of loss

val transmission : t -> round:int -> edge:int -> verdict
(** Decide the fate of one transmission crossing [edge] in [round].
    Draws from the injector's stream; counters are updated. *)

val crashes_at : t -> round:int -> int list
(** Nodes scheduled to crash at the start of [round] (records them as
    fired). The simulator calls this once per round. *)

val note_to_crashed : t -> unit
(** Count a transmission addressed to an already-crashed node. *)

val crashed_nodes : t -> int list
(** Nodes whose crash has fired so far, ascending, deduplicated. *)

type counts = {
  drops : int;  (** random losses *)
  link_down_drops : int;  (** losses on a down link *)
  to_crashed : int;  (** transmissions to crashed destinations *)
  duplicates : int;  (** extra copies delivered *)
  delays : int;  (** deliveries that incurred extra latency *)
  crashes : int;  (** nodes crashed *)
}

val counts : t -> counts
val no_faults_observed : counts -> bool
val counts_to_json : counts -> Lcs_util.Json.t
