(** Chaos campaigns: systematic adversarial exploration of the fault
    space, with failure-threshold search and fault-plan shrinking.

    PR 2 explored the fault space with two canned plans; this engine
    explores it {e systematically}. A {!subject} is a protocol under
    test — a closure from (fault plan, seed) to a {!verdict}. A
    {!campaign} sweeps each base plan through a ladder of intensity
    factors ({!Lcs_congest.Fault.scale}), runs every (intensity, seed)
    cell, then:

    + {e binary-searches} the failure threshold per (subject, plan) —
      the lowest intensity at which some seed fails, bracketed by the
      sweep and refined by bisection;
    + {e shrinks} any failing plan by delta debugging ({!shrink}): a
      greedy fixpoint over a deterministic candidate order — drop a
      crash, drop a per-edge override, drop a down interval, zero a
      probability / delay, halve a probability / delay — keeping each
      reduction only if the failure still reproduces. Same subject,
      same seed, same plan ⇒ byte-identical minimal plan.

    Reports serialize as [lcs-chaos-report/1] and contain no wall-clock
    fields, so a rerun with the same inputs is byte-identical — the CI
    chaos smoke step asserts exactly that. *)

type verdict =
  | Complete  (** fault-free postcondition delivered *)
  | Degraded_valid
      (** damage was declared and every surviving value validated *)
  | Failed  (** ran out of rounds, or the run raised *)
  | Wrong_answer
      (** a surviving node holds a wrong value — the one verdict the
          system must never produce silently *)

val is_failure : verdict -> bool
(** [Failed] and [Wrong_answer] count as failures for threshold search
    and shrinking; [Degraded_valid] is the system working as specified
    under damage. *)

val verdict_to_string : verdict -> string

type subject = {
  name : string;
  run : plan:Lcs_congest.Fault.plan -> seed:int -> verdict;
      (** must be deterministic in (plan, seed) — threshold search and
          shrinking re-run it and compare verdicts across reruns *)
}

val pa_subject :
  ?reliable:bool ->
  name:string ->
  graph:Lcs_graph.Graph.t ->
  partition:Lcs_graph.Partition.t ->
  unit ->
  subject
(** Part-wise aggregation over a Theorem 3.1 shortcut on [graph] as a
    chaos subject. The shortcut is built and prepared
    ({!Lcs_partwise.Sim_aggregate.prepare}) once; each run clips the plan
    to the graph ({!Lcs_congest.Fault.clip}), draws values and schedule
    randomness from [seed], executes
    {!Lcs_partwise.Sim_aggregate.minimum_outcome} with the compiled
    plan, and classifies: [Complete] is cross-checked against
    {!Lcs_partwise.Aggregate.reference_minima} (mismatch ⇒
    [Wrong_answer]); [Degraded] with diverged parts is [Wrong_answer],
    with an expired budget [Failed], otherwise [Degraded_valid].
    [reliable] (default [false]) selects the transport — raw mode is the
    interesting chaos target, since loss genuinely diverges
    min-flooding there. *)

val shrink :
  subject ->
  seed:int ->
  Lcs_congest.Fault.plan ->
  (Lcs_congest.Fault.plan * int) option
(** [shrink subject ~seed plan] is [Some (minimal, probes)] when [plan]
    fails under [seed]: [minimal] is the greedy-fixpoint reduction (every
    one-step reduction of it passes) and [probes] counts subject runs
    spent. [None] when [plan] does not fail to begin with. Deterministic:
    candidates are tried in a fixed order and the first failing one is
    taken. *)

(** {1 Campaigns} *)

type sweep_point = { intensity : float; verdicts : (int * verdict) list }

type shrunk = { minimal : Lcs_congest.Fault.plan; probes : int }

type case = {
  subject : string;
  plan_name : string;
  base_plan : Lcs_congest.Fault.plan;
  sweep : sweep_point list;  (** one per intensity, in ladder order *)
  threshold : float option;
      (** lowest known-failing intensity after bisection; [None] when no
          swept intensity fails *)
  witness : (float * int) option;
      (** (intensity, seed) of the first failing cell, the shrink input *)
  shrunk : shrunk option;
}

type t = {
  intensities : float list;
  seeds : int list;
  cases : case list;  (** subject-major, then plan order *)
}

val campaign :
  ?intensities:float list ->
  ?seeds:int list ->
  ?search_iters:int ->
  ?shrink:bool ->
  plans:(string * Lcs_congest.Fault.plan) list ->
  subjects:subject list ->
  unit ->
  t
(** Run the full sweep. Defaults: [intensities = [0.25; 0.5; 1.0; 2.0;
    4.0]], [seeds = [1; 2]], [search_iters = 6] bisection steps,
    [shrink = false]. The threshold bisection brackets between the
    largest passing and smallest failing swept intensities (0 when the
    first already fails); shrinking, when enabled, reduces each case's
    witness plan at the witness intensity and seed. *)

val schema : string
(** ["lcs-chaos-report/1"]. *)

val to_json : t -> Lcs_util.Json.t
(** Deterministic report: schema, ladder, seeds, and per-case sweep
    table, threshold, witness and minimal plan. No timestamps. *)
