(** Wall-clock profiler for the sharded multicore simulator.

    The round/congestion ledger ({!Trace.Profile}, [Obs]) explains the
    CONGEST cost model — rounds, dilation, congestion. This collector
    explains the other axis the ROADMAP cares about: where the *seconds*
    go when a run is sharded across OCaml 5 domains. Per domain and per
    round it records the compute ("step") time, the delivery ("drain")
    time, the barrier-wait time, the messages and words sent, and a
    cross-shard traffic matrix keyed by (source shard, destination
    shard), and the serial time the main domain spends alone scanning
    for the next due round before it fast-forwards over idle ones. A
    traced or faulty run takes one shard (see {!Simulator.run}), so it
    reports one domain. From those it derives a round-by-round
    imbalance ratio (max shard busy-time / mean) and a speedup-loss
    decomposition — imbalance vs barrier vs serial time — that sums to
    the measured wall clock.

    Determinism: recording is strictly single-writer — each domain
    writes only its own slots during a phase, rows are committed by the
    main domain at the barrier — and no simulator decision ever reads a
    recorded time, so attaching a collector cannot perturb the
    byte-identical determinism contract of {!Simulator}. The
    instrumentation-off path in the simulator is a [None] branch that
    allocates nothing (gated by [bench_diff] via the [par_obs_off]
    baseline row).

    A collector may observe several consecutive runs (e.g. the BFS +
    wave stages of [Distributed.construct]); totals accumulate and the
    timeline keeps absolute offsets, so gaps between stages are visible
    in the Perfetto export. Wall time covers the round loops only —
    domain spawn/join and graph preprocessing are excluded. *)

type t

val schema : string
(** ["lcs-par-profile/1"] — the [to_json] schema tag. *)

val create : unit -> t
(** Fresh collector. Sized for up to {!Simulator.max_domains}
    shards; the exported views cover only the shards actually used. *)

(** {1 Recording — called by {!Simulator} only}

    The calls below are the simulator-facing recording surface. They
    are exposed so the bench and test layers can drive the collector
    directly, but ordinary callers only pass a [t] to the simulator and
    read the report. *)

val now : unit -> float
(** The collector's clock ([Unix.gettimeofday]). *)

val begin_run : t -> domains:int -> unit
(** Start a run executing on [domains] shards: its rounds are booked
    over those shards only. Widens the active shard count (a collector
    shared across runs reports the maximum). *)

val end_run : t -> unit
(** Close the current run: accumulates its round-loop wall time. *)

val round_start : t -> unit
val set_step : t -> shard:int -> float -> unit
(** Shard [shard]'s compute-job duration this round (written by that
    shard's own domain; single-writer). *)

val set_deliver : t -> shard:int -> float -> unit
(** Shard [shard]'s drain-job duration this round. *)

val set_activations : t -> shard:int -> int -> unit
(** How many nodes shard [shard] stepped this round (written by that
    shard's own domain; single-writer). *)

val end_step : t -> unit
(** Main domain, after the compute barrier: captures the phase wall. *)

val end_deliver : t -> unit
(** Main domain, after the drain barrier: captures the phase wall. *)

val add_serial : t -> float -> unit
(** Serial time the main domain spent alone this round: the fast-forward
    over idle rounds that follows it. *)

val record_send : t -> src:int -> dst:int -> words:int -> unit
(** One delivered message of [words] words from shard [src] to shard
    [dst]. In an untraced, fault-free run the source domain writes its
    own matrix row; a traced or faulty run has one shard, whose domain
    records each copy as it delivers it. Counts
    follow {!Simulator.stats}: duplicates count once per delivery,
    dropped or crashed-destination sends not at all — so the matrix
    row/column sums reconcile exactly with the run's stats. *)

val commit_round : t -> round:int -> unit
(** Main domain, at the end-of-round barrier: derives per-shard barrier
    waits (phase wall minus the shard's own job time) and appends the
    round's row, over the current run's shards. *)

(** {1 Reading the report} *)

val domains : t -> int
(** Shards actually used (maximum across observed runs); 0 before the
    first run. *)

val rounds : t -> int
(** Committed rounds, summed across runs. Rounds the simulator
    fast-forwarded (no node due, no message in flight) ran no phase and
    commit no row. *)

val wall_s : t -> float
(** Round-loop wall time, summed across runs. *)

type totals = {
  step_s : float;
  deliver_s : float;
  barrier_s : float;  (** measured: phase wall minus own job, summed *)
  messages : int;
  words : int;
  activations : int;
      (** nodes actually stepped: a sleeping node (see
          {!Simulator.program}'s [wake]) or a fast-forwarded round adds
          nothing *)
}

val totals : t -> totals array
(** Per-domain totals, length [domains t]; a shard's totals count only
    the runs that had it. *)

val traffic_messages : t -> int array array
(** [domains t]-square matrix; [(i).(j)] counts messages delivered from
    shard [i] to shard [j]. Fresh copy. *)

val traffic_words : t -> int array array

type decomposition = {
  d_wall_s : float;
  d_parallel_s : float;  (** sum over rounds of the mean shard busy time *)
  d_imbalance_s : float;  (** sum of (max busy - mean busy) *)
  d_barrier_s : float;  (** sum of (phase wall - max busy) *)
  d_serial_s : float;
      (** main-domain-only time: fast-forwards over idle rounds *)
  d_other_s : float;  (** wall minus all of the above: loop bookkeeping *)
}

val decomposition : t -> decomposition
(** Speedup-loss decomposition. The five buckets sum to [d_wall_s] by
    construction; [d_other_s] is the unattributed residual (fault
    scheduling, buffer swaps, commit overhead) and should stay within a
    few percent of the wall on any non-trivial run. *)

val imbalance : t -> float
(** Time-weighted imbalance ratio: (sum over rounds of max shard busy)
    / (sum of mean shard busy). [1.0] for a perfectly balanced or empty
    run. *)

val round_imbalance : t -> float array
(** Per-round imbalance ratio, in round order across runs, each over
    the shards of the run that made the round. *)

val to_json : t -> Lcs_util.Json.t
(** The [lcs-par-profile/1] report: schema, domains, rounds, runs,
    wall, per-domain totals (activations included), traffic matrices,
    overall and per-round imbalance, decomposition. *)

val chrome_events : ?t0:float -> t -> Lcs_util.Json.t list
(** Chrome trace-event objects: one Perfetto track per domain (pid 0,
    tid = shard id) with "step" / "deliver" busy slices, "barrier" wait
    slices, a "serial" slice on shard 0's track after the round's
    phases, and thread-name metadata. Timestamps are microseconds
    relative to [t0] (default: the collector's creation), so passing the
    [Obs] collector's epoch aligns the domain tracks with the span tree
    in one timeline. *)

