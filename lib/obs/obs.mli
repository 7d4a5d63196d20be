(** Algorithm-level observability: hierarchical spans, a metrics registry
    and a bound ledger, one layer above {!Lcs_congest.Trace}.

    [Trace] answers "what crossed which wire in which round"; this module
    answers "which {e phase} of which {e theorem} spent it". The paper's
    statements accrue per construction phase (Theorem 3.1's [8δD]
    congestion), per boosting iteration (Obs 2.6/2.7), per pipeline stage
    (Theorem 1.5) and per epoch of the random-delay schedule
    ([O(c + d log n)] aggregation); a span tree attributes wall-clock
    time, minor-heap allocation and simulated rounds to exactly those
    units, and the ledger pairs each unit's {e observed} figure with the
    bound the paper {e predicts} for it.

    Every instrumented entry point takes [?obs:Obs.t]. The same
    zero-cost discipline as [Trace.tracer] applies: with no collector
    installed each instrumentation point costs one branch (plus the
    closure its caller builds either way), so default-path performance is
    unchanged — the allocation benchmark gates this.

    A collector is not thread-safe; use one per run. Observability never
    raises: a mismatched {!exit} is ignored, an exception inside {!span}
    still closes the span. *)

type t
(** A recording collector: an open-span stack, the completed-span list,
    the metrics registry and the ledger. *)

type value = Int of int | Float of float | Str of string
(** Attribute values attached to spans by {!note}. *)

type span = {
  id : int;  (** creation order, dense from 0 *)
  parent : int;  (** [id] of the enclosing span, [-1] for roots *)
  depth : int;  (** [0] for roots; [parent]'s depth + 1 otherwise *)
  name : string;
  start_s : float;  (** wall-clock seconds since the collector was created *)
  dur_s : float;  (** wall-clock duration *)
  alloc_words : float;
      (** [Gc.minor_words] delta over the span, on the domain that opened
          it: a span over a sharded simulator run counts only the
          calling domain's allocation, not the worker domains' *)
  rounds : int;
      (** simulated rounds attributed to the span, including its
          children's ({!add_rounds} totals propagate to the parent on
          close) *)
  notes : (string * value) list;  (** in {!note} order *)
}

val create : unit -> t

(** {1 Spans} *)

val span : t option -> string -> (unit -> 'a) -> 'a
(** [span obs name f] runs [f] inside a span named [name]: a child of the
    innermost open span, or a root. The span closes when [f] returns
    {e or raises}. [span None name f] is [f ()]. *)

val enter : t option -> string -> unit
(** Imperative variant of {!span} for call sites a closure does not fit;
    every [enter] must be matched by an {!exit}. *)

val exit : t option -> unit
(** Close the innermost open span. Ignored when no span is open. *)

val note : t option -> string -> value -> unit
(** Attach an attribute to the innermost open span (ignored when none is
    open). Later notes with the same key are kept — exports preserve
    order, they do not deduplicate. *)

val add_rounds : t option -> int -> unit
(** Attribute simulated rounds to the innermost open span. On close a
    span adds its total to its parent, so ancestors report inclusive
    round counts exactly like wall-clock time. *)

(** {1 Metrics registry} *)

val count : t option -> string -> int -> unit
(** Add to the named counter (created at zero on first use). *)

val gauge : t option -> string -> float -> unit
(** Set the named gauge (last write wins). *)

val observe : t option -> string -> float -> unit
(** Append a sample to the named histogram; exported as a
    {!Lcs_util.Stats.summary} (mean, p50/p90/p99, ...). *)

(** {1 Bound ledger} *)

type ledger_entry = {
  lspan : string;
      (** ["/"]-joined path of the open spans when the entry was recorded
          (["" ] outside any span) *)
  metric : string;  (** e.g. ["congestion"], ["rounds"] *)
  predicted : float;  (** the paper's bound, instantiated *)
  observed : float;  (** the measurement *)
}

val bound : t option -> metric:string -> predicted:float -> observed:float -> unit
(** Record one predicted-vs-observed pair against the current span path.
    Exports state the [observed /. predicted] ratio — the "measured /
    bound stays O(1)" figure of the experiment tables, per phase. *)

(** {1 Introspection} *)

val spans : t -> span list
(** Completed spans in creation order. Spans still open (an [enter]
    without its [exit], or an escaping exception at top level) are not
    included. *)

val span_count : t -> int

val open_depth : t -> int
(** Currently open spans; [0] when quiesced. *)

val max_depth : t -> int
(** Deepest nesting observed, as a count of levels ([1] = roots only;
    [0] before any span). *)

val ledger : t -> ledger_entry list
(** Ledger entries in recording order. *)

(** {1 Exporters} *)

val spans_to_json : t -> Lcs_util.Json.t
(** Flat span list (parent links, depths, timings, rounds, allocation,
    notes) — the ["spans"] object of the CLI run reports. *)

val metrics_to_json : t -> Lcs_util.Json.t
(** [{"counters": ..., "gauges": ..., "histograms": ...}] with histogram
    summaries via {!Lcs_util.Stats.summary_to_json}. *)

val ledger_to_json : t -> Lcs_util.Json.t
(** Entry list, each with its [ratio] ([null] when [predicted <= 0]). *)

val epoch_s : t -> float
(** Absolute creation time ([Unix.gettimeofday]) of this collector — the
    zero point of every span's [start_s] and of {!to_chrome_json}'s
    timestamps. Pass it as [t0] to
    {!Lcs_congest.Par_profile.chrome_events} to merge domain tracks and
    span tree onto one clock. *)

val to_chrome_json : t -> Lcs_util.Json.t
(** The span tree as Chrome trace-event JSON (["ph": "X"] complete
    events, microsecond [ts]/[dur], rounds and notes under ["args"]) —
    loadable in Perfetto or [chrome://tracing]. *)

val metrics_table : t -> Lcs_util.Table.t
(** The registry flattened to a [metric / kind / value] table for CSV
    export. Histograms contribute one row per summary statistic. *)
