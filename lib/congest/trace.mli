(** Observability for simulator runs: a zero-cost-when-disabled event sink
    plus ready-made collectors.

    The paper's bounds are statements about {e distributions} — where the
    [O(δD log n)] congestion concentrates, how the random-delay schedule
    spreads load over the [O(c + d log n)] rounds — but end-of-run
    aggregates ({!Simulator.stats}) collapse all of that to four numbers.
    A {!tracer} receives every fine-grained event of a run: round
    boundaries (with the live-node count), each message transmission (with
    its host edge id and word size), node halts, and the per-round
    bandwidth high-water mark. Passing [?tracer] costs one branch per
    message when absent; protocols therefore thread it through unchanged.

    Two collectors cover the common uses: {!Recorder} keeps the raw event
    stream in memory (for the causal analyzer and replay debugging);
    {!Profile} folds events into per-edge / per-round congestion profiles
    incrementally, without retaining the stream. Combine them with
    {!tee}. On disk a trace has one format, the line-delimited
    {!Stream}: a header, the events, and a last line holding the run
    report. *)

type event =
  | Round_start of { round : int; live : int }
      (** a round begins; [live] counts non-halted nodes entering it *)
  | Send of {
      round : int;
      src : int;
      dst : int;
      edge : int;
      words : int;
      id : int;
          (** per-run monotone message id, starting at 1; [0] only in
              hand-built events from sources that do not assign ids *)
      parents : int list;
          (** ids of the received messages this send was caused by — as
              the sending step declared them through its
              {!Simulator.mailbox}, or every message delivered to [src]
              in that step when nothing finer was declared *)
      part : int;  (** source part id; [-1] when untagged *)
      phase : string;  (** protocol phase label; [""] when untagged *)
    }
      (** one message crosses host edge [edge] from [src] to [dst] *)
  | Halt of { round : int; node : int }  (** [node] halts after this round *)
  | Round_end of { round : int; max_edge_load : int }
      (** a round ends; [max_edge_load] is the round's bandwidth high-water
          mark (max words on one edge-direction) *)
  | Drop of { round : int; src : int; dst : int; edge : int; words : int }
      (** an injected fault lost this transmission (random loss, or the
          destination had crashed); the words never arrive *)
  | Duplicate of {
      round : int;
      src : int;
      dst : int;
      edge : int;
      words : int;
      id : int;  (** the extra copy gets its own fresh id *)
      parents : int list;  (** shared with the original transmission *)
      part : int;
      phase : string;
    }
      (** the network delivered an extra copy of a message on [edge] *)
  | Delayed of { round : int; src : int; dst : int; edge : int; delay : int }
      (** this delivery arrives [delay] rounds later than the synchronous
          model's round [r + 1] *)
  | Link_down of { round : int; edge : int }
      (** a transmission was lost because [edge] is inside one of its
          scheduled down intervals *)
  | Crash of { round : int; node : int }
      (** [node] crashed at the start of this round and takes no further
          part in the run *)

type tracer = event -> unit

val tee : tracer list -> tracer
(** Fan one event stream out to several collectors. *)

val event_to_json : event -> Lcs_util.Json.t
(** One event as a [{"t": kind, ...}] object — trace schema v2 (send and
    duplicate events carry ["id"]/["parents"] always, ["part"]/["phase"]
    only when tagged), documented in README.md. *)

val event_of_json : Lcs_util.Json.t -> (event, string) result
(** Inverse of {!event_to_json} — the offline analyzer's entry point.
    Lenient towards v1 traces: missing causal fields default to [id = 0],
    [parents = []], [part = -1], [phase = ""]. {!checker} refuses a send
    with id 0, so a file read through it must carry v2 ids. *)

val checker : ?meta:Lcs_util.Json.t -> unit -> event -> (unit, string) result
(** [checker ?meta ()] checks one event sequence read from a file, in
    order. An event is rejected, with the reason, when its round is below
    1 or below an earlier event's in the same run (a run begins at a
    [Round_start] of round 1), when a node field ([src], [dst], [node])
    is negative or at least [meta]'s ["n"], when an [edge] is negative or
    at least [meta]'s ["m"], when [words] is negative, or when a [Send]
    or [Duplicate] has an [id] below 1 or a parent that is not an earlier
    id (below 1, or at least its own [id]). [meta] is the
    run's metadata object, a {!Stream} header; a bound it does not carry
    is not checked. {!Stream.fold} checks every event it reads through
    it, so collectors never index out of range. *)

(** Retains the whole event stream in memory, in order — for tests and
    library callers that analyze a small run in place.

    Its heap grows with the event count; the CLI records nothing this
    way, and a run worth keeping goes to disk through {!Stream} (whose
    {!Stream.fold} replays it into any collector). *)
module Recorder : sig
  type t

  val create : unit -> t

  val tracer : t -> tracer

  val events : t -> event list
  (** The recorded events, oldest first. *)

  val length : t -> int
  (** Recorded events. *)
end

(** Incremental per-edge / per-round congestion aggregation.

    [Exact] mode keeps one counter per host edge — O(edges + rounds)
    memory however long the trace, and the historical byte-identical JSON
    layout. [Sketch] mode replaces the per-edge array with a
    {!Lcs_util.Sketch.Space_saving} table of [budget] counters (plus a
    quantile summary of evicted estimates), so per-edge accounting costs
    O(budget) on graphs where O(m) is the problem; its JSON report
    carries the sketch's deterministic error bounds alongside
    [top_edges]. *)
module Profile : sig
  type t

  type mode = Exact | Sketch of int  (** budget: tracked-edge counters *)

  val sketch_threshold : int
  (** Edge count above which {!create} auto-selects [Sketch
      default_budget] when no explicit mode is given (10^6). *)

  val default_budget : int
  (** Budget of the auto-selected sketch (4096): overcounts are bounded
      by [total words / 4096]. *)

  val create : ?mode:mode -> ?edges:int -> unit -> t
  (** [edges] (the host's [Graph.m]) pre-sizes the per-edge accumulator
      in [Exact] mode; it grows on demand either way. When [mode] is
      omitted it defaults to [Exact], except that [edges >
      sketch_threshold] auto-selects [Sketch default_budget]. *)

  val mode : t -> mode

  val tracer : t -> tracer

  val rounds : t -> int
  val total_words : t -> int
  (** Equals the [words] field of the traced run's {!Simulator.stats} —
      asserted by the test suite. [Duplicate] events count as traffic:
      their words are folded into [edge_words] and [total_words], so a
      faulty run's profile still reconciles with its stats. *)

  val total_messages : t -> int

  val edge_words : t -> int array
  (** Words carried per host edge id (both directions summed). In
      [Sketch] mode: estimates for the tracked edges only (zero
      elsewhere), dense up to [create]'s [edges] hint so per-edge
      consumers see the same shape as [Exact] mode. *)

  val edges_used : t -> int
  (** Edges that carried at least one word. In [Sketch] mode an upper
      estimate: tracked edges plus eviction episodes (an edge displaced
      and re-admitted counts once per episode). *)

  val load_curve : t -> int array
  (** Words sent in round [r] at index [r - 1] — the per-round load
      curve. *)

  val round_max_load : t -> int array
  (** Per-round bandwidth high-water mark (from [Round_end] events; all
      zero for sources that do not emit them). *)

  val top_edges : ?k:int -> t -> (int * int) list
  (** The [k] (default 10) hottest edges as [(edge, words)], heaviest
      first, ties by edge id. In [Sketch] mode these are Space-Saving
      estimates: each may exceed the truth by at most its entry's
      overcount (exported in the JSON report), and every edge whose true
      load exceeds [total_words / budget] is guaranteed present. *)

  val histogram : ?buckets:int -> t -> (int * int * int) list
  (** Distribution of per-edge totals over edges with traffic:
      [(lo, hi, count)] with inclusive word-count ranges. Up to a maximum
      of 10^6 words in [Exact] mode: [buckets] (default 8) equal-width
      bins, byte-compatible with historical reports. Beyond that — where
      equal widths collapse into one uninformative slab — and always in
      [Sketch] mode: octave-scaled bins from the quantile sketch
      (non-empty ones only, ascending). Empty when nothing was sent. *)

  val halts : t -> int
  (** Total nodes observed halting. *)

  val dropped : t -> int
  (** Transmissions lost to injected faults (random loss + down links). *)

  val to_json : ?top_k:int -> t -> Lcs_util.Json.t
  (** The whole profile — totals, per-edge words, top-[k] edges, load
      curve, per-round high-water marks, histogram. [Exact] fault-free
      profiles keep the historical byte layout; [Sketch] profiles lead
      with a ["mode": "sketch"] marker, report per-entry
      ["top_edges_overcount"] bounds next to ["top_edges"], and append a
      ["sketch"] object (budget, tracked, evictions, max_overcount,
      threshold, quantile_accuracy). *)
end

(** Periodic compact snapshots of a live run — the flight recorder.

    Every [N] rounds a snapshot of the run's vital signs (round,
    cumulative words and messages, halt count, current heavy hitters,
    per-shard queue depths) is emitted; streamed to disk these cost a
    line per sample however long the run, and [lcs_cli top] renders them
    post hoc. The recorder is one more fold of the event stream
    ({!tracer}), so a run records them by teeing it in with the
    {!Profile} it reads. *)
module Flight : sig
  type snapshot = {
    round : int;
    words : int;  (** cumulative words sent *)
    messages : int;  (** cumulative messages sent *)
    halted : int;  (** nodes halted so far *)
    top : (int * int) list;  (** current heavy hitters as [(edge, words)] *)
    queues : int array;
        (** pending deliveries per shard at the snapshot round's barrier,
            one entry per shard of the bounds the recorder was given *)
  }

  val to_json : snapshot -> Lcs_util.Json.t
  (** A [{"t": "snapshot", ...}] object — one {!Stream} line. *)

  val of_json : Lcs_util.Json.t -> (snapshot, string) result

  val of_profile : ?k:int -> ?queues:int array -> round:int -> Profile.t -> snapshot
  (** Read the vital signs out of a profile; [k] (default 10) bounds the
      heavy-hitter list. [queues] defaults to empty: a snapshot read off
      a profile outside any round barrier has no queue depths. *)

  val tracer : every:int -> bounds:int array -> Profile.t -> (snapshot -> unit) -> tracer
  (** [tracer ~every ~bounds profile emit] folds a run's event stream into
      snapshots: at the [Round_end] of every [every]-th round it emits
      [profile]'s vital signs ({!of_profile}) with one queue depth per
      shard of [bounds], such as {!Simulator.shard_bounds} of the
      requested domain count. The split follows [bounds], not the shards
      the run executed on: a traced run takes one shard. Tee it in
      after [profile]'s own {!Profile.tracer}, so the profile has seen
      the round, and after a {!Stream.tracer} whose file also takes the
      snapshots, so each follows its round's end.

      A shard's depth is the number of deliveries pending for its nodes
      at the round's barrier: the round's [Send] and [Duplicate] events
      addressed to them, less its [Delayed] events (a crashed destination
      yields a [Drop], never a [Send]). Only the split depends on
      [bounds]: the depths sum to the same count at every domain count.
      Raises [Invalid_argument] if [every < 1] or [bounds] has fewer than
      two entries. *)
end

(** Line-delimited streaming of traces to disk (schema
    [lcs-trace-stream/2]) — the one on-disk trace format.

    A streamed trace file is one JSON object per line: a header line
    [{"schema": "lcs-trace-stream/2", ...metadata}], then events in
    order (the {!event_to_json} objects), interleaved with optional
    {!Flight} snapshot lines, and, when the writer has one, a last
    [{"t": "report", ...}] line holding the run report. The sink holds
    only an [out_channel] buffer — resident memory is O(1) in the trace
    length — and the reader replays a file into any {!tracer} one line
    at a time, so every existing collector ({!Profile}, {!Recorder}, the
    analyzer) consumes streamed traces without loading them whole. *)
module Stream : sig
  val schema : string
  (** ["lcs-trace-stream/2"]. {!fold} also reads [lcs-trace-stream/1]
      files: a [/1] file is a [/2] file without a report line. *)

  (** {2 Writing} *)

  type sink

  val create : ?meta:(string * Lcs_util.Json.t) list -> string -> sink
  (** Open (truncate) a file and write the header line; [meta] fields
      (say [command], [n], [m], [seed]) are appended to it. *)

  val tracer : sink -> tracer
  (** Append one event line per event. *)

  val snapshot : sink -> Flight.snapshot -> unit
  (** Append a snapshot line. *)

  val report : sink -> (string * Lcs_util.Json.t) list -> unit
  (** Append the report line, [{"t": "report"}] followed by the given
      fields. It ends the stream: {!fold} refuses any line after it. *)

  val events_written : sink -> int

  val snapshots_written : sink -> int

  val close : sink -> unit
  (** Flush and close; idempotent. A sink left unclosed loses its channel
      buffer's tail. *)

  (** {2 Reading} *)

  type line =
    | Meta of Lcs_util.Json.t  (** the header object *)
    | Event of event
    | Snapshot of Flight.snapshot
    | Report of Lcs_util.Json.t  (** the report line's object, ["t"] included *)

  val fold : string -> init:'a -> f:('a -> line -> 'a) -> ('a, string) result
  (** Fold over a streamed file line by line — memory stays O(longest
      line). Stops at the first malformed line with its line number, so a
      file cut off mid-write surfaces as an [Error], not silence. An event
      that {!checker} rejects under the header is malformed too, and [f]
      never sees it. So is a line out of place: a header anywhere but on
      the first non-empty line, a second report line, or any line after
      the report. *)

  val replay :
    ?on_meta:(Lcs_util.Json.t -> unit) ->
    ?on_snapshot:(Flight.snapshot -> unit) ->
    string ->
    tracer ->
    (int, string) result
  (** Replay a streamed file's events, in order, into a tracer; returns
      the number of events replayed. Snapshot and header lines go to the
      optional callbacks instead, and the report line is skipped. *)
end
