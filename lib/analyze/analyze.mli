(** Offline causal analysis of recorded traces: where did the rounds go?

    Trace schema v2 ({!Lcs_congest.Trace}) gives every send a per-run
    monotone id and the ids of the received messages that caused it. This
    module rebuilds the message-dependency DAG from a recorded event
    stream, extracts the {e critical path} — the causal chain whose last
    arrival forces the round count — and decomposes the observed rounds
    exactly:

    {v startup + transit + queueing + tail = rounds v}

    where [startup] is the source hop's wait before its first send,
    [transit] sums each hop's network latency ([arrival - send], the
    dilation term of Def 2.2), [queueing] sums the rounds each hop's
    message sat behind other traffic after its cause had arrived (the
    congestion term), and [tail] is the gap between the terminal arrival
    and the end of the run. On fault-free traces every term is
    non-negative and the identity is exact — the per-run, per-part shape
    of the paper's [O(c + d log n)] part-wise aggregation bound
    (Def 2.1). Per-part queueing can be checked against the measured
    congestion recorded in a report's ledger: a port drains one word per
    round, so no hop waits longer than the hottest edge's word count. *)

type msg = {
  id : int;
  round : int;  (** send round *)
  arrival : int;  (** round + 1 + injected delay *)
  src : int;
  dst : int;
  edge : int;
  words : int;
  parents : int list;
  part : int;
  phase : string;
  duplicate : bool;
}

type hop = {
  hop_msg : msg;
  transit : int;  (** arrival - send round (>= 1) *)
  queue_wait : int;  (** send round - gate (latest parent arrival, or 1) *)
}

type decomposition = {
  startup : int;  (** first critical send round - 1 *)
  transit_total : int;
  queueing_total : int;  (** excludes the source hop's wait (= startup) *)
  tail : int;  (** rounds + 1 - terminal arrival *)
}

type part_stat = {
  ps_part : int;  (** -1 collects untagged messages *)
  ps_messages : int;
  ps_words : int;
  ps_transit : int;
  ps_queue_total : int;
  ps_queue_max : int;  (** acceptance check: <= measured congestion *)
}

type phase_stat = {
  ph_phase : string;  (** "" collects untagged messages *)
  ph_messages : int;
  ph_words : int;
  ph_queue_total : int;
}

type run = {
  index : int;  (** 0-based position in a multi-run trace *)
  rounds : int;
  messages : int;  (** Send + Duplicate events, tagged or not *)
  traced_words : int;
  faulty : bool;  (** any injected-fault event observed *)
  path : hop list;  (** source first, terminal last; [] without v2 ids *)
  decomposition : decomposition;
  exact : bool;
      (** decomposition sums to [rounds] with every term non-negative —
          guaranteed on fault-free v2 traces *)
  parts : part_stat list;  (** ascending part id *)
  phases : phase_stat list;  (** ascending phase label *)
}

val decomposition_total : decomposition -> int

val of_events : Lcs_congest.Trace.event list -> run list
(** One {!run} per run of a recording, in order: a multi-run recording
    is split at each [Round_start {round = 1}] (ids restart there). The
    events come from a {!Lcs_congest.Trace.Recorder}, or from a trace
    file read through {!Lcs_congest.Trace.Stream.fold}, which checks
    them. v1 events parse, but yield an empty critical path. *)

val to_json : run list -> Lcs_util.Json.t
(** [{"schema": "lcs-analyze/1", "runs": [...]}]. *)

val to_text : run -> string
(** Human-readable tables: decomposition, critical-path hops, per-part
    and per-phase attribution. *)

val flow_events : run -> Lcs_util.Json.t list
(** The critical path as Chrome trace events: one slice per hop on a
    synthetic process (pid [2 + run index], 1 round = 1000 "us") plus
    ["s"]/["f"] flow pairs so Perfetto draws arrows between causally
    linked sends. Empty when the path is empty. The clock is simulated
    rounds, not wall time, so these events stand alone: [lcs analyze
    TRACE --flows] writes them, the one producer of flow arrows, and a
    [--spans] export carries none. *)
