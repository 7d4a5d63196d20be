(** Synchronous CONGEST-model network simulator.

    The network is an undirected graph; computation proceeds in synchronous
    rounds. In each round every non-halted node reads the messages delivered
    to it, updates its local state, and emits at most [bandwidth] words per
    incident edge (per direction). A node whose program declares it asleep
    (see [wake] in {!program}) is not stepped until a message reaches it
    or its wake round comes: by the hint's contract that step would have
    done nothing, so the model's semantics are unchanged. Messages sent in
    round [r] are delivered at the start of round [r+1]. A word models the
    CONGEST model's [O(log n)]-bit message; the default [bandwidth = 1] is
    the standard model, and exceeding it raises {!Bandwidth_exceeded} —
    bounds claimed by the protocols in this repository are therefore
    machine-enforced rather than assumed.

    Nodes are identified by graph vertex ids and address messages by {e
    port} (index into their adjacency list), matching the model's
    port-numbering convention; the context also exposes neighbor ids (the
    customary KT1 assumption).

    {b Execution.} An untraced, fault-free run is split into [domains]
    contiguous node shards balanced by port count (see {!shard_bounds});
    each round, every shard delivers its inboxes, checks each of its
    nodes and runs the [on_round] steps of the live ones that are due —
    a non-empty inbox, or a wake hint at or before the round — shard 0
    on the calling domain and the others on OCaml 5 worker domains, with
    a barrier at the round boundary. A run with a tracer or a fault plan
    takes one shard on the calling domain, whatever [domains] says, and
    spawns no domain: its ids, verdicts and events come from one
    sequence, drawn as each step returns. A fault-free round that sends
    no message leaves nothing in flight, so no node steps before the
    earliest wake hint: the loop fast-forwards to that round (capped at
    [max_rounds]). Skipped rounds still count in {!stats} and still emit
    their [Round_start]/[Round_end] events, so a collector folding the
    event stream ({!Trace.Profile}, {!Trace.Flight.tracer}) sees every
    round; runs with a fault plan advance round by round, because
    delayed deliveries and crashes act on rounds of their own, but still
    skip sleeping nodes. A run therefore pays for messages, due timers
    and one allocation-free check per node in the rounds it runs, not
    for [on_round] calls of nodes × rounds. One domain is simply one
    shard: no domain is spawned. Cross-shard messages travel through
    per-(source, destination) shard outboxes — each cell has exactly one
    writer and one reader, separated by the barrier, so the hot path
    takes no locks. The message plane runs on flat preallocated arrays:
    the graph's CSR port layout, int-array word budgets cleared via
    touched-slot lists, and reusable per-node inbox buffers whose ports
    are int arrays. A step sees its inbox through a {!mailbox}, one per
    shard, which the core lends to each due node in turn; a send is
    queued in the same mailbox and delivered as soon as the step
    returns: copied straight into the receiver's next inbox when both
    nodes belong to shard 0 — every message of a one-domain run — and
    through the outbox cell otherwise. That is safe because the drain
    appends the cells in source-shard order, so shard 0's sends come
    first at every inbox either way. An untraced, fault-free run
    therefore allocates nothing per message beyond what the program
    itself allocates (such as a tuple payload); only its buffers grow,
    and only until they reach their high-water marks.

    {b Determinism contract.} For every program, graph, seed and fault
    plan, a run is observationally {e identical} at every domain count:
    final states, {!stats}, the full trace event order, message ids and
    their causal declarations, and fault verdicts all match byte for
    byte. Untraced fault-free runs get this from shard contiguity alone
    (draining outboxes in source-shard order reproduces the
    ascending-sender send order); traced or faulty runs take one shard,
    so they step nodes in ascending order and draw ids, verdicts and
    events in one global sequence at any requested count. The retained
    reference core {!Simulator_ref} is the oracle: the differential
    suite proves this core matches it at every swept domain count. See
    the "parallelism" documentation page for the full execution model
    and its ownership rules.

    {b When sharding helps.} On large graphs with fault-free, untraced
    runs — the capacity workload. A traced run (which every collector of
    the event stream needs, a congestion profile included) or a faulty
    one takes one shard at any [domains], so sharding changes nothing
    there; tiny graphs are dominated by barrier latency and are better
    run with [domains = 1].

    Runs that raise ([Bandwidth_exceeded], or an exception escaping
    [on_round]) raise the exception of the smallest offending node of
    the round, with every send, trace event and fault verdict of the
    smaller nodes' steps already drawn — exactly where a node-by-node
    execution stops. In a sharded run, steps of higher-id nodes in the
    same round may have run in parallel; their effects are discarded
    with the run. *)

type round_cell
(** The run's current round: one cell shared by every context of a run,
    advanced by the simulator once per round before any node steps.
    Abstract, so only the core that created it can write it; programs
    read it through {!round}. *)

type ctx = {
  node : int;  (** this node's id *)
  neighbors : int array;  (** neighbor ids in port order *)
  neighbor_edges : int array;  (** host edge ids in port order *)
  clock : round_cell;  (** the run's round; read it with {!round} *)
}

val round : ctx -> int
(** The current round during [on_round] (the first round is 1); 0 during
    [init]. Programs keep no clock of their own: a sleeping node's local
    counter would fall behind, while this one is always the global
    round. *)

val round_cell : unit -> round_cell * (int -> unit)
(** A fresh cell at round 0 and the function that advances it, for a
    core that builds its own contexts ({!Simulator_ref}). A program sees
    a cell only through its [ctx], never its writer. *)

type 'msg mailbox
(** One step's view of the network: the messages delivered to the node
    this round, read by index, and the sends it queues — in a traced run,
    with each delivery's message id and each send's causal declaration
    (see "Causes" below).

    {b Contract.} Like the {!ctx}, a mailbox is valid only during the
    [on_round] step it is passed to: the core reuses it for the next
    node's step, so a program must not keep it, or read or send through
    it, after its step returns. *)

val deliveries : 'msg mailbox -> int
(** How many messages were delivered to the node this round. *)

val port : 'msg mailbox -> int -> int
(** [port mb i]: the port the [i]-th delivery arrived on, [0 <= i <
    deliveries mb], in sending order (ascending sender, then each
    sender's send order). Raises [Invalid_argument] out of range. *)

val payload : 'msg mailbox -> int -> 'msg
(** [payload mb i]: the [i]-th delivery's payload. *)

val send : 'msg mailbox -> int -> 'msg -> unit
(** [send mb port msg] queues [msg] on [port]. The core delivers the
    step's sends after it returns, in the order they were queued, and
    checks each there: a port out of range raises [Invalid_argument], and
    a send over the port's word budget raises {!Bandwidth_exceeded}. *)

(** {2 Causes}

    In a traced run the core gives every transmission a message id, one
    per-run sequence from 1 in trace-event order, and each [Send] event
    names its causal [parents] and, when the protocol says so, its source
    [part] and [phase] (see {!Trace.event}). A step reads the id of each
    delivery with {!cause} and declares what its sends were caused by
    through the mailbox:

    - {!tag} sets the step's part and phase, for every send it queues;
    - {!parents} sets the step's parents, replacing the default: the ids
      of every message delivered to the node this step;
    - {!emit} queues one send with a declaration of its own, overriding
      the step's.

    The step's tag and parents apply to its sends whenever it sets them,
    before or after queuing them. A declaration travels with its send, so
    a wrapper that re-sends the payload later ({!Reliable.wrap}) can carry
    it along. In an untraced run {!cause} reads 0 and the declarations are
    no-ops (one branch, no allocation), and {!emit} is {!send}; guard any
    argument construction with {!traced}. *)

val traced : 'msg mailbox -> bool
(** Is this step part of a traced run? *)

val cause : 'msg mailbox -> int -> int
(** [cause mb i]: the message id of the [i]-th delivery, for a send it
    causes to name among its parents; 0 in an untraced run. Raises
    [Invalid_argument] out of range. *)

val tag : 'msg mailbox -> part:int -> phase:string -> unit
(** The step's part and phase: every send it queues with {!send} carries
    them ([-1] and [""], untagged, by default). *)

val parents : 'msg mailbox -> int list -> unit
(** The step's parent ids, replacing the default of every delivery's id —
    say, an id kept in protocol state since the message that triggers a
    timer-gated send arrived, rounds earlier. *)

val emit :
  'msg mailbox -> int -> ?parents:int list -> part:int -> phase:string -> 'msg -> unit
(** [emit mb port ?parents ~part ~phase msg] is [send mb port msg] with a
    declaration of its own: [part] and [phase], and [parents] in place of
    the step's when given. *)

(** {2 Stepping a program yourself}

    For a core ({!Simulator_ref}) or a wrapper that steps an inner program
    ({!Reliable.wrap}): it fills a mailbox of its own with deliveries, runs
    the step, then reads the queued sends back with their declarations. A
    program must not call these on the mailbox its own step receives: the
    core reads that mailbox's sends back after the step. *)

val mailbox : unit -> 'msg mailbox
(** An empty mailbox of an untraced step; {!clear} opens each step. *)

val clear : 'msg mailbox -> traced:bool -> unit
(** [clear mb ~traced] drops every delivery, every queued send and every
    declaration, and opens a step of a traced run or not. *)

val deliver : 'msg mailbox -> cause:int -> int -> 'msg -> unit
(** [deliver mb ~cause port msg] appends a delivery whose message id is
    [cause] (read back by {!cause} when the step is traced). *)

val sent : 'msg mailbox -> int
(** How many sends are queued. *)

val sent_port : 'msg mailbox -> int -> int
(** [sent_port mb i]: the port of the [i]-th queued send. *)

val sent_payload : 'msg mailbox -> int -> 'msg
(** [sent_payload mb i]: the payload of the [i]-th queued send. *)

val sent_parents : 'msg mailbox -> int -> int list
(** [sent_parents mb i]: the parents of the [i]-th queued send — its own
    declaration's, or else the step's. Read them once the step has
    returned, as a core does: the step's declarations apply to all of its
    sends. [[]] in an untraced step. *)

val sent_part : 'msg mailbox -> int -> int
(** [sent_part mb i]: the part of the [i]-th queued send, declared by
    {!emit} or {!tag}; [-1] when untagged. *)

val sent_phase : 'msg mailbox -> int -> string
(** [sent_phase mb i]: the phase of the [i]-th queued send; [""] when
    untagged. *)

type ('state, 'msg) program = {
  init : ctx -> 'state;
  on_round : ctx -> 'state -> 'msg mailbox -> 'state;
      (** One step: read this round's deliveries from the mailbox, queue
          sends into it, return the new state. *)
  is_halted : 'state -> bool;
      (** A halted node no longer runs [on_round]; late messages to it are
          dropped. The simulation stops when every node is halted. *)
  wake : 'state -> int;
      (** The wake hint: the first round at which the node must step even
          with an empty inbox, as a function of its current state.
          {!every_round} (or any round already reached) means "step me
          every round"; [max_int] means "step me only when a message
          arrives". The node is stepped in round [r] iff it is live and
          its inbox is non-empty or [wake state <= r].

          {b Contract.} The hint must be honest: stepping the node in a
          round [r < wake state] with an empty inbox must send nothing,
          must not halt, and must leave the state unchanged, so skipping
          the step is unobservable. {!Simulator_ref} steps every node
          every round regardless and raises [Invalid_argument] when such a
          step sends or halts; the differential suite compares final
          states. It must be cheap and must not allocate: the core
          evaluates it for every live node with an empty inbox in each
          round it runs, and again when it looks for a round to skip to. *)
  msg_words : 'msg -> int;
      (** Size accounting: how many O(log n)-bit words the payload needs.
          Must be at least 1. *)
}

val every_round : int
(** The hint value of a node that must step in every round (0, which
    precedes every round): a state that is due now. *)

val always : 'state -> int
(** [fun _ -> every_round], the [wake] of a program whose nodes never
    sleep — protocols that act on timers they do not expose, such as
    {!Reliable.wrap}'s retransmissions, and floods that step every node.
    The core recognises this function and skips the per-node hint call
    for such programs, so they cost what they did before wake hints;
    any other hint that always returns {!every_round} behaves the same,
    only slower. *)

type stats = {
  rounds : int;
  messages : int;  (** total messages delivered *)
  words : int;  (** total words delivered *)
  max_edge_load : int;  (** max words on one edge-direction in one round *)
}

type partial = {
  partial_stats : stats;  (** accounting for the rounds that did run *)
  unhalted : int list;  (** live (non-halted, non-crashed) nodes, ascending *)
  crashed_nodes : int list;  (** nodes lost to injected crashes, ascending *)
}
(** What a run that hit [max_rounds] had accomplished when it stopped —
    nothing the simulator learned is discarded. *)

type 'state run_result =
  | Finished of 'state array * stats
  | Out_of_rounds of 'state array * partial
      (** [max_rounds] elapsed with live nodes; states and statistics are
          as of the moment the limit hit *)

exception Bandwidth_exceeded of { node : int; port : int; round : int; words : int; limit : int }

exception Round_limit of int
(** Raised by {!run} when [max_rounds] elapse with unfinished nodes. Use
    {!run_outcome} to recover the partial states and statistics instead of
    unwinding past them. *)

val max_domains : int
(** The shard-count ceiling (32). {!recommended}, {!shard_bounds} and
    the run entry points all clamp to it. *)

val recommended : unit -> int
(** A sensible default domain count for this machine:
    [Domain.recommended_domain_count], clamped to
    [\[1, max_domains\]]. *)

val shard_bounds : domains:int -> Lcs_graph.Graph.t -> int array
(** The contiguous shard boundaries of [domains] shards: [domains + 1]
    entries (after clamping — see {!run_outcome}), shard [s] owning nodes
    [bounds.(s) .. bounds.(s+1) - 1]. Balanced by port count, read off
    the graph's CSR row offsets, so dense regions spread across domains.
    An untraced, fault-free run uses these bounds; a traced or faulty
    run uses [shard_bounds ~domains:1]. A collector that reports per
    shard ({!Trace.Flight.tracer}) splits by whatever bounds its caller
    passes, such as the requested [domains]' bounds. *)

type host
(** What a run builds from its graph alone, kept for the runs after it:
    the CSR port plane with each port's reverse, the per-node contexts
    and the round cell they share, the port buffers of the
    double-buffered inboxes (their causal-id twins too, once a traced
    run has made them), and the per-port word budgets with the
    touched-slot lists that clear them. Payload buffers, shard bounds
    and owners stay per run: the first depend on the program's message
    type, the others on the run's shard count. *)

val prepare : Lcs_graph.Graph.t -> host
(** [prepare g] builds [g]'s host. Pass it as [?host] to every run on
    [g] — any programs, domain counts, tracers and fault plans — to pay
    for the set-up once; a run without [?host] prepares its own.

    {b Contract.} A host serves one graph and one run at a time. A run
    clears every buffer it reuses and resets the round cell before its
    first round, so a run that raised ({!Bandwidth_exceeded}, or an
    exception from [on_round]) leaves nothing behind for the next. The
    contexts are shared by every run on the host: a program must not
    keep a context past its run. Using a host changes only cost: every
    observable equals that of a run on a fresh host. *)

val run_outcome :
  ?domains:int ->
  ?bandwidth:int ->
  ?max_rounds:int ->
  ?host:host ->
  ?tracer:Trace.tracer ->
  ?faults:Fault.t ->
  ?par_profile:Par_profile.t ->
  Lcs_graph.Graph.t ->
  ('state, 'msg) program ->
  'state run_result
(** Like {!run}, but hitting [max_rounds] returns [Out_of_rounds] with the
    partial states and statistics rather than raising {!Round_limit}. *)

val run :
  ?domains:int ->
  ?bandwidth:int ->
  ?max_rounds:int ->
  ?host:host ->
  ?tracer:Trace.tracer ->
  ?faults:Fault.t ->
  ?par_profile:Par_profile.t ->
  Lcs_graph.Graph.t ->
  ('state, 'msg) program ->
  'state array * stats
(** Runs the program to completion. [bandwidth] defaults to 1 word;
    [max_rounds] defaults to [100_000]. Returns each node's final state and
    the round/message accounting.

    [domains] (default 1) is the shard count of an untraced, fault-free
    run, clamped to [\[1, min n max_domains\]]; a run with a [tracer] or
    [faults] takes one shard at any value. [domains < 1] raises
    [Invalid_argument]. Every observable is identical at any value.

    [host] (default: one prepared for this run) reuses a {!prepare}d
    host's set-up. Raises [Invalid_argument] if it was prepared for
    another graph, or while another run is using it.

    [tracer] (default absent) receives every {!Trace.event} of the run —
    round boundaries, each message with its host edge id, node halts,
    per-round bandwidth high-water marks; when absent the run pays one
    branch per message and allocates nothing, so tracing never perturbs
    what it observes. Collectors are folds of this stream, attached here
    with {!Trace.tee}: a congestion profile ({!Trace.Profile.tracer}),
    then a flight recorder reading it ({!Trace.Flight.tracer}).

    [faults] (default absent) subjects the network to a compiled
    {!Fault.t}: transmissions may be dropped, duplicated or delayed, links
    go down for scheduled intervals, and nodes crash at scheduled rounds
    (a crashed node stops stepping, sending and receiving; messages
    addressed to it are lost and traced as [Drop] — including pending
    {e delayed} deliveries, which are purged and reported the moment the
    destination crashes rather than lingering in the queue). Faults never
    bypass bandwidth accounting — a dropped transmission still consumed
    its slot on the wire.

    [par_profile] attaches a wall-clock collector (see {!Par_profile}):
    per-domain step / deliver / barrier-wait times, message counts and
    the cross-shard traffic matrix, recorded per round over the run's
    shards (one for a traced or faulty run). Attaching one never changes
    any observable — timing is recorded per domain and merged at the
    barrier, never read by the simulator. *)

val settle :
  ?faults:Fault.t -> 'state run_result -> 'state array * stats * Outcome.degradation
(** [settle ?faults result] ends an outcome run: its final states (as of
    the limit, when it ran out of rounds), its statistics, and the
    degradation its end implies — [crashed] from [faults]' injector
    (empty without one), [out_of_rounds] and [rounds]. [affected] and
    [unresponsive] are empty: they are the protocol validator's to fill.
    Pass the injector the run used. *)
