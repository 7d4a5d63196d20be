(** Reliable transport over a faulty CONGEST network.

    [wrap] turns any {!Simulator.program} into one that survives message
    loss, duplication and reordering (as injected by {!Fault}) by running
    a stop-and-wait ARQ — an alternating sequence bit per edge direction,
    piggybacked acks, and timeout-driven retransmission with capped
    exponential backoff — underneath the wrapped protocol. The wrapped
    protocol sees exactly the inbox it would have seen on a lossless
    (but slower) network: no lost messages, no duplicates, per-edge FIFO
    order.

    What the ARQ cannot hide is a {e crashed} neighbor: after
    [max_retries] unacked attempts a channel is declared dead, the
    optional [on_dead] hook lets the wrapped protocol react (e.g. a
    convergecast stops waiting for that child), and the dead link is
    reported by {!dead_links} so callers can downgrade their result to
    [Degraded] rather than hang or lie.

    Cost: each in-order delivery needs one data frame and one ack, so a
    fault-free wrapped run takes roughly 2–3× the rounds of the raw
    protocol (plus the [linger] tail); frames carry the inner payload's
    word size (a lone ack costs one word), so bandwidth bounds are
    preserved. *)

type config = {
  rto : int;  (** initial retransmission timeout, in rounds *)
  rto_max : int;  (** backoff cap; each retry doubles [rto] up to this *)
  max_retries : int;
      (** unacked attempts before a neighbor is declared dead *)
  linger : int;
      (** quiet rounds a node waits before halting, so late
          retransmissions from neighbors still get re-acked *)
}

val default_config : config
(** [{rto = 4; rto_max = 32; max_retries = 8; linger = 40}] — [linger]
    exceeds [rto_max] so a node cannot halt inside a neighbor's
    retransmission gap. *)

type 'msg frame
(** Wire format: optional piggybacked ack plus optional (bit, payload). *)

type ('state, 'msg) state
(** Wrapped per-node state: the inner protocol's state plus per-port ARQ
    channels. *)

val wrap :
  ?config:config ->
  ?on_dead:(Simulator.ctx -> 'state -> port:int -> 'state) ->
  ('state, 'msg) Simulator.program ->
  (('state, 'msg) state, 'msg frame) Simulator.program
(** [on_dead ctx st ~port] is applied to the inner state the round a
    channel is declared dead, before that round's [on_round] step.
    Raises [Invalid_argument] on a nonsensical [config]. *)

(** {1 Post-run reporting} *)

val inner_states : ('state, 'msg) state array -> 'state array

val dead_links : ('state, 'msg) state array -> (int * int) list
(** [(node, neighbor)] channels declared dead, from [node]'s perspective,
    sorted. A crashed neighbor typically appears once per surviving
    neighbor of the crash. *)

val retransmissions : ('state, 'msg) state array -> int
(** Total retransmitted frames across all nodes. *)

val quiesced : ('state, 'msg) state array -> bool
(** Every port of every node is either dead or fully drained: nothing in
    flight, nothing queued, no ack owed. A run that finishes with no
    {!dead_links} must satisfy this — the [linger] tail exists precisely
    so nodes do not halt while a neighbor still owes or awaits a
    frame. *)
