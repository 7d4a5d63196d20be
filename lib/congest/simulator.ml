(* The one production CONGEST core. The node set is split into [domains]
   contiguous shards balanced by port count; each round runs its local
   delivery + protocol steps shard by shard, shard 0 on the calling
   domain and every other shard on a persistent worker domain, with a
   barrier at the round boundary. One domain is simply one shard: no
   domain is spawned and the barrier is the caller finishing its own job.
   Cross-shard messages travel through per-(source shard, destination
   shard) outboxes: each cell has exactly one writer (the source domain,
   during the compute phase) and exactly one reader (the destination
   domain, during the drain phase), with the phase barrier between them —
   so the hot path takes no locks at all.

   Only due nodes step. A node is due in a round when mail reaches it or
   its program's wake hint comes due; a shard checks each of its nodes
   for that and steps only the due ones. A fault-free round that sends
   nothing fast-forwards the loop to the earliest wake hint, replaying
   only the round boundaries that observers see, so idle rounds cost
   nothing. The hint's contract makes the skipping unobservable;
   Simulator_ref, which still steps every node every round, checks that
   contract.

   The message plane lives on flat, preallocated arrays: the graph's own
   CSR port layout (every per-message lookup — destination, host edge id,
   return port — is one int-array read), per-port word budgets in one int
   array cleared through touched-slot lists, inboxes as reusable
   double-buffered port/payload buffers (the only steady-state allocation
   per delivered message is the (port, msg) list the program API
   requires), and delayed deliveries (faults only) in a ring keyed by
   arrival round modulo the plan's maximum delay.

   Determinism contract (doc/parallelism.mld spells it out; the
   differential suite enforces it against Simulator_ref): every observable
   — final states, statistics, trace event order, Trace.Cause id
   assignment, fault verdict order — is byte-identical at every domain
   count. Two facts make that cheap:

   - Shards are CONTIGUOUS id ranges and every domain walks its nodes in
     ascending order, so draining the outbox cells in source-shard order
     reproduces the ascending-sender send order at every inbox.
   - Traced or faulty runs never consume shared sequential state (the id
     counter, the fault injector's random stream, the tracer callback)
     inside a worker: workers only buffer their nodes' outboxes (plus the
     causal declarations, captured from each worker's own domain-local
     Trace.Cause state in outbox order), and the calling domain replays
     the buffered sends in shard order at the barrier — drawing ids, fault
     verdicts and trace events in one global sequence.

   The flip side, documented rather than hidden: with a tracer or a fault
   plan attached, only the protocol steps parallelize (verdicts, ids and
   event emission serialize at the barrier), so sharding buys little
   there. The untraced fault-free path — the capacity workload — is
   parallel end to end. *)

module Graph = Lcs_graph.Graph
module Vec = Lcs_util.Vec
module Intvec = Lcs_util.Intvec

type round_cell = int ref

type ctx = {
  node : int;
  neighbors : int array;
  neighbor_edges : int array;
  clock : round_cell;
}

let round ctx = !(ctx.clock)

let round_cell () =
  let cell = ref 0 in
  (cell, fun r -> cell := r)

type 'msg outbox = (int * 'msg) list

type ('state, 'msg) program = {
  init : ctx -> 'state;
  on_round : ctx -> 'state -> inbox:(int * 'msg) list -> 'state * 'msg outbox;
  is_halted : 'state -> bool;
  wake : 'state -> int;
  msg_words : 'msg -> int;
}

(* Round 0 precedes every round, so a node whose hint is 0 is always due. *)
let every_round = 0

(* The hint of a program whose nodes never sleep. The core recognises this
   very closure and skips the per-node hint call for such programs. *)
let always _ = every_round

type stats = {
  rounds : int;
  messages : int;
  words : int;
  max_edge_load : int;
}

type profiled_stats = { base : stats; profile : Trace.Profile.t }

type partial = {
  partial_stats : stats;
  unhalted : int list;
  crashed_nodes : int list;
}

type 'state run_result =
  | Finished of 'state array * stats
  | Out_of_rounds of 'state array * partial

exception Bandwidth_exceeded of { node : int; port : int; round : int; words : int; limit : int }
exception Round_limit of int

(* CSR port layout. Slot [port_offset.(v) + p] describes port [p] of node
   [v]; [port_reverse] holds the local port index at the neighbor that
   leads back, so delivery is one array read. The offset/neighbor/edge
   planes are the graph's own Bigarray-backed CSR arrays shared by
   reference — nothing is re-derived or copied, and the GC never scans
   them; only [port_reverse] is computed here. *)
module Csr = struct
  type t = {
    port_offset : Intvec.t;  (* length n+1; prefix sums of degrees *)
    port_neighbor : Intvec.t;
    port_edge : Intvec.t;
    port_reverse : Intvec.t;
  }

  let build g =
    let n = Graph.n g in
    let port_offset = Graph.csr_offsets g in
    let port_neighbor = Graph.csr_neighbors g in
    let port_edge = Graph.csr_edges g in
    let total = Intvec.get port_offset n in
    let port_reverse = Intvec.make total 0 in
    (* Each edge occupies exactly two slots; link them as the second one is
       seen. *)
    let first_slot = Intvec.make (Graph.m g) (-1) in
    for v = 0 to n - 1 do
      let off = Intvec.unsafe_get port_offset v in
      let stop = Intvec.unsafe_get port_offset (v + 1) in
      for s = off to stop - 1 do
        let e = Intvec.unsafe_get port_edge s in
        let s1 = Intvec.unsafe_get first_slot e in
        if s1 < 0 then Intvec.unsafe_set first_slot e s
        else begin
          let w = Intvec.unsafe_get port_neighbor s in
          Intvec.unsafe_set port_reverse s (s1 - Intvec.unsafe_get port_offset w);
          Intvec.unsafe_set port_reverse s1 (s - off)
        end
      done
    done;
    { port_offset; port_neighbor; port_edge; port_reverse }

  let contexts csr n clock =
    Array.init n (fun v ->
        let off = Intvec.get csr.port_offset v in
        let len = Intvec.get csr.port_offset (v + 1) - off in
        {
          node = v;
          neighbors = Intvec.sub_array csr.port_neighbor ~pos:off ~len;
          neighbor_edges = Intvec.sub_array csr.port_edge ~pos:off ~len;
          clock;
        })

  (* One growable buffer per node, its capacity hint the node's degree:
     the single lazy storage allocation of the common bandwidth-1 case. *)
  let inbox_vecs csr n =
    Array.init n (fun v ->
        Vec.create
          ~capacity:(Intvec.get csr.port_offset (v + 1) - Intvec.get csr.port_offset v)
          ())
end

(* --- hosts ---------------------------------------------------------------- *)

(* What a run builds from the graph alone, kept for the next run on it:
   the CSR port plane with its reverse ports, the contexts and the round
   cell they share, and the port halves of the double-buffered inboxes
   (plus their causal-id twins, made by the first traced run). The
   payload halves stay per run, since their type is the program's. A run
   clears every buffer here before its first round, so one that raised
   leaves nothing behind; [running] refuses a second run while one is
   in progress, from this domain or another. *)
type host = {
  graph : Graph.t;
  csr : Csr.t;
  clock : round_cell;
  ctxs : ctx array;
  ports : int Vec.t array * int Vec.t array;
  mutable ids : (int Vec.t array * int Vec.t array) option;
  running : bool Atomic.t;
}

let prepare g =
  let n = Graph.n g in
  let csr = Csr.build g in
  let clock = ref 0 in
  {
    graph = g;
    csr;
    clock;
    ctxs = Csr.contexts csr n clock;
    ports = (Csr.inbox_vecs csr n, Csr.inbox_vecs csr n);
    ids = None;
    running = Atomic.make false;
  }

(* Hand [host]'s buffers to a new run on [g], cleared. *)
let claim host g ~traced =
  if host.graph != g then invalid_arg "Simulator.run: host prepared for another graph";
  if not (Atomic.compare_and_set host.running false true) then
    invalid_arg "Simulator.run: host is already running";
  host.clock := 0;
  let clear (a, b) =
    Array.iter Vec.clear a;
    Array.iter Vec.clear b
  in
  clear host.ports;
  match host.ids with
  | Some ids -> clear ids
  | None ->
      if traced then begin
        let n = Graph.n g in
        host.ids <- Some (Csr.inbox_vecs host.csr n, Csr.inbox_vecs host.csr n)
      end

(* --- shards -------------------------------------------------------------- *)

(* The one shard-count ceiling: [recommended], [shard_bounds] and the
   run entry points all clamp to it. *)
let max_domains = 32

let recommended () = max 1 (min max_domains (Domain.recommended_domain_count ()))

(* Contiguous shard boundaries balancing the port (= work) count, not the
   node count: shard [s] is [bounds.(s) .. bounds.(s+1) - 1]. The graph's
   CSR row offsets are exactly the degree prefix sums to balance on. *)
let shard_bounds ~domains g =
  let n = Graph.n g in
  let d = max 1 (min domains (min (max 1 n) max_domains)) in
  let offsets = Graph.csr_offsets g in
  let total = Intvec.get offsets n in
  let bounds = Array.make (d + 1) n in
  bounds.(0) <- 0;
  for k = 1 to d - 1 do
    if total = 0 then bounds.(k) <- n * k / d
    else begin
      let target = total * k / d in
      let b = ref bounds.(k - 1) in
      while !b < n && Intvec.get offsets !b < target do
        incr b
      done;
      bounds.(k) <- !b
    end
  done;
  bounds

(* --- worker crew --------------------------------------------------------- *)

(* [domains - 1] persistent worker domains plus the calling domain, which
   participates as shard 0 and runs every serial section. One phase =
   broadcast a job, run shard 0's part inline, wait for the others. *)
type crew = {
  size : int;
  mutex : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable generation : int;
  mutable job : int -> unit;
  mutable pending : int;
  mutable stop : bool;
}

let make_crew size =
  {
    size;
    mutex = Mutex.create ();
    start = Condition.create ();
    finished = Condition.create ();
    generation = 0;
    job = ignore;
    pending = 0;
    stop = false;
  }

let worker crew shard ~traced () =
  (* Give this domain its own (domain-local) causal state: protocols
     consult Trace.Cause during on_round, and each worker brackets its own
     activations. The worker never draws ids — see the replay step. *)
  Trace.Cause.start_run ~enabled:traced;
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock crew.mutex;
    while (not crew.stop) && crew.generation = !seen do
      Condition.wait crew.start crew.mutex
    done;
    if crew.stop then begin
      Mutex.unlock crew.mutex;
      running := false
    end
    else begin
      seen := crew.generation;
      let job = crew.job in
      Mutex.unlock crew.mutex;
      job shard;
      Mutex.lock crew.mutex;
      crew.pending <- crew.pending - 1;
      if crew.pending = 0 then Condition.signal crew.finished;
      Mutex.unlock crew.mutex
    end
  done

let run_phase crew job =
  Mutex.lock crew.mutex;
  crew.job <- job;
  crew.generation <- crew.generation + 1;
  crew.pending <- crew.size - 1;
  Condition.broadcast crew.start;
  Mutex.unlock crew.mutex;
  job 0;
  Mutex.lock crew.mutex;
  while crew.pending > 0 do
    Condition.wait crew.finished crew.mutex
  done;
  Mutex.unlock crew.mutex

let shutdown crew handles =
  Mutex.lock crew.mutex;
  crew.stop <- true;
  Condition.broadcast crew.start;
  Mutex.unlock crew.mutex;
  Array.iter Domain.join handles

(* --- the run --------------------------------------------------------------- *)

(* Materialize the (port, msg) inbox list the program API expects, in
   arrival order, from the parallel port/payload buffers. Top-level so the
   per-node, per-round call allocates only the list itself. *)
let rec build_inbox ports msgs i acc =
  if i < 0 then acc
  else build_inbox ports msgs (i - 1) ((Vec.get ports i, Vec.get msgs i) :: acc)

(* A cross-shard outbox cell: parallel destination/return-port/payload
   buffers, reused across rounds. *)
type 'msg outcell = { ob_dst : int Vec.t; ob_port : int Vec.t; ob_msg : 'msg Vec.t }

(* A delivery parked in the delayed ring. Source, edge and size ride along
   so a crash-time purge can report exactly what it discarded; [p_id] is
   the causal message id (0 when the run is untraced). *)
type 'msg pending = {
  p_dst : int;
  p_port : int;
  p_id : int;
  p_src : int;
  p_edge : int;
  p_words : int;
  p_msg : 'msg;
}

let execute ~domains ~bandwidth ~max_rounds ?host ?tracer ?faults ?profile ?par_profile g
    program =
  if domains < 1 then invalid_arg "Simulator.run: domains";
  if bandwidth < 1 then invalid_arg "Simulator.run: bandwidth";
  let n = Graph.n g in
  let traced = tracer <> None in
  let host = match host with Some h -> h | None -> prepare g in
  claim host g ~traced;
  Fun.protect ~finally:(fun () -> Atomic.set host.running false) @@ fun () ->
  let csr = host.csr and ctxs = host.ctxs in
  (* The round every context reads: written once per round on the calling
     domain before the compute phase, read by the steps after the phase
     barrier. *)
  let clock = host.clock in
  let bounds = shard_bounds ~domains g in
  let d = Array.length bounds - 1 in
  let owner = Array.make (max 1 n) 0 in
  for s = 0 to d - 1 do
    for v = bounds.(s) to bounds.(s + 1) - 1 do
      owner.(v) <- s
    done
  done;
  (* A tracer or an injector makes the run's observables depend on a
     sequential resource (event order, the id counter, the random verdict
     stream); those runs buffer in parallel and replay serially at the
     barrier. *)
  let serialized = traced || faults <> None in
  (* The run owns the ambient Cause state: ids restart at 1 and are drawn
     in trace-event order. *)
  Trace.Cause.start_run ~enabled:traced;
  let states = Array.map program.init ctxs in
  let halted = Array.map program.is_halted states in
  let live = ref (Array.fold_left (fun acc h -> if h then acc else acc + 1) 0 halted) in
  (* Every live node of a program whose hint is [always] is due every
     round, so the compute loops need not ask. *)
  let always_due = program.wake == always in
  (* Inboxes as parallel (port, payload) buffers, double-buffered: [cur_*]
     is read this round, [nxt_*] collects deliveries for the next; the
     references swap at the round boundary. The buffers are cleared, never
     reallocated; the port halves are the host's. *)
  let cur_ports = ref (fst host.ports) in
  let cur_msgs : 'msg Vec.t array ref = ref (Csr.inbox_vecs csr n) in
  let nxt_ports = ref (snd host.ports) in
  let nxt_msgs : 'msg Vec.t array ref = ref (Csr.inbox_vecs csr n) in
  (* Parallel per-message causal ids, maintained only when traced so the
     untraced path allocates nothing extra. *)
  let cur_ids, nxt_ids =
    match host.ids with
    | Some (a, b) when traced -> (ref a, ref b)
    | _ -> (ref [||], ref [||])
  in
  let total_ports = Intvec.get csr.port_offset n in
  let budget = Array.make (max 1 total_ports) 0 in
  let crashed = Array.make (max 1 n) false in
  (* Delayed deliveries in a ring keyed by arrival round mod [ring_span].
     A verdict's extra latency is at most plan delay + 1 (reorder) + 1
     (duplicate tail), and arrival is [round + 1 + latency], so a span of
     max-delay + 4 strictly covers every pending slot — no two in-flight
     arrival rounds can collide. *)
  let ring_span =
    match faults with
    | None -> 0
    | Some inj -> Fault.max_delay (Fault.plan inj) + 4
  in
  let ring : 'msg pending Vec.t array = Array.init ring_span (fun _ -> Vec.create ()) in
  let rounds = ref 0 in
  let messages = ref 0 in
  let words = ref 0 in
  let max_edge_load = ref 0 in
  let round_max = ref 0 in
  let out_of_rounds = ref false in
  (* Per-shard failure slots: each domain stops its shard at its first
     raising node and parks the exception here. Shards are ascending id
     ranges, so the first failed shard holds the smallest failing node —
     exactly where a node-by-node execution would have stopped. *)
  let fail : (int * exn) option array = Array.make d None in
  let fail_node = Array.make d 0 in
  let first_failure () =
    let rec scan s =
      if s = d then None else match fail.(s) with None -> scan (s + 1) | f -> f
    in
    scan 0
  in
  (* --- fast path (untraced, fault-free): parallel end to end ------------ *)
  let out : 'msg outcell array array =
    if serialized then [||]
    else
      Array.init d (fun _ ->
          Array.init d (fun _ ->
              { ob_dst = Vec.create (); ob_port = Vec.create (); ob_msg = Vec.create () }))
  in
  let messages_s = Array.make d 0 in
  let words_s = Array.make d 0 in
  let maxload_s = Array.make d 0 in
  let live_delta = Array.make d 0 in
  (* Per shard, written by its own domain once per round: the nodes it
     stepped. *)
  let stepped_s = Array.make d 0 in
  (* Per-shard touched budget slots, so the end-of-round clear is
     O(messages), not O(ports). The serialized path clears through shard
     0's list only. *)
  let touched_s =
    Array.init d (fun s ->
        if serialized && s > 0 then [||]
        else
          let ports =
            if serialized then total_ports
            else
              Intvec.get csr.port_offset bounds.(s + 1)
              - Intvec.get csr.port_offset bounds.(s)
          in
          Array.make (max 1 ports) 0)
  in
  let ntouched = Array.make d 0 in
  (* --- per-domain profile shards (profiled, untraced, fault-free) -------- *)
  (* Profile aggregation is order-insensitive (sums, maxima, mergeable
     sketches), so unlike event tracing it needs no serial replay: each
     domain feeds its own shard through the event-free recording entry
     points and the shards merge — at flight-snapshot barriers and once at
     the end — into the caller's profile. Exact-mode merges are
     bit-identical to a collector fed the event stream, at every domain
     count. *)
  let profiled = profile <> None && not serialized in
  let final_profile, flight =
    match profile with Some (p, f) -> (Some p, f) | None -> (None, None)
  in
  let shard_mode =
    match final_profile with
    | Some p -> Trace.Profile.mode p
    | None -> Trace.Profile.Exact
  in
  let shards =
    if profiled then
      Array.init d (fun _ -> Trace.Profile.create ~mode:shard_mode ~edges:(Graph.m g) ())
    else [||]
  in
  let roundmax_s = Array.make d 0 in
  let merged_shards () =
    let acc = Trace.Profile.create ~mode:shard_mode ~edges:(Graph.m g) () in
    Array.iter (fun shard -> Trace.Profile.merge_into ~into:acc shard) shards;
    acc
  in
  (* Send a node's outbox. One recursive function allocated once per run —
     a per-node closure here would dominate the allocation profile the CSR
     plane exists to flatten. *)
  let rec send_fast s v base outbox =
    match outbox with
    | [] -> ()
    | (port, msg) :: rest ->
        let ctx = ctxs.(v) in
        if port < 0 || port >= Array.length ctx.neighbors then
          invalid_arg "Simulator: bad port";
        let size = program.msg_words msg in
        if size < 1 then invalid_arg "Simulator: msg_words must be >= 1";
        let slot = base + port in
        let prev = budget.(slot) in
        let used = prev + size in
        if used > bandwidth then
          raise
            (Bandwidth_exceeded
               { node = v; port; round = !rounds; words = used; limit = bandwidth });
        if prev = 0 then begin
          touched_s.(s).(ntouched.(s)) <- slot;
          ntouched.(s) <- ntouched.(s) + 1
        end;
        budget.(slot) <- used;
        if used > maxload_s.(s) then maxload_s.(s) <- used;
        messages_s.(s) <- messages_s.(s) + 1;
        words_s.(s) <- words_s.(s) + size;
        if profiled then begin
          Trace.Profile.record_send shards.(s) ~round:!rounds
            ~edge:(Intvec.unsafe_get csr.port_edge slot)
            ~words:size;
          if used > roundmax_s.(s) then roundmax_s.(s) <- used
        end;
        (* [slot] is in range: the port check above bounds it within v's
           row, so the unchecked reads are safe. *)
        let w = Intvec.unsafe_get csr.port_neighbor slot in
        (match par_profile with
        | None -> ()
        | Some pp -> Par_profile.record_send pp ~src:s ~dst:owner.(w) ~words:size);
        let cell = out.(s).(owner.(w)) in
        Vec.push cell.ob_dst w;
        Vec.push cell.ob_port (Intvec.unsafe_get csr.port_reverse slot);
        Vec.push cell.ob_msg msg;
        send_fast s v base rest
  in
  (* Step shard [s]'s due nodes of this round in ascending order — live,
     with mail waiting or the wake hint at or before the round — and drop
     the late mail of halted ones. *)
  let phase_compute_fast s =
    let r = !rounds and ports = !cur_ports and msgs = !cur_msgs in
    try
      let stepped = ref 0 in
      for v = bounds.(s) to bounds.(s + 1) - 1 do
        let ports_v = ports.(v) and msgs_v = msgs.(v) in
        if halted.(v) then begin
          if Vec.length ports_v > 0 then begin
            Vec.clear ports_v;
            Vec.clear msgs_v
          end
        end
        else if always_due || Vec.length ports_v > 0 || program.wake states.(v) <= r then begin
          fail_node.(s) <- v;
          incr stepped;
          let inbox = build_inbox ports_v msgs_v (Vec.length ports_v - 1) [] in
          Vec.clear ports_v;
          Vec.clear msgs_v;
          let state, outbox = program.on_round ctxs.(v) states.(v) ~inbox in
          states.(v) <- state;
          send_fast s v (Intvec.get csr.port_offset v) outbox;
          if program.is_halted state then begin
            halted.(v) <- true;
            live_delta.(s) <- live_delta.(s) - 1;
            if profiled then Trace.Profile.record_halt shards.(s) ~round:r
          end
        end
      done;
      stepped_s.(s) <- !stepped;
      for i = 0 to ntouched.(s) - 1 do
        budget.(touched_s.(s).(i)) <- 0
      done;
      ntouched.(s) <- 0;
      if profiled then begin
        (* Close the round on this shard: its local bandwidth high-water
           mark; the shard merge's [set_max] recovers the global one. *)
        Trace.Profile.record_round shards.(s) ~round:r ~max_edge_load:roundmax_s.(s);
        roundmax_s.(s) <- 0
      end
    with exn -> fail.(s) <- Some (fail_node.(s), exn)
  in
  let phase_drain t =
    (* Drain in source-shard order: shards are contiguous ascending id
       ranges, so this concatenation IS the ascending-sender send order. *)
    for s = 0 to d - 1 do
      let cell = out.(s).(t) in
      for i = 0 to Vec.length cell.ob_dst - 1 do
        let w = Vec.get cell.ob_dst i in
        Vec.push (!nxt_ports).(w) (Vec.get cell.ob_port i);
        Vec.push (!nxt_msgs).(w) (Vec.get cell.ob_msg i)
      done;
      Vec.clear cell.ob_dst;
      Vec.clear cell.ob_port;
      Vec.clear cell.ob_msg
    done
  in
  (* --- serialized path (traced and/or faulty): buffer, then replay ------ *)
  let act_node = Array.init d (fun _ -> Vec.create ()) in
  let act_sends = Array.init d (fun _ -> Vec.create ()) in
  let act_halt = Array.init d (fun _ -> Vec.create ()) in
  let snd_port = Array.init d (fun _ -> Vec.create ()) in
  let snd_msg : 'msg Vec.t array = Array.init d (fun _ -> Vec.create ()) in
  let snd_parents : int list Vec.t array = Array.init d (fun _ -> Vec.create ()) in
  let snd_part = Array.init d (fun _ -> Vec.create ()) in
  let snd_phase : string Vec.t array = Array.init d (fun _ -> Vec.create ()) in
  let rec buffer_sends s outbox k =
    match outbox with
    | [] -> k
    | (port, msg) :: rest ->
        Vec.push snd_port.(s) port;
        Vec.push snd_msg.(s) msg;
        if traced then begin
          (* Consume this domain's own causal declarations once per
             outgoing message, in outbox order, even when the network then
             drops it — otherwise the per-port FIFO would drift at
             bandwidth > 1. *)
          let ps, part, phase = Trace.Cause.take ~port in
          Vec.push snd_parents.(s) ps;
          Vec.push snd_part.(s) part;
          Vec.push snd_phase.(s) phase
        end;
        buffer_sends s rest (k + 1)
  in
  (* The serialized twin of [phase_compute_fast]: the same due nodes, in
     the same order, with their sends buffered for the replay. *)
  let phase_compute_slow s =
    let r = !rounds and ports = !cur_ports and msgs = !cur_msgs in
    try
      let stepped = ref 0 in
      for v = bounds.(s) to bounds.(s + 1) - 1 do
        let ports_v = ports.(v) and msgs_v = msgs.(v) in
        if halted.(v) then begin
          if Vec.length ports_v > 0 then begin
            Vec.clear ports_v;
            Vec.clear msgs_v;
            if traced then Vec.clear (!cur_ids).(v)
          end
        end
        else if always_due || Vec.length ports_v > 0 || program.wake states.(v) <= r then begin
          fail_node.(s) <- v;
          incr stepped;
          let inbox = build_inbox ports_v msgs_v (Vec.length ports_v - 1) [] in
          Vec.clear ports_v;
          Vec.clear msgs_v;
          if traced then begin
            let ids_v = (!cur_ids).(v) in
            Trace.Cause.activate (Vec.to_array ids_v);
            Vec.clear ids_v
          end;
          let state, outbox = program.on_round ctxs.(v) states.(v) ~inbox in
          states.(v) <- state;
          let k = buffer_sends s outbox 0 in
          if traced then Trace.Cause.deactivate ();
          let halts = program.is_halted state in
          if halts then halted.(v) <- true;
          Vec.push act_node.(s) v;
          Vec.push act_sends.(s) k;
          Vec.push act_halt.(s) (if halts then 1 else 0)
        end
      done;
      stepped_s.(s) <- !stepped
    with exn -> fail.(s) <- Some (fail_node.(s), exn)
  in
  (* Replay one buffered send on the calling domain, with the causal
     declaration read from the buffer. Ids, verdicts and trace events are
     drawn here, in shard-merge (= ascending sender) order. *)
  let process_send v port msg ~cparents ~cpart ~cphase =
    let ctx = ctxs.(v) in
    if port < 0 || port >= Array.length ctx.neighbors then
      invalid_arg "Simulator: bad port";
    let size = program.msg_words msg in
    if size < 1 then invalid_arg "Simulator: msg_words must be >= 1";
    let slot = Intvec.get csr.port_offset v + port in
    let prev = budget.(slot) in
    let used = prev + size in
    if used > bandwidth then
      raise
        (Bandwidth_exceeded
           { node = v; port; round = !rounds; words = used; limit = bandwidth });
    if prev = 0 then begin
      touched_s.(0).(ntouched.(0)) <- slot;
      ntouched.(0) <- ntouched.(0) + 1
    end;
    budget.(slot) <- used;
    if used > !max_edge_load then max_edge_load := used;
    let w = Intvec.unsafe_get csr.port_neighbor slot in
    let back = Intvec.unsafe_get csr.port_reverse slot in
    let edge = Intvec.unsafe_get csr.port_edge slot in
    match faults with
    | None ->
        incr messages;
        words := !words + size;
        (match par_profile with
        | None -> ()
        | Some pp -> Par_profile.record_send pp ~src:owner.(v) ~dst:owner.(w) ~words:size);
        (match tracer with
        | None -> ()
        | Some t ->
            if used > !round_max then round_max := used;
            let id = Trace.Cause.fresh_id () in
            t
              (Trace.Send
                 {
                   round = !rounds;
                   src = v;
                   dst = w;
                   edge;
                   words = size;
                   id;
                   parents = cparents;
                   part = cpart;
                   phase = cphase;
                 });
            Vec.push (!nxt_ids).(w) id);
        Vec.push (!nxt_ports).(w) back;
        Vec.push (!nxt_msgs).(w) msg
    | Some inj ->
        (* The transmission consumed its slot on the wire either way (the
           budget above); what the network then does to it is the
           injector's verdict. *)
        if crashed.(w) then begin
          Fault.note_to_crashed inj;
          match tracer with
          | None -> ()
          | Some t ->
              if used > !round_max then round_max := used;
              t (Trace.Drop { round = !rounds; src = v; dst = w; edge; words = size })
        end
        else begin
          match Fault.transmission inj ~round:!rounds ~edge with
          | Fault.Lose Fault.Random_loss -> (
              match tracer with
              | None -> ()
              | Some t ->
                  if used > !round_max then round_max := used;
                  t (Trace.Drop { round = !rounds; src = v; dst = w; edge; words = size }))
          | Fault.Lose Fault.Link_is_down -> (
              match tracer with
              | None -> ()
              | Some t ->
                  if used > !round_max then round_max := used;
                  t (Trace.Link_down { round = !rounds; edge }))
          | Fault.Deliver delays ->
              List.iteri
                (fun i delay ->
                  incr messages;
                  words := !words + size;
                  (match par_profile with
                  | None -> ()
                  | Some pp ->
                      Par_profile.record_send pp ~src:owner.(v) ~dst:owner.(w) ~words:size);
                  let id =
                    match tracer with
                    | None -> 0
                    | Some t ->
                        if used > !round_max then round_max := used;
                        let id = Trace.Cause.fresh_id () in
                        if i = 0 then
                          t
                            (Trace.Send
                               {
                                 round = !rounds;
                                 src = v;
                                 dst = w;
                                 edge;
                                 words = size;
                                 id;
                                 parents = cparents;
                                 part = cpart;
                                 phase = cphase;
                               })
                        else
                          t
                            (Trace.Duplicate
                               {
                                 round = !rounds;
                                 src = v;
                                 dst = w;
                                 edge;
                                 words = size;
                                 id;
                                 parents = cparents;
                                 part = cpart;
                                 phase = cphase;
                               });
                        if delay > 0 then
                          t (Trace.Delayed { round = !rounds; src = v; dst = w; edge; delay });
                        id
                  in
                  if delay = 0 then begin
                    (match tracer with
                    | None -> ()
                    | Some _ -> Vec.push (!nxt_ids).(w) id);
                    Vec.push (!nxt_ports).(w) back;
                    Vec.push (!nxt_msgs).(w) msg
                  end
                  else
                    let at = !rounds + 1 + delay in
                    Vec.push
                      ring.(at mod ring_span)
                      {
                        p_dst = w;
                        p_port = back;
                        p_id = id;
                        p_src = v;
                        p_edge = edge;
                        p_words = size;
                        p_msg = msg;
                      })
                delays
        end
  in
  (* Replay the round's buffered activations of nodes below [until] — all
     of them, unless some node's step raised, in which case exactly the
     prefix a node-by-node execution completes before that node. *)
  let replay_round ~until =
    for s = 0 to d - 1 do
      let send_idx = ref 0 in
      for a = 0 to Vec.length act_node.(s) - 1 do
        let v = Vec.get act_node.(s) a in
        let k = Vec.get act_sends.(s) a in
        if v < until then begin
          for j = 0 to k - 1 do
            let i = !send_idx + j in
            let cparents, cpart, cphase =
              if traced then
                (Vec.get snd_parents.(s) i, Vec.get snd_part.(s) i, Vec.get snd_phase.(s) i)
              else ([], -1, "")
            in
            process_send v (Vec.get snd_port.(s) i) (Vec.get snd_msg.(s) i) ~cparents
              ~cpart ~cphase
          done;
          if Vec.get act_halt.(s) a = 1 then begin
            decr live;
            match tracer with
            | None -> ()
            | Some t -> t (Trace.Halt { round = !rounds; node = v })
          end
        end;
        send_idx := !send_idx + k
      done;
      Vec.clear act_node.(s);
      Vec.clear act_sends.(s);
      Vec.clear act_halt.(s);
      Vec.clear snd_port.(s);
      Vec.clear snd_msg.(s);
      if traced then begin
        Vec.clear snd_parents.(s);
        Vec.clear snd_part.(s);
        Vec.clear snd_phase.(s)
      end
    done;
    for i = 0 to ntouched.(0) - 1 do
      budget.(touched_s.(0).(i)) <- 0
    done;
    ntouched.(0) <- 0
  in
  (* A crashed node's pending delayed deliveries are discarded with it:
     each one is traced as a Drop and counted against the injector, in
     ascending arrival-round then scheduling order, so the trace never
     shows traffic consumed by a dead node. *)
  let purge_delayed_to inj v ~round =
    for dr = 0 to ring_span - 1 do
      let slot = ring.((round + dr) mod ring_span) in
      if Vec.length slot > 0 then begin
        let keep = ref 0 in
        for i = 0 to Vec.length slot - 1 do
          let p = Vec.get slot i in
          if p.p_dst = v then begin
            Fault.note_to_crashed inj;
            match tracer with
            | None -> ()
            | Some t ->
                t (Trace.Drop { round; src = p.p_src; dst = v; edge = p.p_edge; words = p.p_words })
          end
          else begin
            Vec.set slot !keep p;
            incr keep
          end
        done;
        Vec.truncate slot !keep
      end
    done
  in
  (* --- the round loop ---------------------------------------------------- *)
  (* With a wall-clock collector attached, each phase job times itself
     into its own shard's slot (single-writer, merged at the barrier);
     the instrumentation-off arm passes the bare jobs through and
     allocates nothing. *)
  let compute_job = if serialized then phase_compute_slow else phase_compute_fast in
  let compute_job =
    match par_profile with
    | None -> compute_job
    | Some pp ->
        fun s ->
          let t0 = Par_profile.now () in
          compute_job s;
          Par_profile.set_step pp ~shard:s (Par_profile.now () -. t0);
          Par_profile.set_activations pp ~shard:s stepped_s.(s)
  in
  let drain_job =
    match par_profile with
    | None -> phase_drain
    | Some pp ->
        fun s ->
          let t0 = Par_profile.now () in
          phase_drain s;
          Par_profile.set_deliver pp ~shard:s (Par_profile.now () -. t0)
  in
  (* Flight snapshot at the barrier: read each domain's pending-delivery
     depth off the inboxes the swap just made current (all empty after an
     idle round). On the fast path the heavy hitters and vitals come from
     merging the per-domain shards into a throwaway profile; on the
     serialized path the caller's profile (fed through the tracer tee) has
     already closed this round. *)
  let snapshot ~idle =
    match flight with
    | Some (every, emit) when every > 0 && !rounds mod every = 0 ->
        let queues = Array.make d 0 in
        if not idle then
          for s = 0 to d - 1 do
            let depth = ref 0 in
            for v = bounds.(s) to bounds.(s + 1) - 1 do
              depth := !depth + Vec.length (!cur_ports).(v)
            done;
            queues.(s) <- !depth
          done;
        let p = if profiled then merged_shards () else Option.get final_profile in
        emit (Trace.Flight.of_profile ~queues ~round:!rounds p)
    | _ -> ()
  in
  (* A round in which no node is due and no message is in flight: nothing
     steps, but every observer still sees it open and close. *)
  let idle_round () =
    incr rounds;
    (match tracer with
    | None -> ()
    | Some t -> t (Trace.Round_start { round = !rounds; live = !live }));
    if profiled then Trace.Profile.record_round shards.(0) ~round:!rounds ~max_edge_load:0;
    (match tracer with
    | None -> ()
    | Some t -> t (Trace.Round_end { round = !rounds; max_edge_load = 0 }));
    snapshot ~idle:true
  in
  let observed =
    traced || profiled || match flight with Some (every, _) -> every > 0 | None -> false
  in
  (* Messages sent so far in the run. *)
  let sent () =
    if serialized then !messages
    else begin
      let total = ref 0 in
      for s = 0 to d - 1 do
        total := !total + messages_s.(s)
      done;
      !total
    end
  in
  (* The earliest wake hint of a live node, after round [r]; the scan
     stops at the first node due by [r + 1], since no skip is possible
     then. *)
  let next_due r =
    let rec scan v earliest =
      if v = n || earliest <= r + 1 then earliest
      else if halted.(v) then scan (v + 1) earliest
      else
        let w = program.wake states.(v) in
        scan (v + 1) (if w < earliest then w else earliest)
    in
    scan 0 max_int
  in
  (* Jump from a round that left nothing in flight to the round before
     the earliest wake hint, replaying the skipped rounds for observers. *)
  let fast_forward () =
    let next = next_due !rounds in
    if next > !rounds + 1 then begin
      let last = min (next - 1) max_rounds in
      if observed then
        while !rounds < last do
          idle_round ()
        done
      else rounds := last
    end
  in
  let crew = make_crew d in
  let handles = Array.init (d - 1) (fun i -> Domain.spawn (worker crew (i + 1) ~traced)) in
  Fun.protect ~finally:(fun () -> shutdown crew handles) @@ fun () ->
  (match par_profile with None -> () | Some pp -> Par_profile.begin_run pp ~domains:d);
  (* Each shard scans its nodes every round it runs, but steps only the
     due ones: a live node with mail waiting or its wake hint at or
     before the round. A step before then with an empty inbox is, by the
     hint's contract, a no-op, so skipping it changes nothing observable.
     A fault-free round that sends nothing leaves no message in flight, so
     no node steps before the earliest hint: the loop fast-forwards to it
     (capped at [max_rounds]), still opening and closing each skipped
     round for the tracer, the profile and the flight recorder. Fault
     plans keep the loop round by round, because the delayed ring and the
     crash schedule act on rounds of their own. *)
  while !live > 0 && not !out_of_rounds do
    if !rounds >= max_rounds then out_of_rounds := true
    else begin
      incr rounds;
      clock := !rounds;
      let sent_before = sent () in
      if serialized then begin
        (match tracer with
        | None -> ()
        | Some t ->
            round_max := 0;
            t (Trace.Round_start { round = !rounds; live = !live }));
        match faults with
        | None -> ()
        | Some inj ->
            (* Crashes fire at the start of the round: the node neither
               steps nor receives from now on, so the scan treats it as
               halted too. *)
            List.iter
              (fun v ->
                if v >= 0 && v < n && not crashed.(v) then begin
                  crashed.(v) <- true;
                  if not halted.(v) then decr live;
                  halted.(v) <- true;
                  Vec.clear (!cur_ports).(v);
                  Vec.clear (!cur_msgs).(v);
                  (match tracer with
                  | None -> ()
                  | Some t ->
                      Vec.clear (!cur_ids).(v);
                      t (Trace.Crash { round = !rounds; node = v }));
                  purge_delayed_to inj v ~round:!rounds
                end)
              (Fault.crashes_at inj ~round:!rounds);
            (* Deliveries whose extra latency expires this round join the
               inboxes after the synchronous ones. *)
            let slot = ring.(!rounds mod ring_span) in
            Vec.iter
              (fun p ->
                if not halted.(p.p_dst) then begin
                  Vec.push (!cur_ports).(p.p_dst) p.p_port;
                  Vec.push (!cur_msgs).(p.p_dst) p.p_msg;
                  match tracer with
                  | None -> ()
                  | Some _ -> Vec.push (!cur_ids).(p.p_dst) p.p_id
                end)
              slot;
            Vec.clear slot
      end;
      (match par_profile with None -> () | Some pp -> Par_profile.round_start pp);
      run_phase crew compute_job;
      (match par_profile with None -> () | Some pp -> Par_profile.end_step pp);
      let failure = first_failure () in
      if serialized then begin
        let until = match failure with Some (v, _) -> v | None -> n in
        match par_profile with
        | None -> replay_round ~until
        | Some pp ->
            let t0 = Par_profile.now () in
            replay_round ~until;
            Par_profile.add_serial pp (Par_profile.now () -. t0)
      end;
      (match failure with Some (_, exn) -> raise exn | None -> ());
      if not serialized then begin
        for s = 0 to d - 1 do
          live := !live + live_delta.(s);
          live_delta.(s) <- 0
        done;
        run_phase crew drain_job;
        match par_profile with None -> () | Some pp -> Par_profile.end_deliver pp
      end;
      let tp = !cur_ports in
      cur_ports := !nxt_ports;
      nxt_ports := tp;
      let tm = !cur_msgs in
      cur_msgs := !nxt_msgs;
      nxt_msgs := tm;
      if traced then begin
        let ti = !cur_ids in
        cur_ids := !nxt_ids;
        nxt_ids := ti
      end;
      (match tracer with
      | None -> ()
      | Some t -> t (Trace.Round_end { round = !rounds; max_edge_load = !round_max }));
      snapshot ~idle:false;
      let r = !rounds in
      (* A fault-free round that sent nothing leaves nothing in flight, so
         no node is due before the earliest wake hint: skip to it. The
         skip is calling-domain work, so a wall-clock collector books it
         as this round's serial time. *)
      if faults = None && !live > 0 && sent () = sent_before then begin
        match par_profile with
        | None -> fast_forward ()
        | Some pp ->
            let t0 = Par_profile.now () in
            fast_forward ();
            Par_profile.add_serial pp (Par_profile.now () -. t0)
      end;
      match par_profile with None -> () | Some pp -> Par_profile.commit_round pp ~round:r
    end
  done;
  (match par_profile with None -> () | Some pp -> Par_profile.end_run pp);
  if not serialized then begin
    for s = 0 to d - 1 do
      messages := !messages + messages_s.(s);
      words := !words + words_s.(s);
      if maxload_s.(s) > !max_edge_load then max_edge_load := maxload_s.(s)
    done
  end;
  (match final_profile with
  | Some p when profiled ->
      Array.iter (fun shard -> Trace.Profile.merge_into ~into:p shard) shards
  | _ -> ());
  let stats =
    { rounds = !rounds; messages = !messages; words = !words; max_edge_load = !max_edge_load }
  in
  if !out_of_rounds then begin
    let unhalted = ref [] in
    for v = n - 1 downto 0 do
      if not halted.(v) then unhalted := v :: !unhalted
    done;
    let crashed_nodes =
      match faults with None -> [] | Some inj -> Fault.crashed_nodes inj
    in
    Out_of_rounds (states, { partial_stats = stats; unhalted = !unhalted; crashed_nodes })
  end
  else Finished (states, stats)

(* --- entry points -------------------------------------------------------- *)

let run_outcome ?(domains = 1) ?(bandwidth = 1) ?(max_rounds = 100_000) ?host ?tracer
    ?faults ?par_profile g program =
  execute ~domains ~bandwidth ~max_rounds ?host ?tracer ?faults ?par_profile g program

let finished = function
  | Finished (states, stats) -> (states, stats)
  | Out_of_rounds (_, partial) -> raise (Round_limit partial.partial_stats.rounds)

let run ?domains ?bandwidth ?max_rounds ?host ?tracer ?faults ?par_profile g program =
  finished
    (run_outcome ?domains ?bandwidth ?max_rounds ?host ?tracer ?faults ?par_profile g program)

let run_profiled ?(domains = 1) ?(bandwidth = 1) ?(max_rounds = 100_000) ?mode ?flight
    ?tracer ?faults ?par_profile g program =
  let profile = Trace.Profile.create ?mode ~edges:(Graph.m g) () in
  (* A profile-only run has no event order to reproduce, so it keeps the
     parallel fast path with per-domain profile shards. An external tracer
     or a fault plan serializes the observables (see the determinism
     contract above), and the profile then collects through the tracer
     tee, ahead of the caller's tracer. *)
  let tracer =
    match (tracer, faults) with
    | None, None -> None
    | None, Some _ -> Some (Trace.Profile.tracer profile)
    | Some t, _ -> Some (Trace.tee [ Trace.Profile.tracer profile; t ])
  in
  let states, base =
    finished
      (execute ~domains ~bandwidth ~max_rounds ?tracer ?faults ~profile:(profile, flight)
         ?par_profile g program)
  in
  (states, { base; profile })
