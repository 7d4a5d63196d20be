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
   double-buffered per-node buffers (ports in int arrays, payloads beside
   them), and delayed deliveries (faults only) in a ring keyed by arrival
   round modulo the plan's maximum delay. A program reads its deliveries
   and queues its sends through one reusable mailbox per shard, which the
   core points at the stepping node's inbox buffers, so an untraced,
   fault-free message costs no allocation: the core copies its port and
   payload from the sender's mailbox straight into the receiver's next
   inbox when both nodes live in shard 0 (every message at one domain),
   and through a cross-shard outbox cell otherwise.

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
     inside a worker: workers only buffer their nodes' sends (plus the
     causal declarations, captured from each worker's own domain-local
     Trace.Cause state in send order), and the calling domain replays
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

(* A step's deliveries are the first [in_len] entries of [in_ports] and
   [in_msgs] — the stepping node's inbox buffers, which the core lends for
   the step — and its sends the first [out_len] entries of [out_ports] and
   [out_msgs]. Both payload arrays are made from a message of the run, so
   no dummy value of the program's type is ever needed; entries past the
   lengths are stale and never read. *)
type 'msg mailbox = {
  mutable in_ports : int array;
  mutable in_msgs : 'msg array;
  mutable in_len : int;
  mutable out_ports : int array;
  mutable out_msgs : 'msg array;
  mutable out_len : int;
}

let mailbox () =
  { in_ports = [||]; in_msgs = [||]; in_len = 0; out_ports = [||]; out_msgs = [||]; out_len = 0 }

let deliveries mb = mb.in_len

let port mb i =
  if i < 0 || i >= mb.in_len then invalid_arg "Simulator.port: no such delivery";
  Array.unsafe_get mb.in_ports i

let payload mb i =
  if i < 0 || i >= mb.in_len then invalid_arg "Simulator.payload: no such delivery";
  Array.unsafe_get mb.in_msgs i

(* The capacity a full buffer of [len] entries grows to; [hint] sizes the
   first allocation. *)
let grown len ~hint = if len = 0 then max 4 hint else 2 * len

(* [ports] and [msgs] with room for [cap] entries, the first [len] kept;
   [msg] fills the new payload slots. *)
let widened ports msgs len cap msg =
  let ports' = Array.make cap 0 and msgs' = Array.make cap msg in
  Array.blit ports 0 ports' 0 len;
  Array.blit msgs 0 msgs' 0 len;
  (ports', msgs')

let send mb port msg =
  let k = mb.out_len in
  if k = Array.length mb.out_ports then begin
    let ports, msgs = widened mb.out_ports mb.out_msgs k (grown k ~hint:0) msg in
    mb.out_ports <- ports;
    mb.out_msgs <- msgs
  end;
  Array.unsafe_set mb.out_ports k port;
  Array.unsafe_set mb.out_msgs k msg;
  mb.out_len <- k + 1

let deliver mb port msg =
  let k = mb.in_len in
  if k = Array.length mb.in_ports then begin
    let ports, msgs = widened mb.in_ports mb.in_msgs k (grown k ~hint:0) msg in
    mb.in_ports <- ports;
    mb.in_msgs <- msgs
  end;
  Array.unsafe_set mb.in_ports k port;
  Array.unsafe_set mb.in_msgs k msg;
  mb.in_len <- k + 1

let sent mb = mb.out_len

let sent_port mb i =
  if i < 0 || i >= mb.out_len then invalid_arg "Simulator.sent_port: no such send";
  Array.unsafe_get mb.out_ports i

let sent_payload mb i =
  if i < 0 || i >= mb.out_len then invalid_arg "Simulator.sent_payload: no such send";
  Array.unsafe_get mb.out_msgs i

let clear mb =
  mb.in_len <- 0;
  mb.out_len <- 0

type ('state, 'msg) program = {
  init : ctx -> 'state;
  on_round : ctx -> 'state -> 'msg mailbox -> 'state;
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

  let degree csr v =
    Intvec.unsafe_get csr.port_offset (v + 1) - Intvec.unsafe_get csr.port_offset v
end

(* --- inboxes ------------------------------------------------------------- *)

(* One half of the double-buffered inboxes: node [v]'s deliveries are the
   first [len.(v)] entries of [ports.(v)] and [msgs.(v)] (and of [ids.(v)],
   their causal ids, in traced runs). The int halves are the host's and
   keep their capacity from run to run; the payload half is the run's,
   since its type is the program's. A buffer grows on demand, first to the
   node's degree — all a bandwidth-1 fault-free round can deliver. *)
type 'msg inboxes = {
  len : int array;
  ports : int array array;
  ids : int array array;  (* [||] when the run is untraced *)
  msgs : 'msg array array;
}

let push_inbox csr ib w port msg =
  let k = Array.unsafe_get ib.len w in
  let ps = Array.unsafe_get ib.ports w in
  let ps =
    if k < Array.length ps then ps
    else begin
      let ps' = Array.make (grown k ~hint:(Csr.degree csr w)) 0 in
      Array.blit ps 0 ps' 0 k;
      ib.ports.(w) <- ps';
      ps'
    end
  in
  Array.unsafe_set ps k port;
  let ms = Array.unsafe_get ib.msgs w in
  let ms =
    if k < Array.length ms then ms
    else begin
      let ms' = Array.make (Array.length ps) msg in
      Array.blit ms 0 ms' 0 k;
      ib.msgs.(w) <- ms';
      ms'
    end
  in
  Array.unsafe_set ms k msg;
  Array.unsafe_set ib.len w (k + 1)

(* The causal id of the delivery [push_inbox] makes next at [w]. *)
let push_id csr ib w id =
  let k = ib.len.(w) in
  let a = ib.ids.(w) in
  let a =
    if k < Array.length a then a
    else begin
      let a' = Array.make (grown k ~hint:(Csr.degree csr w)) 0 in
      Array.blit a 0 a' 0 k;
      ib.ids.(w) <- a';
      a'
    end
  in
  a.(k) <- id

(* --- hosts ---------------------------------------------------------------- *)

(* What a run builds from the graph alone, kept for the next run on it:
   the CSR port plane with its reverse ports, the contexts and the round
   cell they share, the int halves of the double-buffered inboxes (their
   causal-id twins too, made by the first traced run), the per-port word
   budgets and the touched-slot lists that clear them. A run resets the
   lengths and the budgets before its first round, so one that raised
   leaves nothing behind; [running] refuses a second run while one is in
   progress, from this domain or another. *)
type host = {
  graph : Graph.t;
  csr : Csr.t;
  clock : round_cell;
  ctxs : ctx array;
  lens : int array * int array;
  ports : int array array * int array array;
  mutable ids : (int array array * int array array) option;
  budget : int array;  (* per port slot: words sent on it this round *)
  touched : int array;
      (* the budget slots to clear at the round's end; shard [s] lists its
         slots from its first port slot on, a serialized run from 0 *)
  running : bool Atomic.t;
}

let prepare g =
  let n = Graph.n g in
  let csr = Csr.build g in
  let clock = ref 0 in
  let total_ports = Intvec.get csr.port_offset n in
  {
    graph = g;
    csr;
    clock;
    ctxs = Csr.contexts csr n clock;
    lens = (Array.make n 0, Array.make n 0);
    ports = (Array.make n [||], Array.make n [||]);
    ids = None;
    budget = Array.make (max 1 total_ports) 0;
    touched = Array.make (max 1 total_ports) 0;
    running = Atomic.make false;
  }

(* Hand [host]'s buffers to a new run on [g], cleared. *)
let claim host g ~traced =
  if host.graph != g then invalid_arg "Simulator.run: host prepared for another graph";
  if not (Atomic.compare_and_set host.running false true) then
    invalid_arg "Simulator.run: host is already running";
  host.clock := 0;
  Array.fill (fst host.lens) 0 (Array.length (fst host.lens)) 0;
  Array.fill (snd host.lens) 0 (Array.length (snd host.lens)) 0;
  Array.fill host.budget 0 (Array.length host.budget) 0;
  if traced && host.ids = None then begin
    let n = Graph.n g in
    host.ids <- Some (Array.make n [||], Array.make n [||])
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

(* A cross-shard outbox cell: parallel destination/return-port/payload
   buffers, reused across rounds. *)
type 'msg outcell = {
  mutable ob_dst : int array;
  mutable ob_port : int array;
  mutable ob_msg : 'msg array;
  mutable ob_len : int;
}

let push_cell cell w back msg =
  let k = cell.ob_len in
  if k = Array.length cell.ob_dst then begin
    let cap = grown k ~hint:0 in
    let dst = Array.make cap 0 in
    Array.blit cell.ob_dst 0 dst 0 k;
    let ports, msgs = widened cell.ob_port cell.ob_msg k cap msg in
    cell.ob_dst <- dst;
    cell.ob_port <- ports;
    cell.ob_msg <- msgs
  end;
  Array.unsafe_set cell.ob_dst k w;
  Array.unsafe_set cell.ob_port k back;
  Array.unsafe_set cell.ob_msg k msg;
  cell.ob_len <- k + 1

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
  (* Double-buffered inboxes: [cur_in] is read this round, [nxt_in]
     collects deliveries for the next; the references swap at the round
     boundary. The buffers are emptied by resetting lengths, never
     reallocated. *)
  let inboxes (lens, ports) ids =
    { len = lens; ports; ids; msgs = Array.make n [||] }
  in
  let cur_ids, nxt_ids =
    match host.ids with Some (a, b) when traced -> (a, b) | _ -> ([||], [||])
  in
  let cur_in = ref (inboxes (fst host.lens, fst host.ports) cur_ids) in
  let nxt_in = ref (inboxes (snd host.lens, snd host.ports) nxt_ids) in
  (* One mailbox per shard, lent to each of its steps in turn. Each domain
     makes its own before the first round (below), so two shards'
     mailboxes never share a cache line that both write on every send. *)
  let mbs = Array.make d (mailbox ()) in
  let budget = host.budget and touched = host.touched in
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
  let first_failure () =
    let rec scan s =
      if s = d then None else match fail.(s) with None -> scan (s + 1) | f -> f
    in
    scan 0
  in
  (* Lend node [v]'s inbox to mailbox [mb] for its step and empty it. *)
  let lend mb (ib : 'msg inboxes) v len =
    mb.in_ports <- Array.unsafe_get ib.ports v;
    mb.in_msgs <- Array.unsafe_get ib.msgs v;
    mb.in_len <- len;
    Array.unsafe_set ib.len v 0
  in
  (* --- fast path (untraced, fault-free): parallel end to end ------------ *)
  let out : 'msg outcell array array =
    if serialized then [||]
    else
      Array.init d (fun _ ->
          Array.init d (fun _ -> { ob_dst = [||]; ob_port = [||]; ob_msg = [||]; ob_len = 0 }))
  in
  (* Shard 0's sends to its own nodes skip the cells: the drain appends the
     cells in source-shard order, so they would come first anyway. *)
  let local_end = bounds.(1) in
  let messages_s = Array.make d 0 in
  let words_s = Array.make d 0 in
  let maxload_s = Array.make d 0 in
  let live_delta = Array.make d 0 in
  (* Per shard, written by its own domain once per round: the nodes it
     stepped. *)
  let stepped_s = Array.make d 0 in
  (* Where each shard's touched list starts in the host's: the shard's
     first port slot, so the lists never overlap; the serialized path
     clears through shard 0's list only, which may then span every slot. *)
  let touched_base =
    Array.init d (fun s -> if serialized then 0 else Intvec.get csr.port_offset bounds.(s))
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
  (* Deliver the sends node [v] queued in [mb] this step, in order, and
     empty the mailbox's send side. The shard's counters are read once and
     written back once per step: they share cache lines with the other
     shards' counters. *)
  let send_fast s v mb =
    let base = Intvec.unsafe_get csr.port_offset v in
    let degree = Csr.degree csr v in
    let nxt = !nxt_in in
    let tbase = touched_base.(s) in
    let nt = ref ntouched.(s) and load = ref maxload_s.(s) and sent_words = ref 0 in
    for i = 0 to mb.out_len - 1 do
      let port = Array.unsafe_get mb.out_ports i and msg = Array.unsafe_get mb.out_msgs i in
      if port < 0 || port >= degree then invalid_arg "Simulator: bad port";
      let size = program.msg_words msg in
      if size < 1 then invalid_arg "Simulator: msg_words must be >= 1";
      let slot = base + port in
      let prev = budget.(slot) in
      let used = prev + size in
      if used > bandwidth then
        raise
          (Bandwidth_exceeded { node = v; port; round = !rounds; words = used; limit = bandwidth });
      if prev = 0 then begin
        touched.(tbase + !nt) <- slot;
        incr nt
      end;
      budget.(slot) <- used;
      if used > !load then load := used;
      sent_words := !sent_words + size;
      if profiled then begin
        Trace.Profile.record_send shards.(s) ~round:!rounds
          ~edge:(Intvec.unsafe_get csr.port_edge slot)
          ~words:size;
        if used > roundmax_s.(s) then roundmax_s.(s) <- used
      end;
      (* [slot] is in range: the port check above bounds it within v's
         row, so the unchecked reads are safe. *)
      let w = Intvec.unsafe_get csr.port_neighbor slot in
      let back = Intvec.unsafe_get csr.port_reverse slot in
      (match par_profile with
      | None -> ()
      | Some pp -> Par_profile.record_send pp ~src:s ~dst:owner.(w) ~words:size);
      if s = 0 && w < local_end then push_inbox csr nxt w back msg
      else push_cell out.(s).(owner.(w)) w back msg
    done;
    ntouched.(s) <- !nt;
    maxload_s.(s) <- !load;
    messages_s.(s) <- messages_s.(s) + mb.out_len;
    words_s.(s) <- words_s.(s) + !sent_words;
    mb.out_len <- 0
  in
  (* Step shard [s]'s due nodes of this round in ascending order — live,
     with mail waiting or the wake hint at or before the round — and drop
     the late mail of halted ones. *)
  let phase_compute_fast s =
    let r = !rounds and cur = !cur_in and mb = mbs.(s) in
    let stepping = ref 0 in
    try
      let stepped = ref 0 in
      for v = bounds.(s) to bounds.(s + 1) - 1 do
        let len = Array.unsafe_get cur.len v in
        if halted.(v) then begin
          if len > 0 then cur.len.(v) <- 0
        end
        else if always_due || len > 0 || program.wake states.(v) <= r then begin
          stepping := v;
          incr stepped;
          lend mb cur v len;
          let state = program.on_round ctxs.(v) states.(v) mb in
          states.(v) <- state;
          if mb.out_len > 0 then send_fast s v mb;
          if program.is_halted state then begin
            halted.(v) <- true;
            live_delta.(s) <- live_delta.(s) - 1;
            if profiled then Trace.Profile.record_halt shards.(s) ~round:r
          end
        end
      done;
      stepped_s.(s) <- !stepped;
      let base = touched_base.(s) in
      for i = base to base + ntouched.(s) - 1 do
        budget.(touched.(i)) <- 0
      done;
      ntouched.(s) <- 0;
      if profiled then begin
        (* Close the round on this shard: its local bandwidth high-water
           mark; the shard merge's [set_max] recovers the global one. *)
        Trace.Profile.record_round shards.(s) ~round:r ~max_edge_load:roundmax_s.(s);
        roundmax_s.(s) <- 0
      end
    with exn -> fail.(s) <- Some (!stepping, exn)
  in
  let phase_drain t =
    (* Drain in source-shard order: shards are contiguous ascending id
       ranges, so this concatenation IS the ascending-sender send order. *)
    let nxt = !nxt_in in
    for s = 0 to d - 1 do
      let cell = out.(s).(t) in
      for i = 0 to cell.ob_len - 1 do
        push_inbox csr nxt
          (Array.unsafe_get cell.ob_dst i)
          (Array.unsafe_get cell.ob_port i)
          (Array.unsafe_get cell.ob_msg i)
      done;
      cell.ob_len <- 0
    done
  in
  (* --- serialized path (traced and/or faulty): buffer, then replay ------ *)
  (* A shard's mailbox keeps every send of the round, step after step; the
     activation records say whose they are. *)
  let act_node = Array.init d (fun _ -> Vec.create ()) in
  let act_sends = Array.init d (fun _ -> Vec.create ()) in
  let act_halt = Array.init d (fun _ -> Vec.create ()) in
  let snd_parents : int list Vec.t array = Array.init d (fun _ -> Vec.create ()) in
  let snd_part = Array.init d (fun _ -> Vec.create ()) in
  let snd_phase : string Vec.t array = Array.init d (fun _ -> Vec.create ()) in
  (* The serialized twin of [phase_compute_fast]: the same due nodes, in
     the same order, with their sends kept for the replay. *)
  let phase_compute_slow s =
    let r = !rounds and cur = !cur_in and mb = mbs.(s) in
    let stepping = ref 0 in
    try
      let stepped = ref 0 in
      for v = bounds.(s) to bounds.(s + 1) - 1 do
        let len = Array.unsafe_get cur.len v in
        if halted.(v) then begin
          if len > 0 then cur.len.(v) <- 0
        end
        else if always_due || len > 0 || program.wake states.(v) <= r then begin
          stepping := v;
          incr stepped;
          if traced then Trace.Cause.activate (Array.sub cur.ids.(v) 0 len);
          lend mb cur v len;
          let first = mb.out_len in
          let state = program.on_round ctxs.(v) states.(v) mb in
          states.(v) <- state;
          if traced then begin
            (* Consume this domain's own causal declarations once per
               send, in send order, even when the network then drops it
               — otherwise the per-port FIFO would drift at
               bandwidth > 1. *)
            for i = first to mb.out_len - 1 do
              let ps, part, phase = Trace.Cause.take ~port:mb.out_ports.(i) in
              Vec.push snd_parents.(s) ps;
              Vec.push snd_part.(s) part;
              Vec.push snd_phase.(s) phase
            done;
            Trace.Cause.deactivate ()
          end;
          let halts = program.is_halted state in
          if halts then halted.(v) <- true;
          Vec.push act_node.(s) v;
          Vec.push act_sends.(s) (mb.out_len - first);
          Vec.push act_halt.(s) (if halts then 1 else 0)
        end
      done;
      stepped_s.(s) <- !stepped
    with exn -> fail.(s) <- Some (!stepping, exn)
  in
  (* Deliver into the next round's inboxes, with the causal id when
     traced. *)
  let deliver_next w back id msg =
    let nxt = !nxt_in in
    if traced then push_id csr nxt w id;
    push_inbox csr nxt w back msg
  in
  (* Replay one buffered send on the calling domain, with the causal
     declaration read from the buffer. Ids, verdicts and trace events are
     drawn here, in shard-merge (= ascending sender) order. *)
  let process_send v port msg ~cparents ~cpart ~cphase =
    if port < 0 || port >= Csr.degree csr v then invalid_arg "Simulator: bad port";
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
      touched.(ntouched.(0)) <- slot;
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
        let id =
          match tracer with
          | None -> 0
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
              id
        in
        deliver_next w back id msg
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
                  if delay = 0 then deliver_next w back id msg
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
      let mb = mbs.(s) in
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
            process_send v mb.out_ports.(i) mb.out_msgs.(i) ~cparents ~cpart ~cphase
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
      mb.out_len <- 0;
      if traced then begin
        Vec.clear snd_parents.(s);
        Vec.clear snd_part.(s);
        Vec.clear snd_phase.(s)
      end
    done;
    for i = 0 to ntouched.(0) - 1 do
      budget.(touched.(i)) <- 0
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
              depth := !depth + (!cur_in).len.(v)
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
  run_phase crew (fun s -> mbs.(s) <- mailbox ());
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
                  (!cur_in).len.(v) <- 0;
                  (match tracer with
                  | None -> ()
                  | Some t -> t (Trace.Crash { round = !rounds; node = v }));
                  purge_delayed_to inj v ~round:!rounds
                end)
              (Fault.crashes_at inj ~round:!rounds);
            (* Deliveries whose extra latency expires this round join the
               inboxes after the synchronous ones. *)
            let slot = ring.(!rounds mod ring_span) in
            let cur = !cur_in in
            Vec.iter
              (fun p ->
                if not halted.(p.p_dst) then begin
                  if traced then push_id csr cur p.p_dst p.p_id;
                  push_inbox csr cur p.p_dst p.p_port p.p_msg
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
      let swap = !cur_in in
      cur_in := !nxt_in;
      nxt_in := swap;
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
