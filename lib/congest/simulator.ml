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
   its program's wake hint comes due; a shard visits the nodes of its
   due bitset — set by each delivery, and by each step whose hint names
   the next round — and steps the due ones, visiting every node only in
   a fill round (round 1, an [always] program's rounds, and rounds that
   reach the earliest later hint the shard has read). A fault-free round
   that sends nothing and leaves no bit set fast-forwards the loop to
   the round before the smallest such bound, replaying only the round
   boundaries that observers see, so idle rounds cost nothing. The
   hint's contract makes the skipping unobservable; Simulator_ref, which
   still steps every node every round, checks that contract.

   The message plane lives on flat, preallocated arrays: the graph's own
   CSR port layout (every per-message lookup — destination, host edge id,
   return port — is one int-array read), per-port word budgets in one int
   array cleared through touched-slot lists, inboxes as reusable
   double-buffered per-node buffers (ports in int arrays, payloads beside
   them), and delayed deliveries (faults only) in a ring keyed by arrival
   round modulo the plan's maximum delay. A program reads its deliveries
   and queues its sends through one reusable mailbox per shard, which the
   core points at the stepping node's inbox buffers, and the core
   delivers a step's sends as soon as it returns, so an untraced,
   fault-free message costs no allocation: the core copies its port and
   payload from the sender's mailbox straight into the receiver's next
   inbox when both nodes live in shard 0 (every message at one domain),
   and through a cross-shard outbox cell otherwise.

   Determinism contract (doc/parallelism.mld spells it out; the
   differential suite enforces it against Simulator_ref): every observable
   — final states, statistics, trace event order, message ids and their
   causal declarations, fault verdict order — is byte-identical at every
   domain count. Two facts make that cheap:

   - Shards are CONTIGUOUS id ranges and every domain visits its nodes in
     ascending order, so draining the outbox cells in source-shard order
     reproduces the ascending-sender send order at every inbox.
   - A traced or faulty run consumes shared sequential state (the id
     counter, the fault injector's random stream, the tracer callback),
     so it takes one shard on the calling domain whatever [domains] says
     and spawns no worker. Its steps return in ascending node order, and
     each step's sends draw their ids, verdicts and trace events as it
     returns — one global sequence, the same at every requested count.

   The flip side, documented rather than hidden: with a tracer or a fault
   plan attached, a run does not parallelize at all. The untraced
   fault-free path — the capacity workload — is parallel end to end. *)

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

(* What a traced send declares of its cause: nothing (the step's tag and
   parents apply), its part and phase (the step's parents apply), or all
   three. *)
type declared = Nothing | Tag | Tag_and_parents

(* A step's deliveries are the first [in_len] entries of [in_ports] and
   [in_msgs] — the stepping node's inbox buffers, which the core lends for
   the step — and, in a traced run, of [in_ids], their causal ids. Its
   sends are the first [out_len] entries of [out_ports] and [out_msgs]. Both
   payload arrays are made from a message of the run, so no dummy value of
   the program's type is ever needed; entries past the lengths are stale
   and never read.

   A traced step also carries its causal declarations: the step's tag and
   parents ([None]: every delivery's id), and per send a [declared] mark
   with the declared part, phase and parents beside it. Only [emit] sets a
   mark, so [send] stays untouched; the arrays grow when [emit] or a
   reader needs them, and whoever reads a step's sends resets their marks
   before the slots serve another step. *)
type 'msg mailbox = {
  mutable in_ports : int array;
  mutable in_msgs : 'msg array;
  mutable in_ids : int array;
  mutable in_len : int;
  mutable out_ports : int array;
  mutable out_msgs : 'msg array;
  mutable out_len : int;
  mutable traced : bool;
  mutable step_part : int;
  mutable step_phase : string;
  mutable step_parents : int list option;
  mutable declared : declared array;
  mutable decl_part : int array;
  mutable decl_phase : string array;
  mutable decl_parents : int list array;
}

let make_mailbox ~traced =
  {
    in_ports = [||];
    in_msgs = [||];
    in_ids = [||];
    in_len = 0;
    out_ports = [||];
    out_msgs = [||];
    out_len = 0;
    traced;
    step_part = -1;
    step_phase = "";
    step_parents = None;
    declared = [||];
    decl_part = [||];
    decl_phase = [||];
    decl_parents = [||];
  }

let mailbox () = make_mailbox ~traced:false

let deliveries mb = mb.in_len

let port mb i =
  if i < 0 || i >= mb.in_len then invalid_arg "Simulator.port: no such delivery";
  Array.unsafe_get mb.in_ports i

let payload mb i =
  if i < 0 || i >= mb.in_len then invalid_arg "Simulator.payload: no such delivery";
  Array.unsafe_get mb.in_msgs i

let traced mb = mb.traced

let cause mb i =
  if i < 0 || i >= mb.in_len then invalid_arg "Simulator.cause: no such delivery";
  if mb.traced then Array.unsafe_get mb.in_ids i else 0

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

(* Room for the declarations of the first [len] sends. *)
let reserve mb len =
  let cap = Array.length mb.declared in
  if len > cap then begin
    let cap' = max len (grown cap ~hint:0) in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    mb.declared <- extend mb.declared Nothing;
    mb.decl_part <- extend mb.decl_part (-1);
    mb.decl_phase <- extend mb.decl_phase "";
    mb.decl_parents <- extend mb.decl_parents []
  end

let tag mb ~part ~phase =
  if mb.traced then begin
    mb.step_part <- part;
    mb.step_phase <- phase
  end

let parents mb ps = if mb.traced then mb.step_parents <- Some ps

let emit mb port ?parents ~part ~phase msg =
  send mb port msg;
  if mb.traced then begin
    let k = mb.out_len - 1 in
    reserve mb (k + 1);
    mb.decl_part.(k) <- part;
    mb.decl_phase.(k) <- phase;
    match parents with
    | None -> mb.declared.(k) <- Tag
    | Some ps ->
        mb.declared.(k) <- Tag_and_parents;
        mb.decl_parents.(k) <- ps
  end

(* The step's default parents: those it declared, or else every delivery's
   id, listed once per step. *)
let step_parents mb =
  match mb.step_parents with
  | Some ps -> ps
  | None ->
      let rec listed i acc = if i < 0 then acc else listed (i - 1) (mb.in_ids.(i) :: acc) in
      let ps = if mb.traced then listed (mb.in_len - 1) [] else [] in
      mb.step_parents <- Some ps;
      ps

let deliver mb ~cause port msg =
  let k = mb.in_len in
  if k = Array.length mb.in_ports then begin
    let ports, msgs = widened mb.in_ports mb.in_msgs k (grown k ~hint:0) msg in
    mb.in_ports <- ports;
    mb.in_msgs <- msgs
  end;
  Array.unsafe_set mb.in_ports k port;
  Array.unsafe_set mb.in_msgs k msg;
  if mb.traced then begin
    if k >= Array.length mb.in_ids then begin
      let ids = Array.make (Array.length mb.in_ports) 0 in
      Array.blit mb.in_ids 0 ids 0 k;
      mb.in_ids <- ids
    end;
    mb.in_ids.(k) <- cause
  end;
  mb.in_len <- k + 1

let sent mb = mb.out_len

let sent_port mb i =
  if i < 0 || i >= mb.out_len then invalid_arg "Simulator.sent_port: no such send";
  Array.unsafe_get mb.out_ports i

let sent_payload mb i =
  if i < 0 || i >= mb.out_len then invalid_arg "Simulator.sent_payload: no such send";
  Array.unsafe_get mb.out_msgs i

let declared_at fn mb i =
  if i < 0 || i >= mb.out_len then invalid_arg (fn ^ ": no such send");
  if i < Array.length mb.declared then mb.declared.(i) else Nothing

let sent_part mb i =
  match declared_at "Simulator.sent_part" mb i with
  | Nothing -> mb.step_part
  | Tag | Tag_and_parents -> mb.decl_part.(i)

let sent_phase mb i =
  match declared_at "Simulator.sent_phase" mb i with
  | Nothing -> mb.step_phase
  | Tag | Tag_and_parents -> mb.decl_phase.(i)

let sent_parents mb i =
  match declared_at "Simulator.sent_parents" mb i with
  | Tag_and_parents -> mb.decl_parents.(i)
  | Nothing | Tag -> step_parents mb

let reset_step mb =
  mb.step_part <- -1;
  mb.step_phase <- "";
  mb.step_parents <- None

(* Forget the declarations of the step that queued the sends, so the next
   step starts from none. *)
let forget_declarations mb =
  for i = 0 to min mb.out_len (Array.length mb.declared) - 1 do
    mb.declared.(i) <- Nothing
  done;
  reset_step mb

let clear mb ~traced =
  forget_declarations mb;
  mb.traced <- traced;
  mb.in_len <- 0;
  mb.out_len <- 0

(* Write the declarations of the sends a traced step just queued into the
   [decl_] arrays, resolved against the step's tag and parents, and clear
   the marks and the step's defaults for the next step on the same
   mailbox. The core then reads each send's declaration by its index. *)
let settle_declarations mb =
  reserve mb mb.out_len;
  for i = 0 to mb.out_len - 1 do
    (match mb.declared.(i) with
    | Nothing ->
        mb.decl_part.(i) <- mb.step_part;
        mb.decl_phase.(i) <- mb.step_phase;
        mb.decl_parents.(i) <- step_parents mb
    | Tag -> mb.decl_parents.(i) <- step_parents mb
    | Tag_and_parents -> ());
    mb.declared.(i) <- Nothing
  done;
  reset_step mb

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

(* --- due bitsets ------------------------------------------------------------ *)

(* The nodes a shard visits in a round, one bit each, 32 to an int word.
   Node [v] of shard [s] is bit [v land 31] of word [(v lsr 5) + s]: the
   one-word shift per shard keeps the shards' words apart, so no two
   domains ever write one word, and [d] shards fit in ⌈n/32⌉ + [d]
   words. *)
let due_words n ~shards = ((n + 31) / 32) + shards

let mark due s v =
  let i = (v lsr 5) + s in
  Array.unsafe_set due i (Array.unsafe_get due i lor (1 lsl (v land 31)))

(* Set the bits of nodes [lo .. hi - 1], all of shard [s]. *)
let mark_range due s lo hi =
  let v = ref lo in
  while !v < hi do
    let base = !v land lnot 31 in
    let stop = min hi (base + 32) in
    let i = (!v lsr 5) + s in
    due.(i) <- due.(i) lor ((1 lsl (stop - base)) - (1 lsl (!v - base)));
    v := stop
  done

(* The index of the one set bit of [b], a power of two below 2^32
   (de Bruijn multiplication). *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let bit_index b = Array.unsafe_get debruijn (((b * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Live node [v] of shard [s], after round [round], sleeps until [hint]:
   due next round, it gets its bit in [next_due]; otherwise the shard's
   earliest timed hint [bound] becomes [min hint bound]. *)
let asleep next_due s v ~round hint bound =
  if hint <= round + 1 then begin
    mark next_due s v;
    bound
  end
  else Int.min hint bound

(* --- inboxes ------------------------------------------------------------- *)

(* One half of the double-buffered inboxes: node [v]'s deliveries are the
   first [len.(v)] entries of [ports.(v)] and [msgs.(v)] (and of [ids.(v)],
   their causal ids, in traced runs), and [due] holds the bits of the
   nodes the round must visit (see "due bitsets" above). The int halves
   are the host's and keep their capacity from run to run; the payload
   half is the run's, since its type is the program's. A buffer grows on
   demand, first to the node's degree — all a bandwidth-1 fault-free
   round can deliver. *)
type 'msg inboxes = {
  len : int array;
  due : int array;
  ports : int array array;
  ids : int array array;  (* [||] when the run is untraced *)
  msgs : 'msg array array;
}

(* Append a delivery to node [w]'s inbox; the first one of the round sets
   [w]'s due bit, in the words of [w]'s shard [s]. *)
let push_inbox csr ib s w port msg =
  let k = Array.unsafe_get ib.len w in
  if k = 0 then mark ib.due s w;
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
   causal-id twins too, made by the first traced run) with the due bitsets
   beside their lengths, the per-port word budgets and the touched-slot
   lists that clear them. A run resets the lengths, the bitsets and the
   budgets before its first round, so one that raised leaves nothing
   behind; [running] refuses a second run while one is in progress, from
   this domain or another. *)
type host = {
  graph : Graph.t;
  csr : Csr.t;
  clock : round_cell;
  ctxs : ctx array;
  lens : int array * int array;
  mutable due : int array * int array;  (* sized for the most shards yet *)
  ports : int array array * int array array;
  mutable ids : (int array array * int array array) option;
  budget : int array;  (* per port slot: words sent on it this round *)
  touched : int array;
      (* the budget slots to clear at the round's end; shard [s] lists its
         slots from its first port slot on *)
  running : bool Atomic.t;
}

let prepare g =
  let n = Graph.n g in
  let csr = Csr.build g in
  let clock = ref 0 in
  let total_ports = Intvec.get csr.port_offset n in
  let words = due_words n ~shards:1 in
  {
    graph = g;
    csr;
    clock;
    ctxs = Csr.contexts csr n clock;
    lens = (Array.make n 0, Array.make n 0);
    due = (Array.make words 0, Array.make words 0);
    ports = (Array.make n [||], Array.make n [||]);
    ids = None;
    budget = Array.make (max 1 total_ports) 0;
    touched = Array.make (max 1 total_ports) 0;
    running = Atomic.make false;
  }

(* Hand [host]'s buffers to a new run on [g] over [shards] shards,
   cleared. *)
let claim host g ~traced ~shards =
  if host.graph != g then invalid_arg "Simulator.run: host prepared for another graph";
  if not (Atomic.compare_and_set host.running false true) then
    invalid_arg "Simulator.run: host is already running";
  host.clock := 0;
  Array.fill (fst host.lens) 0 (Array.length (fst host.lens)) 0;
  Array.fill (snd host.lens) 0 (Array.length (snd host.lens)) 0;
  let words = due_words (Graph.n g) ~shards in
  if Array.length (fst host.due) < words then
    host.due <- (Array.make words 0, Array.make words 0)
  else begin
    Array.fill (fst host.due) 0 words 0;
    Array.fill (snd host.due) 0 words 0
  end;
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

let worker crew shard () =
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

let execute ~domains ~bandwidth ~max_rounds ?host ?tracer ?faults ?par_profile g program =
  if domains < 1 then invalid_arg "Simulator.run: domains";
  if bandwidth < 1 then invalid_arg "Simulator.run: bandwidth";
  let n = Graph.n g in
  let traced = tracer <> None in
  (* A tracer or an injector makes the run's observables depend on a
     sequential resource (event order, the id counter, the random verdict
     stream); those runs take one shard, on the calling domain, and draw
     from it as each step returns. *)
  let serialized = traced || faults <> None in
  let bounds = shard_bounds ~domains:(if serialized then 1 else domains) g in
  let d = Array.length bounds - 1 in
  let host = match host with Some h -> h | None -> prepare g in
  claim host g ~traced ~shards:d;
  Fun.protect ~finally:(fun () -> Atomic.set host.running false) @@ fun () ->
  let csr = host.csr and ctxs = host.ctxs in
  (* The round every context reads: written once per round on the calling
     domain before the compute phase, read by the steps after the phase
     barrier. *)
  let clock = host.clock in
  let owner = Array.make (max 1 n) 0 in
  for s = 0 to d - 1 do
    for v = bounds.(s) to bounds.(s + 1) - 1 do
      owner.(v) <- s
    done
  done;
  (* The run's message ids: drawn from 1 in trace-event order. *)
  let last_id = ref 0 in
  let states = Array.map program.init ctxs in
  let halted = Array.map program.is_halted states in
  let live = ref (Array.fold_left (fun acc h -> if h then acc else acc + 1) 0 halted) in
  (* Every live node of a program whose hint is [always] is due every
     round, so each of its rounds is a fill round and the compute loop
     never asks. *)
  let always_due = program.wake == always in
  (* Double-buffered inboxes: [cur_in] is read this round, [nxt_in]
     collects deliveries for the next, and each half's due bitset swaps
     with it; the references swap at the round boundary. The buffers are
     emptied by resetting lengths and clearing bits, never reallocated. *)
  let inboxes (lens, due, ports) ids =
    { len = lens; due; ports; ids; msgs = Array.make n [||] }
  in
  let cur_ids, nxt_ids =
    match host.ids with Some (a, b) when traced -> (a, b) | _ -> ([||], [||])
  in
  let cur_in = ref (inboxes (fst host.lens, fst host.due, fst host.ports) cur_ids) in
  let nxt_in = ref (inboxes (snd host.lens, snd host.due, snd host.ports) nxt_ids) in
  (* One mailbox per shard, lent to each of its steps in turn. Shard 0's
     is made here; every other domain makes its own before the first round
     (below), so two shards' mailboxes never share a cache line that both
     write on every send. *)
  let mbs = Array.make d (make_mailbox ~traced) in
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
  let round_max = ref 0 in
  let out_of_rounds = ref false in
  (* Per-shard failure slots: each domain stops its shard at its first
     raising node and parks the exception here. Shards are ascending id
     ranges, so the first failed shard holds the smallest failing node's
     exception — exactly where a node-by-node execution would have
     stopped. *)
  let fail : exn option array = Array.make d None in
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
  (* --- untraced, fault-free: [send_fast], parallel end to end ----------- *)
  let out : 'msg outcell array array =
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
     first port slot, so the lists never overlap. *)
  let touched_base = Array.init d (fun s -> Intvec.get csr.port_offset bounds.(s)) in
  let ntouched = Array.make d 0 in
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
      (* [slot] is in range: the port check above bounds it within v's
         row, so the unchecked reads are safe. *)
      let w = Intvec.unsafe_get csr.port_neighbor slot in
      let back = Intvec.unsafe_get csr.port_reverse slot in
      (match par_profile with
      | None -> ()
      | Some pp -> Par_profile.record_send pp ~src:s ~dst:owner.(w) ~words:size);
      if s = 0 && w < local_end then push_inbox csr nxt 0 w back msg
      else push_cell out.(s).(owner.(w)) w back msg
    done;
    ntouched.(s) <- !nt;
    maxload_s.(s) <- !load;
    messages_s.(s) <- messages_s.(s) + mb.out_len;
    words_s.(s) <- words_s.(s) + !sent_words;
    mb.out_len <- 0
  in
  let phase_drain t =
    (* Drain in source-shard order: shards are contiguous ascending id
       ranges, so this concatenation IS the ascending-sender send order. *)
    let nxt = !nxt_in in
    for s = 0 to d - 1 do
      let cell = out.(s).(t) in
      for i = 0 to cell.ob_len - 1 do
        push_inbox csr nxt t
          (Array.unsafe_get cell.ob_dst i)
          (Array.unsafe_get cell.ob_port i)
          (Array.unsafe_get cell.ob_msg i)
      done;
      cell.ob_len <- 0
    done
  in
  (* --- traced or faulty: [process_send], on one shard -------------------- *)
  (* Deliver into the next round's inboxes, with the causal id when
     traced. *)
  let deliver_next w back id msg =
    let nxt = !nxt_in in
    if traced then push_id csr nxt w id;
    push_inbox csr nxt 0 w back msg
  in
  (* Deliver the copies of send [i] of mailbox [mb] that the verdict lets
     through, one per delay: the first is the send itself, the others its
     duplicates. A traced copy carries the send's settled declaration. *)
  let rec deliver_copies mb i v w back edge size msg ~first = function
    | [] -> ()
    | delay :: rest ->
        messages_s.(0) <- messages_s.(0) + 1;
        words_s.(0) <- words_s.(0) + size;
        (match par_profile with
        | None -> ()
        | Some pp -> Par_profile.record_send pp ~src:0 ~dst:0 ~words:size);
        let id =
          match tracer with
          | None -> 0
          | Some t ->
              incr last_id;
              let id = !last_id in
              let parents = mb.decl_parents.(i) and part = mb.decl_part.(i) in
              let phase = mb.decl_phase.(i) and round = !rounds in
              if first then
                t
                  (Trace.Send
                     { round; src = v; dst = w; edge; words = size; id; parents; part; phase })
              else
                t
                  (Trace.Duplicate
                     { round; src = v; dst = w; edge; words = size; id; parents; part; phase });
              if delay > 0 then
                t (Trace.Delayed { round = !rounds; src = v; dst = w; edge; delay });
              id
        in
        (if delay = 0 then deliver_next w back id msg
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
             });
        deliver_copies mb i v w back edge size msg ~first:false rest
  in
  (* Deliver send [i] of mailbox [mb], node [v]'s, drawing its ids, its
     verdict and its trace events: steps return in ascending node order,
     so these are drawn in one global sequence. Without a plan every send
     gets the verdict [Deliver [0]]: one copy, on time. *)
  let process_send mb i v =
    let port = mb.out_ports.(i) and msg = mb.out_msgs.(i) in
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
    if used > maxload_s.(0) then maxload_s.(0) <- used;
    (* The transmission consumed its slot on the wire whatever the
       network then does to it: the round's traced high-water mark counts
       it too. *)
    if used > !round_max then round_max := used;
    let w = Intvec.unsafe_get csr.port_neighbor slot in
    let back = Intvec.unsafe_get csr.port_reverse slot in
    let edge = Intvec.unsafe_get csr.port_edge slot in
    match faults with
    | Some inj when crashed.(w) -> (
        Fault.note_to_crashed inj;
        match tracer with
        | None -> ()
        | Some t -> t (Trace.Drop { round = !rounds; src = v; dst = w; edge; words = size }))
    | _ -> (
        let verdict =
          match faults with
          | None -> Fault.Deliver [ 0 ]
          | Some inj -> Fault.transmission inj ~round:!rounds ~edge
        in
        match (verdict, tracer) with
        | Fault.Deliver delays, _ ->
            deliver_copies mb i v w back edge size msg ~first:true delays
        | Fault.Lose _, None -> ()
        | Fault.Lose Fault.Random_loss, Some t ->
            t (Trace.Drop { round = !rounds; src = v; dst = w; edge; words = size })
        | Fault.Lose Fault.Link_is_down, Some t -> t (Trace.Link_down { round = !rounds; edge }))
  in
  (* --- the compute phase ------------------------------------------------- *)
  (* Per shard, the earliest timed hint it has seen — a hint past the next
     round, read after a step or in a fill round: a lower bound on every
     hint of its live nodes that no bit covers. Lowered after each step,
     recomputed in each fill round; at 0, it makes round 1 one. *)
  let earliest = Array.make d every_round in
  (* Step shard [s]'s due nodes of this round in ascending order — live,
     with mail waiting or the wake hint at or before the round — and drop
     the late mail of halted ones. The shard visits only the nodes whose
     due bit is set: every delivery sets one, and so does a step whose
     hint, read as it returns, names the next round, so outside a fill
     round every live node it visits is due and no hint is read before a
     step. A fill round sets every bit first, so the shard visits each of
     its nodes and reads each live one's hint: round 1, every round of an
     [always] program, and any round at or past the shard's [earliest].
     A live node left asleep gets its bit for the next round, or lowers
     the bound. Each step's sends
     are delivered as it returns: an untraced, fault-free run's by
     [send_fast], a traced or faulty one's by [process_send], with their
     settled declarations when traced, before its halt. *)
  let phase_compute s =
    let r = !rounds and cur = !cur_in and mb = mbs.(s) in
    let due = cur.due and next_due = (!nxt_in).due in
    let lo = bounds.(s) and hi = bounds.(s + 1) in
    let fill = always_due || r >= earliest.(s) in
    if fill then mark_range due s lo hi;
    try
      let stepped = ref 0 and bound = ref (if fill then max_int else earliest.(s)) in
      for word = (lo lsr 5) + s to ((hi - 1) asr 5) + s do
        let bits = ref (Array.unsafe_get due word) in
        if !bits <> 0 then Array.unsafe_set due word 0;
        while !bits <> 0 do
          let low = !bits land (- !bits) in
          bits := !bits lxor low;
          let v = ((word - s) lsl 5) + bit_index low in
          let len = Array.unsafe_get cur.len v in
          if halted.(v) then begin
            if len > 0 then cur.len.(v) <- 0
          end
          else
            let hint =
              if len > 0 || not fill || always_due then every_round
              else program.wake states.(v)
            in
            if hint > r then bound := asleep next_due s v ~round:r hint !bound
            else begin
              incr stepped;
              if traced then mb.in_ids <- Array.unsafe_get cur.ids v;
              lend mb cur v len;
              let state = program.on_round ctxs.(v) states.(v) mb in
              states.(v) <- state;
              if not serialized then begin
                if mb.out_len > 0 then send_fast s v mb;
                if program.is_halted state then begin
                  halted.(v) <- true;
                  live_delta.(s) <- live_delta.(s) - 1
                end
              end
              else begin
                if traced then settle_declarations mb;
                for i = 0 to mb.out_len - 1 do
                  process_send mb i v
                done;
                mb.out_len <- 0;
                if program.is_halted state then begin
                  halted.(v) <- true;
                  live_delta.(s) <- live_delta.(s) - 1;
                  match tracer with None -> () | Some t -> t (Trace.Halt { round = r; node = v })
                end
              end;
              if not (always_due || halted.(v)) then
                bound := asleep next_due s v ~round:r (program.wake state) !bound
            end
        done
      done;
      earliest.(s) <- !bound;
      stepped_s.(s) <- !stepped;
      let base = touched_base.(s) in
      for i = base to base + ntouched.(s) - 1 do
        budget.(touched.(i)) <- 0
      done;
      ntouched.(s) <- 0
    with exn -> fail.(s) <- Some exn
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
  let compute_job =
    match par_profile with
    | None -> phase_compute
    | Some pp ->
        fun s ->
          let t0 = Par_profile.now () in
          phase_compute s;
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
  (* A round in which no node is due and no message is in flight: nothing
     steps, but the tracer still sees it open and close. *)
  let idle_round () =
    incr rounds;
    (match tracer with
    | None -> ()
    | Some t ->
        t (Trace.Round_start { round = !rounds; live = !live });
        t (Trace.Round_end { round = !rounds; max_edge_load = 0 }))
  in
  (* Messages sent so far in the run. *)
  let sent () = Array.fold_left ( + ) 0 messages_s in
  (* Whether no bit is set for the next round, whose buffer [cur_in]
     holds once the round's buffers have swapped. *)
  let due_span = due_words n ~shards:d in
  let none_due () =
    let due = (!cur_in).due and i = ref 0 in
    while !i < due_span && Array.unsafe_get due !i = 0 do
      incr i
    done;
    !i = due_span
  in
  (* Jump from a round that left nothing in flight to the round before
     the smallest shard bound, replaying the skipped rounds for
     observers. With no bit set for the next round, every live node
     sleeps past it, until a hint no earlier than its shard's bound; that
     round is a fill round, so a stale bound (a timer that mail
     pre-empted) costs one round in which nothing steps. An [always]
     program sets no bit and no bound, and its nodes are due every
     round. *)
  let fast_forward () =
    if not always_due && none_due () then begin
      let next = Array.fold_left Int.min max_int earliest in
      if next > !rounds + 1 then begin
        let last = min (next - 1) max_rounds in
        if traced then
          while !rounds < last do
            idle_round ()
          done
        else rounds := last
      end
    end
  in
  let crew = make_crew d in
  let handles = Array.init (d - 1) (fun i -> Domain.spawn (worker crew (i + 1))) in
  Fun.protect ~finally:(fun () -> shutdown crew handles) @@ fun () ->
  run_phase crew (fun s -> if s > 0 then mbs.(s) <- make_mailbox ~traced);
  (match par_profile with None -> () | Some pp -> Par_profile.begin_run pp ~domains:d);
  (* Each shard visits the nodes of its due bitset in every round it
     runs, but steps only the due ones: a live node with mail waiting or
     its wake hint at or before the round. A step before then with an
     empty inbox is, by the hint's contract, a no-op, so skipping it
     changes nothing observable.
     A fault-free round that sends nothing leaves no message in flight, so
     when it also leaves no due bit set, no node steps before the smallest
     shard bound: the loop fast-forwards to the round before it (capped
     at [max_rounds]), still opening and closing each skipped round for
     the tracer. Fault plans keep the loop round by round,
     because the delayed ring and the crash schedule act on rounds of
     their own. *)
  while !live > 0 && not !out_of_rounds do
    if !rounds >= max_rounds then out_of_rounds := true
    else begin
      incr rounds;
      clock := !rounds;
      let sent_before = sent () in
      (match tracer with
      | None -> ()
      | Some t ->
          round_max := 0;
          t (Trace.Round_start { round = !rounds; live = !live }));
      (match faults with
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
                push_inbox csr cur 0 p.p_dst p.p_port p.p_msg
              end)
            slot;
          Vec.clear slot);
      (match par_profile with None -> () | Some pp -> Par_profile.round_start pp);
      run_phase crew compute_job;
      (match par_profile with None -> () | Some pp -> Par_profile.end_step pp);
      (match first_failure () with Some exn -> raise exn | None -> ());
      for s = 0 to d - 1 do
        live := !live + live_delta.(s);
        live_delta.(s) <- 0
      done;
      run_phase crew drain_job;
      (match par_profile with None -> () | Some pp -> Par_profile.end_deliver pp);
      let swap = !cur_in in
      cur_in := !nxt_in;
      nxt_in := swap;
      (match tracer with
      | None -> ()
      | Some t -> t (Trace.Round_end { round = !rounds; max_edge_load = !round_max }));
      let r = !rounds in
      (* A fault-free round that sent nothing leaves nothing in flight, so
         with no due bit set no node is due before the smallest shard
         bound: skip to it. The skip is calling-domain work, so a
         wall-clock collector books it as this round's serial time. *)
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
  let stats =
    {
      rounds = !rounds;
      messages = sent ();
      words = Array.fold_left ( + ) 0 words_s;
      max_edge_load = Array.fold_left Int.max 0 maxload_s;
    }
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

let settle ?faults result =
  let states, stats, out_of_rounds =
    match result with
    | Finished (states, stats) -> (states, stats, false)
    | Out_of_rounds (states, partial) -> (states, partial.partial_stats, true)
  in
  let crashed = match faults with None -> [] | Some inj -> Fault.crashed_nodes inj in
  (states, stats, { Outcome.no_degradation with crashed; out_of_rounds; rounds = stats.rounds })
