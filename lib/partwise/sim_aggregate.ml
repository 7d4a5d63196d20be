module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Shortcut = Lcs_shortcut.Shortcut
module Quality = Lcs_shortcut.Quality
module Simulator = Lcs_congest.Simulator
module Trace = Lcs_congest.Trace
module Intvec = Lcs_util.Intvec
module Obs = Lcs_obs.Obs

type result = {
  minima : int array;
  rounds : int;
  completion_round : int;
  messages : int;
  stats : Simulator.stats;
}

(* --- Observability: the "pa" span shape ----------------------------------- *)

(* Schedule parameters of a shortcut. The dilation is measured only when
   something reads it: the default budget or an installed collector. *)
type sched = { max_delay : int; congestion : int; dilation : int Lazy.t }

(* Notes on the open "pa" span. *)
let note_schedule obs ~budget sched =
  if obs <> None then begin
    Obs.note obs "budget" (Obs.Int budget);
    Obs.note obs "congestion" (Obs.Int sched.congestion);
    Obs.note obs "dilation" (Obs.Int (Lazy.force sched.dilation));
    Obs.note obs "max_delay" (Obs.Int sched.max_delay)
  end

(* When a collector is installed on a traced run, tee an internal profile
   into the caller's tracer, so the epochs' words and the congestion
   ledger entry can be derived without asking the caller to profile. A
   collector alone leaves the run untraced, and so sharded. *)
let profiled obs tracer ~edges =
  match (obs, tracer) with
  | Some _, Some t ->
      let p = Trace.Profile.create ~edges () in
      (Some p, Some (Trace.tee [ t; Trace.Profile.tracer p ]))
  | _ -> (None, tracer)

(* Emit one "pa.epoch" span per schedule epoch, carrying the window's
   simulated rounds and, in a traced run, its traced words. Called while
   "pa.run" is still open so the epochs nest under it (their wall-clock
   extent is an artifact — the information is in rounds/words, like the
   paper's analysis). *)
let record_epochs obs profile ~max_delay ~rounds =
  if obs <> None then begin
    let curve = Option.map Trace.Profile.load_curve profile in
    List.iteri
      (fun idx (first, last) ->
        Obs.enter obs "pa.epoch";
        Obs.note obs "epoch" (Obs.Int idx);
        Obs.note obs "first_round" (Obs.Int first);
        Obs.note obs "last_round" (Obs.Int last);
        Option.iter
          (fun curve ->
            let words = ref 0 in
            for r = first to last do
              if r - 1 < Array.length curve then words := !words + curve.(r - 1)
            done;
            Obs.note obs "words" (Obs.Int !words))
          curve;
        Obs.add_rounds obs (last - first + 1);
        Obs.exit obs)
      (Schedule.epochs ~max_delay ~rounds)
  end

(* Ledger entries against the open "pa" span: the completion round vs the
   scheduling bound c + d·log n and, in a traced run, max per-edge traced
   words vs the shortcut's Def 2.2 congestion (each part crosses an edge
   O(1) times, so the ratio staying O(1) is exactly the load-spreading
   claim). *)
let record_ledger obs profile sched ~n ~observed_rounds =
  if obs <> None then begin
    let predicted =
      Aggregate.bound ~congestion:sched.congestion
        ~dilation:(max 1 (Lazy.force sched.dilation)) ~n
    in
    Obs.bound obs ~metric:"rounds" ~predicted:(float_of_int predicted)
      ~observed:(float_of_int observed_rounds);
    Option.iter
      (fun p ->
        Obs.bound obs ~metric:"congestion"
          ~predicted:(float_of_int sched.congestion)
          ~observed:(float_of_int (Array.fold_left max 0 (Trace.Profile.edge_words p))))
      profile
  end

(* --- The shared network: routes and port queues ---------------------------- *)

(* Every program's per-node state lives in flat arrays — the routes built
   once per shortcut by [prepare], the queues by a run's [setup] or taken
   over from the previous run — indexed by node, by (node, served part)
   entry, or by the host's CSR port slot. A node's step reads and writes only its own entries and
   slots, so steps of different shards never share a cell.

   - Entries: node [v] serves the parts whose subgraph [S_i = G[P_i] +
     H_i] contains it (its own part included); its entries are
     [serve_off.(v) .. serve_off.(v+1) - 1], sorted by part, and an
     entry's [route_port]s are the ports of its part's subgraph edges at
     [v]. *)
type routes = {
  slot_off : Intvec.t;  (* the host's CSR row offsets *)
  edge_port : int array;
      (* [2e]: edge [e]'s port at its lower endpoint; [2e + 1]: at its
         higher one *)
  serve_off : int array;
  serve_part : int array;
  own_entry : int array;  (* per node; -1 outside every part *)
  route_off : int array;
  route_port : int array;
}

(* - Port queues: the words waiting on port slot [q] form a binary heap of
     [qlen.(q)] records of 4 ints in [queue.(q)] — key, part, datum,
     causal id. The key packs (delay of the part, FIFO sequence number),
     so equal delays pop in arrival order. The datum is what the program
     makes its word from: the origin, for a minimum, and the partial or
     total sum, for a sum. The causal id is simulation metadata, not wire
     payload: it names the arrival that queued the word (0 for a round-0
     self-injection). *)
type queues = {
  queue : int array array;
  qlen : int array;
  qseq : int array;
  delay : int array;  (* per part *)
}

type node_state = {
  node : int;
  mutable queued : int;  (* words waiting across the node's ports *)
  mutable last_improved : int;  (* as a part member *)
  mutable finished : bool;
}

let seq_bits = 32

(* The port of edge [e] at its endpoint [x], whose other end is [w], in
   an [edge_port] table. *)
let port_at edge_port e (x : int) w = edge_port.((2 * e) + if x < w then 0 else 1)

(* The serve entries and routes of every node, without per-node tables,
   written straight into arrays of their exact sizes. Parts are read one
   at a time, so a node's pairs for one part arrive together and [last]
   (the part a node last saw) tells a new entry from a repeated one. One
   pass over [Quality.iter_part_edges] counts each node's entries — a
   member serves its part even when isolated in S_i — and its ports; a
   second places them at per-node cursors, so each node's entries come out
   in ascending part order with their ports in arrival order. An edge's
   port at either endpoint comes from one walk over the CSR rows. *)
let build_routes host partition shortcut =
  let n = Graph.n host and k = Shortcut.k shortcut in
  let off = Graph.csr_offsets host in
  let nbr = Graph.csr_neighbors host and eid = Graph.csr_edges host in
  let edge_port = Array.make (2 * Graph.m host) 0 in
  for x = 0 to n - 1 do
    let base = Intvec.get off x in
    for p = 0 to Intvec.get off (x + 1) - base - 1 do
      let e = Intvec.get eid (base + p) in
      edge_port.((2 * e) + if x < Intvec.get nbr (base + p) then 0 else 1) <- p
    done
  done;
  let marks = Quality.edge_marks host in
  let last = Array.make n (-1) in
  let serve_off = Array.make (n + 1) 0 and route_start = Array.make (n + 1) 0 in
  let count x i =
    if last.(x) <> i then begin
      last.(x) <- i;
      serve_off.(x + 1) <- serve_off.(x + 1) + 1
    end
  in
  let count_port x = route_start.(x + 1) <- route_start.(x + 1) + 1 in
  for i = 0 to k - 1 do
    Quality.iter_part_edges marks shortcut i
      ~member:(fun v -> count v i)
      ~edge:(fun _ u w ->
        count u i;
        count w i;
        count_port u;
        count_port w)
  done;
  for x = 0 to n - 1 do
    serve_off.(x + 1) <- serve_off.(x + 1) + serve_off.(x);
    route_start.(x + 1) <- route_start.(x + 1) + route_start.(x)
  done;
  let entries = serve_off.(n) and routes = route_start.(n) in
  let serve_part = Array.make entries 0 and route_off = Array.make (entries + 1) routes in
  let route_port = Array.make routes 0 and own_entry = Array.make n (-1) in
  let next_entry = Array.sub serve_off 0 n and next_route = Array.sub route_start 0 n in
  Array.fill last 0 n (-1);
  let enter x i =
    if last.(x) <> i then begin
      last.(x) <- i;
      let j = next_entry.(x) in
      next_entry.(x) <- j + 1;
      serve_part.(j) <- i;
      route_off.(j) <- next_route.(x);
      if i = Partition.part_of partition x then own_entry.(x) <- j
    end
  in
  let place x i p =
    enter x i;
    route_port.(next_route.(x)) <- p;
    next_route.(x) <- next_route.(x) + 1
  in
  for i = 0 to k - 1 do
    Quality.iter_part_edges marks shortcut i
      ~member:(fun v -> enter v i)
      ~edge:(fun e u w ->
        place u i (port_at edge_port e u w);
        place w i (port_at edge_port e w u))
  done;
  { slot_off = off; edge_port; serve_off; serve_part; own_entry; route_off; route_port }

(* --- Prepared shortcuts ----------------------------------------------------- *)

(* What a flooding run grows: its port queues and each entry's best value
   so far. [init] resets every cell a node reads, so a finished run's
   store can serve the next run over the same routes. *)
type store = { queues : queues; best : int array; has_best : bool array }

(* What every aggregation over one shortcut needs before its first round:
   the route table, the schedule parameters and the default budget
   4·(c + d·⌈log₂ n⌉) + 32. The dilation is measured only when something
   reads it: the default budget or an installed collector. [spare] is a
   pool of one store: a run takes it, or makes its own when it is empty —
   as when runs overlap — and a run that finishes puts its store back.
   It dies with the preparation, so a caller that keeps one preparation
   alive at a time keeps one shortcut's queues alive at a time. *)
type prepared = {
  shortcut : Shortcut.t;
  routes : routes;
  sched : sched;
  default_budget : int Lazy.t;
  host : Simulator.host option;
  spare : store option Atomic.t;
}

let prepare ?host shortcut =
  let g = Shortcut.graph shortcut in
  let congestion = Quality.congestion shortcut in
  let dilation = lazy (Quality.dilation shortcut) in
  {
    shortcut;
    routes = build_routes g (Shortcut.partition shortcut) shortcut;
    sched = { max_delay = max 1 congestion; congestion; dilation };
    default_budget =
      lazy
        ((4
         * Aggregate.bound ~congestion ~dilation:(max 1 (Lazy.force dilation))
             ~n:(Graph.n g))
        + 32);
    host;
    spare = Atomic.make None;
  }

let budget p = Lazy.force p.default_budget
let congestion p = p.sched.congestion

(* The entry of node [v] for [part], by binary search in its sorted row. *)
let entry_of rt v part =
  let lo = ref rt.serve_off.(v) and hi = ref rt.serve_off.(v + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if rt.serve_part.(mid) < part then lo := mid + 1 else hi := mid
  done;
  if !lo = rt.serve_off.(v + 1) || rt.serve_part.(!lo) <> part then
    invalid_arg "Sim_aggregate: word for a part not served here";
  !lo

let make_queues host ~delay =
  let slots = 2 * Graph.m host in
  {
    queue = Array.make slots [||];
    qlen = Array.make slots 0;
    qseq = Array.make slots 0;
    delay;
  }

(* Empty node [v]'s port queues, so a program value can run again. *)
let reset_queues rt qs v =
  for q = Intvec.get rt.slot_off v to Intvec.get rt.slot_off (v + 1) - 1 do
    qs.qlen.(q) <- 0;
    qs.qseq.(q) <- 0
  done

(* Copy heap record [src] over record [dst] (offsets into [h]). Four int
   stores: [Array.blit] is a C call that pays the write barrier per word
   once the heap lives in the major heap. *)
let move (h : int array) ~src ~dst =
  h.(dst) <- h.(src);
  h.(dst + 1) <- h.(src + 1);
  h.(dst + 2) <- h.(src + 2);
  h.(dst + 3) <- h.(src + 3)

(* Queue a word for [part] on [st]'s port [port], behind the words of
   smaller delay and of the same delay queued before it. *)
let push rt qs st port part datum cause =
  let q = Intvec.get rt.slot_off st.node + port in
  let seq = qs.qseq.(q) in
  qs.qseq.(q) <- seq + 1;
  let key = (qs.delay.(part) lsl seq_bits) lor seq in
  let len = qs.qlen.(q) in
  let h =
    let h = qs.queue.(q) in
    if 4 * (len + 1) <= Array.length h then h
    else begin
      let h' = Array.make (max 16 (2 * Array.length h)) 0 in
      Array.blit h 0 h' 0 (4 * len);
      qs.queue.(q) <- h';
      h'
    end
  in
  let i = ref len in
  while !i > 0 && key < h.(4 * ((!i - 1) / 2)) do
    let parent = (!i - 1) / 2 in
    move h ~src:(4 * parent) ~dst:(4 * !i);
    i := parent
  done;
  let at = 4 * !i in
  h.(at) <- key;
  h.(at + 1) <- part;
  h.(at + 2) <- datum;
  h.(at + 3) <- cause;
  qs.qlen.(q) <- len + 1;
  st.queued <- st.queued + 1

(* Drop the minimum of a non-empty heap; the caller has read it at 0. *)
let pop qs q =
  let h = qs.queue.(q) in
  let len = qs.qlen.(q) - 1 in
  qs.qlen.(q) <- len;
  if len > 0 then begin
    let last = 4 * len in
    let key = h.(last) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c =
        if l + 1 < len && h.(4 * (l + 1)) < h.(4 * l) then l + 1 else l
      in
      if c < len && h.(4 * c) < key then begin
        move h ~src:(4 * c) ~dst:(4 * !i);
        i := c
      end
      else sifting := false
    done;
    move h ~src:last ~dst:(4 * !i)
  end

(* Send one word per non-empty port queue: the smallest delay, FIFO among
   equals. Last port first: the fingerprint suite pins this send order.
   [word part datum] makes the payload; [phase node port part] labels a
   traced word. *)
let drain rt qs st mb ~ports ~phase ~word =
  let traced = Simulator.traced mb in
  let base = Intvec.get rt.slot_off st.node in
  for port = ports - 1 downto 0 do
    let q = base + port in
    if qs.qlen.(q) > 0 then begin
      let h = qs.queue.(q) in
      let part = h.(1) and datum = h.(2) and cause = h.(3) in
      pop qs q;
      st.queued <- st.queued - 1;
      if traced then
        Simulator.emit mb port
          ~parents:(if cause > 0 then [ cause ] else [])
          ~part ~phase:(phase st.node port part) (word part datum)
      else Simulator.send mb port (word part datum)
    end
  done

(* --- Minimum: flooding under the random-delay schedule ---------------------- *)

(* b = ⌈log₂ n⌉, the width of a minimum word's origin field (see the
   interface's "Words"). With n < 2^31, [(part lsl b) lor origin] fits
   in 62 bits. *)
let origin_bits n =
  if n >= 1 lsl 31 then invalid_arg "Sim_aggregate.minimum: n >= 2^31";
  let b = ref 0 in
  while 1 lsl !b < n do
    incr b
  done;
  !b

type setup = {
  program : (node_state, int) Simulator.program;
  budget : int;
  host : Graph.t;
  partition : Partition.t;
  k : int;
  store : store;
  holds : int -> int -> bool;
      (* whether a part member's best value for its own part is the given
         one, after the run *)
}

let flood_phase _ _ _ = "pa.flood"

let setup ?(policy = Schedule.Random_delay) ~budget p rng ~values =
  let host = Shortcut.graph p.shortcut in
  let partition = Shortcut.partition p.shortcut in
  let k = Shortcut.k p.shortcut in
  let n = Graph.n host in
  if Array.length values <> n then invalid_arg "Sim_aggregate.minimum: values";
  let rt = p.routes in
  let delay = Schedule.delays policy rng ~parts:k ~max_delay:p.sched.max_delay in
  let store =
    match Atomic.exchange p.spare None with
    | Some s -> { s with queues = { s.queues with delay } }
    | None ->
        let entries = Array.length rt.serve_part in
        {
          queues = make_queues host ~delay;
          best = Array.make entries 0;
          has_best = Array.make entries false;
        }
  in
  let qs = store.queues and best = store.best and has_best = store.has_best in
  let bits = origin_bits n in
  let mask = (1 lsl bits) - 1 in
  let word part origin = (part lsl bits) lor origin in
  let enqueue st j origin cause ~skip_port =
    let part = rt.serve_part.(j) in
    for r = rt.route_off.(j) to rt.route_off.(j + 1) - 1 do
      let port = rt.route_port.(r) in
      if port <> skip_port then push rt qs st port part origin cause
    done
  in
  (* Absorb the deliveries, each word queued with its arrival's causal id
     (0 when the run is untraced). *)
  let absorb st round mb =
    for idx = 0 to Simulator.deliveries mb - 1 do
      let port = Simulator.port mb idx in
      let w = Simulator.payload mb idx in
      let origin = w land mask in
      let value = values.(origin) in
      let j = entry_of rt st.node (w lsr bits) in
      if (not has_best.(j)) || value < best.(j) then begin
        best.(j) <- value;
        has_best.(j) <- true;
        enqueue st j origin (Simulator.cause mb idx) ~skip_port:port;
        if j = rt.own_entry.(st.node) then st.last_improved <- round
      end
    done
  in
  let program =
    {
      Simulator.init =
        (fun ctx ->
          let v = ctx.Simulator.node in
          for j = rt.serve_off.(v) to rt.serve_off.(v + 1) - 1 do
            has_best.(j) <- false
          done;
          reset_queues rt qs v;
          let st = { node = v; queued = 0; last_improved = 0; finished = budget < 0 } in
          let j = rt.own_entry.(v) in
          if j >= 0 then begin
            best.(j) <- values.(v);
            has_best.(j) <- true;
            enqueue st j v 0 ~skip_port:(-1)
          end;
          st);
      on_round =
        (fun ctx st mb ->
          let round = Simulator.round ctx in
          absorb st round mb;
          if round > budget then st.finished <- true
          else if st.queued > 0 then
            drain rt qs st mb ~ports:(Array.length ctx.Simulator.neighbors)
              ~phase:flood_phase ~word;
          st);
      is_halted = (fun st -> st.finished);
      (* Awake while a word waits; otherwise only the halting round is
         due — a step in between, with no mail, would do nothing. *)
      wake = (fun st -> if st.queued > 0 then Simulator.every_round else budget + 1);
      (* (part, origin): two ⌈log₂ n⌉-bit fields = one CONGEST word. *)
      msg_words = (fun _ -> 1);
    }
  in
  let holds v x =
    let j = rt.own_entry.(v) in
    j >= 0 && has_best.(j) && best.(j) = x
  in
  { program; budget; host; partition; k; store; holds }

let completion states =
  Array.fold_left (fun acc st -> max acc st.last_improved) 0 states

(* --- The one minimum run ---------------------------------------------------- *)

module Reliable = Lcs_congest.Reliable
module Outcome = Lcs_congest.Outcome

type report = {
  minima : int array;
      (** per part: the minimum over its surviving members' values — the
          reference a degraded run is held to *)
  diverged : int list;  (** parts with a surviving member disagreeing *)
  completion_round : int;
  ostats : Simulator.stats;
  retransmissions : int;
}

(* The run behind {!minimum}, {!broadcast} and {!minimum_outcome}: set-up,
   the flood (raw or over the ARQ, with or without a plan), epochs, the
   validation of every surviving member and the ledger. *)
let run_minimum ?prepared ?policy ?(budget_factor = 1) ?domains ?obs ?tracer ?faults
    ?par_profile ~reliable rng shortcut ~values =
  Obs.span obs "pa" @@ fun () ->
  let p, { program; budget; host; partition; k; store; holds } =
    Obs.span obs "pa.setup" (fun () ->
        let p =
          match prepared with
          | None -> prepare shortcut
          | Some p when p.shortcut == shortcut -> p
          | Some _ -> invalid_arg "Sim_aggregate.minimum: prepared for another shortcut"
        in
        (* The ARQ roughly triples per-hop latency (data + ack round
           trips), so the reliable path gets a proportionally larger round
           budget. *)
        let budget =
          (if reliable then 8 else 1) * budget_factor * Lazy.force p.default_budget
        in
        (p, setup ?policy ~budget p rng ~values))
  in
  let sched = p.sched in
  note_schedule obs ~budget sched;
  let profile, tracer = profiled obs tracer ~edges:(Graph.m host) in
  Obs.enter obs "pa.run";
  let states, retransmissions, unresponsive, ostats, degradation =
    if reliable then
      let states, stats, d =
        Simulator.settle ?faults
          (Simulator.run_outcome ?domains ~max_rounds:(budget + 512) ?host:p.host ?tracer
             ?faults ?par_profile host (Reliable.wrap program))
      in
      ( Reliable.inner_states states,
        Reliable.retransmissions states,
        Reliable.dead_links states,
        stats,
        d )
    else
      let states, stats, d =
        Simulator.settle ?faults
          (Simulator.run_outcome ?domains ~max_rounds:(budget + 8) ?host:p.host ?tracer
             ?faults ?par_profile host program)
      in
      (states, 0, [], stats, d)
  in
  record_epochs obs profile ~max_delay:sched.max_delay ~rounds:ostats.Simulator.rounds;
  Obs.exit obs;
  let crashed = degradation.Outcome.crashed in
  let n = Graph.n host in
  (* Crashed members owe nothing; the mask is built only when some node
     crashed. *)
  let dead = Array.make (if crashed = [] then 0 else n) false in
  List.iter (fun v -> if v >= 0 && v < n then dead.(v) <- true) crashed;
  let survives v = Array.length dead = 0 || not dead.(v) in
  let minima = Aggregate.surviving_minima shortcut ~values ~crashed in
  (* Per-part validation: every surviving member must hold exactly the
     surviving minimum — anything else (missing or stale) marks the part
     diverged and its surviving members affected. Never a silent wrong
     answer. *)
  let diverged = ref [] in
  let affected = ref [] in
  for i = k - 1 downto 0 do
    let members = Partition.members partition i in
    let bad = ref false in
    for x = 0 to Array.length members - 1 do
      let v = members.(x) in
      if survives v && not (holds v minima.(i)) then bad := true
    done;
    if !bad then begin
      diverged := i :: !diverged;
      for x = 0 to Array.length members - 1 do
        let v = members.(x) in
        if survives v then affected := v :: !affected
      done
    end
  done;
  Atomic.set p.spare (Some store);
  let completion_round = completion states in
  record_ledger obs profile sched ~n ~observed_rounds:completion_round;
  Outcome.classify
    { minima; diverged = !diverged; completion_round; ostats; retransmissions }
    { degradation with Outcome.unresponsive; affected = List.sort_uniq compare !affected }

let minimum ?prepared ?policy ?domains ?obs ?tracer ?par_profile rng shortcut ~values =
  match
    run_minimum ?prepared ?policy ?domains ?obs ?tracer ?par_profile ~reliable:false rng
      shortcut ~values
  with
  | Outcome.Degraded _ -> failwith "Sim_aggregate: part did not converge within budget"
  | Outcome.Complete r ->
      {
        minima = r.minima;
        rounds = r.ostats.Simulator.rounds;
        completion_round = r.completion_round;
        messages = r.ostats.Simulator.messages;
        stats = r.ostats;
      }

let broadcast ?prepared ?domains ?obs ?tracer ?par_profile rng shortcut ~leaders =
  let partition = Shortcut.partition shortcut in
  let n = Graph.n (Shortcut.graph shortcut) in
  if Array.length leaders <> Shortcut.k shortcut then
    invalid_arg "Sim_aggregate.broadcast: leaders arity";
  Array.iteri
    (fun i l ->
      if l < 0 || l >= n || Partition.part_of partition l <> i then
        invalid_arg "Sim_aggregate.broadcast: leader not in its part")
    leaders;
  (* The leader's token is its vertex id; every other node holds the
     max-sentinel so the part minimum is exactly the leader's token. *)
  let values = Array.make n (max_int - 1) in
  Array.iter (fun l -> values.(l) <- l) leaders;
  minimum ?prepared ?domains ?obs ?tracer ?par_profile rng shortcut ~values

(* --- Sum: convergecast + broadcast over per-part BFS trees ------------------- *)

let sum ?tracer rng shortcut ~values =
  let host = Shortcut.graph shortcut in
  let partition = Shortcut.partition shortcut in
  let k = Shortcut.k shortcut in
  let n = Graph.n host in
  if Array.length values <> n then invalid_arg "Sim_aggregate.sum: values";
  let p = prepare shortcut in
  let rt = p.routes in
  let qs =
    make_queues host
      ~delay:
        (Schedule.delays Schedule.Random_delay rng ~parts:k
           ~max_delay:p.sched.congestion)
  in
  let entries = Array.length rt.serve_part in
  let nbr = Graph.csr_neighbors host and eid = Graph.csr_edges host in
  (* Each part's tree, fixed here from a BFS of S_i out of its first
     member: an entry's [parent] is its port towards the tree parent (-1
     at the root, -2 off the tree), and [is_child] marks the routes that
     lead to tree children. Helpers of S_i the root cannot reach take no
     part; an unreachable member means a broken shortcut. The run's cells
     start here too: per entry, the children yet to report ([waiting]),
     the running sum, the total once known ([acc], [known]); per node, the
     tree entries still without their total ([pending]). *)
  let parent = Array.make entries (-2) in
  let waiting = Array.make entries 0 in
  let is_child = Array.make (Array.length rt.route_port) false in
  let pending = Array.make n 0 in
  let fifo_node = Array.make (max 1 entries) 0 in
  let fifo_entry = Array.make (max 1 entries) 0 in
  let tree_edges = ref 0 in
  for i = 0 to k - 1 do
    let members = Partition.members partition i in
    let root = members.(0) in
    let head = ref 0 and tail = ref 1 in
    fifo_node.(0) <- root;
    fifo_entry.(0) <- rt.own_entry.(root);
    parent.(rt.own_entry.(root)) <- -1;
    while !head < !tail do
      let x = fifo_node.(!head) and j = fifo_entry.(!head) in
      incr head;
      pending.(x) <- pending.(x) + 1;
      let base = Intvec.get rt.slot_off x in
      for r = rt.route_off.(j) to rt.route_off.(j + 1) - 1 do
        let slot = base + rt.route_port.(r) in
        let y = Intvec.get nbr slot in
        let j' = entry_of rt y i in
        if parent.(j') = -2 then begin
          parent.(j') <- port_at rt.edge_port (Intvec.get eid slot) y x;
          is_child.(r) <- true;
          waiting.(j) <- waiting.(j) + 1;
          incr tree_edges;
          fifo_node.(!tail) <- y;
          fifo_entry.(!tail) <- j';
          incr tail
        end
      done
    done;
    Array.iter
      (fun v ->
        if parent.(rt.own_entry.(v)) = -2 then
          failwith "Sim_aggregate.sum: part subgraph is disconnected")
      members
  done;
  let acc = Array.make entries 0 and known = Array.make entries false in
  for v = 0 to n - 1 do
    if rt.own_entry.(v) >= 0 then acc.(rt.own_entry.(v)) <- values.(v)
  done;
  let complete st j total cause round =
    known.(j) <- true;
    acc.(j) <- total;
    pending.(st.node) <- pending.(st.node) - 1;
    if j = rt.own_entry.(st.node) then st.last_improved <- round;
    for r = rt.route_off.(j) to rt.route_off.(j + 1) - 1 do
      if is_child.(r) then push rt qs st rt.route_port.(r) rt.serve_part.(j) total cause
    done
  in
  (* Every child has reported: the root knows the total, anyone else
     passes its subtree's sum up. *)
  let report st j cause round =
    if parent.(j) = -1 then complete st j acc.(j) cause round
    else push rt qs st parent.(j) rt.serve_part.(j) acc.(j) cause
  in
  let absorb st round mb =
    for idx = 0 to Simulator.deliveries mb - 1 do
      let port = Simulator.port mb idx in
      let part, value = Simulator.payload mb idx in
      let j = entry_of rt st.node part in
      let cause = Simulator.cause mb idx in
      if port = parent.(j) then complete st j value cause round
      else begin
        acc.(j) <- acc.(j) + value;
        waiting.(j) <- waiting.(j) - 1;
        if waiting.(j) = 0 then report st j cause round
      end
    done
  in
  let phase_at v port part =
    if port = parent.(entry_of rt v part) then "pa.up" else "pa.down"
  in
  let settle st = st.finished <- pending.(st.node) = 0 && st.queued = 0 in
  let program =
    {
      Simulator.init =
        (fun ctx ->
          let v = ctx.Simulator.node in
          let st = { node = v; queued = 0; last_improved = 0; finished = false } in
          (* Leaves report at once. *)
          for j = rt.serve_off.(v) to rt.serve_off.(v + 1) - 1 do
            if parent.(j) <> -2 && waiting.(j) = 0 then report st j 0 0
          done;
          settle st;
          st);
      on_round =
        (fun ctx st mb ->
          absorb st (Simulator.round ctx) mb;
          if st.queued > 0 then
            drain rt qs st mb ~ports:(Array.length ctx.Simulator.neighbors) ~phase:phase_at
              ~word:(fun part sum -> (part, sum));
          settle st;
          st);
      is_halted = (fun st -> st.finished);
      (* Awake while a word waits; otherwise only mail can give it work. *)
      wake = (fun st -> if st.queued > 0 then Simulator.every_round else max_int);
      msg_words = (fun _ -> 1);
    }
  in
  (* Every round with a word queued sends one, so the 2·tree_edges words
     take at most that many rounds. *)
  let states, stats =
    Simulator.run ~max_rounds:((2 * !tree_edges) + 8) ?tracer host program
  in
  let reference = Aggregate.reference_sums shortcut ~values in
  for v = 0 to n - 1 do
    let part = Partition.part_of partition v in
    if part >= 0 then begin
      let j = rt.own_entry.(v) in
      if not (known.(j) && acc.(j) = reference.(part)) then
        failwith "Sim_aggregate.sum: a member missed its part's total"
    end
  done;
  {
    minima = reference;
    rounds = stats.Simulator.rounds;
    completion_round = completion states;
    messages = stats.Simulator.messages;
    stats;
  }

(* --- Fault-tolerant entry point ------------------------------------------ *)

let minimum_outcome ?prepared ?budget_factor ?domains ?obs ?tracer ?faults ?par_profile
    ?(reliable = true) rng shortcut ~values =
  run_minimum ?prepared ?budget_factor ?domains ?obs ?tracer ?faults ?par_profile ~reliable
    rng shortcut ~values
