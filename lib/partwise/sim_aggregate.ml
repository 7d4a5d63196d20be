module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Shortcut = Lcs_shortcut.Shortcut
module Quality = Lcs_shortcut.Quality
module Simulator = Lcs_congest.Simulator
module Trace = Lcs_congest.Trace
module Rng = Lcs_util.Rng
module Vec = Lcs_util.Vec
module Intvec = Lcs_util.Intvec
module Obs = Lcs_obs.Obs

type result = {
  minima : int array;
  rounds : int;
  completion_round : int;
  messages : int;
  stats : Simulator.stats;
}

(* The flooding's whole per-node state lives in flat arrays built once by
   [setup], indexed by node, by (node, served part) entry, or by the
   host's CSR port slot. A node's step reads and writes only its own
   entries and slots, so steps of different shards never share a cell.

   - Entries: node [v] serves the parts whose subgraph [S_i = G[P_i] +
     H_i] contains it (its own part included); its entries are
     [serve_off.(v) .. serve_off.(v+1) - 1], sorted by part, and an
     entry's [route_port]s are the ports of its part's subgraph edges at
     [v].
   - Port queues: the words waiting on port slot [q] form a binary heap
     of [qlen.(q)] records of 4 ints in [queue.(q)] — key, part, value,
     causal id. The key packs (delay of the part, FIFO sequence number),
     so equal delays pop in arrival order. The causal id is simulation
     metadata, not wire payload: it names the arrival that queued the
     word (0 for a round-0 self-injection). *)
type net = {
  slot_off : Intvec.t;  (* the host's CSR row offsets *)
  serve_off : int array;
  serve_part : int array;
  best : int array;
  has_best : bool array;
  own_entry : int array;  (* per node; -1 outside every part *)
  route_off : int array;
  route_port : int array;
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

(* Schedule parameters the observability layer needs back from setup. *)
type sched = { max_delay : int; congestion : int; dilation : int }

type setup = {
  program : (node_state, int * int) Simulator.program;
  budget : int;
  host : Graph.t;
  partition : Partition.t;
  k : int;
  sched : sched;
  own_best : int -> int option;
      (* a part member's best value for its own part, after the run *)
}

let seq_bits = 32

(* The default round budget: the Def 2.1 schedule bound, four times over,
   plus slack. *)
let default_budget ~congestion ~dilation ~n =
  (4 * Aggregate.bound ~congestion ~dilation:(max 1 dilation) ~n) + 32

(* Port [p] of [x] whose neighbor is [w]: rows are sorted by neighbor. *)
let port_towards host x w =
  let off = Graph.csr_offsets host and nbr = Graph.csr_neighbors host in
  let base = Intvec.get off x in
  let rec search lo hi =
    if lo >= hi then invalid_arg "Sim_aggregate: not a neighbor"
    else
      let mid = (lo + hi) / 2 in
      let y = Intvec.get nbr (base + mid) in
      if y = w then mid else if y < w then search (mid + 1) hi else search lo mid
  in
  search 0 (Intvec.get off (x + 1) - base)

(* The serve entries and routes of every node, without per-node tables:
   triples (node, part, port) are generated part by part from
   [Quality.iter_part_edges] — port -1 marks a member, who serves its part
   even when isolated in S_i — and a stable counting sort by node then
   leaves each node's triples grouped by ascending part. *)
let build_routes host partition shortcut =
  let n = Graph.n host and k = Shortcut.k shortcut in
  let t_node = Vec.create () and t_part = Vec.create () and t_port = Vec.create () in
  let triple x i p =
    Vec.push t_node x;
    Vec.push t_part i;
    Vec.push t_port p
  in
  let marks = Quality.edge_marks host in
  for i = 0 to k - 1 do
    Quality.iter_part_edges marks shortcut i
      ~member:(fun v -> triple v i (-1))
      ~edge:(fun _ u w ->
        triple u i (port_towards host u w);
        triple w i (port_towards host w u))
  done;
  let total = Vec.length t_node in
  let start = Array.make (n + 1) 0 in
  Vec.iter (fun x -> start.(x + 1) <- start.(x + 1) + 1) t_node;
  for x = 0 to n - 1 do
    start.(x + 1) <- start.(x + 1) + start.(x)
  done;
  let fill = Array.sub start 0 n in
  let order = Array.make total 0 in
  for t = 0 to total - 1 do
    let x = Vec.get t_node t in
    order.(fill.(x)) <- t;
    fill.(x) <- fill.(x) + 1
  done;
  let serve_off = Array.make (n + 1) 0 in
  let serve_part = Vec.create () and route_off = Vec.create () and route_port = Vec.create () in
  let own_entry = Array.make n (-1) in
  for x = 0 to n - 1 do
    serve_off.(x) <- Vec.length serve_part;
    let own = Partition.part_of partition x in
    for a = start.(x) to start.(x + 1) - 1 do
      let t = order.(a) in
      let i = Vec.get t_part t in
      if Vec.length serve_part = serve_off.(x) || Vec.get serve_part (Vec.length serve_part - 1) <> i
      then begin
        if i = own then own_entry.(x) <- Vec.length serve_part;
        Vec.push serve_part i;
        Vec.push route_off (Vec.length route_port)
      end;
      let p = Vec.get t_port t in
      if p >= 0 then Vec.push route_port p
    done
  done;
  serve_off.(n) <- Vec.length serve_part;
  Vec.push route_off (Vec.length route_port);
  ( serve_off,
    Vec.to_array serve_part,
    own_entry,
    Vec.to_array route_off,
    Vec.to_array route_port )

let setup ?budget ~congestion ~dilation rng shortcut ~values =
  let host = Shortcut.graph shortcut in
  let partition = Shortcut.partition shortcut in
  let k = Shortcut.k shortcut in
  let n = Graph.n host in
  if Array.length values <> n then invalid_arg "Sim_aggregate.minimum: values";
  let budget =
    match budget with Some b -> b | None -> default_budget ~congestion ~dilation ~n
  in
  let max_delay = max 1 congestion in
  let delay = Array.init k (fun _ -> Rng.int rng max_delay) in
  let serve_off, serve_part, own_entry, route_off, route_port =
    build_routes host partition shortcut
  in
  let entries = Array.length serve_part in
  let slots = 2 * Graph.m host in
  let net =
    {
      slot_off = Graph.csr_offsets host;
      serve_off;
      serve_part;
      best = Array.make entries 0;
      has_best = Array.make entries false;
      own_entry;
      route_off;
      route_port;
      queue = Array.make slots [||];
      qlen = Array.make slots 0;
      qseq = Array.make slots 0;
      delay;
    }
  in
  (* Heap on port slot [q]: 4 ints per record, keyed by the first. *)
  let push q key part value cause =
    let len = net.qlen.(q) in
    let h =
      let h = net.queue.(q) in
      if 4 * (len + 1) <= Array.length h then h
      else begin
        let h' = Array.make (max 16 (2 * Array.length h)) 0 in
        Array.blit h 0 h' 0 (4 * len);
        net.queue.(q) <- h';
        h'
      end
    in
    let i = ref len in
    while !i > 0 && key < h.(4 * ((!i - 1) / 2)) do
      let parent = (!i - 1) / 2 in
      Array.blit h (4 * parent) h (4 * !i) 4;
      i := parent
    done;
    let at = 4 * !i in
    h.(at) <- key;
    h.(at + 1) <- part;
    h.(at + 2) <- value;
    h.(at + 3) <- cause;
    net.qlen.(q) <- len + 1
  in
  (* Drop the minimum of a non-empty heap; the caller has read it at 0. *)
  let pop q =
    let h = net.queue.(q) in
    let len = net.qlen.(q) - 1 in
    net.qlen.(q) <- len;
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
          Array.blit h (4 * c) h (4 * !i) 4;
          i := c
        end
        else sifting := false
      done;
      Array.blit h last h (4 * !i) 4
    end
  in
  let enqueue st j value cause ~skip_port =
    let part = net.serve_part.(j) in
    let base = Intvec.get net.slot_off st.node in
    for r = net.route_off.(j) to net.route_off.(j + 1) - 1 do
      let port = net.route_port.(r) in
      if port <> skip_port then begin
        let q = base + port in
        let seq = net.qseq.(q) in
        net.qseq.(q) <- seq + 1;
        push q ((delay.(part) lsl seq_bits) lor seq) part value cause;
        st.queued <- st.queued + 1
      end
    done
  in
  let entry_of v part =
    let rec search lo hi =
      if lo >= hi then invalid_arg "Sim_aggregate: word for a part not served here"
      else
        let mid = (lo + hi) / 2 in
        let i = net.serve_part.(mid) in
        if i = part then mid else if i < part then search (mid + 1) hi else search lo mid
    in
    search net.serve_off.(v) net.serve_off.(v + 1)
  in
  (* Absorb the inbox; [ids] are the arrivals' causal ids, parallel to it
     (empty when the run is untraced, and then every cause is 0). *)
  let rec absorb st round ids idx = function
    | [] -> ()
    | (port, (part, value)) :: rest ->
        let j = entry_of st.node part in
        if (not net.has_best.(j)) || value < net.best.(j) then begin
          net.best.(j) <- value;
          net.has_best.(j) <- true;
          let cause = if idx < Array.length ids then ids.(idx) else 0 in
          enqueue st j value cause ~skip_port:port;
          if j = net.own_entry.(st.node) then st.last_improved <- round
        end;
        absorb st round ids (idx + 1) rest
  in
  let program =
    {
      Simulator.init =
        (fun ctx ->
          let v = ctx.Simulator.node in
          (* Reset this node's cells, so the program value can run again. *)
          for j = net.serve_off.(v) to net.serve_off.(v + 1) - 1 do
            net.has_best.(j) <- false
          done;
          for q = Intvec.get net.slot_off v to Intvec.get net.slot_off (v + 1) - 1 do
            net.qlen.(q) <- 0;
            net.qseq.(q) <- 0
          done;
          let st = { node = v; queued = 0; last_improved = 0; finished = budget < 0 } in
          let j = net.own_entry.(v) in
          if j >= 0 then begin
            net.best.(j) <- values.(v);
            net.has_best.(j) <- true;
            enqueue st j values.(v) 0 ~skip_port:(-1)
          end;
          st);
      on_round =
        (fun ctx st ~inbox ->
          let round = Simulator.round ctx in
          absorb st round (Trace.Cause.inbox ()) 0 inbox;
          if round > budget then begin
            st.finished <- true;
            (st, [])
          end
          else if st.queued = 0 then (st, [])
          else begin
            (* One word per non-empty port queue: the smallest delay, FIFO
               among equals. *)
            let traced = Trace.Cause.enabled () in
            let base = Intvec.get net.slot_off st.node in
            let out = ref [] in
            for port = 0 to Array.length ctx.Simulator.neighbors - 1 do
              let q = base + port in
              if net.qlen.(q) > 0 then begin
                let h = net.queue.(q) in
                let part = h.(1) and value = h.(2) and cause = h.(3) in
                pop q;
                st.queued <- st.queued - 1;
                if traced then
                  Trace.Cause.emit ~port
                    ~parents:(if cause > 0 then [ cause ] else [])
                    ~part ~phase:"pa.flood" ();
                out := (port, (part, value)) :: !out
              end
            done;
            (st, !out)
          end);
      is_halted = (fun st -> st.finished);
      (* Awake while a word waits; otherwise only the halting round is
         due — a step in between, with no mail, would do nothing. *)
      wake = (fun st -> if st.queued > 0 then Simulator.every_round else budget + 1);
      (* (part, value): two O(log n)-bit fields = one CONGEST word. *)
      msg_words = (fun _ -> 1);
    }
  in
  let own_best v =
    let j = net.own_entry.(v) in
    if j >= 0 && net.has_best.(j) then Some net.best.(j) else None
  in
  {
    program;
    budget;
    host;
    partition;
    k;
    sched = { max_delay; congestion; dilation };
    own_best;
  }

let minimum ?budget ?domains ?obs ?tracer ?par_profile rng shortcut ~values =
  Obs.span obs "pa" @@ fun () ->
  let { program; budget; host; partition; sched; own_best; _ } =
    Obs.span obs "pa.setup" (fun () ->
        setup ?budget ~congestion:(Quality.congestion shortcut)
          ~dilation:(Quality.dilation shortcut) rng shortcut ~values)
  in
  Obs.note obs "budget" (Obs.Int budget);
  Obs.note obs "congestion" (Obs.Int sched.congestion);
  Obs.note obs "dilation" (Obs.Int sched.dilation);
  Obs.note obs "max_delay" (Obs.Int sched.max_delay);
  let profile, tracer = Pa_obs.profiled obs tracer ~edges:(Graph.m host) in
  Obs.enter obs "pa.run";
  let states, stats =
    Simulator.run ?domains ~max_rounds:(budget + 8) ?tracer ?par_profile host
      program
  in
  Pa_obs.record_epochs obs profile ~max_delay:sched.max_delay
    ~rounds:stats.Simulator.rounds;
  Obs.exit obs;
  let reference = Aggregate.reference_minima shortcut ~values in
  for v = 0 to Graph.n host - 1 do
    let part = Partition.part_of partition v in
    if part >= 0 then
      match own_best v with
      | Some b when b = reference.(part) -> ()
      | _ -> failwith "Sim_aggregate: part did not converge within budget"
  done;
  let completion_round =
    Array.fold_left (fun acc st -> max acc st.last_improved) 0 states
  in
  Pa_obs.record_ledger obs profile ~congestion:sched.congestion
    ~predicted_rounds:
      (Aggregate.bound ~congestion:sched.congestion
         ~dilation:(max 1 sched.dilation) ~n:(Graph.n host))
    ~observed_rounds:completion_round;
  {
    minima = reference;
    rounds = stats.Simulator.rounds;
    completion_round;
    messages = stats.Simulator.messages;
    stats;
  }

(* --- Fault-tolerant entry point ------------------------------------------ *)

module Fault = Lcs_congest.Fault
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

let minimum_outcome ?budget ?domains ?max_rounds ?obs ?tracer ?faults ?par_profile
    ?(reliable = true) ?config rng shortcut ~values =
  Obs.span obs "pa" @@ fun () ->
  let { program; budget; host; partition; k; sched; own_best } =
    Obs.span obs "pa.setup" (fun () ->
        let congestion = Quality.congestion shortcut in
        let dilation = Quality.dilation shortcut in
        (* The ARQ roughly triples per-hop latency (data + ack round
           trips), so the reliable path gets a proportionally larger round
           budget unless the caller pins one. *)
        let budget =
          match budget with
          | Some b -> Some b
          | None when not reliable -> None
          | None ->
              let n = Graph.n (Shortcut.graph shortcut) in
              Some (8 * default_budget ~congestion ~dilation ~n)
        in
        setup ?budget ~congestion ~dilation rng shortcut ~values)
  in
  Obs.note obs "budget" (Obs.Int budget);
  Obs.note obs "congestion" (Obs.Int sched.congestion);
  Obs.note obs "dilation" (Obs.Int sched.dilation);
  Obs.note obs "max_delay" (Obs.Int sched.max_delay);
  let profile, tracer = Pa_obs.profiled obs tracer ~edges:(Graph.m host) in
  let max_rounds =
    match max_rounds with
    | Some m -> m
    | None -> if reliable then budget + 512 else budget + 8
  in
  Obs.enter obs "pa.run";
  let extract result of_states retrans_of dead_of =
    match result with
    | Simulator.Finished (states, stats) ->
        (of_states states, retrans_of states, dead_of states, false, stats)
    | Simulator.Out_of_rounds (states, p) ->
        (of_states states, retrans_of states, dead_of states, true, p.Simulator.partial_stats)
  in
  let states, retransmissions, unresponsive, out_of_rounds, ostats =
    if reliable then
      extract
        (Simulator.run_outcome ?domains ~max_rounds ?tracer ?faults ?par_profile
           host
           (Reliable.wrap ?config program))
        Reliable.inner_states Reliable.retransmissions Reliable.dead_links
    else
      extract
        (Simulator.run_outcome ?domains ~max_rounds ?tracer ?faults ?par_profile
           host program)
        Fun.id
        (fun _ -> 0)
        (fun _ -> [])
  in
  Pa_obs.record_epochs obs profile ~max_delay:sched.max_delay
    ~rounds:ostats.Simulator.rounds;
  Obs.exit obs;
  let crashed = match faults with None -> [] | Some inj -> Fault.crashed_nodes inj in
  let n = Graph.n host in
  let dead = Array.make n false in
  List.iter (fun v -> if v >= 0 && v < n then dead.(v) <- true) crashed;
  let minima = Aggregate.surviving_minima shortcut ~values ~crashed in
  (* Per-part validation: every surviving member must hold exactly the
     surviving minimum — anything else (missing or stale) marks the part
     diverged and its surviving members affected. Never a silent wrong
     answer, never the fault-free path's [failwith]. *)
  let diverged = ref [] in
  let affected = ref [] in
  for i = k - 1 downto 0 do
    let members = Lcs_graph.Partition.members partition i in
    let bad = ref false in
    Array.iter
      (fun v ->
        if not dead.(v) then
          match own_best v with
          | Some b when b = minima.(i) -> ()
          | _ -> bad := true)
      members;
    if !bad then begin
      diverged := i :: !diverged;
      Array.iter (fun v -> if not dead.(v) then affected := v :: !affected) members
    end
  done;
  let diverged = !diverged in
  let affected = List.sort_uniq compare !affected in
  let completion_round =
    Array.fold_left (fun acc st -> max acc st.last_improved) 0 states
  in
  Pa_obs.record_ledger obs profile ~congestion:sched.congestion
    ~predicted_rounds:
      (Aggregate.bound ~congestion:sched.congestion
         ~dilation:(max 1 sched.dilation) ~n)
    ~observed_rounds:completion_round;
  let report = { minima; diverged; completion_round; ostats; retransmissions } in
  Outcome.classify report
    {
      Outcome.crashed;
      unresponsive;
      affected;
      out_of_rounds;
      rounds = ostats.Simulator.rounds;
    }
