module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Shortcut = Lcs_shortcut.Shortcut
module Quality = Lcs_shortcut.Quality
module Simulator = Lcs_congest.Simulator
module Trace = Lcs_congest.Trace
module Rng = Lcs_util.Rng
module Pqueue = Lcs_util.Pqueue
module Obs = Lcs_obs.Obs

type result = {
  minima : int array;
  rounds : int;
  completion_round : int;
  messages : int;
  stats : Simulator.stats;
}

type node_state = {
  clock : int;
  best : (int, int) Hashtbl.t;  (* part -> best value seen *)
  queues : (int * int * int) Pqueue.t array;
      (* per port: (part, value, causal id of the arrival that queued it —
         0 for round-0 self-injections) by delay; the cause is simulation
         metadata, not wire payload, so msg_words stays 1 *)
  last_improved : int;  (* as a part member *)
}

(* Schedule parameters the observability layer needs back from setup. *)
type sched = { max_delay : int; congestion : int; dilation : int }

let setup ?budget rng shortcut ~values =
  let host = Shortcut.graph shortcut in
  let partition = Shortcut.partition shortcut in
  let k = Shortcut.k shortcut in
  let n = Graph.n host in
  if Array.length values <> n then invalid_arg "Sim_aggregate.minimum: values";
  let r = Quality.measure shortcut in
  let budget =
    match budget with
    | Some b -> b
    | None ->
        let bound =
          Aggregate.bound ~congestion:r.Quality.congestion
            ~dilation:(max 1 r.Quality.dilation) ~n
        in
        (4 * bound) + 32
  in
  let subgraphs = Subgraphs.of_shortcut shortcut in
  let max_delay = max 1 r.Quality.congestion in
  let delay = Array.init k (fun _ -> Rng.int rng max_delay) in
  (* For each vertex: the ports its parts use, per part. Port = index into
     the vertex's host adjacency, as the simulator addresses links. *)
  let port_of_edge =
    Array.init n (fun v ->
        let tbl = Hashtbl.create 8 in
        Graph.Row.iteri (Graph.ports host v) (fun port _w e ->
            Hashtbl.replace tbl e port);
        tbl)
  in
  let part_ports : (int, int list) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 4)
  in
  for i = 0 to k - 1 do
    let adj = Subgraphs.adjacency subgraphs i in
    Hashtbl.iter
      (fun v nbrs ->
        let ports =
          List.map (fun (e, _w) -> Hashtbl.find port_of_edge.(v) e) nbrs
        in
        Hashtbl.replace part_ports.(v) i ports)
      adj
  done;
  let enqueue st v part value cause ~skip_port =
    match Hashtbl.find_opt part_ports.(v) part with
    | None -> ()
    | Some ports ->
        List.iter
          (fun port ->
            if port <> skip_port then
              Pqueue.push st.queues.(port) ~priority:delay.(part) (part, value, cause))
          ports
  in
  let program =
    {
      Simulator.init =
        (fun ctx ->
          let v = ctx.Simulator.node in
          let st =
            {
              clock = 0;
              best = Hashtbl.create 4;
              queues =
                Array.init (Array.length ctx.Simulator.neighbors) (fun _ ->
                    Pqueue.create ());
              last_improved = 0;
            }
          in
          let part = Partition.part_of partition v in
          if part >= 0 then begin
            Hashtbl.replace st.best part values.(v);
            enqueue st v part values.(v) 0 ~skip_port:(-1)
          end;
          st);
      on_round =
        (fun ctx st ~inbox ->
          let v = ctx.Simulator.node in
          let st = { st with clock = st.clock + 1 } in
          (* Causal ids of the delivered messages, parallel to [inbox];
             empty when the run is untraced (then every cause is 0). *)
          let inbox_ids = Trace.Cause.inbox () in
          let idx = ref (-1) in
          let st =
            List.fold_left
              (fun st (port, (part, value, _cause)) ->
                incr idx;
                let improves =
                  match Hashtbl.find_opt st.best part with
                  | None -> true
                  | Some b -> value < b
                in
                if improves then begin
                  Hashtbl.replace st.best part value;
                  let cause =
                    if !idx < Array.length inbox_ids then inbox_ids.(!idx) else 0
                  in
                  enqueue st v part value cause ~skip_port:port;
                  if Partition.part_of partition v = part then
                    { st with last_improved = st.clock }
                  else st
                end
                else st)
              st inbox
          in
          if st.clock > budget then (st, [])
          else begin
            let out = ref [] in
            Array.iteri
              (fun port q ->
                match Pqueue.pop_min q with
                | Some (_prio, ((part, _value, cause) as msg)) ->
                    if Trace.Cause.enabled () then
                      Trace.Cause.emit ~port
                        ~parents:(if cause > 0 then [ cause ] else [])
                        ~part ~phase:"pa.flood" ();
                    out := (port, msg) :: !out
                | None -> ())
              st.queues;
            (st, !out)
          end)
      ;
      is_halted = (fun st -> st.clock > budget);
      (* (part, value): two O(log n)-bit fields = one CONGEST word. *)
      msg_words = (fun _ -> 1);
    }
  in
  ( program,
    budget,
    host,
    partition,
    k,
    { max_delay; congestion = r.Quality.congestion; dilation = r.Quality.dilation } )

let minimum ?budget ?domains ?obs ?tracer ?par_profile rng shortcut ~values =
  Obs.span obs "pa" @@ fun () ->
  let program, budget, host, partition, _k, sched =
    Obs.span obs "pa.setup" (fun () -> setup ?budget rng shortcut ~values)
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
  Array.iteri
    (fun v st ->
      let part = Partition.part_of partition v in
      if part >= 0 then
        match Hashtbl.find_opt st.best part with
        | Some b when b = reference.(part) -> ()
        | _ -> failwith "Sim_aggregate: part did not converge within budget")
    states;
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
  (* The ARQ roughly triples per-hop latency (data + ack round trips), so
     the reliable path gets a proportionally larger round budget unless
     the caller pins one. *)
  let budget =
    match budget with
    | Some b -> Some b
    | None when not reliable -> None
    | None ->
        let r = Lcs_shortcut.Quality.measure shortcut in
        let n = Graph.n (Shortcut.graph shortcut) in
        let bound =
          Aggregate.bound ~congestion:r.Lcs_shortcut.Quality.congestion
            ~dilation:(max 1 r.Lcs_shortcut.Quality.dilation) ~n
        in
        Some (8 * ((4 * bound) + 32))
  in
  let program, budget, host, partition, k, sched =
    Obs.span obs "pa.setup" (fun () -> setup ?budget rng shortcut ~values)
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
          match Hashtbl.find_opt states.(v).best i with
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
