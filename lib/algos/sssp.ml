module Graph = Lcs_graph.Graph
module Weights = Lcs_graph.Weights
module Rooted_tree = Lcs_graph.Rooted_tree
module Simulator = Lcs_congest.Simulator
module Sync_bfs = Lcs_congest.Sync_bfs

type weighted_result = {
  distances : int array;
  rounds : int;
  convergence_round : int;
  messages : int;
}

let bfs g ~src =
  let tree, _height, stats = Sync_bfs.run g ~root:src in
  let dist = Array.init (Graph.n g) (fun v -> Rooted_tree.depth tree v) in
  (dist, stats)

type bf_state = {
  dist : int;
  announce : bool;  (** improved last round; must announce *)
  last_improved : int;
  finished : bool;
}

let bellman_ford ?hop_bound weights ~src =
  let g = Weights.graph weights in
  let n = Graph.n g in
  if src < 0 || src >= n then invalid_arg "Sssp.bellman_ford";
  let hop_bound = match hop_bound with Some h -> h | None -> n - 1 in
  if hop_bound < 0 then invalid_arg "Sssp.bellman_ford: hop_bound";
  (* Every node runs exactly hop_bound + 1 rounds: enough for any
     <= hop_bound-hop shortest path to propagate. *)
  let budget = hop_bound + 1 in
  let program =
    {
      Simulator.init =
        (fun ctx ->
          let is_src = ctx.Simulator.node = src in
          {
            dist = (if is_src then 0 else max_int);
            announce = is_src;
            last_improved = 0;
            finished = false;
          });
      on_round =
        (fun ctx st ~inbox ->
          let round = Simulator.round ctx in
          let st =
            List.fold_left
              (fun st (port, d) ->
                let e = ctx.Simulator.neighbor_edges.(port) in
                let candidate = d + Weights.get weights e in
                if candidate < st.dist then
                  { st with dist = candidate; announce = true; last_improved = round }
                else st)
              st inbox
          in
          if round > budget then ({ st with finished = true }, [])
          else if st.announce && st.dist < max_int then begin
            let out =
              List.init (Array.length ctx.Simulator.neighbors) (fun port -> (port, st.dist))
            in
            ({ st with announce = false }, out)
          end
          else (st, []))
      ;
      is_halted = (fun st -> st.finished);
      (* Only an improvement needs announcing; otherwise wake to halt. *)
      wake = (fun st -> if st.announce then Simulator.every_round else budget + 1);
      msg_words = (fun _ -> 1);
    }
  in
  let states, stats = Simulator.run g program in
  {
    distances = Array.map (fun st -> st.dist) states;
    rounds = stats.Simulator.rounds;
    convergence_round = Array.fold_left (fun acc st -> max acc st.last_improved) 0 states;
    messages = stats.Simulator.messages;
  }
