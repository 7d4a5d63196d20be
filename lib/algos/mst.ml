module Graph = Lcs_graph.Graph
module Weights = Lcs_graph.Weights
module Obs = Lcs_obs.Obs

type result = {
  edges : int list;
  weight : int;
  accounting : Boruvka_engine.accounting;
}

let boruvka ?obs ?tracer ?seed ?mode ?domains ?par_profile weights =
  Obs.span obs "mst" @@ fun () ->
  let g = Weights.graph weights in
  Obs.note obs "n" (Obs.Int (Graph.n g));
  Obs.note obs "m" (Obs.Int (Graph.m g));
  let picked = ref [] in
  (* A vertex proposes its lightest incident edge leaving its fragment,
     ties to the smaller edge id. Fragments, keys and edges are ints, and
     annotated so: every comparison here is an int comparison. *)
  let candidate ~(fragment_of : int -> int) v =
    let home = fragment_of v in
    let best_key = ref 0 and best_edge = ref (-1) in
    Graph.iter_adj g v (fun w e ->
        if fragment_of w <> home then begin
          let key = Weights.get weights e in
          if !best_edge < 0 || key < !best_key || (key = !best_key && e < !best_edge) then begin
            best_key := key;
            best_edge := e
          end
        end);
    if !best_edge < 0 then None else Some (!best_key, !best_edge)
  in
  let accounting =
    Boruvka_engine.run ?obs ?tracer ?seed ?mode ?domains ?par_profile g ~candidate
      ~on_merge:(fun e ->
        picked := e :: !picked)
  in
  let edges = List.sort compare !picked in
  { edges; weight = Weights.total weights edges; accounting }
