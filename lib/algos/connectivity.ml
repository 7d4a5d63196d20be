module Graph = Lcs_graph.Graph
module Union_find = Lcs_graph.Union_find

type result = {
  components : int;
  labels : int array;
  accounting : Boruvka_engine.accounting;
}

let components ?seed ?mode g ~keep =
  let uf = Union_find.create (Graph.n g) in
  (* The smallest kept edge leaving the fragment; fragments and edges are
     ints, so every comparison here is an int comparison. *)
  let candidate ~(fragment_of : int -> int) v =
    let home = fragment_of v in
    let best = ref (-1) in
    Graph.iter_adj g v (fun w e ->
        if keep e && fragment_of w <> home && (!best < 0 || e < !best) then best := e);
    if !best < 0 then None else Some (0, !best)
  in
  let accounting =
    Boruvka_engine.run ?seed ?mode g ~candidate ~on_merge:(fun e ->
        let u, v = Graph.edge_endpoints g e in
        ignore (Union_find.union uf u v))
  in
  let labels = Array.init (Graph.n g) (fun v -> Union_find.find uf v) in
  { components = Union_find.count uf; labels; accounting }
