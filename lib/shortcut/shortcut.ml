module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition

(* Edge sets are stored flat: measurement (Quality.edge_load, block
   counting, subgraph assembly) folds over each part's edges many times,
   so int arrays beat cons-cell lists on both locality and allocation. The
   list-facing API survives as a shim. *)
type t = {
  partition : Partition.t;
  edge_sets : int array array;
  covered : bool array;
}

let create ?covered partition edge_sets =
  let k = Partition.k partition in
  if Array.length edge_sets <> k then invalid_arg "Shortcut.create: arity";
  let host = Partition.graph partition in
  let m = Graph.m host in
  let edge_sets =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.iter
          (fun e ->
            if e < 0 || e >= m then invalid_arg "Shortcut.create: edge id out of range")
          a;
        a)
      edge_sets
  in
  let covered =
    match covered with
    | None -> Array.make k true
    | Some c ->
        if Array.length c <> k then invalid_arg "Shortcut.create: covered arity";
        Array.copy c
  in
  { partition; edge_sets; covered }

let partition t = t.partition
let graph t = Partition.graph t.partition
let k t = Array.length t.edge_sets
let edges t i = Array.to_list t.edge_sets.(i)
let edges_array t i = t.edge_sets.(i)
let is_covered t i = t.covered.(i)

let covered_count t =
  Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.covered

let is_partial t = covered_count t < k t

let empty partition =
  create partition (Array.make (Partition.k partition) [])

let union a b =
  if a.partition != b.partition && Partition.graph a.partition != Partition.graph b.partition
  then invalid_arg "Shortcut.union: different partitions";
  if Array.length a.edge_sets <> Array.length b.edge_sets then
    invalid_arg "Shortcut.union: arity mismatch";
  (* Keep [a]'s edges in order, then [b]'s unseen ones — the order the
     list-based merge always produced. *)
  let merge ea eb =
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    let keep e =
      if not (Hashtbl.mem seen e) then begin
        Hashtbl.add seen e ();
        out := e :: !out
      end
    in
    Array.iter keep ea;
    Array.iter keep eb;
    let arr = Array.make (List.length !out) 0 in
    List.iteri (fun i e -> arr.(Array.length arr - 1 - i) <- e) !out;
    arr
  in
  {
    partition = a.partition;
    edge_sets = Array.init (Array.length a.edge_sets) (fun i -> merge a.edge_sets.(i) b.edge_sets.(i));
    covered = Array.init (Array.length a.covered) (fun i -> a.covered.(i) || b.covered.(i));
  }

let total_edge_occurrences t =
  Array.fold_left (fun acc a -> acc + Array.length a) 0 t.edge_sets

