module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Shortcut = Lcs_shortcut.Shortcut

let bound ~congestion ~dilation ~n =
  let log2n = int_of_float (Float.ceil (log (float_of_int (max 2 n)) /. log 2.)) in
  congestion + (dilation * log2n)

let fold_parts shortcut ~values combine identity =
  let partition = Shortcut.partition shortcut in
  Array.init (Shortcut.k shortcut) (fun i ->
      Array.fold_left
        (fun acc v -> combine acc values.(v))
        identity
        (Partition.members partition i))

let reference_minima shortcut ~values = fold_parts shortcut ~values min max_int
let reference_sums shortcut ~values = fold_parts shortcut ~values ( + ) 0

(* Without crashes this is [reference_minima], with no mask to build. *)
let surviving_minima shortcut ~values ~crashed =
  if crashed = [] then reference_minima shortcut ~values
  else begin
    let partition = Shortcut.partition shortcut in
    let n = Graph.n (Shortcut.graph shortcut) in
    let dead = Array.make n false in
    List.iter (fun v -> if v >= 0 && v < n then dead.(v) <- true) crashed;
    Array.init (Shortcut.k shortcut) (fun i ->
        Array.fold_left
          (fun acc v -> if dead.(v) then acc else min acc values.(v))
          max_int
          (Partition.members partition i))
  end
