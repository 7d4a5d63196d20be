module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Minor = Lcs_graph.Minor
module Rng = Lcs_util.Rng

let trivial_lower = Graph.density

let partition_lower host partition =
  let assignment =
    Array.init (Graph.n host) (fun v -> Partition.part_of partition v)
  in
  Graph.density (Minor.contract host ~assignment)

(* Dynamic contracted graph: per super-vertex adjacency sets. Contracting
   merges the smaller set into the larger; density is tracked
   incrementally. *)
let greedy_lower rng ?(restarts = 8) ?(steps = max_int) host =
  let n = Graph.n host in
  let best = ref (Graph.density host) in
  for _ = 1 to restarts do
    let adj = Array.init n (fun _ -> Hashtbl.create 4) in
    Graph.iter_edges host (fun _e u v ->
        Hashtbl.replace adj.(u) v ();
        Hashtbl.replace adj.(v) u ());
    let alive = Array.make n true in
    let vertices = ref n in
    let edges = ref (Graph.m host) in
    let step_budget = min steps (n - 2) in
    let continue = ref true in
    let step = ref 0 in
    while !continue && !step < step_budget && !vertices > 2 do
      incr step;
      (* Pick a random live vertex with a neighbor, then a random incident
         edge. *)
      let candidates = ref [] in
      Array.iteri
        (fun v a -> if alive.(v) && Hashtbl.length a > 0 then candidates := v :: !candidates)
        adj;
      match !candidates with
      | [] -> continue := false
      | cs ->
          let u = List.nth cs (Rng.int rng (List.length cs)) in
          let nbrs = Hashtbl.fold (fun w () acc -> w :: acc) adj.(u) [] in
          let v = List.nth nbrs (Rng.int rng (List.length nbrs)) in
          (* Contract edge (u, v): keep the endpoint with the larger set. *)
          let keep, gone =
            if Hashtbl.length adj.(u) >= Hashtbl.length adj.(v) then (u, v) else (v, u)
          in
          Hashtbl.remove adj.(keep) gone;
          Hashtbl.remove adj.(gone) keep;
          edges := !edges - 1;
          Hashtbl.iter
            (fun w () ->
              Hashtbl.remove adj.(w) gone;
              if Hashtbl.mem adj.(keep) w then edges := !edges - 1
              else begin
                Hashtbl.replace adj.(keep) w ();
                Hashtbl.replace adj.(w) keep ()
              end)
            adj.(gone);
          Hashtbl.reset adj.(gone);
          alive.(gone) <- false;
          decr vertices;
          let d = float_of_int !edges /. float_of_int !vertices in
          if d > !best then best := d
    done
  done;
  !best

let planar_upper = 3.
let complete_lower r = float_of_int (r - 1) /. 2.
