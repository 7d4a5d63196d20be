(* Tests for the shortcut machinery: Theorem 3.1 construction and its
   invariants, boosting, the baseline, certificates, minor-density bounds,
   and the distributed construction. *)

open Core

let check = Alcotest.check
let case = Alcotest.test_case

let random_connected_graph seed ~n ~extra =
  let rng = Rng.create seed in
  let b = Builder.create ~n in
  for v = 1 to n - 1 do
    Builder.add_edge b (Rng.int rng v) v
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra && !attempts < 20 * extra do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Builder.mem_edge b u v) then begin
      Builder.add_edge b u v;
      incr added
    end
  done;
  Builder.graph b

let random_setup seed ~n ~extra ~parts =
  let g = random_connected_graph seed ~n ~extra in
  let parts = max 1 (min parts n) in
  let partition = Partition.voronoi g (Rng.create (seed + 17)) ~parts in
  let tree = Bfs.tree g ~root:0 in
  (g, partition, tree)

(* --- Shortcut type ------------------------------------------------------ *)

let shortcut_create_and_union () =
  let g = Generators.grid ~rows:3 ~cols:3 in
  let p = Partition.grid_rows g ~rows:3 ~cols:3 in
  let a = Shortcut.create ~covered:[| true; false; false |] p [| [ 0 ]; []; [] |] in
  let b = Shortcut.create ~covered:[| false; true; true |] p [| [ 0; 1 ]; [ 2 ]; [] |] in
  check Alcotest.bool "a is partial" true (Shortcut.is_partial a);
  let u = Shortcut.union a b in
  check Alcotest.bool "union is full" false (Shortcut.is_partial u);
  check (Alcotest.list Alcotest.int) "edges merged dedup" [ 0; 1 ]
    (List.sort compare (Shortcut.edges u 0));
  check Alcotest.int "load" 3 (Shortcut.total_edge_occurrences u)

let shortcut_rejects_bad_edges () =
  let g = Generators.path 3 in
  let p = Partition.whole g in
  Alcotest.check_raises "edge range"
    (Invalid_argument "Shortcut.create: edge id out of range") (fun () ->
      ignore (Shortcut.create p [| [ 99 ] |]))

(* --- Quality ------------------------------------------------------------ *)

let quality_wheel () =
  (* Wheel: rim as one part. Without shortcut the dilation is the rim
     diameter; with the spokes' tree edges it collapses to O(1). *)
  let n = 32 in
  let g = Generators.wheel n in
  let p = Partition.of_parts g [ List.init (n - 1) (fun i -> i + 1) ] in
  let empty = Shortcut.empty p in
  let r_empty = Quality.measure empty in
  check Alcotest.int "bare rim dilation" ((n - 1) / 2) r_empty.Quality.dilation;
  (* Give the part every spoke edge: dilation falls to <= 2. *)
  let spokes = ref [] in
  Graph.iter_adj g 0 (fun _w e -> spokes := e :: !spokes);
  let sc = Shortcut.create p [| !spokes |] in
  let r = Quality.measure sc in
  check Alcotest.int "shortcut dilation" 2 r.Quality.dilation;
  check Alcotest.int "congestion 1" 1 r.Quality.congestion

let quality_congestion_counts () =
  let g = Generators.path 4 in
  let p = Partition.of_parts g [ [ 0 ]; [ 1 ]; [ 2 ] ] in
  let sc = Shortcut.create p [| [ 0; 1 ]; [ 1 ]; [ 1; 2 ] |] in
  let load = Quality.edge_load sc in
  check Alcotest.int "edge 1 shared by 3" 3 load.(1);
  check Alcotest.int "congestion" 3 (Quality.congestion sc)

let quality_blocks () =
  let g = Generators.path 7 in
  let p = Partition.of_parts g [ [ 0; 1 ]; [ 3 ]; [ 5; 6 ] ] in
  (* Definition 2.3 counts components of (P_i ∪ V(H_i), H_i) using H_i
     edges only: part {0,1} with the far edge 4 (vertices 4-5) splits into
     {0}, {1}, {4,5} — three blocks. A shortcut-less singleton is one
     block. *)
  let sc = Shortcut.create p [| [ 4 ]; []; [] |] in
  check Alcotest.int "three blocks" 3 (Quality.part_blocks sc 0);
  check Alcotest.int "single block" 1 (Quality.part_blocks sc 1);
  (* The part's own tree edge (edge 0 joins vertices 0-1) merges the two
     member blocks back into one. *)
  let sc2 = Shortcut.create p [| [ 0; 4 ]; []; [] |] in
  check Alcotest.int "merged member block" 2 (Quality.part_blocks sc2 0)

(* --- Quality: shared-table measurements against their definitions ------- *)

(* The block number as first written: a host-sized union-find joined by
   the H_i edges, counting the distinct roots of P_i ∪ V(H_i). *)
let reference_blocks sc i =
  let host = Shortcut.graph sc in
  let uf = Union_find.create (Graph.n host) in
  let involved = Hashtbl.create 16 in
  Array.iter
    (fun v -> Hashtbl.replace involved v ())
    (Partition.members (Shortcut.partition sc) i);
  Array.iter
    (fun e ->
      let u, v = Graph.edge_endpoints host e in
      Hashtbl.replace involved u ();
      Hashtbl.replace involved v ();
      ignore (Union_find.union uf u v))
    (Shortcut.edges_array sc i);
  let roots = Hashtbl.create 16 in
  Hashtbl.iter (fun v () -> Hashtbl.replace roots (Union_find.find uf v) ()) involved;
  Hashtbl.length roots

(* S_i = G[P_i] + H_i as a standalone graph, numbered as first written:
   the members in order, then each new edge's endpoints — the second one
   named first — over the members' internal edges and then H_i. The
   double-sweep estimate's tie-breaks follow this numbering. *)
let reference_subgraph sc i =
  let host = Shortcut.graph sc and partition = Shortcut.partition sc in
  let local = Hashtbl.create 16 and next = ref 0 in
  let intern v =
    match Hashtbl.find_opt local v with
    | Some x -> x
    | None ->
        let x = !next in
        Hashtbl.add local v x;
        incr next;
        x
  in
  let seen = Hashtbl.create 16 and edges = ref [] in
  let add e u v =
    if not (Hashtbl.mem seen e) then begin
      Hashtbl.add seen e ();
      let b = intern v in
      let a = intern u in
      edges := (min a b, max a b) :: !edges
    end
  in
  let members = Partition.members partition i in
  Array.iter (fun v -> ignore (intern v)) members;
  Array.iter
    (fun v ->
      Graph.iter_adj host v (fun w e ->
          if v < w && Partition.part_of partition w = i then add e v w))
    members;
  Array.iter
    (fun e ->
      let u, v = Graph.edge_endpoints host e in
      add e u v)
    (Shortcut.edges_array sc i);
  Graph.create ~n:!next (List.rev !edges)

(* The dilation as first written: each covered part's diameter by
   [Diameter.of_graph] on its standalone subgraph. *)
let reference_dilation ?(exact_limit = 4096) sc =
  let best = ref 0 in
  for i = 0 to Shortcut.k sc - 1 do
    if Shortcut.is_covered sc i then
      best := max !best (Diameter.of_graph ~exact_limit (reference_subgraph sc i))
  done;
  !best

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* A random shortcut over a random connected graph: singleton or Voronoi
   parts, some parts dropped so that their vertices belong to no part,
   and a random covered set. H_i is empty (a singleton part then has a
   one-vertex S_i), a random walk from a member (S_i stays connected), or
   with [~stray] sometimes also one random host edge, which may
   disconnect S_i. *)
let random_measured_shortcut seed ~n ~stray =
  let rng = Rng.create seed in
  let g = random_connected_graph seed ~n ~extra:(Rng.int rng (n + 1)) in
  let base =
    if Rng.bool rng then Array.init n Fun.id
    else
      let p = Partition.voronoi g rng ~parts:(1 + Rng.int rng n) in
      Array.init n (Partition.part_of p)
  in
  let k = Array.fold_left max 0 base + 1 in
  let id = Array.make k (-1) and kept = ref 0 in
  for p = 0 to k - 1 do
    if p = 0 || Rng.int rng 4 > 0 then begin
      id.(p) <- !kept;
      incr kept
    end
  done;
  let partition = Partition.of_assignment g (Array.map (fun p -> id.(p)) base) in
  let rec walk v len acc =
    if len = 0 || Graph.degree g v = 0 then acc
    else
      let w, e = Rng.choose rng (Array.of_list (Graph.adj_list g v)) in
      walk w (len - 1) (e :: acc)
  in
  let edge_sets =
    Array.init !kept (fun i ->
        let walked =
          match Rng.int rng 3 with
          | 0 -> []
          | _ -> walk (Rng.choose rng (Partition.members partition i)) (Rng.int rng 6) []
        in
        if stray && Graph.m g > 0 && Rng.int rng 8 = 0 then Rng.int rng (Graph.m g) :: walked
        else walked)
  in
  let covered = Array.init !kept (fun _ -> Rng.int rng 4 > 0) in
  Shortcut.create ~covered partition (Array.map (List.sort_uniq compare) edge_sets)

let dilation_matches_definition =
  QCheck.Test.make ~name:"dilation = max exact diameter of covered S_i" ~count:150
    QCheck.(triple (int_bound 100_000) (int_range 1 40) (int_range 0 4))
    (fun (seed, n, small) ->
      let sc = random_measured_shortcut seed ~n ~stray:(seed mod 3 = 0) in
      let exact () =
        let best = ref 0 in
        for i = 0 to Shortcut.k sc - 1 do
          if Shortcut.is_covered sc i then
            best := max !best (Diameter.exact (Quality.part_subgraph sc i))
        done;
        !best
      in
      let per_part () =
        let r = Quality.measure sc in
        Array.init (Shortcut.k sc) (fun i ->
            if Shortcut.is_covered sc i then
              Diameter.of_graph ~exact_limit:4096 (reference_subgraph sc i)
            else -1)
        = r.Quality.per_part_dilation
      in
      let d = outcome (fun () -> Quality.dilation sc) in
      d = outcome exact
      && d = outcome (fun () -> reference_dilation sc)
      && (match d with Ok _ -> per_part () | Error _ -> true)
      (* A small limit takes the double-sweep estimate on every larger
         S_i. *)
      && outcome (fun () -> Quality.dilation ~exact_limit:small sc)
         = outcome (fun () -> reference_dilation ~exact_limit:small sc))

let dilation_disconnected_part () =
  let g = Generators.path 5 in
  let p = Partition.of_parts g [ [ 0 ]; [ 2 ] ] in
  (* S_0 = {0} + the edge 3-4: three vertices, one stranded. *)
  let sc = Shortcut.create p [| [ 3 ]; [] |] in
  Alcotest.check_raises "exact path"
    (Invalid_argument "Diameter.exact: graph is disconnected") (fun () ->
      ignore (Quality.dilation sc));
  Alcotest.check_raises "estimate path" (Invalid_argument "Bfs: graph is disconnected")
    (fun () -> ignore (Quality.dilation ~exact_limit:2 sc));
  (* An uncovered part is not measured. *)
  let partial = Shortcut.create ~covered:[| false; true |] p [| [ 3 ]; [] |] in
  check Alcotest.int "uncovered skipped" 0 (Quality.dilation partial)

(* On the diamond K4 - e, a double sweep from a degree-3 vertex meets
   eccentricity 1 twice, yet the two degree-2 vertices are 2 apart: only
   the exact pass finds the dilation. *)
let dilation_beyond_double_sweep () =
  let g = Graph.create ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 3); (2, 3) ] in
  let n = Graph.n g in
  let sweep =
    Diameter.sweep_csr (Diameter.scratch n) ~n
      ~offsets:(Intvec.to_array (Graph.csr_offsets g))
      ~neighbors:(Intvec.to_array (Graph.csr_neighbors g))
  in
  check Alcotest.int "sweep falls short" 1 sweep.Diameter.lower;
  let sc = Shortcut.empty (Partition.whole g) in
  check Alcotest.int "dilation" 2 (Quality.dilation sc);
  check (Alcotest.array Alcotest.int) "per part" [| 2 |] (Quality.measure sc).Quality.per_part_dilation

(* The all-pairs definition of a diameter, one BFS per vertex. *)
let all_pairs_diameter g =
  let best = ref 0 in
  for v = 0 to Graph.n g - 1 do
    best := max !best (Bfs.eccentricity g v)
  done;
  !best

(* A host of small diameter under a random relabeling: a random k-tree
   (k = 3–6, n = 150–400) or a grid of side 8–16. *)
let relabeled_host rng ~grid =
  let g =
    if grid then
      let side = 8 + Rng.int rng 9 in
      Generators.grid ~rows:side ~cols:side
    else Generators.k_tree rng ~k:(3 + Rng.int rng 4) ~n:(150 + Rng.int rng 251)
  in
  let n = Graph.n g in
  let label = Rng.permutation rng n in
  Graph.create ~n (Array.to_list (Array.map (fun (u, v) -> (label.(u), label.(v))) (Graph.edges g)))

(* Part 0 is the ball of [radius] around a vertex of highest degree, part
   1 a shortest path of G minus the ball, two hops longer than the ball
   is wide: an induced path, so a large part of small diameter comes
   before a small part of larger diameter. Other vertices are in no
   part. With [~swap] the two part ids trade places. *)
let ball_then_path g ~radius ~swap =
  let n = Graph.n g in
  let c = ref 0 in
  for v = 1 to n - 1 do
    if Graph.degree g v > Graph.degree g !c then c := v
  done;
  let near = Bfs.distances g ~src:!c in
  let ball, path = if swap then (1, 0) else (0, 1) in
  let part = Array.map (fun d -> if d <= radius then ball else -1) near in
  let outside v = near.(v) > radius in
  (* The path starts at the vertex [w] of G minus the ball farthest from
     [far], a vertex farthest from the ball's center, and walks back
     toward [far]. *)
  let far = ref 0 in
  Array.iteri (fun v dv -> if dv > near.(!far) then far := v) near;
  if outside !far then begin
    let d = Bfs.distances_filtered g ~src:!far ~allow:outside in
    let w = ref !far in
    Array.iteri (fun v dv -> if dv > d.(!w) then w := v) d;
    let rec walk v hops =
      part.(v) <- path;
      if hops > 0 && d.(v) > 0 then
        match List.find_opt (fun (x, _) -> d.(x) = d.(v) - 1) (Graph.adj_list g v) with
        | Some (x, _) -> walk x (hops - 1)
        | None -> ()
    in
    walk !w ((2 * radius) + 2)
  end;
  (* A ball that swallows the host leaves one part, numbered 0. *)
  if not (Array.mem path part) then Array.iteri (fun v p -> if p >= 0 then part.(v) <- 0) part;
  Partition.of_assignment g part

let dilation_exact_on_low_diameter_hosts =
  QCheck.Test.make ~name:"dilation = all-pairs max on k-trees and relabeled grids" ~count:24
    QCheck.(pair (int_bound 100_000) (int_bound 5))
    (fun (seed, shape) ->
      let rng = Rng.create seed in
      let g = relabeled_host rng ~grid:(shape mod 2 = 0) in
      let partition =
        match shape / 2 with
        | 0 -> Partition.whole g
        | 1 -> Partition.voronoi g rng ~parts:(2 + Rng.int rng 12)
        | _ -> ball_then_path g ~radius:(if shape mod 2 = 0 then 3 else 1) ~swap:false
      in
      let tree = Bfs.tree g ~root:(Rng.int rng (Graph.n g)) in
      let boosted = (Boost.full partition ~tree).Boost.shortcut in
      let exact sc =
        let per_part =
          Array.init (Shortcut.k sc) (fun i ->
              if Shortcut.is_covered sc i then all_pairs_diameter (Quality.part_subgraph sc i)
              else -1)
        in
        Quality.dilation sc = Array.fold_left max 0 per_part
        && (Quality.measure sc).Quality.per_part_dilation = per_part
      in
      exact boosted && (shape / 2 < 2 || exact (Shortcut.empty partition)))

(* Two covered parts whose S_i each gain a stray host edge away from
   them, so both are disconnected: the first part's error is raised, with
   the message its measurement path gives. A limit between the two
   subgraph sizes sends them down different paths, which tells the parts
   apart. *)
let dilation_first_disconnected_part =
  QCheck.Test.make ~name:"dilation raises for the first disconnected part" ~count:12
    QCheck.(pair (int_bound 100_000) bool)
    (fun (seed, swap) ->
      let rng = Rng.create seed in
      let grid = seed mod 2 = 0 in
      let g = relabeled_host rng ~grid in
      let partition = ball_then_path g ~radius:(if grid then 3 else 1) ~swap in
      let boosted = (Boost.full partition ~tree:(Bfs.tree g ~root:0)).Boost.shortcut in
      let k = Shortcut.k boosted in
      let size i = Graph.n (Quality.part_subgraph boosted i) in
      (* The first host edge with no endpoint in S_i. *)
      let stray i =
        let inside = Array.make (Graph.n g) false in
        Array.iter (fun v -> inside.(v) <- true) (Partition.members partition i);
        Array.iter
          (fun e ->
            let u, v = Graph.edge_endpoints g e in
            inside.(u) <- true;
            inside.(v) <- true)
          (Shortcut.edges_array boosted i);
        let rec find e =
          if e = Graph.m g then QCheck.assume_fail ()
          else
            let u, v = Graph.edge_endpoints g e in
            if inside.(u) || inside.(v) then find (e + 1) else e
        in
        find 0
      in
      QCheck.assume (k = 2 && size 0 <> size 1);
      let sc =
        Shortcut.create partition
          (Array.init k (fun i -> List.sort_uniq compare (stray i :: Shortcut.edges boosted i)))
      in
      let limit = min (size 0) (size 1) + 2 in
      let message ~limit =
        if size 0 + 2 <= limit then "Diameter.exact: graph is disconnected"
        else "Bfs: graph is disconnected"
      in
      let raises f msg = match f () with _ -> false | exception Invalid_argument m -> m = msg in
      raises (fun () -> Quality.dilation sc) (message ~limit:4096)
      && raises (fun () -> Quality.measure sc) (message ~limit:4096)
      && raises (fun () -> Quality.dilation ~exact_limit:limit sc) (message ~limit)
      && raises (fun () -> Quality.measure ~exact_limit:limit sc) (message ~limit))

let blocks_match_definition =
  QCheck.Test.make ~name:"part_blocks = union-find definition" ~count:150
    QCheck.(pair (int_bound 100_000) (int_range 1 40))
    (fun (seed, n) ->
      let sc = random_measured_shortcut seed ~n ~stray:true in
      let k = Shortcut.k sc in
      let expected = Array.init k (reference_blocks sc) in
      (* One staged counter over every part, in a shuffled order: each part
         must find the shared union-find reset. *)
      let blocks = Quality.part_blocks sc in
      let order = Array.init k Fun.id in
      Rng.shuffle (Rng.create seed) order;
      Array.for_all (fun i -> blocks i = expected.(i)) order
      && Array.for_all (fun i -> Quality.part_blocks sc i = expected.(i)) order
      &&
      match Quality.measure sc with
      | r ->
          r.Quality.per_part_blocks
          = Array.init k (fun i -> if Shortcut.is_covered sc i then expected.(i) else -1)
      | exception Invalid_argument _ -> (* a disconnected S_i *) true)

(* Measuring every part of the 100×100 singleton shortcut allocates a
   constant number of words per host vertex and edge: the tables are
   shared by the parts, never made per part (10^4 parts, 5.7·10^5 H_i
   edge occurrences). *)
let measure_allocation_bound () =
  let side = 100 in
  let g = Generators.grid ~rows:side ~cols:side in
  let singletons = Partition.of_assignment g (Array.init (Graph.n g) Fun.id) in
  let sc = (Boost.full singletons ~tree:(Bfs.tree g ~root:0)).Boost.shortcut in
  (* A minor collection brings the allocation counters up to date. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = Quality.measure sc in
  Gc.minor ();
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  let bound = 64 * (Graph.n g + Graph.m g) in
  check Alcotest.int "dilation" 114 r.Quality.dilation;
  if words > float_of_int bound then
    Alcotest.failf "measure allocated %.0f words, above 64·(n + m) = %d" words bound

(* --- Construct: Theorem 3.1 invariants ---------------------------------- *)

let construct_grid_rows () =
  let rows = 8 and cols = 8 in
  let g = Generators.grid ~rows ~cols in
  let p = Partition.grid_rows g ~rows ~cols in
  let tree = Bfs.tree g ~root:0 in
  let result, delta = Construct.auto p ~tree in
  check Alcotest.bool "succeeded" true (Construct.succeeded result);
  (* Grids are planar: delta accepted must stay small. *)
  check Alcotest.bool "delta small" true (delta <= 4);
  let r = Quality.measure result.Construct.shortcut in
  check Alcotest.bool "congestion within threshold" true
    (r.Quality.congestion <= result.Construct.threshold);
  check Alcotest.bool "blocks within budget+1" true
    (r.Quality.max_block_number <= result.Construct.block_budget + 1)

let construct_invariants =
  QCheck.Test.make ~name:"Thm 3.1 invariants on random graphs" ~count:25
    QCheck.(quad (int_bound 1000) (int_range 6 60) (int_range 0 40) (int_range 1 10))
    (fun (seed, n, extra, parts) ->
      let _g, partition, tree = random_setup seed ~n ~extra ~parts in
      let result, _delta = Construct.auto partition ~tree in
      let d = max 1 (Rooted_tree.height tree) in
      let r = Quality.measure result.Construct.shortcut in
      let blocks_ok =
        (* block number of covered part i is at most blame degree + 1 *)
        Array.for_all (fun b -> b < 0 || b <= result.Construct.block_budget + 1)
          r.Quality.per_part_blocks
      in
      let dilation_ok =
        (* Observation 2.6: dilation <= blocks * (2D+1) *)
        Array.for_all2
          (fun dil blocks -> dil < 0 || dil <= blocks * ((2 * d) + 1))
          r.Quality.per_part_dilation r.Quality.per_part_blocks
      in
      Construct.succeeded result
      && r.Quality.congestion <= result.Construct.threshold
      && blocks_ok && dilation_ok)

let construct_blame_degree_matches_selection =
  QCheck.Test.make ~name:"selection = blame degree <= budget" ~count:25
    QCheck.(triple (int_bound 1000) (int_range 6 50) (int_range 1 8))
    (fun (seed, n, parts) ->
      let _g, partition, tree = random_setup seed ~n ~extra:(n / 3) ~parts in
      let result = Construct.for_delta partition ~tree ~delta:1 in
      Array.for_all2
        (fun selected degree -> selected = (degree <= result.Construct.block_budget))
        result.Construct.selected result.Construct.blame_degree)

let construct_no_overcongestion_when_few_parts () =
  (* threshold > k means no edge can ever be overcongested. *)
  let g = Generators.grid ~rows:5 ~cols:5 in
  let p = Partition.grid_rows g ~rows:5 ~cols:5 in
  let tree = Bfs.tree g ~root:0 in
  let result = Construct.run p ~tree ~threshold:10 ~block_budget:0 in
  check Alcotest.int "no overcongested edges" 0 result.Construct.overcongested_count;
  check Alcotest.int "all selected" 5 result.Construct.selected_count

let construct_wheel_spokes () =
  (* One rim part in a wheel: the BFS tree from the hub is the star of
     spokes; H_1 should include rim-ancestor spokes and give dilation <= 3,
     congestion 1. *)
  let n = 40 in
  let g = Generators.wheel n in
  let p = Partition.of_parts g [ List.init (n - 1) (fun i -> i + 1) ] in
  let tree = Bfs.tree g ~root:0 in
  let result, _delta = Construct.auto p ~tree in
  let r = Quality.measure result.Construct.shortcut in
  check Alcotest.bool "dilation tiny" true (r.Quality.dilation <= 3);
  check Alcotest.int "congestion" 1 r.Quality.congestion

let construct_trace_records_blame () =
  let rows = 16 and cols = 4 in
  let g = Generators.grid ~rows ~cols in
  let p = Partition.grid_rows g ~rows ~cols in
  let tree = Bfs.tree g ~root:0 in
  (* Tiny threshold forces overcongestion so blame is non-trivial. *)
  let result = Construct.run ~record_blame:true p ~tree ~threshold:2 ~block_budget:2 in
  check Alcotest.bool "blame recorded" true
    (List.length result.Construct.blame = result.Construct.overcongested_count);
  List.iter
    (fun b ->
      check Alcotest.bool "every blame edge lists >= threshold parts" true
        (Array.length b.Construct.parts >= 2);
      (* Representatives belong to their parts. *)
      Array.iter
        (fun (part, rep) ->
          check Alcotest.int "rep in part" part (Partition.part_of p rep))
        b.Construct.parts)
    result.Construct.blame

let blame_reps_are_minimal_depth =
  QCheck.Test.make ~name:"blame representatives are min-depth and clean-path" ~count:20
    QCheck.(triple (int_bound 1000) (int_range 8 50) (int_range 2 10))
    (fun (seed, n, parts) ->
      let _g, partition, tree = random_setup seed ~n ~extra:(n / 3) ~parts in
      let result =
        Construct.run ~record_blame:true partition ~tree ~threshold:2 ~block_budget:0
      in
      List.for_all
        (fun b ->
          Array.for_all
            (fun (part, rep) ->
              (* rep lies strictly below v_e... *)
              Rooted_tree.is_ancestor tree ~ancestor:b.Construct.lower rep
              && Partition.part_of partition rep = part
              (* ...and the tree path from v_e down to rep meets the part
                 only at rep (the min-depth property the certificate's
                 survival argument needs). *)
              &&
              let rec clean v =
                if v = b.Construct.lower then true
                else if v <> rep && Partition.part_of partition v = part then false
                else clean (Rooted_tree.parent tree v)
              in
              clean rep)
            b.Construct.parts)
        result.Construct.blame)

(* --- Boost --------------------------------------------------------------- *)

let boost_covers_everything =
  QCheck.Test.make ~name:"boosting yields a full shortcut" ~count:20
    QCheck.(triple (int_bound 1000) (int_range 6 50) (int_range 1 10))
    (fun (seed, n, parts) ->
      let _g, partition, tree = random_setup seed ~n ~extra:(n / 4) ~parts in
      let b = Boost.full partition ~tree in
      let k = Partition.k partition in
      (not (Shortcut.is_partial b.Boost.shortcut))
      && b.Boost.iterations <= int_of_float (Float.ceil (log (float_of_int (max 2 k)) /. log 2.)) + 1
      &&
      let r = Quality.measure b.Boost.shortcut in
      r.Quality.congestion <= b.Boost.threshold * b.Boost.iterations)

let boost_iteration_counts () =
  let g = Generators.grid ~rows:12 ~cols:12 in
  let p = Partition.grid_rows g ~rows:12 ~cols:12 in
  let tree = Bfs.tree g ~root:0 in
  let b = Boost.full p ~tree in
  check Alcotest.bool "full" false (Shortcut.is_partial b.Boost.shortcut);
  check Alcotest.bool "log iterations" true (b.Boost.iterations <= 5);
  check Alcotest.int "coverage sums to k" 12
    (List.fold_left ( + ) 0 b.Boost.per_iteration_covered)

(* --- Baseline ------------------------------------------------------------ *)

let baseline_thresholding () =
  let rows = 9 and cols = 9 in
  let g = Generators.grid ~rows ~cols in
  let p = Partition.grid_rows g ~rows ~cols in
  let tree = Bfs.tree g ~root:0 in
  let b = Baseline.bfs_tree p ~tree in
  (* Each row has 9 = sqrt(81) vertices: none strictly exceeds the cutoff. *)
  check Alcotest.int "no large parts" 0 b.Baseline.large_parts;
  let b2 = Baseline.bfs_tree ~threshold:4 p ~tree in
  check Alcotest.int "all large now" rows b2.Baseline.large_parts;
  let r = Quality.measure b2.Baseline.shortcut in
  check Alcotest.bool "congestion <= #large parts" true (r.Quality.congestion <= rows);
  check Alcotest.bool "dilation <= 2D" true
    (r.Quality.dilation <= 2 * Rooted_tree.height tree)

(* --- Certificate ---------------------------------------------------------- *)

(* At the paper's generous constants (c = 8δD), failure — and hence a
   certificate — requires instances far above unit-test scale: a K_24 at
   depth 1 legitimately admits perfect shortcuts at delta = 1 (every tree
   edge serves one singleton part). To exercise case (II)'s machinery we
   force failure with a sub-theorem threshold and check the extractor's
   mechanics: the sampled bipartite graph must be a genuine, verified minor
   of G. The theorem-grade density statement is measured at scale by
   experiment E11. *)
let certificate_mechanics_on_grid () =
  let rows = 16 and cols = 16 in
  let g = Generators.grid ~rows ~cols in
  let p = Partition.grid_rows g ~rows ~cols in
  let tree = Bfs.tree g ~root:0 in
  let result = Construct.run ~record_blame:true p ~tree ~threshold:2 ~block_budget:0 in
  check Alcotest.bool "forced failure" false (Construct.succeeded result);
  check Alcotest.bool "blame non-empty" true (result.Construct.blame <> []);
  let cert = Certificate.best_effort ~max_attempts:128 (Rng.create 5) result in
  check Alcotest.bool "verified minor" true
    (match Minor.verify g cert.Certificate.model with Ok () -> true | Error _ -> false);
  check Alcotest.bool "density positive" true (cert.Certificate.density > 0.);
  (* Any minor's density lower-bounds δ(G) < 3 (planarity). *)
  check Alcotest.bool "density below planar bound" true (cert.Certificate.density < 3.)

let certificate_extract_with_target () =
  let rows = 16 and cols = 16 in
  let g = Generators.grid ~rows ~cols in
  let p = Partition.grid_rows g ~rows ~cols in
  let tree = Bfs.tree g ~root:0 in
  let result = Construct.run ~record_blame:true p ~tree ~threshold:2 ~block_budget:0 in
  (* Self-calibrating target: half of an achievable density; extract must
     retry until it beats it. *)
  let probe = Certificate.best_effort ~max_attempts:64 (Rng.create 3) result in
  let target = probe.Certificate.density /. 2. in
  match Certificate.extract ~target ~max_attempts:2000 (Rng.create 7) result with
  | None -> Alcotest.failf "no certificate above target %.3f" target
  | Some cert ->
      check Alcotest.bool "density above target" true (cert.Certificate.density > target)

let run_certifying_both_ways () =
  (* Success: a grid at delta 3 (>= its true density) yields a shortcut. *)
  let g = Generators.grid ~rows:8 ~cols:8 in
  let p = Partition.grid_rows g ~rows:8 ~cols:8 in
  let tree = Bfs.tree g ~root:0 in
  (match Certificate.run_certifying (Rng.create 3) p ~tree ~delta:3 with
  | Certificate.Shortcut result ->
      check Alcotest.bool "succeeded" true (Construct.succeeded result)
  | Certificate.Dense_minor _ -> Alcotest.fail "grid at delta 3 must succeed");
  (* The failure path of the API is exercised through the forced-threshold
     tests above; at the paper's own constants, failure needs instances
     beyond unit scale (Lemma 3.2). *)
  ()

let certificate_requires_blame () =
  let rows = 8 and cols = 8 in
  let g = Generators.grid ~rows ~cols in
  let p = Partition.grid_rows g ~rows ~cols in
  let tree = Bfs.tree g ~root:0 in
  let result = Construct.run p ~tree ~threshold:2 ~block_budget:0 in
  if result.Construct.overcongested_count > 0 then
    Alcotest.check_raises "needs blame"
      (Invalid_argument
         "Certificate: construct result lacks blame (use ~record_blame:true)")
      (fun () -> ignore (Certificate.extract (Rng.create 1) result))
  else Alcotest.fail "expected overcongested edges at threshold 2"

let certificate_best_effort_density =
  QCheck.Test.make ~name:"best-effort certificates verify on random setups" ~count:10
    QCheck.(triple (int_bound 1000) (int_range 16 48) (int_range 4 12))
    (fun (seed, n, parts) ->
      let _g, partition, tree = random_setup seed ~n ~extra:(n / 2) ~parts in
      let result =
        Construct.run ~record_blame:true partition ~tree ~threshold:2 ~block_budget:0
      in
      if result.Construct.overcongested_count = 0 then true
      else
        let host = Partition.graph partition in
        let cert = Certificate.best_effort (Rng.create seed) result in
        (match Minor.verify host cert.Certificate.model with
        | Ok () -> true
        | Error _ -> false))

(* --- Minor density --------------------------------------------------------- *)

let minor_density_partition_bound () =
  let blocks = 7 and side = 4 in
  let g = Generators.clique_of_grids ~blocks ~side in
  let p = Generators.block_partition ~blocks ~side g in
  check (Alcotest.float 1e-9) "contracting blocks gives K_r density"
    (Minor_density.complete_lower blocks)
    (Minor_density.partition_lower g p)

let minor_density_greedy_on_grid () =
  let g = Generators.grid ~rows:8 ~cols:8 in
  let lb = Minor_density.greedy_lower (Rng.create 3) ~restarts:4 g in
  check Alcotest.bool "lower bound positive" true (lb >= Graph.density g);
  check Alcotest.bool "respects planar upper bound" true (lb < Minor_density.planar_upper)

let minor_density_greedy_finds_density () =
  let g = Generators.complete 12 in
  let lb = Minor_density.greedy_lower (Rng.create 3) g in
  check Alcotest.bool "at least trivial density" true
    (lb >= Minor_density.trivial_lower g)

(* --- Distributed ------------------------------------------------------------ *)

let distributed_deterministic_matches_centralized =
  QCheck.Test.make ~name:"deterministic wave O = centralized O" ~count:12
    QCheck.(triple (int_bound 1000) (int_range 6 40) (int_range 1 6))
    (fun (seed, n, parts) ->
      let g, partition, _ = random_setup seed ~n ~extra:(n / 4) ~parts in
      let tree, height, _stats = Sync_bfs.run g ~root:0 in
      let info = Tree_info.of_tree g tree in
      let d = max 1 height in
      let threshold = max 2 (2 * d) in
      let over_dist, _ =
        Distributed.detection_wave ~variant:Distributed.Deterministic ~threshold
          partition info
      in
      let central = Construct.run partition ~tree ~threshold ~block_budget:8 in
      let m = Graph.m g in
      let same = ref true in
      for e = 0 to m - 1 do
        if Bitset.mem over_dist e <> Bitset.mem central.Construct.overcongested e then
          same := false
      done;
      !same)

let distributed_construct_grid () =
  let rows = 8 and cols = 8 in
  let g = Generators.grid ~rows ~cols in
  let p = Partition.grid_rows g ~rows ~cols in
  let outcome = Distributed.construct ~seed:3 p ~root:0 in
  check Alcotest.bool "succeeded" true (Construct.succeeded outcome.Distributed.result);
  check Alcotest.bool "rounds positive" true (outcome.Distributed.wave_rounds > 0);
  check Alcotest.bool "few guesses" true (outcome.Distributed.guesses <= 6);
  (* Messages stay near-linear in m. *)
  let m = Graph.m g in
  let r = outcome.Distributed.wave_messages in
  check Alcotest.bool "messages Õ(m)" true (r <= 200 * m)

let distributed_randomized_selects_half =
  QCheck.Test.make ~name:"randomized construct covers >= half" ~count:6
    QCheck.(triple (int_bound 1000) (int_range 8 30) (int_range 2 6))
    (fun (seed, n, parts) ->
      let _g, partition, _tree = random_setup seed ~n ~extra:(n / 4) ~parts in
      let outcome = Distributed.construct ~seed:(seed + 1) partition ~root:0 in
      Construct.succeeded outcome.Distributed.result
      && outcome.Distributed.wave_rounds > 0)

let distributed_deterministic_construct () =
  let rows = 6 and cols = 6 in
  let g = Generators.grid ~rows ~cols in
  let p = Partition.grid_rows g ~rows ~cols in
  let outcome =
    Distributed.construct ~variant:Distributed.Deterministic p ~root:0
  in
  check Alcotest.bool "succeeded" true (Construct.succeeded outcome.Distributed.result);
  let r = Quality.measure outcome.Distributed.result.Construct.shortcut in
  check Alcotest.bool "congestion <= threshold" true
    (r.Quality.congestion <= outcome.Distributed.threshold)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      dilation_matches_definition;
      dilation_exact_on_low_diameter_hosts;
      dilation_first_disconnected_part;
      blocks_match_definition;
      construct_invariants;
      construct_blame_degree_matches_selection;
      blame_reps_are_minimal_depth;
      boost_covers_everything;
      certificate_best_effort_density;
      distributed_deterministic_matches_centralized;
      distributed_randomized_selects_half;
    ]

let suite =
  [
    case "shortcut: create/union" `Quick shortcut_create_and_union;
    case "shortcut: rejects bad edges" `Quick shortcut_rejects_bad_edges;
    case "quality: wheel" `Quick quality_wheel;
    case "quality: congestion counts" `Quick quality_congestion_counts;
    case "quality: blocks" `Quick quality_blocks;
    case "quality: disconnected S_i" `Quick dilation_disconnected_part;
    case "quality: dilation beyond the double sweep" `Quick dilation_beyond_double_sweep;
    case "quality: measure allocation" `Quick measure_allocation_bound;
    case "construct: grid rows" `Quick construct_grid_rows;
    case "construct: no overcongestion when few parts" `Quick
      construct_no_overcongestion_when_few_parts;
    case "construct: wheel spokes" `Quick construct_wheel_spokes;
    case "construct: blame trace" `Quick construct_trace_records_blame;
    case "boost: iteration counts" `Quick boost_iteration_counts;
    case "baseline: thresholding" `Quick baseline_thresholding;
    case "certificate: mechanics on grid" `Quick certificate_mechanics_on_grid;
    case "certificate: extract with target" `Quick certificate_extract_with_target;
    case "certificate: certifying runner" `Quick run_certifying_both_ways;
    case "certificate: requires blame" `Quick certificate_requires_blame;
    case "minor density: partition bound" `Quick minor_density_partition_bound;
    case "minor density: greedy on grid" `Quick minor_density_greedy_on_grid;
    case "minor density: greedy on clique" `Quick minor_density_greedy_finds_density;
    case "distributed: construct on grid" `Quick distributed_construct_grid;
    case "distributed: deterministic construct" `Quick distributed_deterministic_construct;
  ]
  @ props
