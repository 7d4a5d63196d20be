module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Rooted_tree = Lcs_graph.Rooted_tree
module Bfs = Lcs_graph.Bfs
module Bitset = Lcs_util.Bitset
module Obs = Lcs_obs.Obs

type blame_entry = {
  edge : int;
  lower : int;
  parts : (int * int) array;
}

type result = {
  partition : Partition.t;
  tree : Rooted_tree.t;
  threshold : int;
  block_budget : int;
  overcongested : Bitset.t;
  overcongested_count : int;
  blame_degree : int array;
  selected : bool array;
  selected_count : int;
  shortcut : Shortcut.t;
  blame : blame_entry list;
}

(* Bottom-up sweep computing, for every non-root vertex v, the set I_e of
   parts intersecting v's descendants in T \ O (e = v's parent edge), with
   one representative vertex per part. Sets are merged small-to-large; a set
   is dropped as soon as its edge is declared overcongested, matching the
   paper's rule that overcongested edges stop contributing upward.

   Representatives are kept at minimum depth: the certificate's
   potential-presence test walks the tree path from v_e down to the
   representative and dies on any other vertex of a sampled part, so a
   minimum-depth representative (whose path, descending strictly, cannot
   meet its own part earlier) maximizes survival exactly as the paper's
   probability argument assumes. *)
let sweep partition tree ~decide ~record_blame =
  let host = Partition.graph partition in
  let n = Graph.n host in
  let k = Partition.k partition in
  let over = Bitset.create (Graph.m host) in
  let over_count = ref 0 in
  let blame_degree = Array.make k 0 in
  let blame = ref [] in
  let sets : (int, int) Hashtbl.t option array = Array.make n None in
  let kids = Rooted_tree.children tree in
  let order = Rooted_tree.bottom_up tree in
  Array.iter
    (fun v ->
      (* Collect surviving child sets (children are deeper, already done). *)
      let surviving = ref [] in
      Array.iter
        (fun c ->
          match sets.(c) with
          | Some tbl ->
              surviving := tbl :: !surviving;
              sets.(c) <- None
          | None -> ())
        kids.(v);
      (* Small-to-large: reuse the largest child table as the base. *)
      let base =
        match !surviving with
        | [] -> Hashtbl.create 4
        | first :: rest ->
            let best = ref first in
            List.iter
              (fun tbl -> if Hashtbl.length tbl > Hashtbl.length !best then best := tbl)
              rest;
            !best
      in
      let depth_of u = Rooted_tree.depth tree u in
      let offer part rep =
        match Hashtbl.find_opt base part with
        | None -> Hashtbl.add base part rep
        | Some current ->
            if depth_of rep < depth_of current then Hashtbl.replace base part rep
      in
      List.iter
        (fun tbl -> if tbl != base then Hashtbl.iter offer tbl)
        !surviving;
      let own = Partition.part_of partition v in
      if own >= 0 then offer own v;
      let e = Rooted_tree.parent_edge tree v in
      if e < 0 then sets.(v) <- Some base (* root: no decision *)
      else if decide ~edge:e ~size:(Hashtbl.length base) then begin
        Bitset.add over e;
        incr over_count;
        Hashtbl.iter (fun part _rep -> blame_degree.(part) <- blame_degree.(part) + 1) base;
        if record_blame then begin
          let parts =
            Array.of_list (Hashtbl.fold (fun part rep acc -> (part, rep) :: acc) base [])
          in
          (* Deterministic order for reproducible certificates. *)
          Array.sort compare parts;
          blame := { edge = e; lower = v; parts } :: !blame
        end;
        sets.(v) <- None
      end
      else sets.(v) <- Some base)
    order;
  (over, !over_count, blame_degree, List.rev !blame)

(* H_i for each selected part: the ancestor edges of P_i in T \ O. Each
   member walks toward the root until an overcongested edge, the root, or a
   vertex already visited for this part. *)
let shortcut_edges partition tree over ~selected =
  let host = Partition.graph partition in
  let n = Graph.n host in
  let k = Partition.k partition in
  let mark = Array.make n (-1) in
  let edge_sets = Array.make k [] in
  for i = 0 to k - 1 do
    if selected.(i) then begin
      let acc = ref [] in
      Array.iter
        (fun u ->
          let v = ref u in
          let continue = ref true in
          while !continue do
            if mark.(!v) = i then continue := false
            else begin
              mark.(!v) <- i;
              let e = Rooted_tree.parent_edge tree !v in
              if e < 0 || Bitset.mem over e then continue := false
              else begin
                acc := e :: !acc;
                v := Rooted_tree.parent tree !v
              end
            end
          done)
        (Partition.members partition i);
      edge_sets.(i) <- !acc
    end
  done;
  edge_sets

let finish partition tree ~threshold ~block_budget
    (over, over_count, blame_degree, blame) =
  let selected = Array.map (fun d -> d <= block_budget) blame_degree in
  let selected_count = Array.fold_left (fun a s -> if s then a + 1 else a) 0 selected in
  let edge_sets = shortcut_edges partition tree over ~selected in
  let shortcut = Shortcut.create ~covered:selected partition edge_sets in
  {
    partition;
    tree;
    threshold;
    block_budget;
    overcongested = over;
    overcongested_count = over_count;
    blame_degree;
    selected;
    selected_count;
    shortcut;
    blame;
  }

let check_inputs partition tree =
  let host = Partition.graph partition in
  if Rooted_tree.size tree <> Graph.n host then
    invalid_arg "Construct: tree does not span the host graph"

(* Ledger entries are measured only when a collector is installed: the
   congestion / block-number measurements walk every H_i and are not part
   of the construction itself. *)
let record_quality obs r =
  match obs with
  | None -> ()
  | Some _ ->
      Obs.note obs "overcongested" (Obs.Int r.overcongested_count);
      Obs.note obs "selected" (Obs.Int r.selected_count);
      Obs.note obs "parts" (Obs.Int (Partition.k r.partition));
      Obs.bound obs ~metric:"congestion"
        ~predicted:(float_of_int r.threshold)
        ~observed:(float_of_int (Quality.congestion r.shortcut));
      let max_blocks = ref 0 in
      Array.iteri
        (fun i sel ->
          if sel then begin
            let b = Quality.part_blocks r.shortcut i in
            if b > !max_blocks then max_blocks := b
          end)
        r.selected;
      Obs.bound obs ~metric:"blocks"
        ~predicted:(float_of_int (r.block_budget + 1))
        ~observed:(float_of_int !max_blocks)

let instrumented obs partition ~tree ~threshold ~block_budget ~decide
    ~record_blame =
  Obs.span obs "construct" (fun () ->
      Obs.note obs "threshold" (Obs.Int threshold);
      Obs.note obs "block_budget" (Obs.Int block_budget);
      let swept =
        Obs.span obs "construct.sweep" (fun () ->
            sweep partition tree ~decide ~record_blame)
      in
      let r =
        Obs.span obs "construct.assign" (fun () ->
            finish partition tree ~threshold ~block_budget swept)
      in
      record_quality obs r;
      r)

let run ?obs ?(record_blame = false) partition ~tree ~threshold ~block_budget =
  if threshold < 1 then invalid_arg "Construct.run: threshold must be >= 1";
  if block_budget < 0 then invalid_arg "Construct.run: negative block budget";
  check_inputs partition tree;
  let decide ~edge:_ ~size = size >= threshold in
  instrumented obs partition ~tree ~threshold ~block_budget ~decide ~record_blame

let with_fixed_overcongested ?obs ?(record_blame = false) partition ~tree ~over
    ~threshold ~block_budget =
  if block_budget < 0 then invalid_arg "Construct: negative block budget";
  check_inputs partition tree;
  let decide ~edge ~size:_ = Bitset.mem over edge in
  instrumented obs partition ~tree ~threshold ~block_budget ~decide ~record_blame

let for_delta ?obs ?record_blame partition ~tree ~delta =
  if delta < 1 then invalid_arg "Construct.for_delta: delta must be >= 1";
  let d = max 1 (Rooted_tree.height tree) in
  run ?obs ?record_blame partition ~tree ~threshold:(8 * delta * d)
    ~block_budget:(8 * delta)

let succeeded r = 2 * r.selected_count >= Partition.k r.partition

let auto ?obs ?(initial_delta = 1) partition ~tree =
  if initial_delta < 1 then invalid_arg "Construct.auto";
  let rec search delta =
    let r = for_delta ?obs partition ~tree ~delta in
    if succeeded r then (r, delta) else search (2 * delta)
  in
  search initial_delta
