type model = {
  branch_sets : int list array;
  minor_edges : (int * int) list;
}

let contract g ~assignment =
  let n = Graph.n g in
  if Array.length assignment <> n then invalid_arg "Minor.contract: length";
  (* Compact the used indices. *)
  let used = Hashtbl.create 64 in
  Array.iter
    (fun a ->
      if a < -1 then invalid_arg "Minor.contract: negative index";
      if a >= 0 && not (Hashtbl.mem used a) then Hashtbl.add used a (Hashtbl.length used))
    assignment;
  (* Renumber in increasing original-index order for determinism. *)
  let sorted = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) used []) in
  List.iteri (fun fresh original -> Hashtbl.replace used original fresh) sorted;
  let k = Hashtbl.length used in
  let compact = Array.map (fun a -> if a < 0 then -1 else Hashtbl.find used a) assignment in
  (* Every compacted index labels a vertex, so no branch set is empty. *)
  (match Components.first_disconnected g ~label:compact with
  | Some i ->
      invalid_arg (Printf.sprintf "Minor: branch set %d is empty or disconnected" i)
  | None -> ());
  let builder = Builder.create ~n:k in
  Graph.iter_edges g (fun _e u v ->
      let a = compact.(u) and b = compact.(v) in
      if a >= 0 && b >= 0 && a <> b then Builder.add_edge builder a b);
  Builder.graph builder

let verify g model =
  let n = Graph.n g in
  let owner = Array.make n (-1) in
  let problem = ref None in
  let fail msg = if !problem = None then problem := Some msg in
  Array.iteri
    (fun i vs ->
      if vs = [] then fail (Printf.sprintf "branch set %d is empty" i);
      List.iter
        (fun v ->
          if v < 0 || v >= n then fail (Printf.sprintf "branch set %d: vertex out of range" i)
          else if owner.(v) <> -1 then
            fail (Printf.sprintf "vertex %d in branch sets %d and %d" v owner.(v) i)
          else owner.(v) <- i)
        vs)
    model.branch_sets;
  (match !problem with
  | Some _ -> ()
  | None -> (
      match Components.first_disconnected g ~label:owner with
      | Some i -> fail (Printf.sprintf "branch set %d is disconnected" i)
      | None -> ()));
  (match !problem with
  | Some _ -> ()
  | None ->
      let witnessed = Hashtbl.create 64 in
      Graph.iter_edges g (fun _e u v ->
          let a = owner.(u) and b = owner.(v) in
          if a >= 0 && b >= 0 && a <> b then begin
            Hashtbl.replace witnessed (min a b, max a b) ()
          end);
      List.iter
        (fun (a, b) ->
          if a = b then fail "self-loop in minor edges"
          else if not (Hashtbl.mem witnessed (min a b, max a b)) then
            fail (Printf.sprintf "minor edge (%d,%d) has no host witness" a b))
        model.minor_edges);
  match !problem with Some msg -> Error msg | None -> Ok ()

let of_components g ~keep_edge =
  let uf = Union_find.create (Graph.n g) in
  Graph.iter_edges g (fun e u v -> if keep_edge e then ignore (Union_find.union uf u v));
  Array.init (Graph.n g) (fun v -> Union_find.find uf v)
