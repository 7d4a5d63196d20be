type t = {
  host : Graph.t;
  part_of : int array;
  parts : int array array;
}

(* The lowest failing part is reported, as a per-part loop in index order
   would: an empty part [i] wins unless a lower part is disconnected. *)
let check_parts host part_of counts =
  let k = Array.length counts in
  let empty = ref 0 in
  while !empty < k && counts.(!empty) > 0 do
    incr empty
  done;
  match Components.first_disconnected host ~label:part_of with
  | Some i when i < !empty ->
      invalid_arg (Printf.sprintf "Partition: part %d is disconnected" i)
  | _ ->
      if !empty < k then invalid_arg (Printf.sprintf "Partition: part %d is empty" !empty)

let of_assignment host part_of =
  let n = Graph.n host in
  if Array.length part_of <> n then invalid_arg "Partition.of_assignment: length";
  let k = Array.fold_left (fun acc p -> max acc (p + 1)) 0 part_of in
  let counts = Array.make k 0 in
  Array.iter
    (fun p ->
      if p < -1 || p >= k then invalid_arg "Partition.of_assignment: bad index";
      if p >= 0 then counts.(p) <- counts.(p) + 1)
    part_of;
  check_parts host part_of counts;
  let parts = Array.init k (fun p -> Array.make counts.(p) 0) in
  let cursor = Array.make k 0 in
  for v = 0 to n - 1 do
    let p = part_of.(v) in
    if p >= 0 then begin
      parts.(p).(cursor.(p)) <- v;
      cursor.(p) <- cursor.(p) + 1
    end
  done;
  { host; part_of = Array.copy part_of; parts }

let of_parts host lists =
  let n = Graph.n host in
  let part_of = Array.make n (-1) in
  List.iteri
    (fun i vs ->
      List.iter
        (fun v ->
          if v < 0 || v >= n then invalid_arg "Partition.of_parts: vertex range";
          if part_of.(v) <> -1 then invalid_arg "Partition.of_parts: overlapping parts";
          part_of.(v) <- i)
        vs)
    lists;
  of_assignment host part_of

let k t = Array.length t.parts
let part_of t v = t.part_of.(v)
let members t i = t.parts.(i)
let size t i = Array.length t.parts.(i)
let graph t = t.host

let internal_diameter t i =
  let members = t.parts.(i) in
  let inside v = t.part_of.(v) = i in
  let best = ref 0 in
  Array.iter
    (fun v ->
      let dist = Bfs.distances_filtered t.host ~src:v ~allow:inside in
      Array.iter (fun w ->
          if dist.(w) > !best then best := dist.(w))
        members)
    members;
  !best

let voronoi host rng ~parts =
  let n = Graph.n host in
  if parts < 1 || parts > n then invalid_arg "Partition.voronoi: parts out of range";
  let centers = Lcs_util.Rng.sample_without_replacement rng parts n in
  let _dist, owner = Bfs.multi_source host ~sources:centers in
  Array.iter (fun o -> if o < 0 then invalid_arg "Partition.voronoi: host disconnected") owner;
  of_assignment host owner

let random_blobs host rng ~target_size =
  if target_size < 1 then invalid_arg "Partition.random_blobs: target_size";
  let n = Graph.n host in
  let part_of = Array.make n (-1) in
  let order = Lcs_util.Rng.permutation rng n in
  let next_part = ref 0 in
  Array.iter
    (fun seed ->
      if part_of.(seed) < 0 then begin
        let part = !next_part in
        incr next_part;
        (* BFS from the seed through unassigned vertices only. *)
        let queue = Queue.create () in
        part_of.(seed) <- part;
        Queue.add seed queue;
        let size = ref 1 in
        while (not (Queue.is_empty queue)) && !size < target_size do
          let v = Queue.take queue in
          Graph.iter_adj host v (fun w _e ->
              if part_of.(w) < 0 && !size < target_size then begin
                part_of.(w) <- part;
                incr size;
                Queue.add w queue
              end)
        done
      end)
    order;
  of_assignment host part_of

let singletons host = of_assignment host (Array.init (Graph.n host) (fun v -> v))
let whole host = of_assignment host (Array.make (Graph.n host) 0)

let grid_rows host ~rows ~cols =
  if Graph.n host <> rows * cols then invalid_arg "Partition.grid_rows: dimensions";
  of_assignment host (Array.init (rows * cols) (fun v -> v / cols))

