module Intvec = Lcs_util.Intvec

let labels g =
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let next = ref 0 in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if label.(v) < 0 then begin
      let c = !next in
      incr next;
      label.(v) <- c;
      Queue.add v queue;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        Graph.iter_adj g u (fun w _e ->
            if label.(w) < 0 then begin
              label.(w) <- c;
              Queue.add w queue
            end)
      done
    end
  done;
  (label, !next)

let count g = snd (labels g)
let is_connected g = Graph.n g = 0 || count g = 1

let is_vertex_set_connected g vs =
  match vs with
  | [] -> false
  | first :: _ ->
      let member = Hashtbl.create (2 * List.length vs) in
      List.iter (fun v -> Hashtbl.replace member v ()) vs;
      let dist =
        Bfs.distances_filtered g ~src:first ~allow:(fun v -> Hashtbl.mem member v)
      in
      List.for_all (fun v -> dist.(v) >= 0) vs

(* Every class is searched in one sweep that shares a [seen] array and a
   queue: vertices are taken in id order, and an unseen labelled vertex
   roots a BFS that stays inside its class. A connected class roots
   exactly one search, so a class that roots a second one is disconnected.
   Each vertex is queued once and each adjacency row walked once, so all
   classes together cost O(n + m) — a BFS per class would cost O(k·n). *)
let first_disconnected g ~label =
  let n = Graph.n g in
  if Array.length label <> n then invalid_arg "Components.first_disconnected: length";
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let classes = Array.fold_left (fun acc l -> max acc (l + 1)) 0 label in
  let rooted = Bytes.make classes '\000' in
  let seen = Bytes.make n '\000' in
  let queue = Array.make n 0 in
  let first = ref classes in
  for v = 0 to n - 1 do
    let l = label.(v) in
    if l >= 0 && Bytes.get seen v = '\000' then begin
      if Bytes.get rooted l = '\000' then Bytes.set rooted l '\001'
      else if l < !first then first := l;
      Bytes.set seen v '\001';
      queue.(0) <- v;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        for slot = Intvec.unsafe_get off u to Intvec.unsafe_get off (u + 1) - 1 do
          let w = Intvec.unsafe_get nbr slot in
          if label.(w) = l && Bytes.get seen w = '\000' then begin
            Bytes.set seen w '\001';
            queue.(!tail) <- w;
            incr tail
          end
        done
      done
    end
  done;
  if !first < classes then Some !first else None
