module Shortcut = Lcs_shortcut.Shortcut
module Quality = Lcs_shortcut.Quality

type t = {
  shortcut : Shortcut.t;
  adjacency : (int, (int * int) list) Hashtbl.t array;
}

let build marks shortcut i =
  let adj : (int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let push e a b =
    let old = match Hashtbl.find_opt adj a with Some l -> l | None -> [] in
    Hashtbl.replace adj a ((e, b) :: old)
  in
  Quality.iter_part_edges marks shortcut i
    ~member:(fun v ->
      (* Members always appear, even when isolated in S_i. *)
      if not (Hashtbl.mem adj v) then Hashtbl.replace adj v [])
    ~edge:(fun e u v ->
      push e u v;
      push e v u);
  adj

let of_shortcut shortcut =
  let marks = Quality.edge_marks (Shortcut.graph shortcut) in
  {
    shortcut;
    adjacency = Array.init (Shortcut.k shortcut) (build marks shortcut);
  }

let adjacency t i = t.adjacency.(i)
let vertices t i = Hashtbl.fold (fun v _ acc -> v :: acc) t.adjacency.(i) []
let shortcut t = t.shortcut

let spanning_tree t i ~root =
  let adj = t.adjacency.(i) in
  if not (Hashtbl.mem adj root) then invalid_arg "Subgraphs.spanning_tree: root";
  let parent = Hashtbl.create (Hashtbl.length adj) in
  let visited = Hashtbl.create (Hashtbl.length adj) in
  Hashtbl.replace visited root ();
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    let nbrs = match Hashtbl.find_opt adj v with Some l -> l | None -> [] in
    List.iter
      (fun (e, w) ->
        if not (Hashtbl.mem visited w) then begin
          Hashtbl.replace visited w ();
          Hashtbl.replace parent w (v, e);
          Queue.add w queue
        end)
      nbrs
  done;
  parent
