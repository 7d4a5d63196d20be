module Intvec = Lcs_util.Intvec

(* Exact diameter by eccentricity-bound pruning (BoundingDiameters,
   Takes & Kosters 2011). A BFS from [v] yields ecc(v) and, by the
   triangle inequality, bounds every [w]:
     max(d(v,w), ecc(v) - d(v,w)) <= ecc(w) <= ecc(v) + d(v,w).
   The diameter is the largest eccentricity, so a vertex whose upper bound
   is at most the largest eccentricity found so far can never raise it;
   once no vertex is left open, that eccentricity is the diameter. It is
   also the diameter as soon as it reaches 2·ecc(v) for some source [v].
   The loop opens with a double sweep: a BFS from the vertex of highest
   degree (the lowest id among ties), then one from the last vertex that
   BFS queued, a farthest one, whose eccentricity is usually the diameter
   and always is on a tree. Sources then alternate between the open vertex with the smallest lower
   bound (a central vertex, which tightens every upper bound) and the one
   with the largest upper bound (it may raise the diameter); ties go to
   the higher degree, then the lower id. Every BFS reuses one distance
   array and one queue, held in a scratch that any number of graphs of at
   most its size can share. *)
type scratch = {
  dist : int array;
  queue : int array;
  lo : int array;
  hi : int array;
  is_open : bool array;
}

let scratch size =
  {
    dist = Array.make size (-1);
    queue = Array.make size 0;
    lo = Array.make size 0;
    hi = Array.make size max_int;
    is_open = Array.make size true;
  }

(* BFS from [src] over the first [n] vertices, into [s.dist] and
   [s.queue]: the eccentricity of [src]. The queue is in distance order,
   so its last vertex [s.queue.(n - 1)] is a farthest one. *)
let bfs s ~n ~offsets ~neighbors src =
  let { dist; queue; _ } = s in
  Array.fill dist 0 n (-1);
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let dv = dist.(v) + 1 in
    for slot = offsets.(v) to offsets.(v + 1) - 1 do
      let w = neighbors.(slot) in
      if dist.(w) < 0 then begin
        dist.(w) <- dv;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  if !tail < n then invalid_arg "Diameter.exact: graph is disconnected";
  dist.(queue.(n - 1))

(* The first source of every search: the vertex of highest degree, the
   lowest id among ties. *)
let hub ~n ~offsets =
  let best = ref 0 in
  for w = 1 to n - 1 do
    if offsets.(w + 1) - offsets.(w) > offsets.(!best + 1) - offsets.(!best) then best := w
  done;
  !best

type bounds = { lower : int; upper : int }

(* A connected graph whose rows hold 2(n - 1) slots is a tree, on which
   the second eccentricity of a double sweep is the diameter. *)
let is_tree ~n ~offsets = offsets.(n) - offsets.(0) = 2 * (n - 1)

let sweep_csr ?(beat = -1) s ~n ~offsets ~neighbors =
  if n = 0 then invalid_arg "Diameter.exact: empty graph";
  let e = bfs s ~n ~offsets ~neighbors (hub ~n ~offsets) in
  if 2 * e <= beat then { lower = e; upper = 2 * e }
  else
    let lower = bfs s ~n ~offsets ~neighbors s.queue.(n - 1) in
    { lower; upper = (if is_tree ~n ~offsets then lower else 2 * e) }

let exact_csr ?(beat = -1) s ~n ~offsets ~neighbors =
  if n = 0 then invalid_arg "Diameter.exact: empty graph";
  let { dist; queue; lo; hi; is_open } = s in
  Array.fill lo 0 n 0;
  Array.fill hi 0 n max_int;
  Array.fill is_open 0 n true;
  let degree w = offsets.(w + 1) - offsets.(w) in
  let select ~high =
    let best = ref (-1) in
    for w = 0 to n - 1 do
      if is_open.(w) then
        let b = !best in
        if
          b < 0
          ||
          let kw = if high then hi.(w) else -lo.(w) and kb = if high then hi.(b) else -lo.(b) in
          kw > kb || (kw = kb && degree w > degree b)
        then best := w
    done;
    !best
  in
  let diameter = ref 0 and cap = ref max_int and remaining = ref n in
  let sources = ref 0 and high = ref false and tree = is_tree ~n ~offsets in
  (* [remaining] counts the open vertices that could still lift the
     result above [beat]; once [cap <= beat] none can. Sources are picked
     among all open vertices, so [beat] only ever stops the loop early. *)
  while !remaining > 0 && !diameter < !cap && !cap > beat do
    let v =
      match !sources with
      | 0 -> hub ~n ~offsets
      | 1 -> queue.(n - 1)
      | _ ->
          let v = select ~high:!high in
          high := not !high;
          v
    in
    incr sources;
    let e = bfs s ~n ~offsets ~neighbors v in
    if e > !diameter then diameter := e;
    if 2 * e < !cap then cap := 2 * e;
    if !sources = 2 && tree then cap := !diameter;
    let settled = if !diameter > beat then !diameter else beat in
    remaining := 0;
    for w = 0 to n - 1 do
      if is_open.(w) then begin
        let d = dist.(w) in
        let l = if d > e - d then d else e - d and h = e + d in
        if l > lo.(w) then lo.(w) <- l;
        if h < hi.(w) then hi.(w) <- h;
        if hi.(w) <= !diameter then is_open.(w) <- false
        else if hi.(w) > settled then incr remaining
      end
    done
  done;
  !diameter

let exact g =
  let n = Graph.n g in
  exact_csr (scratch n) ~n
    ~offsets:(Intvec.to_array (Graph.csr_offsets g))
    ~neighbors:(Intvec.to_array (Graph.csr_neighbors g))

let estimate ?(sweeps = 4) g =
  if Graph.n g = 0 then invalid_arg "Diameter.estimate: empty graph";
  let lower = ref 0 and upper = ref max_int in
  let v = ref 0 in
  for _ = 1 to sweeps do
    let far, ecc = Bfs.farthest g !v in
    if ecc > !lower then lower := ecc;
    if 2 * ecc < !upper then upper := 2 * ecc;
    v := far
  done;
  { lower = !lower; upper = max !lower !upper }

let of_graph ?(exact_limit = 2048) g =
  if Graph.n g <= exact_limit then exact g else (estimate g).lower
