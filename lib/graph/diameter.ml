module Intvec = Lcs_util.Intvec

(* Exact diameter by eccentricity-bound pruning (BoundingDiameters,
   Takes & Kosters 2011). A BFS from [v] yields ecc(v) and, by the
   triangle inequality, bounds every [w]:
     max(d(v,w), ecc(v) - d(v,w)) <= ecc(w) <= ecc(v) + d(v,w).
   The diameter is the largest eccentricity, so a vertex whose upper bound
   is at most the largest eccentricity found so far can never raise it;
   once no vertex is left open, that eccentricity is the diameter. It is
   also the diameter as soon as it reaches 2·ecc(v) for some source [v].
   Sources alternate between the open vertex with the largest upper bound
   (it may raise the diameter) and the one with the smallest lower bound
   (a central vertex, which tightens every upper bound); ties go to the
   higher degree, then the lower id. Every BFS reuses one distance array
   and one queue. *)
let exact g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Diameter.exact: empty graph";
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let degree = Array.init n (Graph.degree g) in
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  let lo = Array.make n 0 and hi = Array.make n max_int in
  let is_open = Array.make n true in
  let bfs src =
    Array.fill dist 0 n (-1);
    dist.(src) <- 0;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      let dv = dist.(v) + 1 in
      for slot = Intvec.unsafe_get off v to Intvec.unsafe_get off (v + 1) - 1 do
        let w = Intvec.unsafe_get nbr slot in
        if dist.(w) < 0 then begin
          dist.(w) <- dv;
          queue.(!tail) <- w;
          incr tail
        end
      done
    done;
    if !tail < n then invalid_arg "Diameter.exact: graph is disconnected";
    (* BFS order is by distance: the last vertex queued is the farthest. *)
    dist.(queue.(n - 1))
  in
  let select ~high =
    let best = ref (-1) in
    for w = 0 to n - 1 do
      if is_open.(w) then
        let b = !best in
        if
          b < 0
          ||
          let kw = if high then hi.(w) else -lo.(w) and kb = if high then hi.(b) else -lo.(b) in
          kw > kb || (kw = kb && degree.(w) > degree.(b))
        then best := w
    done;
    !best
  in
  let diameter = ref 0 and cap = ref max_int and remaining = ref n and high = ref true in
  while !remaining > 0 && !diameter < !cap do
    let v = select ~high:!high in
    high := not !high;
    let e = bfs v in
    if e > !diameter then diameter := e;
    if 2 * e < !cap then cap := 2 * e;
    remaining := 0;
    for w = 0 to n - 1 do
      if is_open.(w) then begin
        let d = dist.(w) in
        let l = if d > e - d then d else e - d and h = e + d in
        if l > lo.(w) then lo.(w) <- l;
        if h < hi.(w) then hi.(w) <- h;
        if hi.(w) <= !diameter then is_open.(w) <- false else incr remaining
      end
    done
  done;
  !diameter

type bounds = { lower : int; upper : int }

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
