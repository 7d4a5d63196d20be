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
   and one queue, held in a scratch that any number of graphs of at most
   its size can share. *)
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

let exact_csr ?(beat = -1) s ~n ~offsets ~neighbors =
  if n = 0 then invalid_arg "Diameter.exact: empty graph";
  let { dist; queue; lo; hi; is_open } = s in
  Array.fill lo 0 n 0;
  Array.fill hi 0 n max_int;
  Array.fill is_open 0 n true;
  let degree w = offsets.(w + 1) - offsets.(w) in
  let bfs src =
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
          kw > kb || (kw = kb && degree w > degree b)
        then best := w
    done;
    !best
  in
  let diameter = ref 0 and cap = ref max_int and remaining = ref n and high = ref true in
  (* [remaining] counts the open vertices that could still lift the
     result above [beat]; once [cap <= beat] none can. Sources are picked
     among all open vertices, so [beat] only ever stops the loop early. *)
  while !remaining > 0 && !diameter < !cap && !cap > beat do
    let v = select ~high:!high in
    high := not !high;
    let e = bfs v in
    if e > !diameter then diameter := e;
    if 2 * e < !cap then cap := 2 * e;
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
