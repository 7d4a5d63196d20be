(* A flat int vector on a Bigarray payload. The data lives outside the
   OCaml heap, so the GC neither scans nor copies it — a 100M-entry vector
   costs the minor heap nothing and the major heap one small record. This
   is the storage substrate for the graph layer's CSR arrays and the
   binary graph format: on 64-bit little-endian platforms the payload's
   memory image *is* the on-disk int64 section, which is what makes
   mmap-backed graphs possible (Unix.map_file yields exactly this array
   type).

   [len] tracks the logical length; the payload beyond it is scratch.
   Frozen views ({!freeze}, {!of_bigarray}, {!sub_view}) share the payload
   with their source, so growing the source never mutates entries a view
   can see: [push] either writes beyond every frozen [len] or reallocates,
   leaving the old payload intact. *)

type payload = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { mutable data : payload; mutable len : int }

let alloc n : payload = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let empty_payload = alloc 0

let create ?(capacity = 0) () =
  if capacity < 0 then invalid_arg "Intvec.create: negative capacity";
  { data = (if capacity = 0 then empty_payload else alloc capacity); len = 0 }

let make n x =
  if n < 0 then invalid_arg "Intvec.make: negative length";
  let data = alloc n in
  Bigarray.Array1.fill data x;
  { data; len = n }

let init n f =
  if n < 0 then invalid_arg "Intvec.init: negative length";
  let data = alloc n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set data i (f i)
  done;
  { data; len = n }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Intvec.get: index out of bounds";
  Bigarray.Array1.unsafe_get t.data i

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Intvec.set: index out of bounds";
  Bigarray.Array1.unsafe_set t.data i x

let unsafe_get t i = Bigarray.Array1.unsafe_get t.data i
let unsafe_set t i x = Bigarray.Array1.unsafe_set t.data i x

let push t x =
  let cap = Bigarray.Array1.dim t.data in
  if t.len = cap then begin
    let cap' = if cap = 0 then 16 else 2 * cap in
    let data' = alloc cap' in
    if t.len > 0 then
      Bigarray.Array1.blit t.data (Bigarray.Array1.sub data' 0 t.len);
    t.data <- data'
  end;
  Bigarray.Array1.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let freeze t = { data = t.data; len = t.len }

let of_bigarray data = { data; len = Bigarray.Array1.dim data }

let sub_view t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Intvec.sub_view: range out of bounds";
  { data = Bigarray.Array1.sub t.data pos len; len }

let to_array t = Array.init t.len (fun i -> Bigarray.Array1.unsafe_get t.data i)

let sub_array t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Intvec.sub_array: range out of bounds";
  Array.init len (fun i -> Bigarray.Array1.unsafe_get t.data (pos + i))

let iter f t =
  for i = 0 to t.len - 1 do
    f (Bigarray.Array1.unsafe_get t.data i)
  done

(* In-place quicksort of [key] over [pos, pos+len), carrying [aux] through
   the same permutation. Median-of-three pivots and recursion on the
   smaller half keep the stack logarithmic; short runs finish by insertion
   sort. Used to neighbor-sort CSR rows, where keys within a range are
   distinct in any well-formed input. *)
let sort2 key aux ~pos ~len =
  if pos < 0 || len < 0 || pos + len > key.len || pos + len > aux.len then
    invalid_arg "Intvec.sort2: range out of bounds";
  let kd = key.data and ad = aux.data in
  let swap i j =
    let ki = Bigarray.Array1.unsafe_get kd i in
    Bigarray.Array1.unsafe_set kd i (Bigarray.Array1.unsafe_get kd j);
    Bigarray.Array1.unsafe_set kd j ki;
    let ai = Bigarray.Array1.unsafe_get ad i in
    Bigarray.Array1.unsafe_set ad i (Bigarray.Array1.unsafe_get ad j);
    Bigarray.Array1.unsafe_set ad j ai
  in
  let insertion lo hi =
    for i = lo + 1 to hi do
      let k = Bigarray.Array1.unsafe_get kd i
      and a = Bigarray.Array1.unsafe_get ad i in
      let j = ref (i - 1) in
      while !j >= lo && Bigarray.Array1.unsafe_get kd !j > k do
        Bigarray.Array1.unsafe_set kd (!j + 1) (Bigarray.Array1.unsafe_get kd !j);
        Bigarray.Array1.unsafe_set ad (!j + 1) (Bigarray.Array1.unsafe_get ad !j);
        decr j
      done;
      Bigarray.Array1.unsafe_set kd (!j + 1) k;
      Bigarray.Array1.unsafe_set ad (!j + 1) a
    done
  in
  let rec qsort lo hi =
    if hi - lo < 16 then (if hi > lo then insertion lo hi)
    else begin
      let mid = lo + ((hi - lo) / 2) in
      (* Order lo/mid/hi, leaving the median at mid. *)
      if Bigarray.Array1.unsafe_get kd mid < Bigarray.Array1.unsafe_get kd lo then
        swap mid lo;
      if Bigarray.Array1.unsafe_get kd hi < Bigarray.Array1.unsafe_get kd lo then
        swap hi lo;
      if Bigarray.Array1.unsafe_get kd hi < Bigarray.Array1.unsafe_get kd mid then
        swap hi mid;
      let pivot = Bigarray.Array1.unsafe_get kd mid in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while Bigarray.Array1.unsafe_get kd !i < pivot do
          incr i
        done;
        while Bigarray.Array1.unsafe_get kd !j > pivot do
          decr j
        done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      (* Recurse on the smaller side first to bound the stack. *)
      if !j - lo < hi - !i then begin
        qsort lo !j;
        qsort !i hi
      end
      else begin
        qsort !i hi;
        qsort lo !j
      end
    end
  in
  if len > 1 then qsort pos (pos + len - 1)
