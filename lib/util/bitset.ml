type t = { capacity : int; words : Bytes.t; mutable cardinal : int }

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create";
  { capacity; words = Bytes.make ((capacity + 7) / 8) '\000'; cardinal = 0 }

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  Char.code (Bytes.unsafe_get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  check t i;
  let byte = i lsr 3 and bit = 1 lsl (i land 7) in
  let current = Char.code (Bytes.unsafe_get t.words byte) in
  if current land bit = 0 then begin
    Bytes.unsafe_set t.words byte (Char.unsafe_chr (current lor bit));
    t.cardinal <- t.cardinal + 1
  end

let remove t i =
  check t i;
  let byte = i lsr 3 and bit = 1 lsl (i land 7) in
  let current = Char.code (Bytes.unsafe_get t.words byte) in
  if current land bit <> 0 then begin
    Bytes.unsafe_set t.words byte (Char.unsafe_chr (current land lnot bit));
    t.cardinal <- t.cardinal - 1
  end

let cardinal t = t.cardinal

let clear t =
  Bytes.fill t.words 0 (Bytes.length t.words) '\000';
  t.cardinal <- 0

let copy t =
  { capacity = t.capacity; words = Bytes.copy t.words; cardinal = t.cardinal }

let iter f t =
  for byte = 0 to Bytes.length t.words - 1 do
    let w = Char.code (Bytes.unsafe_get t.words byte) in
    if w <> 0 then
      for bit = 0 to 7 do
        if w land (1 lsl bit) <> 0 then f ((byte lsl 3) lor bit)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list capacity elements =
  let t = create capacity in
  List.iter (add t) elements;
  t

let union_into dst src =
  if dst.capacity <> src.capacity then invalid_arg "Bitset.union_into";
  let card = ref 0 in
  for byte = 0 to Bytes.length dst.words - 1 do
    let merged =
      Char.code (Bytes.unsafe_get dst.words byte)
      lor Char.code (Bytes.unsafe_get src.words byte)
    in
    Bytes.unsafe_set dst.words byte (Char.unsafe_chr merged);
    (* popcount of a byte *)
    let rec count w acc = if w = 0 then acc else count (w lsr 1) (acc + (w land 1)) in
    card := !card + count merged 0
  done;
  dst.cardinal <- !card

let inter_cardinal a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.inter_cardinal";
  let total = ref 0 in
  for byte = 0 to Bytes.length a.words - 1 do
    let w =
      Char.code (Bytes.unsafe_get a.words byte)
      land Char.code (Bytes.unsafe_get b.words byte)
    in
    let rec count w acc = if w = 0 then acc else count (w lsr 1) (acc + (w land 1)) in
    total := !total + count w 0
  done;
  !total
