type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64: used to expand the seed into the four xoshiro words and to
   derive split streams. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let state = ref seed64 in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let create seed = of_seed64 (Int64.of_int seed)

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = add (rotl (add t.s0 t.s3) 23) t.s0 in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t = of_seed64 (bits64 t)
let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let mask = Int64.max_int in
  let rec draw () =
    let r = Int64.logand (bits64 t) mask in
    let v = Int64.rem r bound64 in
    if Int64.sub r v > Int64.sub (Int64.sub mask bound64) 1L then draw ()
    else Int64.to_int v
  in
  draw ()

let uniform01 t =
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r *. 0x1.0p-53

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if p <= 0. then false
  else if p >= 1. then true
  else uniform01 t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Partial Fisher–Yates over a lazily materialized identity array. *)
  let tbl = Hashtbl.create (2 * k) in
  let get i = match Hashtbl.find_opt tbl i with Some v -> v | None -> i in
  Array.init k (fun i ->
      let j = i + int t (n - i) in
      let vi = get i and vj = get j in
      Hashtbl.replace tbl j vi;
      Hashtbl.replace tbl i vj;
      vj)
