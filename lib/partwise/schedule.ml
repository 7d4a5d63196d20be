type policy = Random_delay | Fifo | Static_order

let delays policy rng ~parts ~max_delay =
  match policy with
  | Random_delay -> Array.init parts (fun _ -> Lcs_util.Rng.int rng (max 1 max_delay))
  | Fifo -> Array.make parts 0
  | Static_order -> Array.init parts (fun i -> i)

let epochs ~max_delay ~rounds =
  let len = max 1 max_delay in
  let acc = ref [] in
  let start = ref 1 in
  while !start <= rounds do
    let stop = min rounds (!start + len - 1) in
    acc := (!start, stop) :: !acc;
    start := stop + 1
  done;
  List.rev !acc

let to_string = function
  | Random_delay -> "random-delay"
  | Fifo -> "fifo"
  | Static_order -> "static-order"
