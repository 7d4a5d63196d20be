module Json = Lcs_util.Json

type degradation = {
  crashed : int list;
  unresponsive : (int * int) list;
  affected : int list;
  out_of_rounds : bool;
  rounds : int;
}

type 'a t = Complete of 'a | Degraded of 'a * degradation

let no_degradation =
  { crashed = []; unresponsive = []; affected = []; out_of_rounds = false; rounds = 0 }

let is_clean d =
  d.crashed = [] && d.unresponsive = [] && d.affected = [] && not d.out_of_rounds

let classify value d = if is_clean d then Complete value else Degraded (value, d)
let value = function Complete v -> v | Degraded (v, _) -> v
let is_complete = function Complete _ -> true | Degraded _ -> false

let degradation = function
  | Complete _ -> None
  | Degraded (_, d) -> Some d

let degradation_to_json d =
  Json.Obj
    [
      ("crashed", Json.List (List.map (fun v -> Json.Int v) d.crashed));
      ( "unresponsive",
        Json.List
          (List.map
             (fun (v, w) -> Json.List [ Json.Int v; Json.Int w ])
             d.unresponsive) );
      ("affected", Json.List (List.map (fun v -> Json.Int v) d.affected));
      ("out_of_rounds", Json.Bool d.out_of_rounds);
      ("rounds", Json.Int d.rounds);
    ]
