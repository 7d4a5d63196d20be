module Graph = Lcs_graph.Graph

type state = { best : int; announce : bool; budget : int; finished : bool }

let make_program ~budget =
  {
    Simulator.init =
      (fun ctx -> { best = ctx.Simulator.node; announce = true; budget; finished = false });
    on_round =
      (fun ctx st mb ->
        let st = ref st in
        for i = 0 to Simulator.deliveries mb - 1 do
          let id = Simulator.payload mb i in
          if id > !st.best then st := { !st with best = id; announce = true }
        done;
        let st = !st in
        if Simulator.round ctx > st.budget then { st with finished = true }
        else if st.announce then begin
          for p = 0 to Array.length ctx.Simulator.neighbors - 1 do
            Simulator.send mb p st.best
          done;
          { st with announce = false }
        end
        else st)
    ;
    is_halted = (fun st -> st.finished);
    (* A quiet node only has to wake to halt after the budget. *)
    wake = (fun st -> if st.announce then Simulator.every_round else st.budget + 1);
    msg_words = (fun _ -> 1);
  }

type report = {
  leader : int;  (** the winning candidate among survivors *)
  dissenters : int list;  (** surviving nodes holding a different id *)
  stats : Simulator.stats;
}

(* The one election behind both entry points. Flooding is idempotent-max,
   so duplicates and reordering are already harmless; the protocol runs
   raw and only loss within the round budget (or a crash) can leave
   survivors disagreeing, which the validator reports. *)
let elect ~budget ?tracer ?faults g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Leader_election: empty graph";
  let states, stats, degradation =
    Simulator.settle ?faults
      (Simulator.run_outcome ?tracer ?faults g (make_program ~budget))
  in
  let is_crashed = Array.make n false in
  List.iter (fun v -> if v < n then is_crashed.(v) <- true) degradation.Outcome.crashed;
  (* Majority candidate among survivors, ties to the larger id. *)
  let tally = Hashtbl.create 8 in
  Array.iteri
    (fun v st ->
      if not is_crashed.(v) then
        Hashtbl.replace tally st.best
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally st.best)))
    states;
  let leader =
    Hashtbl.fold
      (fun id count (best_id, best_count) ->
        if count > best_count || (count = best_count && id > best_id) then (id, count)
        else (best_id, best_count))
      tally (-1, 0)
    |> fst
  in
  let dissenters = ref [] in
  for v = n - 1 downto 0 do
    if (not is_crashed.(v)) && states.(v).best <> leader then dissenters := v :: !dissenters
  done;
  let dissenters = !dissenters in
  Outcome.classify { leader; dissenters; stats }
    { degradation with Outcome.affected = dissenters }

let run ?diameter_bound ?tracer g =
  let bound = match diameter_bound with Some d -> d | None -> Graph.n g - 1 in
  match elect ~budget:(bound + 1) ?tracer g with
  | Outcome.Complete r -> (r.leader, r.stats)
  | Outcome.Degraded (_, { Outcome.out_of_rounds = true; rounds; _ }) ->
      raise (Simulator.Round_limit rounds)
  | Outcome.Degraded _ -> failwith "Leader_election: disagreement"

(* The always-safe diameter bound n - 1, plus one round. *)
let run_outcome ?tracer ?faults g = elect ~budget:(Graph.n g) ?tracer ?faults g
