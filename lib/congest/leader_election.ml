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

let run ?diameter_bound ?tracer g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Leader_election.run: empty graph";
  let budget = (match diameter_bound with Some d -> d | None -> n - 1) + 1 in
  let program = make_program ~budget in
  let states, stats = Simulator.run ?tracer g program in
  let leader = states.(0).best in
  Array.iter
    (fun st -> if st.best <> leader then failwith "Leader_election: disagreement")
    states;
  (leader, stats)

(* --- Fault-tolerant entry point ------------------------------------------ *)

type report = {
  leader : int;  (** the winning candidate among survivors *)
  dissenters : int list;  (** surviving nodes holding a different id *)
  stats : Simulator.stats;
}

let run_outcome ?diameter_bound ?tracer ?faults g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Leader_election.run_outcome: empty graph";
  let budget = (match diameter_bound with Some d -> d | None -> n - 1) + 1 in
  (* Flooding is idempotent-max, so duplicates and reordering are already
     harmless; the protocol runs raw and only loss within the round budget
     (or a crash) can leave survivors disagreeing — which the validator
     detects instead of the fault-free path's [failwith]. *)
  let program = make_program ~budget in
  let states, out_of_rounds, stats =
    match Simulator.run_outcome ?tracer ?faults g program with
    | Simulator.Finished (states, stats) -> (states, false, stats)
    | Simulator.Out_of_rounds (states, p) -> (states, true, p.Simulator.partial_stats)
  in
  let crashed = match faults with None -> [] | Some inj -> Fault.crashed_nodes inj in
  let is_crashed = Array.make n false in
  List.iter (fun v -> if v < n then is_crashed.(v) <- true) crashed;
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
  let report = { leader; dissenters; stats } in
  Outcome.classify report
    {
      Outcome.crashed;
      unresponsive = [];
      affected = dissenters;
      out_of_rounds;
      rounds = stats.Simulator.rounds;
    }
