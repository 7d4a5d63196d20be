module Json = Lcs_util.Json
module Rng = Lcs_util.Rng
module Graph = Lcs_graph.Graph
module Bfs = Lcs_graph.Bfs
module Fault = Lcs_congest.Fault
module Outcome = Lcs_congest.Outcome
module Boost = Lcs_shortcut.Boost
module Aggregate = Lcs_partwise.Aggregate
module Sim_aggregate = Lcs_partwise.Sim_aggregate

let schema = "lcs-chaos-report/1"

type verdict = Complete | Degraded_valid | Failed | Wrong_answer

let is_failure = function
  | Failed | Wrong_answer -> true
  | Complete | Degraded_valid -> false

let verdict_to_string = function
  | Complete -> "complete"
  | Degraded_valid -> "degraded_valid"
  | Failed -> "failed"
  | Wrong_answer -> "wrong_answer"

type subject = { name : string; run : plan:Fault.plan -> seed:int -> verdict }

let pa_subject ?(reliable = false) ~name ~graph ~partition () =
  let tree = Bfs.tree graph ~root:0 in
  let sc = (Boost.full partition ~tree).Boost.shortcut in
  let prepared = Sim_aggregate.prepare sc in
  let n = Graph.n graph and m = Graph.m graph in
  let run ~plan ~seed =
    let plan = Fault.clip ~nodes:n ~edges:m plan in
    let vrng = Rng.create (seed + 5) in
    let values = Array.init n (fun _ -> Rng.int vrng 1_000_000) in
    match
      Sim_aggregate.minimum_outcome ~prepared ~reliable
        ~faults:(Fault.compile ~seed plan)
        (Rng.create (seed + 7))
        sc ~values
    with
    | exception _ -> Failed
    | Outcome.Complete r ->
        if r.Sim_aggregate.minima = Aggregate.reference_minima sc ~values then
          Complete
        else Wrong_answer
    | Outcome.Degraded (r, d) ->
        if r.Sim_aggregate.diverged <> [] then Wrong_answer
        else if d.Outcome.out_of_rounds then Failed
        else Degraded_valid
  in
  { name; run }

(* --- Shrinking ------------------------------------------------------------ *)

let drop_nth xs i = List.filteri (fun j _ -> j <> i) xs

(* One-step reductions of an edge profile, in the fixed order the shrinker
   commits to: interval removals, then zeroings, then halvings. *)
let profile_reductions (f : Fault.edge_faults) =
  List.init (List.length f.down) (fun i ->
      { f with Fault.down = drop_nth f.down i })
  @ (if f.Fault.drop > 0. then [ { f with Fault.drop = 0. } ] else [])
  @ (if f.Fault.duplicate > 0. then [ { f with Fault.duplicate = 0. } ] else [])
  @ (if f.Fault.reorder > 0. then [ { f with Fault.reorder = 0. } ] else [])
  @ (if f.Fault.delay > 0 then [ { f with Fault.delay = 0 } ] else [])
  @ (if f.Fault.drop > 1e-3 then [ { f with Fault.drop = f.Fault.drop /. 2. } ]
     else [])
  @ (if f.Fault.duplicate > 1e-3 then
       [ { f with Fault.duplicate = f.Fault.duplicate /. 2. } ]
     else [])
  @ (if f.Fault.reorder > 1e-3 then
       [ { f with Fault.reorder = f.Fault.reorder /. 2. } ]
     else [])
  @ if f.Fault.delay > 1 then [ { f with Fault.delay = f.Fault.delay / 2 } ] else []

let plan_reductions (p : Fault.plan) =
  let set_edge i f =
    { p with Fault.edges = List.mapi (fun j (e, g) -> if j = i then (e, f) else (e, g)) p.Fault.edges }
  in
  List.init (List.length p.Fault.crashes) (fun i ->
      { p with Fault.crashes = drop_nth p.Fault.crashes i })
  @ List.init (List.length p.Fault.edges) (fun i ->
        { p with Fault.edges = drop_nth p.Fault.edges i })
  @ List.map (fun f -> { p with Fault.default = f }) (profile_reductions p.Fault.default)
  @ List.concat
      (List.mapi
         (fun i (_, f) -> List.map (set_edge i) (profile_reductions f))
         p.Fault.edges)

let canonicalize (p : Fault.plan) =
  {
    p with
    Fault.edges = List.sort (fun (a, _) (b, _) -> compare a b) p.Fault.edges;
    Fault.crashes =
      List.sort
        (fun (a : Fault.crash) (b : Fault.crash) ->
          compare (a.round, a.node) (b.round, b.node))
        p.Fault.crashes;
  }

let shrink subject ~seed plan =
  let probes = ref 0 in
  let fails p =
    incr probes;
    is_failure (subject.run ~plan:p ~seed)
  in
  if not (fails plan) then None
  else
    let rec improve p =
      match List.find_opt fails (plan_reductions p) with
      | Some smaller -> improve smaller
      | None -> p
    in
    let minimal = canonicalize (improve plan) in
    Some (minimal, !probes)

let shrink_plan = shrink

(* --- Campaigns ------------------------------------------------------------ *)

type sweep_point = { intensity : float; verdicts : (int * verdict) list }
type shrunk = { minimal : Fault.plan; probes : int }

type case = {
  subject : string;
  plan_name : string;
  base_plan : Fault.plan;
  sweep : sweep_point list;
  threshold : float option;
  witness : (float * int) option;
  shrunk : shrunk option;
}

type t = { intensities : float list; seeds : int list; cases : case list }

let campaign ?(intensities = [ 0.25; 0.5; 1.0; 2.0; 4.0 ]) ?(seeds = [ 1; 2 ])
    ?(search_iters = 6) ?(shrink = false) ~plans ~subjects () =
  let want_shrink = shrink in
  let run_case subject (plan_name, base_plan) =
    let cell intensity seed =
      subject.run ~plan:(Fault.scale intensity base_plan) ~seed
    in
    let sweep =
      List.map
        (fun intensity ->
          { intensity; verdicts = List.map (fun s -> (s, cell intensity s)) seeds })
        intensities
    in
    (* first failing cell, in ladder-then-seed order *)
    let witness =
      List.find_map
        (fun pt ->
          List.find_map
            (fun (s, v) -> if is_failure v then Some (pt.intensity, s) else None)
            pt.verdicts)
        sweep
    in
    let threshold =
      match witness with
      | None -> None
      | Some (hi0, _) ->
          let fails t = List.exists (fun s -> is_failure (cell t s)) seeds in
          let lo0 =
            List.fold_left
              (fun acc pt ->
                if pt.intensity < hi0
                   && List.for_all (fun (_, v) -> not (is_failure v)) pt.verdicts
                then max acc pt.intensity
                else acc)
              0. sweep
          in
          let lo = ref lo0 and hi = ref hi0 in
          for _ = 1 to search_iters do
            let mid = (!lo +. !hi) /. 2. in
            if fails mid then hi := mid else lo := mid
          done;
          Some !hi
    in
    let shrunk =
      match witness with
      | Some (intensity, seed) when want_shrink ->
          Option.map
            (fun (minimal, probes) -> { minimal; probes })
            (shrink_plan subject ~seed (Fault.scale intensity base_plan))
      | _ -> None
    in
    { subject = subject.name; plan_name; base_plan; sweep; threshold; witness; shrunk }
  in
  let cases =
    List.concat_map (fun s -> List.map (run_case s) plans) subjects
  in
  { intensities; seeds; cases }

(* --- JSON ----------------------------------------------------------------- *)

let sweep_point_to_json pt =
  Json.Obj
    [
      ("intensity", Json.Float pt.intensity);
      ( "verdicts",
        Json.List
          (List.map
             (fun (s, v) ->
               Json.Obj
                 [
                   ("seed", Json.Int s);
                   ("verdict", Json.String (verdict_to_string v));
                 ])
             pt.verdicts) );
    ]

let case_to_json c =
  Json.Obj
    [
      ("subject", Json.String c.subject);
      ("plan", Json.String c.plan_name);
      ("base_plan", Fault.plan_to_json c.base_plan);
      ("sweep", Json.List (List.map sweep_point_to_json c.sweep));
      ( "threshold",
        match c.threshold with None -> Json.Null | Some t -> Json.Float t );
      ( "witness",
        match c.witness with
        | None -> Json.Null
        | Some (intensity, seed) ->
            Json.Obj [ ("intensity", Json.Float intensity); ("seed", Json.Int seed) ]
      );
      ( "shrink",
        match c.shrunk with
        | None -> Json.Null
        | Some s ->
            Json.Obj
              [
                ("probes", Json.Int s.probes);
                ("minimal", Fault.plan_to_json s.minimal);
              ] );
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("intensities", Json.List (List.map (fun x -> Json.Float x) t.intensities));
      ("seeds", Json.List (List.map (fun s -> Json.Int s) t.seeds));
      ("cases", Json.List (List.map case_to_json t.cases));
    ]
