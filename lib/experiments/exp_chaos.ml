open Core

(* E20 — chaos campaign over part-wise aggregation.

   One row per (subject, plan): the verdict sweep across the intensity
   ladder, the bisected failure threshold, and — when a cell fails — the
   delta-debugged minimal plan that still reproduces the failure. The raw
   (non-ARQ) transport is the subject under test: loss genuinely
   diverges min-flooding there, so the campaign finds real thresholds
   instead of reporting that the reliable transport absorbs
   everything. *)

let partition_plan ~g ~seed =
  (* Temporarily sever every edge crossing the {v < n/2} cut: a
     graph-agnostic way to disconnect any connected graph for a while. *)
  let half = Graph.n g / 2 in
  let cut = ref [] in
  Graph.iter_edges g (fun e u v ->
      if (u < half) <> (v < half) then cut := e :: !cut);
  {
    Fault.empty with
    Fault.seed;
    default = { Fault.reliable_edge with Fault.drop = 0.01 };
    edges =
      List.rev_map
        (fun e ->
          (e, { Fault.reliable_edge with Fault.drop = 0.01; down = [ (4, 12) ] }))
        !cut;
  }

let default_plans g =
  [
    ("light_loss", Exp_faults.light_loss_plan ~seed:7);
    ("crash_heavy", Exp_faults.crash_heavy_plan ~seed:11 ~n:(Graph.n g));
    ("partition", partition_plan ~g ~seed:23);
  ]

let sweep_cell pt =
  (* "cc" / "dF" ...: one letter per seed, uppercase = failure *)
  String.concat ""
    (List.map
       (fun (_, v) ->
         match (v : Chaos.verdict) with
         | Chaos.Complete -> "c"
         | Chaos.Degraded_valid -> "d"
         | Chaos.Failed -> "F"
         | Chaos.Wrong_answer -> "W")
       pt.Chaos.verdicts)

let plan_summary (p : Fault.plan) =
  Printf.sprintf "crashes=%d overrides=%d drop=%.3g"
    (List.length p.Fault.crashes)
    (List.length p.Fault.edges)
    p.Fault.default.Fault.drop

let e20 ?(seed = 1) () =
  let subjects_plans =
    let grid = Generators.grid ~rows:6 ~cols:6 in
    let ktree = Generators.k_tree (Rng.create (seed + 40)) ~k:4 ~n:48 in
    [
      ( Chaos.pa_subject ~name:"grid:6 raw" ~graph:grid
          ~partition:(Partition.grid_rows grid ~rows:6 ~cols:6)
          (),
        grid );
      ( Chaos.pa_subject ~name:"ktree:4,48 raw" ~graph:ktree
          ~partition:(Partition.voronoi ktree (Rng.create (seed + 41)) ~parts:6)
          (),
        ktree );
    ]
  in
  let intensities = [ 0.5; 1.0; 2.0; 4.0 ] in
  let seeds = [ seed; seed + 1 ] in
  let table =
    Table.create ~title:"Chaos campaign: part-wise aggregation under scaled fault plans"
      ([ ("subject", Table.Left); ("plan", Table.Left) ]
      @ List.map
          (fun t -> (Printf.sprintf "x%g" t, Table.Left))
          intensities
      @ [
          ("threshold", Table.Right);
          ("probes", Table.Right);
          ("minimal plan", Table.Left);
        ])
  in
  let campaigns =
    List.map
      (fun (subject, g) ->
        Chaos.campaign ~intensities ~seeds ~search_iters:4 ~shrink:true
          ~plans:(default_plans g) ~subjects:[ subject ] ())
      subjects_plans
  in
  List.iter
    (fun (c : Chaos.t) ->
      List.iter
        (fun (case : Chaos.case) ->
          Table.add_row table
            ([ case.Chaos.subject; case.Chaos.plan_name ]
            @ List.map sweep_cell case.Chaos.sweep
            @ [
                (match case.Chaos.threshold with
                | None -> "-"
                | Some t -> Printf.sprintf "%.3f" t);
                (match case.Chaos.shrunk with
                | None -> "-"
                | Some s -> string_of_int s.Chaos.probes);
                (match case.Chaos.shrunk with
                | None -> "-"
                | Some s -> plan_summary s.Chaos.minimal);
              ]))
        c.Chaos.cases)
    campaigns;
  {
    Exp_types.id = "E20";
    title = "Chaos campaign: failure thresholds and shrunk fault plans";
    table;
    notes =
      [
        "verdict letters per seed: c=complete d=degraded-valid F=failed W=wrong-answer";
        "raw transport (no ARQ): drop faults genuinely diverge min-flooding";
        "threshold: lowest known-failing intensity after 4 bisection steps";
        "minimal plan: greedy delta-debugging fixpoint at the first failing cell";
      ];
  }
