(* Library fingerprints: every protocol entry point that runs on the
   CONGEST simulator, on three small hosts, at one and two domains. Each
   fingerprint pins the run's statistics, a digest of its result and a
   digest of its traced event stream (every event serialized as in the
   trace schema). The expected values are those of a simulator that steps
   every live node in every round, so a core that skips sleeping nodes or
   idle rounds must reproduce them exactly; the sum and mst rows, which
   came later, were recorded on the sleeping-node core. An untraced run
   of the same case must reproduce the stats and result digest too, so
   both delivery paths are pinned: the sharded untraced one and the
   traced one, which runs on one shard. Borůvka runs at one and two
   domains and must fingerprint the same at both. *)

open Core

let check = Alcotest.check
let case = Alcotest.test_case

let plan_path =
  Filename.concat (Filename.dirname Sys.executable_name) "../plans/light_loss.json"

let light_loss () =
  match Fault.load_plan plan_path with Ok p -> p | Error e -> Alcotest.fail e

(* --- hosts --------------------------------------------------------------- *)

type host = { hname : string; g : Graph.t; parts : Partition.t }

let hosts =
  lazy
    (let grid =
       let g = Generators.grid ~rows:8 ~cols:8 in
       { hname = "grid8"; g; parts = Partition.grid_rows g ~rows:8 ~cols:8 }
     in
     let ktree =
       let rng = Rng.create 41 in
       let g = Generators.k_tree rng ~k:4 ~n:120 in
       { hname = "ktree4_120"; g; parts = Partition.voronoi g rng ~parts:8 }
     in
     let lbg =
       let lb = Lower_bound_graph.create ~delta':5 ~d':11 in
       { hname = "lbg5_11"; g = lb.Lower_bound_graph.graph; parts = lb.Lower_bound_graph.parts }
     in
     [ grid; ktree; lbg ])

let values_of h = Array.init (Graph.n h.g) (fun v -> ((v * 7919) + 13) mod 1009)

let shortcut_of h =
  let tree = Bfs.tree h.g ~root:0 in
  (Boost.full h.parts ~tree).Boost.shortcut

(* --- digests --------------------------------------------------------------- *)

let short s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let stats_str (s : Simulator.stats) =
  Printf.sprintf "r%d m%d w%d l%d" s.Simulator.rounds s.Simulator.messages s.Simulator.words
    s.Simulator.max_edge_load

let outcome_str kind = function
  | Outcome.Complete r -> "complete:" ^ kind r
  | Outcome.Degraded (r, d) ->
      Printf.sprintf "degraded:%s:c%s:u%d:a%s:o%b:r%d" (kind r)
        (String.concat "," (List.map string_of_int d.Outcome.crashed))
        (List.length d.Outcome.unresponsive)
        (String.concat "," (List.map string_of_int d.Outcome.affected))
        d.Outcome.out_of_rounds d.Outcome.rounds

(* A case runs one entry point with an optional tracer and returns the
   stats string and the result string. *)
type case_run = tracer:Trace.tracer option -> string * string

let sync_bfs h ~domains : case_run =
 fun ~tracer ->
  let tree, height, stats = Sync_bfs.run ~domains ?tracer h.g ~root:0 in
  ( stats_str stats,
    Printf.sprintf "h%d p%s" height
      (ints (Array.init (Graph.n h.g) (fun v -> Rooted_tree.parent tree v))) )

let pa h ~domains : case_run =
  let sc = shortcut_of h and values = values_of h in
  fun ~tracer ->
    let r = Sim_aggregate.minimum ~domains ?tracer (Rng.create 3) sc ~values in
    ( stats_str r.Sim_aggregate.stats,
      Printf.sprintf "c%d r%d %s" r.Sim_aggregate.completion_round r.Sim_aggregate.rounds
        (ints r.Sim_aggregate.minima) )

let pa_outcome h ~domains ~reliable : case_run =
  let sc = shortcut_of h and values = values_of h and plan = light_loss () in
  fun ~tracer ->
    let faults = Fault.compile plan in
    let o =
      Sim_aggregate.minimum_outcome ~domains ?tracer ~faults ~reliable (Rng.create 5) sc
        ~values
    in
    let r = Outcome.value o in
    ( stats_str r.Sim_aggregate.ostats,
      outcome_str
        (fun (r : Sim_aggregate.report) ->
          Printf.sprintf "c%d t%d d%s %s" r.Sim_aggregate.completion_round
            r.Sim_aggregate.retransmissions
            (String.concat "," (List.map string_of_int r.Sim_aggregate.diverged))
            (ints r.Sim_aggregate.minima))
        o
      ^ " "
      ^ Json.to_string (Fault.counts_to_json (Fault.counts faults)) )

let distributed h ~domains : case_run =
 fun ~tracer ->
  let o = Distributed.construct ~domains ?tracer h.parts ~root:0 in
  let sc = o.Distributed.result.Construct.shortcut in
  let edges =
    List.init (Shortcut.k sc) (fun i -> ints (Shortcut.edges_array sc i))
  in
  ( stats_str o.Distributed.bfs_stats,
    Printf.sprintf "h%d d%d t%d g%d wr%d wm%d %s" o.Distributed.height o.Distributed.delta
      o.Distributed.threshold o.Distributed.guesses o.Distributed.wave_rounds
      o.Distributed.wave_messages (String.concat ";" edges) )

let sum h : case_run =
  let sc = shortcut_of h and values = values_of h in
  fun ~tracer ->
    let r = Sim_aggregate.sum ?tracer (Rng.create 7) sc ~values in
    ( stats_str r.Sim_aggregate.stats,
      Printf.sprintf "c%d %s" r.Sim_aggregate.completion_round (ints r.Sim_aggregate.minima) )

let mst h ~domains : case_run =
  let weights = Weights.random_distinct (Rng.create 11) h.g in
  fun ~tracer ->
    let r = Mst.boruvka ~domains ?tracer weights in
    let a = r.Mst.accounting in
    ( Printf.sprintf "p%d r%d m%d" a.Boruvka_engine.phases a.Boruvka_engine.pa_rounds
        a.Boruvka_engine.pa_messages,
      Printf.sprintf "w%d %s" r.Mst.weight
        (String.concat "," (List.map string_of_int r.Mst.edges)) )

let tree_info h = Tree_info.of_tree h.g (Bfs.tree h.g ~root:0)

let broadcast h : case_run =
  let info = tree_info h in
  fun ~tracer ->
    let values, stats = Broadcast.run ?tracer h.g info ~value:4242 in
    (stats_str stats, ints values)

let convergecast h : case_run =
  let info = tree_info h and values = values_of h in
  fun ~tracer ->
    let total, stats = Convergecast.run ?tracer h.g info ~values ~combine:( + ) in
    (stats_str stats, string_of_int total)

let leader h : case_run =
 fun ~tracer ->
  let leader, stats = Leader_election.run ?tracer h.g in
  (stats_str stats, string_of_int leader)

(* Bellman-Ford takes no tracer: its fingerprint pins stats and result. *)
let bellman_ford h : case_run =
  let weights = Weights.random_distinct (Rng.create 13) h.g in
  fun ~tracer:_ ->
    let r = Sssp.bellman_ford weights ~src:0 in
    ( Printf.sprintf "r%d m%d c%d" r.Sssp.rounds r.Sssp.messages r.Sssp.convergence_round,
      ints r.Sssp.distances )

let cases () =
  List.concat_map
    (fun h ->
      let per_domain =
        List.concat_map
          (fun d ->
            let tag name = Printf.sprintf "%s/%s/d%d" name h.hname d in
            [
              (tag "sync_bfs", sync_bfs h ~domains:d);
              (tag "pa", pa h ~domains:d);
              (tag "pa_outcome_raw", pa_outcome h ~domains:d ~reliable:false);
              (tag "pa_outcome_reliable", pa_outcome h ~domains:d ~reliable:true);
              (tag "distributed", distributed h ~domains:d);
            ])
          [ 1; 2 ]
      in
      let tag name = Printf.sprintf "%s/%s" name h.hname in
      per_domain
      @ [
          (tag "mst_d1", mst h ~domains:1);
          (tag "mst_d2", mst h ~domains:2);
          (tag "sum", sum h);
          (tag "broadcast", broadcast h);
          (tag "convergecast", convergecast h);
          (tag "leader_election", leader h);
          (tag "bellman_ford", bellman_ford h);
        ])
    (Lazy.force hosts)

(* Stats, result digest and event-stream digest of a traced run. *)
let fingerprint (run : case_run) =
  let buf = Buffer.create 4096 in
  let tracer ev =
    Buffer.add_string buf (Json.to_string (Trace.event_to_json ev));
    Buffer.add_char buf '\n'
  in
  let stats, result = run ~tracer:(Some tracer) in
  let events = Buffer.contents buf in
  let ev = if events = "" then "-" else short events in
  (Printf.sprintf "%s res=%s ev=%s" stats (short result) ev, (stats, result))

let expected =
  [
    ("sync_bfs/grid8/d1", "r45 m350 w350 l1 res=0c92981a6686 ev=5470307821ac");
    ("pa/grid8/d1", "r401 m1098 w1098 l1 res=a85049aa3a1e ev=5351e8575582");
    ("pa_outcome_raw/grid8/d1", "r401 m986 w986 l1 res=99b555039cd9 ev=1f46b855fdc5");
    ("pa_outcome_reliable/grid8/d1", "r3240 m2092 w2092 l1 res=78f3115c0601 ev=04b0c61bfa99");
    ("distributed/grid8/d1", "r45 m350 w350 l1 res=fcc09e56e8e4 ev=dd1b97ea982f");
    ("sync_bfs/grid8/d2", "r45 m350 w350 l1 res=0c92981a6686 ev=5470307821ac");
    ("pa/grid8/d2", "r401 m1098 w1098 l1 res=a85049aa3a1e ev=5351e8575582");
    ("pa_outcome_raw/grid8/d2", "r401 m986 w986 l1 res=99b555039cd9 ev=1f46b855fdc5");
    ("pa_outcome_reliable/grid8/d2", "r3240 m2092 w2092 l1 res=78f3115c0601 ev=04b0c61bfa99");
    ("distributed/grid8/d2", "r45 m350 w350 l1 res=fcc09e56e8e4 ev=dd1b97ea982f");
    ("mst_d1/grid8", "p4 r43 m3104 res=946427d571c2 ev=acb252c9a845");
    ("mst_d2/grid8", "p4 r43 m3104 res=946427d571c2 ev=acb252c9a845");
    ("sum/grid8", "r30 m560 w560 l1 res=782a132e0c87 ev=f50ae596cecd");
    ("broadcast/grid8", "r15 m63 w63 l1 res=ca8af76e4910 ev=a4a2b9f48bb3");
    ("convergecast/grid8", "r15 m63 w63 l1 res=12c7c68e4e25 ev=0e61c0dc7841");
    ("leader_election/grid8", "r65 m1792 w1792 l1 res=03afdbd66e79 ev=6aa7abce9cd0");
    ("bellman_ford/grid8", "r65 m239 c15 res=591a6a3ce544 ev=-");
    ("sync_bfs/ktree4_120/d1", "r12 m1178 w1178 l1 res=1e20924659ef ev=ebde8ff45bee");
    ("pa/ktree4_120/d1", "r145 m1531 w1531 l1 res=1f4dec2ac439 ev=ae67287b1ccc");
    ("pa_outcome_raw/ktree4_120/d1", "r145 m1434 w1434 l1 res=50e884ee9c56 ev=38a0e9d6be3d");
    ("pa_outcome_reliable/ktree4_120/d1", "r1192 m2851 w2851 l1 res=48c4be1d5b21 ev=3327f36d9478");
    ("distributed/ktree4_120/d1", "r12 m1178 w1178 l1 res=f5dc0b4f4781 ev=a828c471a9a0");
    ("sync_bfs/ktree4_120/d2", "r12 m1178 w1178 l1 res=1e20924659ef ev=ebde8ff45bee");
    ("pa/ktree4_120/d2", "r145 m1531 w1531 l1 res=1f4dec2ac439 ev=ae67287b1ccc");
    ("pa_outcome_raw/ktree4_120/d2", "r145 m1434 w1434 l1 res=50e884ee9c56 ev=38a0e9d6be3d");
    ("pa_outcome_reliable/ktree4_120/d2", "r1192 m2851 w2851 l1 res=48c4be1d5b21 ev=3327f36d9478");
    ("distributed/ktree4_120/d2", "r12 m1178 w1178 l1 res=f5dc0b4f4781 ev=a828c471a9a0");
    ("mst_d1/ktree4_120", "p4 r22 m7904 res=ceee5ba94b27 ev=f8bdb6894a69");
    ("mst_d2/ktree4_120", "p4 r22 m7904 res=ceee5ba94b27 ev=f8bdb6894a69");
    ("sum/ktree4_120", "r10 m258 w258 l1 res=de79082555a2 ev=8952efab71ec");
    ("broadcast/ktree4_120", "r4 m119 w119 l1 res=0efa3a41a313 ev=0e9c7ae14318");
    ("convergecast/ktree4_120", "r4 m119 w119 l1 res=abe0874cc493 ev=931b6342a57a");
    ("leader_election/ktree4_120", "r121 m2573 w2573 l1 res=07e1cd7dca89 ev=c7f425386200");
    ("bellman_ford/ktree4_120", "r121 m2323 c8 res=0a5cdffd9959 ev=-");
    ("sync_bfs/lbg5_11/d1", "r18 m244 w244 l1 res=476fe9ecb2bb ev=6a299afb538f");
    ("pa/lbg5_11/d1", "r205 m273 w273 l1 res=b59fb4c31ccd ev=3c70e24944c5");
    ("pa_outcome_raw/lbg5_11/d1", "r205 m258 w258 l1 res=8b411a8449bf ev=b6343642a38e");
    ("pa_outcome_reliable/lbg5_11/d1", "r1672 m592 w592 l1 res=d6579f5c7c53 ev=226266c4de42");
    ("distributed/lbg5_11/d1", "r18 m244 w244 l1 res=50e8763e0791 ev=38a389904832");
    ("sync_bfs/lbg5_11/d2", "r18 m244 w244 l1 res=476fe9ecb2bb ev=6a299afb538f");
    ("pa/lbg5_11/d2", "r205 m273 w273 l1 res=b59fb4c31ccd ev=3c70e24944c5");
    ("pa_outcome_raw/lbg5_11/d2", "r205 m258 w258 l1 res=8b411a8449bf ev=b6343642a38e");
    ("pa_outcome_reliable/lbg5_11/d2", "r1672 m592 w592 l1 res=d6579f5c7c53 ev=226266c4de42");
    ("distributed/lbg5_11/d2", "r18 m244 w244 l1 res=50e8763e0791 ev=38a389904832");
    ("mst_d1/lbg5_11", "p5 r45 m1993 res=e23dbf73ecbb ev=c5acbbcdd75c");
    ("mst_d2/lbg5_11", "p5 r45 m1993 res=e23dbf73ecbb ev=c5acbbcdd75c");
    ("sum/lbg5_11", "r18 m150 w150 l1 res=7083a49a542a ev=4e0aae81d5b2");
    ("broadcast/lbg5_11", "r6 m51 w51 l1 res=6f3e734e147c ev=be88447ef49f");
    ("convergecast/lbg5_11", "r6 m51 w51 l1 res=35296a4054db ev=b9f53f304582");
    ("leader_election/lbg5_11", "r53 m648 w648 l1 res=2838023a778d ev=74b937a0f337");
    ("bellman_ford/lbg5_11", "r53 m188 c9 res=8b0668a84864 ev=-");
  ]

let fingerprints_pinned () =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (name, run) ->
      let fp, traced = fingerprint run in
      Hashtbl.replace seen name fp;
      let want = Option.value ~default:"(unrecorded)" (List.assoc_opt name expected) in
      check Alcotest.string name want fp;
      check
        Alcotest.(pair string string)
        (name ^ " untraced = traced") traced (run ~tracer:None))
    (cases ());
  (* Borůvka's accounting and trace must not depend on the domain count. *)
  List.iter
    (fun h ->
      let at d = Hashtbl.find seen (Printf.sprintf "mst_d%d/%s" d h.hname) in
      check Alcotest.string ("mst d1 = d2 on " ^ h.hname) (at 2) (at 1))
    (Lazy.force hosts)

let suite = [ case "library fingerprints" `Quick fingerprints_pinned ]
