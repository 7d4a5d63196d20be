module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Union_find = Lcs_graph.Union_find
module Bfs = Lcs_graph.Bfs
module Shortcut = Lcs_shortcut.Shortcut
module Boost = Lcs_shortcut.Boost
module Baseline = Lcs_shortcut.Baseline
module Sim_aggregate = Lcs_partwise.Sim_aggregate
module Simulator = Lcs_congest.Simulator
module Rng = Lcs_util.Rng
module Obs = Lcs_obs.Obs

type shortcut_mode =
  | Thm31
  | Bfs_baseline
  | Induced_only

type accounting = {
  phases : int;
  pa_rounds : int;
  pa_messages : int;
  max_congestion : int;
  final_fragments : int;
}

let key_bits = 31
let encode key edge =
  if key < 0 || key >= 1 lsl key_bits then invalid_arg "Boruvka_engine: key range";
  (key lsl key_bits) lor edge

let decode_edge encoded = encoded land ((1 lsl key_bits) - 1)

let partition_of_uf g uf =
  let n = Graph.n g in
  (* Compact fragment roots to 0..k-1. *)
  let index = Hashtbl.create 64 in
  let part_of =
    Array.init n (fun v ->
        let r = Union_find.find uf v in
        match Hashtbl.find_opt index r with
        | Some i -> i
        | None ->
            let i = Hashtbl.length index in
            Hashtbl.add index r i;
            i)
  in
  Partition.of_assignment g part_of

let build_shortcut ?obs mode tree partition =
  Obs.span obs "boruvka.shortcut" (fun () ->
      match mode with
      | Thm31 -> (Boost.full ?obs partition ~tree).Boost.shortcut
      | Bfs_baseline -> (Baseline.bfs_tree partition ~tree).Baseline.shortcut
      | Induced_only -> Shortcut.empty partition)

let run ?obs ?tracer ?(seed = 7) ?(mode = Thm31) ?(domains = 1) ?par_profile g
    ~candidate ~on_merge =
  if Graph.m g >= 1 lsl key_bits then invalid_arg "Boruvka_engine: too many edges";
  let rng = Rng.create seed in
  let n = Graph.n g in
  let uf = Union_find.create n in
  let tree = Bfs.tree g ~root:0 in
  (* One simulator host serves every aggregation of the run, and each
     shortcut is prepared once: its route table and budget serve this
     phase's minimum and, for every shortcut after the first, the previous
     phase's leader broadcast. *)
  let host = Simulator.prepare g in
  let prepare partition =
    let shortcut = build_shortcut ?obs mode tree partition in
    (shortcut, Sim_aggregate.prepare ~host shortcut)
  in
  Obs.enter obs "boruvka";
  let phases = ref 0 in
  let pa_rounds = ref 0 in
  let pa_messages = ref 0 in
  let account (r : Sim_aggregate.result) =
    pa_rounds := !pa_rounds + r.Sim_aggregate.completion_round;
    pa_messages := !pa_messages + r.Sim_aggregate.messages;
    Obs.observe obs "pa.rounds" (float_of_int r.Sim_aggregate.completion_round)
  in
  let max_congestion = ref 0 in
  (* A phase never refers to its shortcut after its minimum, so at most
     one phase's preparation is alive at a time. *)
  let rec phase partition (shortcut, prepared) =
    incr phases;
    Obs.enter obs "boruvka.phase";
    Obs.note obs "fragments" (Obs.Int (Partition.k partition));
    let fragment_of v = Partition.part_of partition v in
    (* Per-vertex encoded proposals. *)
    let values =
      Array.init n (fun v ->
          match candidate ~fragment_of v with
          | None -> max_int
          | Some (key, edge) -> encode key edge)
    in
    let congestion = Sim_aggregate.congestion prepared in
    if congestion > !max_congestion then max_congestion := congestion;
    Obs.gauge obs "boruvka.congestion" (float_of_int congestion);
    let out =
      Sim_aggregate.minimum ~prepared ~domains ?obs ?tracer ?par_profile rng shortcut
        ~values
    in
    account out;
    (* Merge along each fragment's winning edge. *)
    let merged_any = ref false in
    Array.iter
      (fun encoded ->
        if encoded <> max_int then begin
          let e = decode_edge encoded in
          let u, v = Graph.edge_endpoints g e in
          if Union_find.union uf u v then begin
            merged_any := true;
            Obs.count obs "boruvka.merges" 1;
            on_merge e
          end
        end)
      out.Sim_aggregate.minima;
    if !merged_any then begin
      (* Fragment-identity update: a leader broadcast on the new partition,
         whose shortcut the next phase reuses. *)
      let partition' = partition_of_uf g uf in
      let ((shortcut', prepared') as next) = prepare partition' in
      let k' = Partition.k partition' in
      let leaders = Array.make k' (-1) in
      for v = n - 1 downto 0 do
        leaders.(Partition.part_of partition' v) <- v
      done;
      account
        (Sim_aggregate.broadcast ~prepared:prepared' ~domains ?obs ?tracer ?par_profile rng
           shortcut' ~leaders);
      Obs.exit obs;
      phase partition' next
    end
    else Obs.exit obs
  in
  let partition = partition_of_uf g uf in
  phase partition (prepare partition);
  (* Each phase at least halves the fragment count, plus one terminal
     phase that only detects quiescence. *)
  (match obs with
  | None -> ()
  | Some _ ->
      let log2n =
        int_of_float (Float.ceil (log (float_of_int (max 2 n)) /. log 2.))
      in
      Obs.bound obs ~metric:"phases"
        ~predicted:(float_of_int (log2n + 1))
        ~observed:(float_of_int !phases));
  Obs.exit obs;
  {
    phases = !phases;
    pa_rounds = !pa_rounds;
    pa_messages = !pa_messages;
    max_congestion = !max_congestion;
    final_fragments = Union_find.count uf;
  }
