(* CLI golden suite: `pa`, `shortcut`, `mst` and `bcast` invocations on
   the three hosts of the library fingerprints (grid:8 rows, ktree:4,120
   voronoi:8, lbg:5,11 rows), sweeping --trace (.json report and .jsonl
   stream), --spans, --sketch, --par-profile, fault plans and the
   resilience supervisor. A row pins the exit code, a digest of stdout and
   a digest of every file the run writes, after timing fields are
   stripped. Each invocation runs in a fresh directory with fixed relative
   file names and a copy of plans/, because stdout and reports echo paths.

   --domains is a performance knob, so every case must also observe the
   same at --domains 2 (and at LCS_DOMAINS, when set) as at --domains 1;
   only the par-profile artifacts, whose shape is the domain count, are
   excepted. The flag set of every subcommand is pinned too, so a
   refactor of the option wiring cannot add or drop an option unseen. *)

open Core

let check = Alcotest.check
let case = Alcotest.test_case

let from_test_dir path =
  let dir = Filename.dirname Sys.executable_name in
  let dir = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  Filename.concat dir path

let cli = from_test_dir "../bin/lcs_cli.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let short s = String.sub (Digest.to_hex (Digest.string s)) 0 12

(* --- normalization --------------------------------------------------------- *)

(* Wall-clock and allocation readings, which differ from run to run. *)
let timing_key k =
  String.ends_with ~suffix:"_s" k
  || String.starts_with ~prefix:"alloc_" k
  || List.mem k [ "ts"; "dur"; "imbalance"; "round_imbalance"; "decomposition" ]

let field k = function Json.Obj f -> List.assoc_opt k f | _ -> None

(* The wall-clock slices ("X") of the domain track a par-profiled run
   merges into --spans (pid 0) vary in number from run to run. Its
   metadata stays in both views: --spans traces the run, so the track
   names one domain at any --domains. *)
let domain_event ev = field "pid" ev = Some (Json.Int 0) && field "ph" ev = Some (Json.String "X")

(* With [~twin], the flight snapshots' per-domain queue depths go too. *)
let dropped_key ~twin k = timing_key k || (twin && k = "queues")

let rec normalize ~twin = function
  | Json.Obj f ->
      Json.Obj
        (List.filter_map
           (fun (k, v) -> if dropped_key ~twin k then None else Some (k, normalize ~twin v))
           f)
  | Json.List l ->
      Json.List
        (List.filter_map
           (fun v -> if domain_event v then None else Some (normalize ~twin v))
           l)
  | j -> j

(* A file's golden view and its twin view, from one parse. *)
let normalize_json name s =
  match Json.of_string s with
  | Ok j ->
      let view twin = Json.to_string ~minify:true (normalize ~twin j) in
      (view false, view true)
  | Error e -> Alcotest.failf "%s: invalid JSON: %s" name e

let normalize_file name contents =
  if Filename.check_suffix name ".jsonl" then
    let views =
      String.split_on_char '\n' contents
      |> List.map (fun l -> if l = "" then (l, l) else normalize_json name l)
    in
    (String.concat "\n" (List.map fst views), String.concat "\n" (List.map snd views))
  else if Filename.check_suffix name ".json" then normalize_json name contents
  else (contents, contents)

(* The par-profile line ends in wall-clock figures; with [~twin] its
   domain count goes too. *)
let normalize_stdout ~twin out =
  String.split_on_char '\n' out
  |> List.filter_map (fun line ->
         if not (String.starts_with ~prefix:"par-profile:" line) then Some line
         else if twin then None
         else
           match String.index_opt line ',' with
           | None -> Some line
           | Some i -> (
               match String.index_from_opt line (i + 1) ',' with
               | None -> Some line
               | Some j -> Some (String.sub line 0 j ^ ", ...)")))
  |> String.concat "\n"

(* --- running one invocation ------------------------------------------------ *)

(* Every case writes its par-profile report to this name. *)
let par_profile_file = "pp.json"

(* One invocation's observables: [golden] is the row the matrix pins,
   [twin] the view every domain count must share. *)
type run = { stdout : string; stderr : string; golden : string; twin : string }

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let plans = [ "light_loss.json"; "crash_heavy.json" ]

(* Run [lcs ARGS] in a fresh directory holding plans/, and collect every
   other file it leaves there. *)
let invoke args =
  let dir = Filename.temp_dir "lcs_cli_golden" "" in
  let work = Filename.concat dir "work" in
  Sys.mkdir work 0o755;
  Sys.mkdir (Filename.concat work "plans") 0o755;
  List.iter
    (fun p ->
      write_file
        (Filename.concat (Filename.concat work "plans") p)
        (read_file (from_test_dir ("../plans/" ^ p))))
    plans;
  let out = Filename.concat dir "stdout" and err = Filename.concat dir "stderr" in
  let status =
    Sys.command
      (Printf.sprintf "cd %s && %s %s > %s 2> %s" (Filename.quote work)
         (Filename.quote cli)
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote out) (Filename.quote err))
  in
  let stdout = read_file out and stderr = read_file err in
  let digests =
    Sys.readdir work |> Array.to_list
    |> List.filter (fun f -> f <> "plans")
    |> List.sort compare
    |> List.map (fun f ->
           let golden, twin = normalize_file f (read_file (Filename.concat work f)) in
           (f, short golden, short twin))
  in
  remove_tree dir;
  let row ~twin =
    String.concat " "
      (Printf.sprintf "exit=%d out=%s" status (short (normalize_stdout ~twin stdout))
      :: List.filter_map
           (fun (f, golden, twin_view) ->
             if not twin then Some (Printf.sprintf "%s=%s" f golden)
             else if f = par_profile_file then None
             else Some (Printf.sprintf "%s=%s" f twin_view))
           digests)
  in
  { stdout; stderr; golden = row ~twin:false; twin = row ~twin:true }

(* --- the matrix -------------------------------------------------------------- *)

let grid = [ "--graph"; "grid:8"; "--parts"; "rows" ]
let ktree = [ "--graph"; "ktree:4,120"; "--parts"; "voronoi:8" ]
let lbg = [ "--graph"; "lbg:5,11"; "--parts"; "rows" ]
let words = String.split_on_char ' '
let light_loss = [ "--faults"; "plans/light_loss.json" ]
let crash_heavy = [ "--faults"; "plans/crash_heavy.json"; "--retry" ]

(* (name, argv without --domains). *)
let cases =
  [
    ("pa/grid", "pa" :: grid);
    ("pa/grid/trace+spans", ("pa" :: grid) @ words "--trace t.json --spans s.json");
    ("pa/grid/stream+sketch", ("pa" :: grid) @ words "--trace t.jsonl --sketch 64");
    ("pa/grid/par-profile+spans", ("pa" :: grid) @ words "--par-profile pp.json --spans s.json");
    ( "pa/grid/light_loss+trace+spans",
      ("pa" :: grid) @ light_loss @ words "--trace t.json --spans s.json" );
    ( "pa/grid/crash_heavy+policy+stream",
      ("pa" :: grid) @ words "--faults plans/crash_heavy.json --policy attempts=2,fallback=false"
      @ words "--trace t.jsonl" );
    ("pa/ktree/trace+sketch", ("pa" :: ktree) @ words "--trace t.json --sketch 64");
    ("pa/ktree/light_loss+stream", ("pa" :: ktree) @ light_loss @ words "--trace t.jsonl");
    ( "pa/lbg/trace+spans+par-profile",
      ("pa" :: lbg) @ words "--trace t.json --spans s.json --par-profile pp.json" );
    ( "pa/lbg/crash_heavy+trace+spans",
      ("pa" :: lbg) @ crash_heavy @ words "--trace t.json --spans s.json" );
    ("shortcut/grid", "shortcut" :: grid);
    ("shortcut/grid/full", ("shortcut" :: grid) @ [ "--full" ]);
    ("shortcut/grid/trace+spans", ("shortcut" :: grid) @ words "--trace t.json --spans s.json");
    ( "shortcut/grid/stream+par-profile",
      ("shortcut" :: grid) @ words "--trace t.jsonl --par-profile pp.json" );
    ("shortcut/grid/light_loss", ("shortcut" :: grid) @ light_loss);
    ("shortcut/grid/crash_heavy", ("shortcut" :: grid) @ crash_heavy);
    ( "shortcut/ktree/full+trace+spans",
      ("shortcut" :: ktree) @ words "--full --trace t.json --spans s.json" );
    ( "shortcut/ktree/par-profile+spans",
      ("shortcut" :: ktree) @ words "--par-profile pp.json --spans s.json" );
    ("shortcut/lbg/stream+spans", ("shortcut" :: lbg) @ words "--trace t.jsonl --spans s.json");
    ( "shortcut/lbg/light_loss+fault-seed",
      ("shortcut" :: lbg) @ light_loss @ words "--fault-seed 3" );
    ( "shortcut/grid/light_loss+trace+spans",
      ("shortcut" :: grid) @ light_loss @ words "--trace t.json --spans s.json" );
    ( "shortcut/ktree/crash_heavy+trace+spans",
      ("shortcut" :: ktree) @ crash_heavy @ words "--trace t.json --spans s.json" );
    ("shortcut/lbg/light_loss+stream", ("shortcut" :: lbg) @ light_loss @ words "--trace t.jsonl");
    ("mst/grid", words "mst --graph grid:8");
    ("mst/grid/trace+spans", words "mst --graph grid:8 --trace t.json --spans s.json");
    ("mst/grid/stream+par-profile", words "mst --graph grid:8 --trace t.jsonl --par-profile pp.json");
    ("mst/grid/baseline", words "mst --graph grid:8 --mode baseline");
    ("mst/ktree/trace", words "mst --graph ktree:4,120 --trace t.json");
    ("mst/ktree/retry+spans", words "mst --graph ktree:4,120 --retry --spans s.json");
    ( "mst/lbg/baseline+trace+spans",
      words "mst --graph lbg:5,11 --mode baseline --trace t.json --spans s.json" );
    ("mst/lbg/par-profile", words "mst --graph lbg:5,11 --par-profile pp.json");
    ( "bcast/grid16/stream",
      words "bcast --family grid:16 --trace t.jsonl --every 8 --profile-out p.json" );
    ("bcast/grid16/sketch+profile", words "bcast --family grid:16 --sketch 8 --profile-out p.json");
  ]

let expected =
  [
    ("pa/grid", "exit=0 out=3fc4bc26b100");
    ("pa/grid/trace+spans", "exit=0 out=e5c3f0b65bf6 s.json=aab3b62e6707 t.json=ec25167e3cfd");
    ("pa/grid/stream+sketch", "exit=0 out=e2ed143cad4c t.jsonl=75da68335800");
    ("pa/grid/par-profile+spans", "exit=0 out=8de129d51a1f pp.json=802283d91475 s.json=ac7db94a6a5c");
    ("pa/grid/light_loss+trace+spans", "exit=0 out=9155d67d4e8d s.json=ec662c7d9e6c t.json=68ec1ba272f8");
    ("pa/grid/crash_heavy+policy+stream", "exit=0 out=2c473fbc48e6 t.jsonl=ba6f51c7a05f");
    ("pa/ktree/trace+sketch", "exit=0 out=79d69783b749 t.json=3a0b2875f28f");
    ("pa/ktree/light_loss+stream", "exit=0 out=780b364e250e t.jsonl=d7b2032d1b4f");
    ("pa/lbg/trace+spans+par-profile", "exit=0 out=35053895ef6d pp.json=40d4770a0c63 s.json=191b3a188aed t.json=1863355d7850");
    ("pa/lbg/crash_heavy+trace+spans", "exit=0 out=d8d994fe943b s.json=bcce2500b19b t.json=0fad4c3971cb");
    ("shortcut/grid", "exit=0 out=4b994be60869");
    ("shortcut/grid/full", "exit=0 out=763db1bd096b");
    ("shortcut/grid/trace+spans", "exit=0 out=c792e6d91f3f s.json=e7d391ab6b99 t.json=e2046553a340");
    ("shortcut/grid/stream+par-profile", "exit=0 out=c5eff36dc0dd pp.json=0cb5c6918147 t.jsonl=fca2ac57f6df");
    ("shortcut/grid/light_loss", "exit=0 out=c3e46919e539");
    ("shortcut/grid/crash_heavy", "exit=0 out=20c3194bc528");
    ("shortcut/ktree/full+trace+spans", "exit=0 out=a91281fcc2f1 s.json=ea5ccb1885d1 t.json=b00e04f8b038");
    ("shortcut/ktree/par-profile+spans", "exit=0 out=30c5c3b09322 pp.json=be428bf4b09a s.json=20db57e5cf85");
    ("shortcut/lbg/stream+spans", "exit=0 out=49ceff46dda6 s.json=bceaf9be6b29 t.jsonl=b0a743f6986f");
    ("shortcut/lbg/light_loss+fault-seed", "exit=0 out=1531f2d98bb4");
    ("shortcut/grid/light_loss+trace+spans", "exit=0 out=f55e7154106e s.json=0accefd41a2e t.json=a684fe971316");
    ("shortcut/ktree/crash_heavy+trace+spans", "exit=0 out=1f88282eba1c s.json=20da2e043538 t.json=ab0b3a8a7f48");
    ("shortcut/lbg/light_loss+stream", "exit=0 out=d4322baab719 t.jsonl=54e034c4b398");
    ("mst/grid", "exit=0 out=5543f01c66ca");
    ("mst/grid/trace+spans", "exit=0 out=82aa405a334d s.json=cd1f2db928a0 t.json=86596b8a1572");
    ("mst/grid/stream+par-profile", "exit=0 out=8a75729f1c0e pp.json=d53dc66d7312 t.jsonl=e8f840d520ab");
    ("mst/grid/baseline", "exit=0 out=821e5612126f");
    ("mst/ktree/trace", "exit=0 out=19a550e0773e t.json=ae4f840e637b");
    ("mst/ktree/retry+spans", "exit=0 out=e76885df4d4f s.json=8c95231d1c57");
    ("mst/lbg/baseline+trace+spans", "exit=0 out=26ac82e4eb29 s.json=57203c2854d9 t.json=2bde896b1505");
    ("mst/lbg/par-profile", "exit=0 out=aca3d9b9aa72 pp.json=ca90d19f33c4");
    ("bcast/grid16/stream", "exit=0 out=482fa0a5437a p.json=f72e86d70b0e t.jsonl=10c5de4f165a");
    ("bcast/grid16/sketch+profile", "exit=0 out=524a3698c2a6 p.json=dea09df59715");
  ]

(* Domain counts every case is repeated at; LCS_DOMAINS adds one. *)
let twin_domains =
  let base = [ 2 ] in
  match Sys.getenv_opt "LCS_DOMAINS" with
  | None -> base
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 && not (List.mem d (1 :: base)) -> base @ [ d ]
      | _ -> base)

let at_domains d argv = argv @ [ "--domains"; string_of_int d ]

(* Fail once, listing every differing row ready to paste into its table. *)
let report what = function
  | [] -> ()
  | rows -> Alcotest.failf "%d %s differ:\n%s" (List.length rows) what (String.concat "\n" rows)

let want table name = Option.value ~default:"(unrecorded)" (List.assoc_opt name table)

let golden_rows () =
  List.filter_map
    (fun (name, argv) ->
      let r = invoke (at_domains 1 argv) in
      List.iter
        (fun d ->
          check Alcotest.string
            (Printf.sprintf "%s: --domains %d observes as --domains 1" name d)
            r.twin (invoke (at_domains d argv)).twin)
        twin_domains;
      if r.golden = want expected name then None
      else
        Some
          (Printf.sprintf "    (%S, %S);\n(was %s)\n--- normalized stdout ---\n%s--- stderr ---\n%s"
             name r.golden (want expected name)
             (normalize_stdout ~twin:false r.stdout)
             r.stderr))
    cases
  |> report "golden rows"

(* --- flag sets ---------------------------------------------------------------- *)

(* Option names from a --help=plain page: the lines of its option lists
   that start an entry ("       -g FAMILY, --graph=FAMILY (required)"),
   up to the parenthesized default. *)
let flags_of_help page =
  let name chunk =
    let chunk = String.trim chunk in
    let rec stop i =
      if i < String.length chunk && not (String.contains " =[" chunk.[i]) then stop (i + 1)
      else i
    in
    String.sub chunk 0 (stop 0)
  in
  String.split_on_char '\n' page
  |> List.concat_map (fun line ->
         if String.starts_with ~prefix:"       -" line then
           let line =
             match String.index_opt line '(' with Some i -> String.sub line 0 i | None -> line
           in
           List.map name (String.split_on_char ',' line)
         else [])
  |> List.sort_uniq compare
  |> String.concat " "

let subcommands =
  [
    "info"; "shortcut"; "pa"; "mst"; "bcast"; "chaos"; "export"; "certificate"; "analyze";
    "top"; "experiment"; "shards"; "graph gen"; "graph convert"; "graph info";
  ]

let expected_flags =
  [
    ("info", "--graph --help --seed -g");
    ("shortcut", "--domains --fault-seed --faults --full --graph --help --par-profile --parts --policy --retry --seed --spans --trace -g -p");
    ("pa", "--domains --fault-seed --faults --graph --help --par-profile --parts --policy --retry --seed --sketch --spans --trace -g -p");
    ("mst", "--domains --graph --help --mode --par-profile --policy --retry --seed --spans --trace -g");
    ("bcast", "--domains --every --family --help --profile-out --seed --sketch --trace -f");
    ("chaos", "--graph --help --intensities --out --parts --plan --reliable --search-iters --seed --seeds --shrink -g -o -p");
    ("export", "--format --graph --help --out --parts --seed -g -o -p");
    ("certificate", "--budget --graph --help --parts --seed --threshold -g -p");
    ("analyze", "--flows --help --json");
    ("top", "--help --profile -k");
    ("experiment", "--help --seed");
    ("shards", "--domains --help --json --seed");
    ("graph gen", "--family --help --out --seed -f -o");
    ("graph convert", "--help --out -o");
    ("graph info", "--help");
  ]

let flag_sets_pinned () =
  List.filter_map
    (fun sub ->
      let got = flags_of_help (invoke (words sub @ [ "--help=plain" ])).stdout in
      if got = want expected_flags sub then None
      else Some (Printf.sprintf "    (%S, %S);\n(was %s)" sub got (want expected_flags sub)))
    subcommands
  |> report "flag sets"

let suite =
  [
    case "golden invocations" `Quick golden_rows;
    case "flag sets" `Quick flag_sets_pinned;
  ]
