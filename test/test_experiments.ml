(* Smoke tests for the experiment registry: ids, lookup, and a fast
   end-to-end table generation. The heavyweight sweeps run from
   bin/experiments; here we only pin the harness contract. *)

let check = Alcotest.check
let case = Alcotest.test_case

let registry_ids () =
  let ids = List.map fst Lcs_experiments.Registry.all in
  check Alcotest.int "twenty experiments" 20 (List.length ids);
  check (Alcotest.list Alcotest.string) "expected ids"
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11";
      "E12"; "E13"; "E14"; "E15"; "E16"; "E17"; "E18"; "E19"; "E20" ]
    ids;
  let unique = List.sort_uniq compare ids in
  check Alcotest.int "ids unique" (List.length ids) (List.length unique)

let registry_find () =
  check Alcotest.bool "finds E2" true (Lcs_experiments.Registry.find "E2" <> None);
  check Alcotest.bool "case-insensitive" true
    (Lcs_experiments.Registry.find "e12" <> None);
  check Alcotest.bool "unknown" true (Lcs_experiments.Registry.find "E99" = None)

let e12_runs_fast () =
  match Lcs_experiments.Registry.find "E12" with
  | None -> Alcotest.fail "E12 missing"
  | Some f ->
      let outcome = f ~seed:3 () in
      check Alcotest.string "id" "E12" outcome.Lcs_experiments.Exp_types.id;
      let rendered = Core.Table.render outcome.Lcs_experiments.Exp_types.table in
      check Alcotest.bool "non-trivial table" true (String.length rendered > 100);
      check Alcotest.bool "has notes" true
        (outcome.Lcs_experiments.Exp_types.notes <> [])

let seeds_are_respected () =
  (* Different seeds change randomized columns (E12's trace depends on the
     partition only, so use E11's certificate densities instead). *)
  match Lcs_experiments.Registry.find "E12" with
  | None -> Alcotest.fail "E12 missing"
  | Some f ->
      let a = f ~seed:1 () in
      let b = f ~seed:1 () in
      check Alcotest.string "deterministic under equal seeds"
        (Core.Table.render a.Lcs_experiments.Exp_types.table)
        (Core.Table.render b.Lcs_experiments.Exp_types.table)

let suite =
  [
    case "registry: ids" `Quick registry_ids;
    case "registry: find" `Quick registry_find;
    case "E12 runs" `Quick e12_runs_fast;
    case "determinism under seed" `Quick seeds_are_respected;
  ]
