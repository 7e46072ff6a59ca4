(* The static analyzer: one seeded bad input per diagnostic code, a sweep
   asserting every SMO template's mapping rule sets pass the safety checks,
   and clean-lint checks for the shipped scenario scripts. *)

module Diag = Analysis.Diagnostic
module D = Datalog.Ast
module S = Bidel.Smo_semantics
module Sql = Minidb.Sql_ast
module I = Inverda.Api

let show ds = String.concat "; " (List.map Diag.to_string ds)

let check_has what code ds =
  if not (List.exists (fun d -> d.Diag.code = code) ds) then
    Alcotest.failf "%s: expected %s, got [%s]" what code (show ds)

let check_clean what ds =
  if ds <> [] then Alcotest.failf "%s: expected no diagnostics, got [%s]" what (show ds)

(* --- script lints (BDL0xx) ------------------------------------------------ *)

let lint = Analysis.lint_source

let seeded_scripts =
  [
    ("BDL000", "CREATE SCHEMA VERSION v1 WITH FROBNICATE TABLE t;");
    ("BDL001", "CREATE SCHEMA VERSION v2 FROM missing WITH CREATE TABLE t(a);");
    ( "BDL002",
      "CREATE SCHEMA VERSION v1 WITH CREATE TABLE t(a);\n\
       CREATE SCHEMA VERSION v2 FROM v1 WITH DROP TABLE ghost;" );
    ( "BDL003",
      "CREATE SCHEMA VERSION v1 WITH CREATE TABLE t(a);\n\
       CREATE SCHEMA VERSION v2 FROM v1 WITH DROP COLUMN b FROM t DEFAULT 0;" );
    ( "BDL004",
      "CREATE SCHEMA VERSION v1 WITH CREATE TABLE t(a); CREATE TABLE u(b);\n\
       CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME TABLE t INTO u;" );
    ( "BDL005",
      "CREATE SCHEMA VERSION v1 WITH CREATE TABLE t(a);\n\
       CREATE SCHEMA VERSION v1 WITH CREATE TABLE u(b);" );
    ("BDL006", "CREATE SCHEMA VERSION v1 WITH CREATE TABLE t(a, a);");
    ( "BDL007",
      "CREATE SCHEMA VERSION v1 WITH CREATE TABLE t(a, b, c);\n\
       CREATE SCHEMA VERSION v2 FROM v1 WITH DECOMPOSE TABLE t INTO r(a), s(b) ON PK;"
    );
    ( "BDL008",
      "CREATE SCHEMA VERSION v1 WITH CREATE TABLE t(a, prio);\n\
       CREATE SCHEMA VERSION v2 FROM v1 WITH SPLIT TABLE t INTO r WITH prio >= 1, s WITH prio >= 0;"
    );
    ( "BDL009",
      "CREATE SCHEMA VERSION v1 WITH CREATE TABLE t(a, prio);\n\
       CREATE SCHEMA VERSION v2 FROM v1 WITH SPLIT TABLE t INTO r WITH prio = 1, s WITH prio = 2;"
    );
    ( "BDL010",
      "CREATE SCHEMA VERSION v1 WITH CREATE TABLE r(a); CREATE TABLE s(b);\n\
       CREATE SCHEMA VERSION v2 FROM v1 WITH JOIN TABLE r, s INTO t ON a = 1;"
    );
    ( "BDL011",
      "CREATE SCHEMA VERSION v1 WITH CREATE TABLE t(a);\n\
       CREATE SCHEMA VERSION v2 FROM v1 WITH DROP TABLE t; CREATE TABLE t(b);"
    );
    ( "BDL012",
      "CREATE SCHEMA VERSION v1 WITH CREATE TABLE r(a, b); CREATE TABLE s(a);\n\
       CREATE SCHEMA VERSION v2 FROM v1 WITH MERGE TABLE r (a = 1), s (a = 2) INTO t;"
    );
  ]

let test_script_seeds () =
  List.iter (fun (code, src) -> check_has code code (lint src)) seeded_scripts

let test_script_spans () =
  (* diagnostics carry usable source locations *)
  match
    List.find_opt
      (fun d -> d.Diag.code = "BDL003")
      (lint (List.assoc "BDL003" seeded_scripts))
  with
  | None -> Alcotest.fail "no BDL003 diagnostic"
  | Some d ->
    Alcotest.(check int) "line" 2 d.Diag.span.Bidel.Ast.line;
    Alcotest.(check bool) "column set" true (d.Diag.span.Bidel.Ast.col > 0)

let test_script_lexer_errors () =
  (* a lexer error is a located BDL000, not an escaped exception *)
  List.iter
    (fun (what, smo, col) ->
      let src =
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE t(a);\n\
         CREATE SCHEMA VERSION v2 FROM v1 WITH\n  " ^ smo
      in
      match lint src with
      | [ d ] when d.Diag.code = "BDL000" ->
        Alcotest.(check (pair int int))
          what (3, col)
          (d.Diag.span.Bidel.Ast.line, d.Diag.span.Bidel.Ast.col)
      | ds -> Alcotest.failf "%s: expected one BDL000, got [%s]" what (show ds))
    [
      ("stray character", "ADD COLUMN b AS 1 $ 2 INTO t;", 21);
      ("literal beyond max_int", "ADD COLUMN b AS 99999999999999999999 INTO t;", 19);
    ]

let test_script_key_column () =
  (* every table is stored as [p :: payload]: a column named p clashes *)
  List.iter
    (fun smo ->
      let src =
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE t(a, b);\n\
         CREATE SCHEMA VERSION v2 FROM v1 WITH " ^ smo
      in
      check_has smo "BDL006" (lint src))
    [
      "CREATE TABLE u(p);";
      "ADD COLUMN p AS 1 INTO t;";
      "RENAME COLUMN a IN t TO p;";
      "DECOMPOSE TABLE t INTO r(a), s(b) ON FOREIGN KEY p;";
    ]

let test_script_clean () =
  check_clean "tasky chain"
    (lint
       (String.concat "\n"
          [
            Scenarios.Tasky.bidel_initial; Scenarios.Tasky.bidel_do;
            Scenarios.Tasky.bidel_tasky2; Scenarios.Tasky.bidel_migration;
          ]))

(* --- Datalog rule safety (DLG0xx) ----------------------------------------- *)

let a p args = D.atom p (D.vars args)
let pos p args = D.Pos (a p args)

let test_rule_seeds () =
  let rules code rs = check_has code code (Analysis.check_rules rs) in
  (* DLG001: head variable not bound by the body *)
  rules "DLG001" [ D.rule (a "p" [ "X" ]) [ pos "q" [ "Y" ] ] ];
  (* DLG002: negated atom over an unbound variable *)
  rules "DLG002"
    [ D.rule (a "p" [ "X" ]) [ pos "q" [ "X" ]; D.Neg (a "r" [ "Y" ]) ] ];
  (* DLG003: condition reads an unbound variable *)
  rules "DLG003"
    [ D.rule (a "p" [ "X" ]) [ pos "q" [ "X" ]; D.Cond (D.col "Y") ] ];
  (* DLG004: assignment computed from an unbound variable *)
  rules "DLG004"
    [ D.rule (a "p" [ "X" ]) [ pos "q" [ "X" ]; D.Assign ("Z", D.col "W") ] ];
  (* DLG005: recursion through negation is not stratifiable *)
  rules "DLG005"
    [ D.rule (a "p" [ "X" ]) [ pos "q" [ "X" ]; D.Neg (a "p" [ "X" ]) ] ];
  (* DLG008: one predicate, two arities *)
  rules "DLG008"
    [ D.rule (a "p" [ "X" ]) [ pos "q" [ "X" ]; pos "q" [ "X"; "X" ] ] ];
  (* DLG006 (opt-in): singleton variable that should be anonymous *)
  check_has "DLG006" "DLG006"
    (Analysis.Rule_check.check_rule ~unused:true
       (D.rule (a "p" [ "X" ]) [ pos "q" [ "X"; "Y" ] ]));
  (* DLG006 aggregates: one diagnostic per rule, naming every singleton *)
  (match
     List.filter
       (fun d -> d.Diag.code = "DLG006")
       (Analysis.Rule_check.check_rule ~unused:true
          (D.rule (a "p" [ "X" ]) [ pos "q" [ "X"; "Y"; "Z" ] ]))
   with
  | [ d ] ->
    let m = Diag.to_string d in
    List.iter
      (fun v ->
        Alcotest.(check bool) ("DLG006 names " ^ v) true
          (Astring.String.is_infix ~affix:v m))
      [ "Y"; "Z" ]
  | ds -> Alcotest.failf "expected one DLG006, got %d: [%s]" (List.length ds) (show ds));
  (* DLG007: body predicate neither derived nor supplied *)
  check_has "DLG007" "DLG007"
    (Analysis.check_rules ~edb:[ "q" ]
       [ D.rule (a "p" [ "X" ]) [ pos "r" [ "X" ] ] ]);
  (* DLG009: a derived predicate nothing reads and nothing declared live *)
  check_has "DLG009" "DLG009"
    (Analysis.check_rules ~live:[ "p" ]
       [
         D.rule (a "p" [ "X" ]) [ pos "q" [ "X" ] ];
         D.rule (a "dead" [ "X" ]) [ pos "q" [ "X" ] ];
       ]);
  check_clean "live and read heads pass"
    (Analysis.check_rules ~live:[ "p" ]
       [
         D.rule (a "p" [ "X" ]) [ pos "mid" [ "X" ] ];
         D.rule (a "mid" [ "X" ]) [ pos "q" [ "X" ] ];
       ])

(* every SMO template's rule sets are safe, for each linkage variant *)
let template_smos =
  [
    "CREATE TABLE n(x, y)";
    "DROP TABLE t";
    "RENAME TABLE t INTO t2";
    "RENAME COLUMN a IN t TO z";
    "ADD COLUMN c AS a + 1 INTO t";
    "DROP COLUMN b FROM t DEFAULT 7";
    "DECOMPOSE TABLE t INTO dl(a), dr(b) ON PK";
    "DECOMPOSE TABLE t INTO dl(b), dr(a) ON FOREIGN KEY a";
    "JOIN TABLE r, s INTO j ON PK";
    "JOIN TABLE r, s INTO j ON a = c";
    "OUTER JOIN TABLE r, s INTO j ON PK";
    "SPLIT TABLE t INTO sl WITH a = 1, sr WITH a <> 1";
    "SPLIT TABLE t INTO sl WITH a = 1";
    "MERGE TABLE m1 (a = 1), m2 (a <> 1) INTO m";
  ]

let template_schemas =
  [
    ("t", [ "a"; "b" ]); ("r", [ "a"; "b" ]); ("s", [ "c"; "d" ]);
    ("m1", [ "a"; "b" ]); ("m2", [ "a"; "b" ]);
  ]

let instantiate smo_str =
  S.instantiate
    ~smo:(Bidel.Parser.smo_of_string smo_str)
    ~source_cols:(fun t ->
      match List.assoc_opt t template_schemas with
      | Some cols -> cols
      | None -> Alcotest.failf "unknown test table %s" t)
    ~name_src:(fun t -> "src!" ^ t)
    ~name_tgt:(fun t -> "tgt!" ^ t)
    ~aux_name:(fun k -> "aux!" ^ k)
    ~skolem_name:Bidel.Verify.skolem_name

let test_template_rules_safe () =
  List.iter
    (fun smo_str ->
      let i = instantiate smo_str in
      let edb =
        List.map
          (fun (r : S.rel) -> r.S.rel_name)
          (i.S.sources @ i.S.targets @ i.S.aux_src @ i.S.aux_tgt @ i.S.aux_both)
      in
      let check what rules =
        check_clean
          (Printf.sprintf "%s of %s" what smo_str)
          (Diag.errors (Analysis.check_rules ~edb ~context:smo_str rules))
      in
      check "gamma_src" i.S.gamma_src;
      check "gamma_tgt" i.S.gamma_tgt;
      check "backfill" i.S.backfill)
    template_smos

(* --- delta-code typechecking (IVD0xx) ------------------------------------- *)

let env : Analysis.Sql_check.env =
  {
    schema =
      (fun name ->
        match String.lowercase_ascii name with
        | "t" -> Some [ "a"; "b" ]
        | "u" -> Some [ "a"; "c" ]
        | _ -> None);
    is_function = (fun _ -> false);
  }

let stmt = Minidb.Sql_parser.statement_of_string

let select_from name =
  Sql.Query
    (Sql.select_query
       (Sql.simple_select ~from:(Sql.From_table (name, None)) [ Sql.Star ]))

let test_delta_seeds () =
  let delta code sql = check_has code code (Analysis.check_delta env [ stmt sql ]) in
  delta "IVD003" "SELECT a FROM nope";
  delta "IVD004" "SELECT z FROM t";
  delta "IVD005" "SELECT a FROM t, u";
  delta "IVD006" "SELECT FROBNICATE(a) FROM t";
  delta "IVD007" "INSERT INTO t (a) VALUES (1, 2)";
  delta "IVD008"
    "CREATE TRIGGER trg INSTEAD OF INSERT ON t FOR EACH ROW BEGIN INSERT INTO t (a, b) VALUES (NEW.a, NEW.z); END";
  delta "IVD010" "CREATE TABLE x (a TEXT, a TEXT)";
  (* IVD009: mutually recursive views within one batch *)
  check_has "IVD009" "IVD009"
    (Analysis.check_delta env
       [
         stmt "CREATE VIEW v1 AS SELECT * FROM v2";
         stmt "CREATE VIEW v2 AS SELECT * FROM v1";
       ]);
  (* the batch's own objects are visible (delta code forward-references) *)
  check_clean "batch-local refs"
    (Analysis.check_delta env
       [
         stmt "CREATE VIEW w1 AS SELECT a FROM w2";
         stmt "CREATE VIEW w2 AS SELECT a FROM t";
       ])

let test_shadow_seeds () =
  (* IVD012: the unqualified [a] reads t in one UNION branch and u in the
     other — legal, but silently branch-dependent *)
  check_has "IVD012" "IVD012"
    (Analysis.check_delta env
       [
         stmt
           "CREATE VIEW sv AS SELECT a FROM t WHERE b = 1 UNION ALL SELECT a \
            FROM u WHERE c = 2";
       ]);
  (* qualifying the reference silences it *)
  check_clean "qualified columns pass"
    (List.filter
       (fun d -> d.Diag.code = "IVD012")
       (Analysis.check_delta env
          [
            stmt
              "CREATE VIEW sv AS SELECT t.a FROM t UNION ALL SELECT u.a FROM u";
          ]));
  (* same owning table in every branch: nothing is shadowed *)
  check_clean "same owner passes"
    (List.filter
       (fun d -> d.Diag.code = "IVD012")
       (Analysis.check_delta env
          [
            stmt
              "CREATE VIEW sv AS SELECT a FROM t WHERE b = 1 UNION ALL SELECT \
               a FROM t WHERE b = 2";
          ]))

let test_roundtrip_seeds () =
  (* IVD001: a generated name the engine's own grammar cannot read back *)
  check_has "IVD001" "IVD001"
    (Analysis.Sql_check.roundtrip_check (select_from "a\"b"));
  (* IVD002: printer and parser disagree without a hard parse failure *)
  check_has "IVD002" "IVD002"
    (Analysis.Sql_check.roundtrip_check (select_from "a\nb"));
  check_clean "well-formed statement round-trips"
    (Analysis.Sql_check.roundtrip_check (stmt "SELECT a, b FROM t WHERE a = 1"))

(* --- end-to-end: strict mode and the live catalog -------------------------- *)

let test_tasky_deep_clean () =
  (* full TasKy chain under strict mode: instantiation and delta installation
     already ran the analyzer; re-checking reports nothing *)
  let t = Scenarios.Tasky.setup_full () in
  I.materialize t [ "TasKy2" ];
  check_clean "rule sets" (I.rule_diagnostics t);
  check_clean "delta code" (I.delta_diagnostics t)

let test_strict_rejects () =
  (* a strict instance refuses a script whose delta code cannot typecheck is
     hard to provoke through the public API (the templates are correct), but
     the gate itself is reachable: lint_env resolves catalog objects *)
  let t = Scenarios.Tasky.setup_initial () in
  let e = I.lint_env t in
  Alcotest.(check bool)
    "version view visible" true
    (e.Analysis.Sql_check.schema "TasKy.Task" <> None);
  Alcotest.(check bool) "unknown object" true (e.Analysis.Sql_check.schema "nope" = None);
  (* the script env seeds the linter with live catalog versions *)
  let diags =
    Analysis.check_script ~env:(I.script_env t)
      (Bidel.Parser.script_of_string_located
         "CREATE SCHEMA VERSION v2 FROM TasKy WITH DROP COLUMN nope FROM Task DEFAULT 0;")
  in
  check_has "live-catalog lint" "BDL003" diags

let () =
  Alcotest.run "analysis"
    [
      ( "script",
        [
          Alcotest.test_case "seeded diagnostics" `Quick test_script_seeds;
          Alcotest.test_case "source spans" `Quick test_script_spans;
          Alcotest.test_case "clean scripts" `Quick test_script_clean;
          Alcotest.test_case "lexer errors" `Quick test_script_lexer_errors;
          Alcotest.test_case "key-named column" `Quick test_script_key_column;
        ] );
      ( "rules",
        [
          Alcotest.test_case "seeded diagnostics" `Quick test_rule_seeds;
          Alcotest.test_case "SMO templates are safe" `Quick
            test_template_rules_safe;
        ] );
      ( "delta",
        [
          Alcotest.test_case "seeded diagnostics" `Quick test_delta_seeds;
          Alcotest.test_case "shadowed union columns" `Quick test_shadow_seeds;
          Alcotest.test_case "round-trip seeds" `Quick test_roundtrip_seeds;
        ] );
      ( "integration",
        [
          Alcotest.test_case "TasKy deep clean" `Quick test_tasky_deep_clean;
          Alcotest.test_case "catalog-backed envs" `Quick test_strict_rejects;
        ] );
    ]
