(* Tests for the minidb relational engine substrate. *)

open Minidb

let value = Alcotest.testable Value.pp Value.equal

let check_rows msg expected actual =
  let sort = List.sort compare in
  Alcotest.(check (list (list value))) msg (sort expected) (sort actual)

let fresh_tasky () =
  let db = Engine.create () in
  ignore
    (Engine.exec_script db
       {|
    CREATE TABLE task (p INTEGER PRIMARY KEY, author TEXT, task TEXT, prio INTEGER);
    INSERT INTO task (p, author, task, prio) VALUES
      (1, 'Ann', 'Organize party', 3),
      (2, 'Ben', 'Learn for exam', 2),
      (3, 'Ann', 'Write paper', 1),
      (4, 'Ben', 'Clean room', 1);
  |});
  db

(* --- values -------------------------------------------------------------- *)

let test_value_compare () =
  Alcotest.(check bool) "int eq" true (Value.equal (Int 3) (Int 3));
  Alcotest.(check bool) "int/real eq" true (Value.equal (Int 3) (Real 3.0));
  Alcotest.(check bool) "null structural eq" true (Value.equal Null Null);
  Alcotest.(check (option bool)) "sql null eq" None (Value.sql_eq Null (Int 1));
  Alcotest.(check (option bool)) "sql eq" (Some true) (Value.sql_eq (Int 1) (Int 1))

let test_value_literal () =
  Alcotest.(check string) "escaping" "'it''s'" (Value.to_literal (Text "it's"));
  Alcotest.(check string) "null" "NULL" (Value.to_literal Null)

(* --- lexer / parser ------------------------------------------------------- *)

let roundtrip sql =
  let stmt = Sql_parser.statement_of_string sql in
  let printed = Sql_printer.statement_to_string stmt in
  let stmt2 = Sql_parser.statement_of_string printed in
  Alcotest.(check string)
    ("stable print of " ^ sql)
    printed
    (Sql_printer.statement_to_string stmt2)

let test_parser_roundtrip () =
  List.iter roundtrip
    [
      "SELECT * FROM t";
      "SELECT a, b AS c FROM t WHERE a = 1 AND b <> 'x' ORDER BY a DESC LIMIT 3";
      "SELECT t.a FROM t JOIN s ON t.p = s.p LEFT JOIN u ON u.p = t.p";
      "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM s WHERE s.p = t.p)";
      "SELECT a FROM t WHERE a IN (SELECT b FROM s) OR a IN (1, 2, 3)";
      "SELECT COUNT(*), SUM(a) FROM t GROUP BY b HAVING COUNT(*) > 1";
      "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t";
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)";
      "INSERT INTO t SELECT * FROM s WHERE s.a IS NOT NULL";
      "UPDATE t SET a = a + 1, b = 'z' WHERE p = 4";
      "DELETE FROM t WHERE NOT (a > 2)";
      "CREATE TABLE t (p INTEGER PRIMARY KEY, a TEXT)";
      "CREATE VIEW v AS SELECT a FROM t UNION ALL SELECT b FROM s";
      "DROP VIEW IF EXISTS v";
      "SELECT a FROM t UNION SELECT a FROM s";
      "SELECT x + 3 * y - 2 FROM t WHERE x % 2 = 0";
      "SELECT a || '-' || b FROM t";
      "SELECT COALESCE(a, 0) FROM t";
    ]

let test_parser_trigger () =
  let sql =
    "CREATE TRIGGER trg INSTEAD OF INSERT ON v FOR EACH ROW BEGIN \
     SET NEW.p = COALESCE(NEW.p, NEXTVAL('s')); \
     INSERT INTO t (p, a) VALUES (NEW.p, NEW.a); END"
  in
  roundtrip sql;
  match Sql_parser.statement_of_string sql with
  | Sql_ast.Create_trigger { body; instead_of = true; _ } ->
    Alcotest.(check int) "two body statements" 2 (List.length body)
  | _ -> Alcotest.fail "expected trigger"

let test_parser_qualified_names () =
  match Sql_parser.statement_of_string "SELECT * FROM TasKy.Task" with
  | Sql_ast.Query
      { body = Select { from = Some (From_table (name, None)); _ }; _ } ->
    Alcotest.(check string) "qualified" "TasKy.Task" name
  | _ -> Alcotest.fail "expected qualified table"

let test_integer_literal_range () =
  (* a literal beyond max_int is a located lexer error, not an escaped
     int_of_string failure *)
  let big = string_of_int max_int ^ "0" in
  (match Sql_parser.statement_of_string ("SELECT " ^ big) with
  | exception Sql_lexer.Lex_error (_, offset) ->
    Alcotest.(check int) "offset of the literal" 7 offset
  | _ -> Alcotest.fail "out-of-range literal accepted");
  Alcotest.(check value) "max_int still lexes" (Value.Int max_int)
    (Engine.query_scalar (Engine.create ()) ("SELECT " ^ string_of_int max_int))

let test_parser_errors () =
  let expect_fail sql =
    match Sql_parser.statement_of_string sql with
    | exception Sql_parser.Parse_error _ -> ()
    | exception Sql_lexer.Lex_error _ -> ()
    | exception Value.Type_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ sql)
  in
  List.iter expect_fail
    [ "SELECT FROM"; "INSERT t VALUES (1)"; "SELECT * FROM t WHERE";
      "SELECT 'unterminated"; "CREATE TABLE t (a WIBBLE)"; "SELECT * FROM t;x" ]

(* --- basic query execution ------------------------------------------------ *)

let test_select_where () =
  let db = fresh_tasky () in
  check_rows "prio 1 tasks"
    [ [ Value.Text "Write paper" ]; [ Value.Text "Clean room" ] ]
    (Engine.query_rows db "SELECT task FROM task WHERE prio = 1")

let test_order_limit () =
  let db = fresh_tasky () in
  Alcotest.(check (list (list value)))
    "order by prio desc"
    [ [ Value.Int 3 ]; [ Value.Int 2 ] ]
    (Engine.query_rows db "SELECT prio FROM task ORDER BY prio DESC LIMIT 2")

let test_distinct () =
  let db = fresh_tasky () in
  check_rows "distinct authors"
    [ [ Value.Text "Ann" ]; [ Value.Text "Ben" ] ]
    (Engine.query_rows db "SELECT DISTINCT author FROM task")

let test_union () =
  let db = fresh_tasky () in
  Alcotest.(check int)
    "union all" 8
    (List.length (Engine.query_rows db
       "SELECT p FROM task UNION ALL SELECT p FROM task"));
  Alcotest.(check int)
    "union dedupes" 4
    (List.length (Engine.query_rows db
       "SELECT p FROM task UNION SELECT p FROM task"))

let test_join () =
  let db = fresh_tasky () in
  ignore
    (Engine.exec_script db
       {|
    CREATE TABLE person (name TEXT PRIMARY KEY, age INTEGER);
    INSERT INTO person (name, age) VALUES ('Ann', 31), ('Ben', 27);
  |});
  check_rows "equi join"
    [
      [ Value.Text "Organize party"; Value.Int 31 ];
      [ Value.Text "Learn for exam"; Value.Int 27 ];
      [ Value.Text "Write paper"; Value.Int 31 ];
      [ Value.Text "Clean room"; Value.Int 27 ];
    ]
    (Engine.query_rows db
       "SELECT t.task, p.age FROM task t JOIN person p ON t.author = p.name")

let test_left_join () =
  let db = fresh_tasky () in
  ignore
    (Engine.exec_script db
       {|
    CREATE TABLE person (name TEXT PRIMARY KEY, age INTEGER);
    INSERT INTO person (name, age) VALUES ('Ann', 31);
  |});
  check_rows "left join pads with NULL"
    [
      [ Value.Text "Ann"; Value.Int 31 ];
      [ Value.Text "Ben"; Value.Null ];
      [ Value.Text "Ann"; Value.Int 31 ];
      [ Value.Text "Ben"; Value.Null ];
    ]
    (Engine.query_rows db
       "SELECT t.author, p.age FROM task t LEFT JOIN person p ON t.author = p.name")

let test_cross_join () =
  let db = fresh_tasky () in
  Alcotest.(check int) "cartesian" 16
    (List.length (Engine.query_rows db "SELECT a.p, b.p FROM task a, task b"))

let test_exists () =
  let db = fresh_tasky () in
  ignore
    (Engine.exec_script db
       {|
    CREATE TABLE done (p INTEGER PRIMARY KEY);
    INSERT INTO done (p) VALUES (1), (3);
  |});
  check_rows "not exists"
    [ [ Value.Int 2 ]; [ Value.Int 4 ] ]
    (Engine.query_rows db
       "SELECT p FROM task t WHERE NOT EXISTS (SELECT * FROM done d WHERE d.p = t.p)");
  check_rows "exists with extra inner predicate"
    [ [ Value.Int 3 ] ]
    (Engine.query_rows db
       "SELECT p FROM task t WHERE EXISTS (SELECT * FROM done d WHERE d.p = t.p AND d.p > 2)")

let test_in_subquery () =
  let db = fresh_tasky () in
  check_rows "in subquery"
    [ [ Value.Text "Write paper" ]; [ Value.Text "Clean room" ] ]
    (Engine.query_rows db
       "SELECT task FROM task WHERE p IN (SELECT p FROM task WHERE prio = 1)")

let test_scalar_subquery () =
  let db = fresh_tasky () in
  Alcotest.(check int) "scalar" 4
    (Engine.query_int db "SELECT (SELECT COUNT(*) FROM task)")

let test_aggregates () =
  let db = fresh_tasky () in
  Alcotest.(check int) "count" 4 (Engine.query_int db "SELECT COUNT(*) FROM task");
  Alcotest.(check int) "sum" 7 (Engine.query_int db "SELECT SUM(prio) FROM task");
  Alcotest.(check int) "min" 1 (Engine.query_int db "SELECT MIN(prio) FROM task");
  Alcotest.(check int) "max" 3 (Engine.query_int db "SELECT MAX(prio) FROM task");
  check_rows "group by"
    [ [ Value.Text "Ann"; Value.Int 2 ]; [ Value.Text "Ben"; Value.Int 2 ] ]
    (Engine.query_rows db
       "SELECT author, COUNT(*) FROM task GROUP BY author");
  check_rows "having"
    [ [ Value.Text "Ben" ] ]
    (Engine.query_rows db
       "SELECT author FROM task GROUP BY author HAVING SUM(prio) = 3")

let test_aggregate_empty () =
  let db = fresh_tasky () in
  Alcotest.(check int) "count of empty" 0
    (Engine.query_int db "SELECT COUNT(*) FROM task WHERE prio = 99");
  Alcotest.(check value) "sum of empty is NULL" Value.Null
    (Engine.query_scalar db "SELECT SUM(prio) FROM task WHERE prio = 99")

let test_aggregate_empty_bare_column () =
  (* a bare column of the one group over an empty input reads NULL, just as
     a non-empty group reads its first row *)
  let db = fresh_tasky () in
  ignore (Engine.exec db "CREATE TABLE empty (p INTEGER PRIMARY KEY, a INTEGER)");
  List.iter
    (fun (sql, expected) -> check_rows sql expected (Engine.query_rows db sql))
    [
      ("SELECT a, COUNT(*) FROM empty", [ [ Value.Null; Value.Int 0 ] ]);
      ("SELECT MAX(a) + a FROM empty", [ [ Value.Null ] ]);
      ( "SELECT author, COUNT(*) FROM task WHERE prio = 99",
        [ [ Value.Null; Value.Int 0 ] ] );
      ("SELECT author, COUNT(*) FROM task WHERE prio = 3",
        [ [ Value.Text "Ann"; Value.Int 1 ] ]);
    ]

let test_null_semantics () =
  let db = Engine.create () in
  ignore
    (Engine.exec_script db
       {|
    CREATE TABLE t (p INTEGER PRIMARY KEY, a INTEGER);
    INSERT INTO t (p, a) VALUES (1, 10), (2, NULL);
  |});
  check_rows "null filtered by =" [ [ Value.Int 1 ] ]
    (Engine.query_rows db "SELECT p FROM t WHERE a = 10");
  check_rows "null not matched by <>" []
    (Engine.query_rows db "SELECT p FROM t WHERE a <> 10 AND p = 2");
  check_rows "is null" [ [ Value.Int 2 ] ]
    (Engine.query_rows db "SELECT p FROM t WHERE a IS NULL");
  check_rows "is not null" [ [ Value.Int 1 ] ]
    (Engine.query_rows db "SELECT p FROM t WHERE a IS NOT NULL");
  Alcotest.(check value) "coalesce" (Value.Int 0)
    (Engine.query_scalar db "SELECT COALESCE(a, 0) FROM t WHERE p = 2");
  Alcotest.(check value) "null arithmetic" Value.Null
    (Engine.query_scalar db "SELECT a + 1 FROM t WHERE p = 2")

let test_case_expr () =
  let db = fresh_tasky () in
  check_rows "case"
    [ [ Value.Text "hot" ]; [ Value.Text "cold" ]; [ Value.Text "hot" ];
      [ Value.Text "hot" ] ]
    (Engine.query_rows db
       "SELECT CASE WHEN prio = 1 THEN 'hot' WHEN author = 'Ann' THEN 'hot' ELSE 'cold' END FROM task")

(* --- DML ------------------------------------------------------------------- *)

let test_insert_defaults () =
  let db = fresh_tasky () in
  ignore (Engine.exec db "INSERT INTO task (p, task) VALUES (9, 'New')");
  check_rows "missing columns are NULL"
    [ [ Value.Null; Value.Text "New"; Value.Null ] ]
    (Engine.query_rows db "SELECT author, task, prio FROM task WHERE p = 9")

let test_insert_select () =
  let db = fresh_tasky () in
  ignore
    (Engine.exec db
       "CREATE TABLE archive (p INTEGER PRIMARY KEY, task TEXT)");
  Alcotest.(check int) "2 copied" 2
    (Engine.affected db
       "INSERT INTO archive (p, task) SELECT p, task FROM task WHERE prio = 1")

let test_update () =
  let db = fresh_tasky () in
  Alcotest.(check int) "1 row" 1
    (Engine.affected db "UPDATE task SET prio = prio + 10 WHERE p = 1");
  Alcotest.(check int) "updated" 13
    (Engine.query_int db "SELECT prio FROM task WHERE p = 1")

let test_delete () =
  let db = fresh_tasky () in
  Alcotest.(check int) "2 rows" 2 (Engine.affected db "DELETE FROM task WHERE prio = 1");
  Alcotest.(check int) "2 remain" 2 (Engine.query_int db "SELECT COUNT(*) FROM task")

let test_pk_violation () =
  let db = fresh_tasky () in
  (match Engine.exec db "INSERT INTO task (p, task) VALUES (1, 'dup')" with
  | exception Table.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "expected PK violation");
  (* the failing statement must have been rolled back atomically *)
  Alcotest.(check int) "row count unchanged" 4
    (Engine.query_int db "SELECT COUNT(*) FROM task")

let test_multi_row_insert_atomicity () =
  let db = fresh_tasky () in
  (match
     Engine.exec db "INSERT INTO task (p, task) VALUES (10, 'ok'), (1, 'dup')"
   with
  | exception Table.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "expected PK violation");
  Alcotest.(check int) "partial insert rolled back" 4
    (Engine.query_int db "SELECT COUNT(*) FROM task")

let test_transactions () =
  let db = fresh_tasky () in
  ignore (Engine.exec db "BEGIN");
  ignore (Engine.exec db "DELETE FROM task");
  Alcotest.(check int) "empty inside txn" 0
    (Engine.query_int db "SELECT COUNT(*) FROM task");
  ignore (Engine.exec db "ROLLBACK");
  Alcotest.(check int) "restored" 4
    (Engine.query_int db "SELECT COUNT(*) FROM task");
  ignore (Engine.exec db "BEGIN");
  ignore (Engine.exec db "DELETE FROM task WHERE p = 1");
  ignore (Engine.exec db "COMMIT");
  Alcotest.(check int) "committed" 3
    (Engine.query_int db "SELECT COUNT(*) FROM task")

let test_ddl_rollback () =
  (* the undo log covers DDL: a rolled-back transaction restores dropped
     tables with their rows, removes created objects, and the dump is
     byte-identical *)
  let db = fresh_tasky () in
  ignore (Engine.exec db "CREATE VIEW urgent AS SELECT p, author FROM task WHERE prio = 1");
  let pre = Database.dump db in
  ignore (Engine.exec db "BEGIN");
  ignore (Engine.exec db "CREATE TABLE extra (a INTEGER PRIMARY KEY, b TEXT)");
  ignore (Engine.exec db "INSERT INTO extra (a, b) VALUES (1, 'x')");
  ignore (Engine.exec db "CREATE INDEX i_prio ON task (prio)");
  ignore (Engine.exec db "DELETE FROM task WHERE p = 2");
  ignore (Engine.exec db "DROP VIEW urgent");
  ignore (Engine.exec db "DROP TABLE task");
  Alcotest.(check bool) "task gone inside txn" true
    (match Engine.query_int db "SELECT COUNT(*) FROM task" with
    | exception _ -> true
    | _ -> false);
  ignore (Engine.exec db "ROLLBACK");
  Alcotest.(check string) "dump restored" pre (Database.dump db);
  Alcotest.(check int) "rows restored" 4
    (Engine.query_int db "SELECT COUNT(*) FROM task")

let test_ddl_rollback_triggers () =
  let db = fresh_tasky () in
  ignore (Engine.exec db "CREATE VIEW urgent AS SELECT p, author, task FROM task WHERE prio = 1");
  ignore
    (Engine.exec db
       "CREATE TRIGGER urgent_ins INSTEAD OF INSERT ON urgent FOR EACH ROW BEGIN \
        INSERT INTO task (p, author, task, prio) VALUES (NEW.p, NEW.author, NEW.task, 1); END");
  let pre = Database.dump db in
  ignore (Engine.exec db "BEGIN");
  ignore (Engine.exec db "DROP TRIGGER urgent_ins");
  ignore
    (Engine.exec db
       "CREATE TRIGGER urgent_del INSTEAD OF DELETE ON urgent FOR EACH ROW BEGIN \
        DELETE FROM task WHERE p = OLD.p; END");
  ignore (Engine.exec db "ROLLBACK");
  Alcotest.(check string) "trigger catalog restored" pre (Database.dump db);
  (* the restored INSTEAD OF trigger is live again *)
  ignore (Engine.exec db "INSERT INTO urgent (p, author, task) VALUES (9, 'Zoe', 'New')");
  Alcotest.(check int) "restored trigger fired" 5
    (Engine.query_int db "SELECT COUNT(*) FROM task")

let test_failpoint () =
  let db = fresh_tasky () in
  Database.set_failpoint db 2;
  ignore (Engine.exec db "DELETE FROM task WHERE p = 1");
  (match Engine.exec db "DELETE FROM task WHERE p = 2" with
  | exception Database.Injected_fault _ -> ()
  | _ -> Alcotest.fail "expected injected fault");
  (* the failpoint disarms itself when it fires *)
  ignore (Engine.exec db "DELETE FROM task WHERE p = 3");
  Alcotest.(check int) "only the faulted statement was lost" 2
    (Engine.query_int db "SELECT COUNT(*) FROM task")

(* --- views and triggers ------------------------------------------------------ *)

let test_view_read () =
  let db = fresh_tasky () in
  ignore
    (Engine.exec db
       "CREATE VIEW urgent AS SELECT p, author, task FROM task WHERE prio = 1");
  check_rows "view rows"
    [ [ Value.Int 3; Value.Text "Ann" ]; [ Value.Int 4; Value.Text "Ben" ] ]
    (Engine.query_rows db "SELECT p, author FROM urgent");
  (* views over views *)
  ignore (Engine.exec db "CREATE VIEW urgent2 AS SELECT author FROM urgent");
  Alcotest.(check int) "nested view" 2
    (Engine.query_int db "SELECT COUNT(*) FROM urgent2")

let test_view_insert_trigger () =
  let db = fresh_tasky () in
  ignore
    (Engine.exec db
       "CREATE VIEW urgent AS SELECT p, author, task FROM task WHERE prio = 1");
  ignore
    (Engine.exec db
       "CREATE TRIGGER urgent_ins INSTEAD OF INSERT ON urgent FOR EACH ROW BEGIN \
        INSERT INTO task (p, author, task, prio) VALUES (NEW.p, NEW.author, NEW.task, 1); END");
  ignore
    (Engine.exec db
       "INSERT INTO urgent (p, author, task) VALUES (7, 'Cleo', 'Ship it')");
  Alcotest.(check int) "propagated with prio 1" 1
    (Engine.query_int db "SELECT prio FROM task WHERE p = 7")

let test_view_update_delete_triggers () =
  let db = fresh_tasky () in
  ignore
    (Engine.exec db
       "CREATE VIEW urgent AS SELECT p, author, task FROM task WHERE prio = 1");
  ignore
    (Engine.exec db
       "CREATE TRIGGER urgent_upd INSTEAD OF UPDATE ON urgent FOR EACH ROW BEGIN \
        UPDATE task SET author = NEW.author, task = NEW.task WHERE p = OLD.p; END");
  ignore
    (Engine.exec db
       "CREATE TRIGGER urgent_del INSTEAD OF DELETE ON urgent FOR EACH ROW BEGIN \
        DELETE FROM task WHERE p = OLD.p; END");
  Alcotest.(check int) "update through view" 1
    (Engine.affected db "UPDATE urgent SET task = 'Party!' WHERE p = 3");
  Alcotest.(check value) "base table updated" (Value.Text "Party!")
    (Engine.query_scalar db "SELECT task FROM task WHERE p = 3");
  Alcotest.(check int) "delete through view" 1
    (Engine.affected db "DELETE FROM urgent WHERE p = 4");
  Alcotest.(check int) "gone from base" 0
    (Engine.query_int db "SELECT COUNT(*) FROM task WHERE p = 4")

let test_trigger_cascade () =
  (* view -> view -> table, two trigger hops *)
  let db = fresh_tasky () in
  ignore (Engine.exec db "CREATE VIEW v1 AS SELECT p, task FROM task");
  ignore
    (Engine.exec db
       "CREATE TRIGGER v1_ins INSTEAD OF INSERT ON v1 FOR EACH ROW BEGIN \
        INSERT INTO task (p, task, prio) VALUES (NEW.p, NEW.task, 5); END");
  ignore (Engine.exec db "CREATE VIEW v2 AS SELECT p, task FROM v1");
  ignore
    (Engine.exec db
       "CREATE TRIGGER v2_ins INSTEAD OF INSERT ON v2 FOR EACH ROW BEGIN \
        INSERT INTO v1 (p, task) VALUES (NEW.p, NEW.task); END");
  ignore (Engine.exec db "INSERT INTO v2 (p, task) VALUES (11, 'cascade')");
  Alcotest.(check int) "reached base table" 5
    (Engine.query_int db "SELECT prio FROM task WHERE p = 11")

let test_trigger_set_new () =
  let db = fresh_tasky () in
  ignore (Engine.exec db "CREATE VIEW v1 AS SELECT p, task FROM task");
  ignore
    (Engine.exec db
       "CREATE TRIGGER v1_ins INSTEAD OF INSERT ON v1 FOR EACH ROW BEGIN \
        SET NEW.p = COALESCE(NEW.p, 100 + NEXTVAL('ids')); \
        INSERT INTO task (p, task, prio) VALUES (NEW.p, NEW.task, 1); END");
  ignore (Engine.exec db "INSERT INTO v1 (task) VALUES ('auto id')");
  Alcotest.(check int) "id assigned" 1
    (Engine.query_int db "SELECT COUNT(*) FROM task WHERE p = 101")

let test_sequences () =
  let db = Engine.create () in
  Alcotest.(check int) "1" 1 (Engine.query_int db "SELECT NEXTVAL('s')");
  Alcotest.(check int) "2" 2 (Engine.query_int db "SELECT NEXTVAL('s')");
  Alcotest.(check int) "independent" 1 (Engine.query_int db "SELECT NEXTVAL('t')")

let test_registered_function () =
  let db = Engine.create () in
  Database.register_function db "double"
    (fun _ args ->
      match args with
      | [ Value.Int i ] -> Value.Int (2 * i)
      | _ -> Value.Null);
  Alcotest.(check int) "udf" 42 (Engine.query_int db "SELECT DOUBLE(21)")

let test_drop_table_drops_triggers () =
  let db = fresh_tasky () in
  ignore (Engine.exec db "CREATE VIEW v1 AS SELECT p FROM task");
  ignore
    (Engine.exec db
       "CREATE TRIGGER v1_ins INSTEAD OF INSERT ON v1 FOR EACH ROW BEGIN \
        INSERT INTO task (p) VALUES (NEW.p); END");
  ignore (Engine.exec db "DROP VIEW v1");
  (* recreating the view and trigger must not clash with stale state *)
  ignore (Engine.exec db "CREATE VIEW v1 AS SELECT p FROM task");
  ignore
    (Engine.exec db
       "CREATE TRIGGER v1_ins INSTEAD OF INSERT ON v1 FOR EACH ROW BEGIN \
        INSERT INTO task (p) VALUES (NEW.p); END")

(* --- planner fast paths --------------------------------------------------------- *)

let chain_db depth =
  (* v0 -> v1 -> ... -> v<depth> as stacked views *)
  let db = Engine.create () in
  ignore (Engine.exec db "CREATE TABLE base (p INTEGER PRIMARY KEY, a INTEGER)");
  for i = 1 to 200 do
    ignore (Engine.execf db "INSERT INTO base (p, a) VALUES (%d, %d)" i (i * 2))
  done;
  ignore (Engine.exec db "CREATE VIEW v0 AS SELECT p, a FROM base");
  for d = 1 to depth do
    ignore (Engine.execf db "CREATE VIEW v%d AS SELECT p, a + 1 AS a FROM v%d" d (d - 1))
  done;
  db

let test_view_pushdown_equivalence () =
  let db = chain_db 8 in
  let with_opts flag sql =
    Database.set_optimizations db flag;
    let r = Engine.query_rows db sql in
    Database.set_optimizations db true;
    r
  in
  List.iter
    (fun sql ->
      Alcotest.(check (list (list value)))
        sql (with_opts false sql) (with_opts true sql))
    [
      "SELECT a FROM v8 WHERE p = 42";
      "SELECT a FROM v8 WHERE p = 9999";
      "SELECT COUNT(*) FROM v8 WHERE a > 100";
      "SELECT a FROM v3 WHERE p = 1";
    ]

(* A pushed key may be any column-free expression of pure built-ins: the
   prepared body runs with the key evaluated once and answers as the
   reference does. A key that calls any other function is not pushed. *)
let test_computed_pushdown_keys () =
  let db = chain_db 8 in
  Database.register_function db "twice" (fun _ -> function
    | [ Value.Int i ] -> Value.Int (2 * i)
    | _ -> Value.Null);
  let plan sql =
    match Sql_parser.statement_of_string sql with
    | Sql_ast.Query q -> Exec.plan db q
    | _ -> Alcotest.fail "not a query"
  in
  let rec pushed (p : Exec.plan) =
    p.Exec.path = "pushdown" || List.exists pushed p.Exec.inputs
  in
  List.iter
    (fun (sql, push) ->
      Alcotest.(check bool) (sql ^ ": pushed") push (pushed (plan sql));
      check_rows sql [ [ Value.Int 92 ] ] (Engine.query_rows db sql);
      Database.set_optimizations db false;
      check_rows (sql ^ ": reference") [ [ Value.Int 92 ] ] (Engine.query_rows db sql);
      Database.set_optimizations db true)
    [
      ("SELECT a FROM v8 WHERE p = 40 + 2", true);
      ("SELECT a FROM v8 WHERE p = ABS(0 - 42)", true);
      ("SELECT a FROM v8 WHERE p = COALESCE(NULL, 42)", true);
      ("SELECT a FROM v8 WHERE p = twice(21)", false);
    ]

let test_pushdown_through_union_view () =
  let db = Engine.create () in
  ignore
    (Engine.exec_script db
       {|
    CREATE TABLE t1 (p INTEGER PRIMARY KEY, a INTEGER);
    CREATE TABLE t2 (p INTEGER PRIMARY KEY, a INTEGER);
    INSERT INTO t1 (p, a) VALUES (1, 10), (2, 20);
    INSERT INTO t2 (p, a) VALUES (3, 30), (4, 40);
    CREATE VIEW u AS SELECT p, a FROM t1 UNION ALL SELECT p, a FROM t2;
  |});
  Alcotest.(check (list (list value)))
    "keyed lookup through union"
    [ [ Value.Int 30 ] ]
    (Engine.query_rows db "SELECT a FROM u WHERE p = 3")

let test_index_nl_join_equivalence () =
  let db = chain_db 2 in
  ignore (Engine.exec db "CREATE TABLE small (p INTEGER PRIMARY KEY, tag TEXT)");
  ignore (Engine.exec db "INSERT INTO small (p, tag) VALUES (5, 'x'), (7, 'y')");
  let q = "SELECT s.tag, b.a FROM small s JOIN base b ON b.p = s.p" in
  Database.set_optimizations db false;
  let slow = List.sort compare (Engine.query_rows db q) in
  Database.set_optimizations db true;
  let fast = List.sort compare (Engine.query_rows db q) in
  Alcotest.(check (list (list value))) "join equal" slow fast

let test_trigger_depth_guard () =
  let db = Engine.create () in
  ignore (Engine.exec db "CREATE TABLE t (p INTEGER PRIMARY KEY)");
  ignore (Engine.exec db "CREATE VIEW v AS SELECT p FROM t");
  (* a self-recursive trigger must hit the depth guard, not loop forever *)
  ignore
    (Engine.exec db
       "CREATE TRIGGER loop INSTEAD OF INSERT ON v FOR EACH ROW BEGIN         INSERT INTO v (p) VALUES (NEW.p + 1); END");
  (match Engine.exec db "INSERT INTO v (p) VALUES (1)" with
  | exception Exec.Exec_error _ -> ()
  | _ -> Alcotest.fail "expected depth-guard error");
  (* and the failed cascade must have been rolled back atomically *)
  Alcotest.(check int) "rolled back" 0 (Engine.query_int db "SELECT COUNT(*) FROM t")

(* A view dropped and re-created over a view that reads it closes a cycle:
   a read through it is refused, on the plain path and through key-pinned
   pushdown, with either executor. *)
let test_view_cycle () =
  List.iter
    (fun batch ->
      let db = Engine.create () in
      Database.set_batch db batch;
      ignore
        (Engine.exec_script db
           {|
        CREATE TABLE x2 (p INTEGER PRIMARY KEY);
        CREATE VIEW x1 AS SELECT * FROM x2;
        DROP TABLE x2;
        CREATE VIEW x2 AS SELECT * FROM x1;
      |});
      List.iter
        (fun sql ->
          match Engine.query_rows db sql with
          | exception Exec.Exec_error msg ->
            Alcotest.(check string) sql "view x1 depends on itself" msg
          | _ -> Alcotest.failf "%s: a read through a view cycle returned" sql)
        [ "SELECT * FROM x1"; "SELECT * FROM x1 WHERE p = 1" ])
    [ true; false ]

(* A plan prepared once serves many statements, so it may keep nothing one
   run builds. (a) A view whose body decorrelates a NOT EXISTS on a column
   without an index hashes the inner table per statement: after a write to
   the inner table, a read — in full and key-pinned — sees it. (b) A
   multi-row INSERT ... SELECT through a view fires its prepared trigger once
   per row, and each firing sees the writes of the firings before it (its
   EXISTS reads no column of its select, so it runs once per firing). Both
   executors, view cache off. *)
let test_prepared_plans_keep_no_run_state () =
  List.iter
    (fun batch ->
      let db = Engine.create () in
      Database.set_batch db batch;
      Database.set_view_cache db false;
      ignore
        (Engine.exec_script db
           {|
        CREATE TABLE owner (p INTEGER PRIMARY KEY, k INTEGER);
        CREATE TABLE claim (p INTEGER PRIMARY KEY, k INTEGER);
        INSERT INTO owner (p, k) VALUES (1, 10), (2, 20), (3, 30);
        INSERT INTO claim (p, k) VALUES (1, 20);
        CREATE VIEW unclaimed AS
          SELECT p, k FROM owner o
          WHERE NOT EXISTS (SELECT * FROM claim c WHERE c.k = o.k);
      |});
      let label what = Fmt.str "%s (batch %b)" what batch in
      let read () = Engine.query_rows db "SELECT * FROM unclaimed" in
      let pinned () = Engine.query_rows db "SELECT k FROM unclaimed WHERE p = 3" in
      for _ = 1 to 2 do
        check_rows (label "full read") [ [ Int 1; Int 10 ]; [ Int 3; Int 30 ] ] (read ());
        check_rows (label "pinned read") [ [ Int 30 ] ] (pinned ())
      done;
      ignore (Engine.exec db "INSERT INTO claim (p, k) VALUES (2, 30)");
      check_rows (label "full read after a write") [ [ Int 1; Int 10 ] ] (read ());
      check_rows (label "pinned read after a write") [] (pinned ());
      ignore
        (Engine.exec_script db
           {|
        CREATE TABLE src (p INTEGER PRIMARY KEY, g INTEGER);
        CREATE TABLE dst (p INTEGER PRIMARY KEY, g INTEGER);
        CREATE VIEW dv AS SELECT p, g FROM dst;
        CREATE TRIGGER dv_ins INSTEAD OF INSERT ON dv FOR EACH ROW BEGIN
          INSERT INTO dst (p, g) SELECT s.p, s.g FROM src s
          WHERE s.p = NEW.p AND NOT EXISTS (SELECT * FROM dst WHERE g = NEW.g);
        END;
        INSERT INTO src (p, g) VALUES (1, 7), (2, 8), (3, 7), (4, 8), (5, 9);
      |});
      ignore (Engine.exec db "INSERT INTO dv (p, g) SELECT p, g FROM src ORDER BY p");
      check_rows (label "one row per group, the first")
        [ [ Int 1; Int 7 ]; [ Int 2; Int 8 ]; [ Int 5; Int 9 ] ]
        (Engine.query_rows db "SELECT * FROM dst"))
    [ true; false ]

(* A subquery that reads an enclosing row only in an aggregating select's
   items or HAVING is correlated, though compiling it without the enclosing
   scopes puts its errors off until a group runs: each outer row gets its
   own answer, with the fast paths on and off, on both executors. *)
let test_correlated_aggregate_subqueries () =
  List.iter
    (fun (batch, fast) ->
      let db = Engine.create () in
      Database.set_batch db batch;
      Database.set_optimizations db fast;
      ignore
        (Engine.exec_script db
           {|
        CREATE TABLE a (p INTEGER PRIMARY KEY, name TEXT);
        CREATE TABLE t (p INTEGER PRIMARY KEY, g INTEGER);
        INSERT INTO a (p, name) VALUES (1, 'x'), (2, 'y');
        INSERT INTO t (p, g) VALUES (1, 1), (2, 3), (3, 3);
      |});
      let label what = Fmt.str "%s (batch %b, fast paths %b)" what batch fast in
      check_rows (label "correlated HAVING") [ [ Value.Text "x" ] ]
        (Engine.query_rows db
           "SELECT name FROM a WHERE EXISTS \
            (SELECT t.g FROM t GROUP BY t.g HAVING t.g = a.p)");
      check_rows (label "correlated grouped item")
        [ [ Value.Text "x"; Value.Int 1 ]; [ Value.Text "y"; Value.Int 2 ] ]
        (Engine.query_rows db
           "SELECT name, (SELECT MAX(t.p) * a.p FROM t GROUP BY t.g \
            HAVING t.g = 1) FROM a");
      check_rows (label "correlated ungrouped item")
        [ [ Value.Text "x"; Value.Int 4 ]; [ Value.Text "y"; Value.Int 5 ] ]
        (Engine.query_rows db "SELECT name, (SELECT COUNT(*) + a.p FROM t) FROM a"))
    [ (true, true); (true, false); (false, true); (false, false) ]

(* A bare integer in ORDER BY or GROUP BY is a 1-based position in the
   select list, as in PostgreSQL, with either executor. *)
let test_positional_keys () =
  List.iter
    (fun batch ->
      let db = Engine.create () in
      Database.set_batch db batch;
      ignore
        (Engine.exec_script db
           {|
        CREATE TABLE r (p INTEGER PRIMARY KEY, a INTEGER, b TEXT);
        INSERT INTO r (p, a, b) VALUES (1, 1, 'x'), (2, 2, 'x'), (3, 2, 'y');
      |});
      check_rows "GROUP BY 1"
        [ [ Value.Text "x"; Value.Int 2 ]; [ Value.Text "y"; Value.Int 1 ] ]
        (Engine.query_rows db "SELECT b, COUNT(*) FROM r GROUP BY 1");
      Alcotest.(check (list (list value)))
        "ORDER BY 1 DESC"
        [
          [ Value.Int 3; Value.Int 2; Value.Text "y" ];
          [ Value.Int 2; Value.Int 2; Value.Text "x" ];
          [ Value.Int 1; Value.Int 1; Value.Text "x" ];
        ]
        (Engine.query_rows db "SELECT * FROM r ORDER BY 1 DESC");
      List.iter
        (fun (sql, expected) ->
          match Engine.query_rows db sql with
          | exception Exec.Exec_error msg ->
            Alcotest.(check string) sql expected msg
          | _ -> Alcotest.failf "%s: accepted" sql)
        [
          ("SELECT * FROM r ORDER BY 5", "ORDER BY position 5 is not in select list");
          ( "SELECT b, COUNT(*) FROM r GROUP BY 3",
            "GROUP BY position 3 is not in select list" );
        ])
    [ true; false ]

let test_three_valued_not_in () =
  let db = Engine.create () in
  ignore
    (Engine.exec_script db
       {|
    CREATE TABLE t (p INTEGER PRIMARY KEY, a INTEGER);
    INSERT INTO t (p, a) VALUES (1, 1), (2, NULL);
  |});
  (* NOT IN over a set containing NULL filters everything *)
  Alcotest.(check int) "not in with null" 0
    (Engine.query_int db
       "SELECT COUNT(*) FROM t WHERE a NOT IN (SELECT a FROM t WHERE p = 2)");
  Alcotest.(check int) "in finds match" 1
    (Engine.query_int db "SELECT COUNT(*) FROM t WHERE a IN (1, 3)")

let test_order_by_nulls_and_limit () =
  let db = Engine.create () in
  ignore
    (Engine.exec_script db
       {|
    CREATE TABLE t (p INTEGER PRIMARY KEY, a INTEGER);
    INSERT INTO t (p, a) VALUES (1, 5), (2, NULL), (3, 1);
  |});
  Alcotest.(check (list (list value)))
    "nulls sort first ascending"
    [ [ Value.Null ]; [ Value.Int 1 ]; [ Value.Int 5 ] ]
    (Engine.query_rows db "SELECT a FROM t ORDER BY a");
  Alcotest.(check (list (list value)))
    "desc + limit"
    [ [ Value.Int 5 ]; [ Value.Int 1 ] ]
    (Engine.query_rows db "SELECT a FROM t ORDER BY a DESC LIMIT 2")

(* First-row mode over the shapes it stops early on — index probes, index
   nested-loop joins (inner and left outer), DISTINCT, UNION and UNION ALL
   views, derived tables: LIMIT 1 returns the first row of the same query
   without it, and EXISTS is true exactly when rows exist, on both
   executors. *)
let test_first_row_answers () =
  List.iter
    (fun batch ->
      let db = Engine.create () in
      Database.set_batch db batch;
      ignore
        (Engine.exec_script db
           {|
        CREATE TABLE t (p INTEGER PRIMARY KEY, a INTEGER, b TEXT);
        CREATE INDEX t_a ON t (a);
        CREATE TABLE u (p INTEGER PRIMARY KEY, a INTEGER);
        CREATE INDEX u_a ON u (a);
        INSERT INTO t (p, a, b) VALUES (1, 1, 'x'), (2, 1, 'y'), (3, 2, 'x'),
          (4, 1, 'x'), (5, 7, 'z');
        INSERT INTO u (p, a) VALUES (10, 1), (11, 2), (12, 1);
        CREATE VIEW v AS SELECT DISTINCT t.a AS a, t.b AS b FROM u JOIN t
          ON u.a = t.a;
        CREATE VIEW w AS SELECT p, a FROM t UNION SELECT p, a FROM u;
        CREATE VIEW w2 AS SELECT a FROM t UNION ALL SELECT a FROM u;
      |});
      List.iter
        (fun (select, from_where) ->
          let q = select ^ " " ^ from_where in
          let label = Fmt.str "%s (batch %b)" q batch in
          let first =
            match Engine.query_rows db q with [] -> [] | r :: _ -> [ r ]
          in
          Alcotest.(check (list (list value)))
            (label ^ " LIMIT 1") first
            (Engine.query_rows db (q ^ " LIMIT 1"));
          Alcotest.(check bool) (label ^ " EXISTS") (first <> [])
            (Engine.query_rows db
               (Fmt.str "SELECT 1 WHERE EXISTS (SELECT * %s)" from_where)
            <> []))
        [
          ("SELECT b", "FROM t WHERE a = 1");
          ("SELECT b", "FROM t WHERE a = 1 AND b <> 'x'");
          ("SELECT DISTINCT b", "FROM t WHERE a = 1");
          ("SELECT a, b", "FROM v WHERE a = 1 AND b = 'x'");
          ("SELECT a, b", "FROM v WHERE a = 3");
          ("SELECT p", "FROM w WHERE a = 1 AND p > 2");
          ("SELECT a", "FROM w2 WHERE a = 2");
          ("SELECT t1.b", "FROM u JOIN t t1 ON u.a = t1.a WHERE u.p = 12");
          ("SELECT t.b, u.p", "FROM t LEFT JOIN u ON u.a = t.a WHERE t.p = 5");
          ("SELECT x.b", "FROM (SELECT b, a FROM t WHERE a = 1) x WHERE x.b = 'y'");
        ];
      let plan sql =
        match Sql_parser.statement_of_string sql with
        | Sql_ast.Query q -> Exec.plan db q
        | _ -> Alcotest.fail "not a query"
      in
      let rec marked (p : Exec.plan) = p.Exec.first_row || List.exists marked p.Exec.inputs in
      Alcotest.(check bool) "UNION runs in first-row mode" true
        (marked (plan "SELECT p FROM w WHERE a = 1 LIMIT 1"));
      Alcotest.(check bool) "no LIMIT, no first-row mode" false
        (marked (plan "SELECT p FROM w WHERE a = 1")))
    [ true; false ]

let test_scalar_subquery_multi_row_error () =
  let db = fresh_tasky () in
  match Engine.query db "SELECT (SELECT p FROM task)" with
  | exception Exec.Exec_error _ -> ()
  | _ -> Alcotest.fail "expected multi-row scalar error"

let test_update_via_in_subquery () =
  let db = fresh_tasky () in
  Alcotest.(check int) "two urgent renamed" 2
    (Engine.affected db
       "UPDATE task SET task = 'urgent' WHERE p IN (SELECT p FROM task WHERE prio = 1)")

let test_rollback_restores_sequences () =
  let db = Engine.create () in
  ignore (Engine.exec db "CREATE TABLE t (p INTEGER PRIMARY KEY)");
  ignore (Engine.exec db "BEGIN");
  Alcotest.(check int) "1" 1 (Engine.query_int db "SELECT NEXTVAL('s')");
  ignore (Engine.exec db "ROLLBACK");
  Alcotest.(check int) "sequence rolled back" 1
    (Engine.query_int db "SELECT NEXTVAL('s')")

(* --- cross-statement view cache ------------------------------------------------ *)

let test_index_lookup_order () =
  let db = Engine.create () in
  ignore (Engine.exec db "CREATE TABLE t (p INTEGER PRIMARY KEY, a TEXT)");
  ignore (Engine.exec db "CREATE INDEX t_a ON t (a)");
  for i = 1 to 40 do
    ignore (Engine.execf db "INSERT INTO t (p, a) VALUES (%d, 'dup')" i)
  done;
  let tbl = Database.find_table db "t" in
  let idx = Option.get (Table.indexed_column tbl "a") in
  let rowids = Table.index_lookup idx (Value.Text "dup") in
  Alcotest.(check (list int))
    "ascending rowids" (List.sort compare rowids) rowids;
  (* and the order survives an indexed probe plan: compare *unsorted* *)
  Alcotest.(check (list (list value)))
    "probe in insertion order"
    (List.init 40 (fun i -> [ Value.Int (i + 1) ]))
    (Engine.query_rows db "SELECT p FROM t WHERE a = 'dup'")

let test_view_cache_epochs () =
  let db = fresh_tasky () in
  ignore
    (Engine.exec db
       "CREATE VIEW urgent AS SELECT author, task FROM task WHERE prio = 1");
  let q = "SELECT author FROM urgent ORDER BY author" in
  let r1 = Engine.query_rows db q in
  let r2 = Engine.query_rows db q in
  Alcotest.(check (list (list value))) "repeat read stable" r1 r2;
  let hits, misses = Database.cache_stats db in
  Alcotest.(check bool) "second read was a hit" true (hits >= 1 && misses >= 1);
  ignore
    (Engine.exec db
       "INSERT INTO task (p, author, task, prio) VALUES (9, 'Eve', 'New', 1)");
  Alcotest.(check int)
    "write invalidates the cached view" 3
    (Engine.query_int db "SELECT COUNT(*) FROM urgent");
  (* a failing statement rolls back but still bumps epochs: no stale serve *)
  (match
     Engine.exec db
       "INSERT INTO task (p, author, task, prio) VALUES (9, 'Dup', 'x', 1)"
   with
  | exception Table.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "expected pk violation");
  Alcotest.(check int)
    "rolled-back write leaves view consistent" 3
    (Engine.query_int db "SELECT COUNT(*) FROM urgent");
  (* disabling the cache drops entries and stops serving *)
  Database.set_view_cache db false;
  let h0, _ = Database.cache_stats db in
  ignore (Engine.query_rows db q);
  ignore (Engine.query_rows db q);
  let h1, _ = Database.cache_stats db in
  Alcotest.(check int) "no hits while disabled" h0 h1

let test_view_cache_impure_function () =
  let db = Engine.create () in
  ignore (Engine.exec db "CREATE TABLE t (p INTEGER PRIMARY KEY)");
  ignore (Engine.exec db "INSERT INTO t (p) VALUES (1)");
  ignore
    (Engine.exec db
       "CREATE VIEW ticking AS SELECT NEXTVAL('s') AS n FROM t");
  (* NEXTVAL is impure: the view must re-evaluate on every statement even
     though no base table changed *)
  let v1 = Engine.query_int db "SELECT n FROM ticking" in
  let v2 = Engine.query_int db "SELECT n FROM ticking" in
  Alcotest.(check bool) "impure view re-evaluates" true (v2 > v1)

let test_constraint_error_function () =
  let db = fresh_tasky () in
  (match
     Engine.query db "SELECT CONSTRAINT_ERROR('boom ' || p) FROM task WHERE p = 1"
   with
  | exception Table.Constraint_violation msg ->
    Alcotest.(check string) "message" "boom 1" msg
  | _ -> Alcotest.fail "expected constraint violation");
  (* unevaluated branch of a CASE must not fire *)
  Alcotest.(check int) "guarded case" 4
    (Engine.query_int db
       "SELECT COUNT(CASE WHEN p < 0 THEN CONSTRAINT_ERROR('no') ELSE p END) \
        FROM task")

(* --- qcheck properties -------------------------------------------------------- *)

let qsuite =
  let open QCheck in
  let ins_then_count =
    Test.make ~name:"insert count matches SELECT COUNT(*)" ~count:50
      (list small_nat) (fun xs ->
        let db = Engine.create () in
        ignore (Engine.exec db "CREATE TABLE t (p INTEGER PRIMARY KEY, a INTEGER)");
        let inserted =
          List.fold_left
            (fun (i, n) x ->
              ignore
                (Engine.execf db "INSERT INTO t (p, a) VALUES (%d, %d)" i x);
              (i + 1, n + 1))
            (0, 0) xs
          |> snd
        in
        Engine.query_int db "SELECT COUNT(*) FROM t" = inserted)
  in
  let update_preserves_count =
    Test.make ~name:"update never changes cardinality" ~count:50
      (pair (list small_nat) small_nat) (fun (xs, bump) ->
        let db = Engine.create () in
        ignore (Engine.exec db "CREATE TABLE t (p INTEGER PRIMARY KEY, a INTEGER)");
        List.iteri
          (fun i x ->
            ignore (Engine.execf db "INSERT INTO t (p, a) VALUES (%d, %d)" i x))
          xs;
        let before = Engine.query_int db "SELECT COUNT(*) FROM t" in
        ignore (Engine.execf db "UPDATE t SET a = a + %d" bump);
        Engine.query_int db "SELECT COUNT(*) FROM t" = before)
  in
  let sum_linear =
    Test.make ~name:"SUM is linear under constant shift" ~count:50
      (list_of_size Gen.(1 -- 20) (int_bound 1000))
      (fun xs ->
        let db = Engine.create () in
        ignore (Engine.exec db "CREATE TABLE t (p INTEGER PRIMARY KEY, a INTEGER)");
        List.iteri
          (fun i x ->
            ignore (Engine.execf db "INSERT INTO t (p, a) VALUES (%d, %d)" i x))
          xs;
        let s = Engine.query_int db "SELECT SUM(a) FROM t" in
        let s2 = Engine.query_int db "SELECT SUM(a + 1) FROM t" in
        s2 = s + List.length xs)
  in
  let dedupe_idempotent =
    Test.make ~name:"UNION of relation with itself is identity" ~count:50
      (list (pair (int_bound 10) (int_bound 10)))
      (fun xs ->
        let db = Engine.create () in
        ignore (Engine.exec db "CREATE TABLE t (p INTEGER PRIMARY KEY, a INTEGER)");
        List.iteri
          (fun i (_, x) ->
            ignore (Engine.execf db "INSERT INTO t (p, a) VALUES (%d, %d)" i x))
          xs;
        let plain =
          List.sort compare (Engine.query_rows db "SELECT a FROM t UNION SELECT a FROM t")
        in
        let distinct =
          List.sort compare (Engine.query_rows db "SELECT DISTINCT a FROM t")
        in
        plain = distinct)
  in
  (* after any sequence of writes, each index bucket of a table lists the
     ascending rowids a filtered scan finds, reads the same rows in the same
     order eagerly and lazily, and its first k rows read lazily are that
     list's prefix *)
  let index_buckets_ordered =
    let op =
      Gen.(
        oneof
          [
            map2 (fun k a -> `Insert (k, a)) (int_bound 30) (int_bound 4);
            map2 (fun i a -> `Update (i, a)) small_nat (int_bound 4);
            map (fun i -> `Delete i) small_nat;
            map (fun i -> `Restore i) small_nat;
            return `Clear;
          ])
    in
    Test.make ~name:"index buckets list ascending rowids" ~count:200
      (make Gen.(list_size (0 -- 60) op))
      (fun ops ->
        let t =
          Table.create ~name:"t"
            ~schema:
              (Schema.make
                 [ Schema.column "p" Value.TInt; Schema.column "a" Value.TInt ])
            ~pk:(Some 0)
        in
        Table.add_index t "a";
        let deleted = ref [] in
        let nth_row i =
          match List.sort compare (Table.to_rows t) with
          | [] -> None
          | rows -> Some (List.nth rows (i mod List.length rows))
        in
        List.iter
          (function
            | `Insert (k, a) -> (
              try ignore (Table.insert t [| Value.Int k; Value.Int a |])
              with Table.Constraint_violation _ -> ())
            | `Update (i, a) -> (
              match nth_row i with
              | Some (rowid, row) ->
                ignore (Table.update t rowid [| row.(0); Value.Int a |])
              | None -> ())
            | `Delete i -> (
              match nth_row i with
              | Some (rowid, row) ->
                ignore (Table.delete t rowid);
                deleted := (rowid, row) :: !deleted
              | None -> ())
            | `Restore i -> (
              match !deleted with
              | [] -> ()
              | ds ->
                let rowid, row = List.nth ds (i mod List.length ds) in
                deleted := List.filter (fun (r, _) -> r <> rowid) ds;
                if Table.find t rowid = None && not (Table.pk_conflict t row)
                then Table.restore t rowid row)
            | `Clear ->
              Table.clear t;
              deleted := [])
          ops;
        let scan = List.sort compare (Table.to_rows t) in
        List.for_all
          (fun (col, pos) ->
            let idx = Option.get (Table.indexed_column t col) in
            List.for_all
              (fun v ->
                let hits = List.filter (fun (_, row) -> row.(pos) = v) scan in
                let rowids = Table.index_lookup idx v in
                let rows = List.map snd hits in
                rowids = List.map fst hits
                && List.for_all
                     (fun k ->
                       List.of_seq (Seq.take k (Table.index_rows t idx v))
                       = List.filteri (fun i _ -> i < k) rows)
                     (List.init (List.length rows + 2) Fun.id)
                && Table.index_probe t idx v = rows
                && List.of_seq (Table.index_rows t idx v) = rows)
              (List.init 32 (fun i -> Value.Int i)))
          [ ("p", 0); ("a", 1) ])
  in
  List.map QCheck_alcotest.to_alcotest
    [ ins_then_count; update_preserves_count; sum_linear; dedupe_idempotent;
      index_buckets_ordered ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "minidb"
    [
      ( "value",
        [ tc "compare" test_value_compare; tc "literal" test_value_literal ] );
      ( "parser",
        [
          tc "roundtrip" test_parser_roundtrip;
          tc "trigger" test_parser_trigger;
          tc "qualified names" test_parser_qualified_names;
          tc "errors" test_parser_errors;
          tc "integer literal range" test_integer_literal_range;
        ] );
      ( "query",
        [
          tc "select/where" test_select_where;
          tc "order/limit" test_order_limit;
          tc "distinct" test_distinct;
          tc "union" test_union;
          tc "join" test_join;
          tc "left join" test_left_join;
          tc "cross join" test_cross_join;
          tc "exists" test_exists;
          tc "in subquery" test_in_subquery;
          tc "scalar subquery" test_scalar_subquery;
          tc "aggregates" test_aggregates;
          tc "aggregate empty" test_aggregate_empty;
          tc "aggregate empty, bare column" test_aggregate_empty_bare_column;
          tc "null semantics" test_null_semantics;
          tc "case" test_case_expr;
        ] );
      ( "dml",
        [
          tc "insert defaults" test_insert_defaults;
          tc "insert select" test_insert_select;
          tc "update" test_update;
          tc "delete" test_delete;
          tc "pk violation" test_pk_violation;
          tc "statement atomicity" test_multi_row_insert_atomicity;
          tc "transactions" test_transactions;
          tc "ddl rollback" test_ddl_rollback;
          tc "ddl rollback triggers" test_ddl_rollback_triggers;
          tc "failpoint" test_failpoint;
        ] );
      ( "planner",
        [
          tc "view pushdown equivalence" test_view_pushdown_equivalence;
          tc "computed pushdown keys" test_computed_pushdown_keys;
          tc "pushdown through union" test_pushdown_through_union_view;
          tc "index nested-loop join" test_index_nl_join_equivalence;
          tc "trigger depth guard" test_trigger_depth_guard;
          tc "view cycle refused" test_view_cycle;
          tc "prepared plans keep no run state"
            test_prepared_plans_keep_no_run_state;
          tc "correlated aggregate subqueries"
            test_correlated_aggregate_subqueries;
          tc "positional ORDER BY and GROUP BY" test_positional_keys;
          tc "three-valued NOT IN" test_three_valued_not_in;
          tc "order by NULLs + limit" test_order_by_nulls_and_limit;
          tc "first-row answers" test_first_row_answers;
          tc "scalar multi-row error" test_scalar_subquery_multi_row_error;
          tc "update via IN subquery" test_update_via_in_subquery;
          tc "rollback restores sequences" test_rollback_restores_sequences;
        ] );
      ( "views+triggers",
        [
          tc "view read" test_view_read;
          tc "insert trigger" test_view_insert_trigger;
          tc "update/delete triggers" test_view_update_delete_triggers;
          tc "cascade" test_trigger_cascade;
          tc "set new" test_trigger_set_new;
          tc "sequences" test_sequences;
          tc "registered function" test_registered_function;
          tc "drop cleans triggers" test_drop_table_drops_triggers;
        ] );
      ( "view cache",
        [
          tc "index lookup order" test_index_lookup_order;
          tc "epoch invalidation" test_view_cache_epochs;
          tc "impure functions bypass" test_view_cache_impure_function;
          tc "CONSTRAINT_ERROR builtin" test_constraint_error_function;
        ] );
      ("properties", qsuite);
    ]
