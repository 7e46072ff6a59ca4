(* End-to-end tests of InVerDa: the TasKy running example of the paper with
   co-existing schema versions, write propagation in both directions, and
   materialization changes that must be invisible to every version. *)

module I = Inverda.Api
module Value = Minidb.Value

let tasky_script =
  "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio);"

let do_script =
  {|CREATE SCHEMA VERSION Do! FROM TasKy WITH
      SPLIT TABLE Task INTO Todo WITH prio = 1;
      DROP COLUMN prio FROM Todo DEFAULT 1;|}

let tasky2_script =
  {|CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH
      DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author;
      RENAME COLUMN author IN Author TO name;|}

let setup_tasky () =
  let t = I.create () in
  I.evolve t tasky_script;
  List.iter
    (fun (author, task, prio) ->
      ignore
        (I.exec_sql t
           (Fmt.str
              "INSERT INTO TasKy.Task (author, task, prio) VALUES ('%s', '%s', %d)"
              author task prio)))
    [
      ("Ann", "Organize party", 3);
      ("Ben", "Learn for exam", 2);
      ("Ann", "Write paper", 1);
      ("Ben", "Clean room", 1);
    ];
  t

let setup_full () =
  let t = setup_tasky () in
  I.evolve t do_script;
  I.evolve t tasky2_script;
  t

let sorted rows = List.sort compare rows

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_rows msg expected actual =
  Alcotest.(check (list (list string)))
    msg (sorted expected)
    (sorted (List.map (List.map Value.to_string) actual))

(* reads every version must serve, used after each state change *)
let check_all_versions ?(extra = []) t =
  check_rows "TasKy.Task"
    ([
       [ "Ann"; "Organize party"; "3" ];
       [ "Ben"; "Learn for exam"; "2" ];
       [ "Ann"; "Write paper"; "1" ];
       [ "Ben"; "Clean room"; "1" ];
     ]
    @ extra)
    (I.query_rows t "SELECT author, task, prio FROM TasKy.Task");
  check_rows "Do!.Todo"
    ([ [ "Ann"; "Write paper" ]; [ "Ben"; "Clean room" ] ]
    @ List.filter_map
        (function
          | [ a; tk; "1" ] -> Some [ a; tk ]
          | _ -> None)
        extra)
    (I.query_rows t "SELECT author, task FROM Do!.Todo");
  check_rows "TasKy2.Task"
    ([
       [ "Organize party"; "3" ];
       [ "Learn for exam"; "2" ];
       [ "Write paper"; "1" ];
       [ "Clean room"; "1" ];
     ]
    @ List.map (function [ _; tk; p ] -> [ tk; p ] | _ -> assert false) extra)
    (I.query_rows t "SELECT task, prio FROM TasKy2.Task");
  check_rows "TasKy2.Author"
    (List.sort_uniq compare
       ([ [ "Ann" ]; [ "Ben" ] ]
       @ List.map (function [ a; _; _ ] -> [ a ] | _ -> assert false) extra))
    (I.query_rows t "SELECT name FROM TasKy2.Author")

let test_initial_version () =
  let t = setup_tasky () in
  Alcotest.(check int)
    "4 tasks" 4
    (I.query_int t "SELECT COUNT(*) FROM TasKy.Task");
  Alcotest.(check (list string)) "one version" [ "TasKy" ] (I.versions t)

let test_do_version () =
  let t = setup_tasky () in
  I.evolve t do_script;
  check_rows "urgent only"
    [ [ "Ann"; "Write paper" ]; [ "Ben"; "Clean room" ] ]
    (I.query_rows t "SELECT author, task FROM Do!.Todo");
  (* write through Do! : insert gets prio 1 in TasKy (the DROP COLUMN
     DEFAULT) *)
  ignore
    (I.exec_sql t "INSERT INTO Do!.Todo (author, task) VALUES ('Cleo', 'Ship it')");
  check_rows "visible in TasKy with prio 1"
    [ [ "Cleo"; "Ship it"; "1" ] ]
    (I.query_rows t
       "SELECT author, task, prio FROM TasKy.Task WHERE author = 'Cleo'");
  (* update through Do! *)
  ignore
    (I.exec_sql t
       "UPDATE Do!.Todo SET task = 'Ship it now' WHERE author = 'Cleo'");
  Alcotest.(check int)
    "updated in TasKy" 1
    (I.query_int t
       "SELECT COUNT(*) FROM TasKy.Task WHERE task = 'Ship it now'");
  (* delete through Do! *)
  ignore (I.exec_sql t "DELETE FROM Do!.Todo WHERE author = 'Cleo'");
  Alcotest.(check int)
    "gone from TasKy" 0
    (I.query_int t "SELECT COUNT(*) FROM TasKy.Task WHERE author = 'Cleo'")

let test_tasky2_version () =
  let t = setup_tasky () in
  I.evolve t tasky2_script;
  check_rows "normalized tasks"
    [
      [ "Organize party"; "3" ];
      [ "Learn for exam"; "2" ];
      [ "Write paper"; "1" ];
      [ "Clean room"; "1" ];
    ]
    (I.query_rows t "SELECT task, prio FROM TasKy2.Task");
  check_rows "authors deduplicated"
    [ [ "Ann" ]; [ "Ben" ] ]
    (I.query_rows t "SELECT name FROM TasKy2.Author");
  (* the foreign key joins back *)
  check_rows "join recovers the original"
    [
      [ "Ann"; "Organize party" ];
      [ "Ben"; "Learn for exam" ];
      [ "Ann"; "Write paper" ];
      [ "Ben"; "Clean room" ];
    ]
    (I.query_rows t
       "SELECT a.name, t.task FROM TasKy2.Task t JOIN TasKy2.Author a ON t.author = a.p")

let test_three_versions_coexist () =
  let t = setup_full () in
  check_all_versions t

let test_write_propagation_tasky () =
  let t = setup_full () in
  ignore
    (I.exec_sql t
       "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Cleo', 'New thing', 1)");
  check_all_versions ~extra:[ [ "Cleo"; "New thing"; "1" ] ] t

let test_write_propagation_tasky2 () =
  let t = setup_full () in
  (* insert a task for the existing author Ann through TasKy2 *)
  let ann =
    I.query_int t "SELECT p FROM TasKy2.Author WHERE name = 'Ann'"
  in
  ignore
    (I.exec_sql t
       (Fmt.str
          "INSERT INTO TasKy2.Task (task, prio, author) VALUES ('Review paper', 1, %d)"
          ann));
  check_all_versions ~extra:[ [ "Ann"; "Review paper"; "1" ] ] t

let test_materialize_tasky2 () =
  let t = setup_full () in
  I.materialize t [ "TasKy2" ];
  check_all_versions t;
  (* writes still propagate everywhere after the migration *)
  ignore
    (I.exec_sql t
       "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Cleo', 'New thing', 1)");
  check_all_versions ~extra:[ [ "Cleo"; "New thing"; "1" ] ] t

let test_materialize_do () =
  let t = setup_full () in
  I.materialize t [ "Do!" ];
  check_all_versions t;
  ignore
    (I.exec_sql t
       "INSERT INTO Do!.Todo (author, task) VALUES ('Cleo', 'Ship it')");
  check_all_versions ~extra:[ [ "Cleo"; "Ship it"; "1" ] ] t

let test_materialize_round_trip () =
  let t = setup_full () in
  I.materialize t [ "TasKy2" ];
  I.materialize t [ "Do!" ];
  I.materialize t [ "TasKy" ];
  check_all_versions t

let test_all_materializations_table2 () =
  (* Table 2 of the paper: the TasKy genealogy admits exactly 5 valid
     materialization schemas *)
  let t = setup_full () in
  let mats = Inverda.Genealogy.enumerate_materializations (I.genealogy t) in
  Alcotest.(check int) "five materializations" 5 (List.length mats);
  (* every one of them serves all versions identically *)
  List.iter
    (fun mat ->
      I.set_materialization t mat;
      check_all_versions t)
    mats

let test_duplicate_key_rejected () =
  let t = setup_full () in
  ignore
    (I.exec_sql t
       "INSERT INTO TasKy.Task (p, author, task, prio) VALUES (500, 'Zoe', 'explicit key', 1)");
  (* a second insert with the same explicit key must raise, not silently
     upsert over Zoe's row *)
  (match
     I.exec_sql t
       "INSERT INTO TasKy.Task (p, author, task, prio) VALUES (500, 'Sam', 'stolen key', 2)"
   with
  | exception Minidb.Table.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "duplicate key through a version view must be rejected");
  Alcotest.(check int)
    "exactly one row under key 500" 1
    (I.query_int t "SELECT COUNT(*) FROM TasKy.Task WHERE p = 500");
  check_rows "payload untouched (atomic rollback)"
    [ [ "Zoe"; "explicit key"; "1" ] ]
    (I.query_rows t
       "SELECT author, task, prio FROM TasKy.Task WHERE p = 500");
  (* the key is global across versions: Zoe's prio-1 row lives in the Do!
     partition too, so reusing its key there must also be rejected *)
  (match
     I.exec_sql t
       "INSERT INTO Do!.Todo (p, author, task) VALUES (500, 'Moe', 'dup via Do')"
   with
  | exception Minidb.Table.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "duplicate key via a sibling version must be rejected");
  (* inserts without an explicit key still draw fresh identifiers *)
  ignore
    (I.exec_sql t
       "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Kim', 'fresh key', 2)");
  Alcotest.(check int)
    "fresh-key insert lands" 1
    (I.query_int t "SELECT COUNT(*) FROM TasKy.Task WHERE author = 'Kim'")

let test_cache_agreement_all_materializations () =
  (* the cross-statement view cache must be semantically invisible: for every
     valid materialization schema of the TasKy genealogy, a cached and an
     uncached instance fed identical writes serve byte-identical results
     (compared *unsorted*, so even row order must agree) *)
  let t_on = setup_full () in
  let t_off = setup_full () in
  I.set_cache t_off false;
  let probes =
    [
      "SELECT * FROM TasKy.Task";
      "SELECT * FROM Do!.Todo";
      "SELECT * FROM TasKy2.Task";
      "SELECT * FROM TasKy2.Author";
      "SELECT COUNT(*) FROM TasKy.Task WHERE prio = 1";
    ]
  in
  let agree msg =
    List.iter
      (fun q ->
        (* prime the cache so the comparison read is served from it *)
        ignore (I.query_rows t_on q);
        Alcotest.(check (list (list string)))
          (msg ^ ": " ^ q)
          (List.map (List.map Value.to_string) (I.query_rows t_off q))
          (List.map (List.map Value.to_string) (I.query_rows t_on q)))
      probes
  in
  let both sql =
    ignore (I.exec_sql t_on sql);
    ignore (I.exec_sql t_off sql)
  in
  let mats = Inverda.Genealogy.enumerate_materializations (I.genealogy t_on) in
  Alcotest.(check int) "five materializations" 5 (List.length mats);
  List.iteri
    (fun i mat ->
      I.set_materialization t_on mat;
      I.set_materialization t_off mat;
      agree (Fmt.str "mat %d" i);
      both
        (Fmt.str
           "INSERT INTO Do!.Todo (author, task) VALUES ('Gil', 'todo %d')" i);
      both
        (Fmt.str
           "UPDATE TasKy.Task SET prio = 2 WHERE task = 'todo %d'" i);
      agree (Fmt.str "mat %d after writes" i))
    mats;
  let hits, _ = I.cache_stats t_on in
  Alcotest.(check bool) "cache actually served hits" true (hits > 0)

let test_update_through_tasky2 () =
  let t = setup_full () in
  (* renaming an author in TasKy2 renames it for all tasks in TasKy *)
  ignore (I.exec_sql t "UPDATE TasKy2.Author SET name = 'Annette' WHERE name = 'Ann'");
  Alcotest.(check int)
    "both tasks renamed" 2
    (I.query_int t "SELECT COUNT(*) FROM TasKy.Task WHERE author = 'Annette'")

let test_delete_through_do () =
  let t = setup_full () in
  ignore (I.exec_sql t "DELETE FROM Do!.Todo WHERE task = 'Clean room'");
  Alcotest.(check int)
    "gone in TasKy" 0
    (I.query_int t "SELECT COUNT(*) FROM TasKy.Task WHERE task = 'Clean room'");
  Alcotest.(check int)
    "gone in TasKy2" 0
    (I.query_int t "SELECT COUNT(*) FROM TasKy2.Task WHERE task = 'Clean room'")

let test_drop_schema_version () =
  let t = setup_full () in
  I.exec_bidel t (Bidel.Ast.Drop_schema_version "Do!");
  Alcotest.(check (list string))
    "two versions left" [ "TasKy"; "TasKy2" ] (I.versions t);
  (* remaining versions still work *)
  Alcotest.(check int) "tasky works" 4
    (I.query_int t "SELECT COUNT(*) FROM TasKy.Task")

let test_describe () =
  let t = setup_full () in
  let d = I.describe t in
  Alcotest.(check bool) "mentions TasKy2" true
    (Astring.String.is_infix ~affix:"TasKy2" d)

(* --- genealogy, advisor, errors, extensions ---------------------------------- *)

let test_validity_conditions () =
  (* conditions (55)/(56) of the paper *)
  let t = setup_full () in
  let gen = I.genealogy t in
  let smos = Inverda.Genealogy.all_smos gen in
  let creates =
    List.filter_map
      (fun (si : Inverda.Genealogy.smo_instance) ->
        match si.Inverda.Genealogy.si_smo with
        | Bidel.Ast.Create_table _ -> Some si.Inverda.Genealogy.si_id
        | _ -> None)
      smos
  in
  let find name =
    (List.find
       (fun (si : Inverda.Genealogy.smo_instance) ->
         Bidel.Ast.smo_name si.Inverda.Genealogy.si_smo = name)
       smos)
      .Inverda.Genealogy.si_id
  in
  let split = find "SPLIT" and dropcol = find "DROP COLUMN" in
  let decompose = find "DECOMPOSE" in
  (* (55): DROP COLUMN's source (Todo-0) requires SPLIT materialized *)
  Alcotest.(check bool) "55 violated" false
    (Inverda.Genealogy.valid_materialization gen (creates @ [ dropcol ]));
  Alcotest.(check bool) "55 satisfied" true
    (Inverda.Genealogy.valid_materialization gen (creates @ [ split; dropcol ]));
  (* (56): SPLIT and DECOMPOSE share the source Task-0 *)
  Alcotest.(check bool) "56 violated" false
    (Inverda.Genealogy.valid_materialization gen (creates @ [ split; decompose ]));
  (* CREATE TABLE SMOs are always materialized *)
  Alcotest.(check bool) "create-table SMOs mandatory" false
    (Inverda.Genealogy.valid_materialization gen [ split ])

let test_invalid_materialization_rejected () =
  let t = setup_full () in
  let gen = I.genealogy t in
  let split =
    (List.find
       (fun (si : Inverda.Genealogy.smo_instance) ->
         Bidel.Ast.smo_name si.Inverda.Genealogy.si_smo = "SPLIT")
       (Inverda.Genealogy.all_smos gen))
      .Inverda.Genealogy.si_id
  in
  match I.set_materialization t [ split ] with
  | exception Inverda.Migration.Migration_error _ -> ()
  | () -> Alcotest.fail "invalid materialization accepted"

let test_unknown_version_errors () =
  let t = setup_full () in
  (match I.materialize t [ "NoSuch" ] with
  | exception Inverda.Migration.Migration_error msg ->
    (* the full target string must appear in the report *)
    Alcotest.(check bool) "target named" true (contains msg "NoSuch")
  | () -> Alcotest.fail "unknown version accepted");
  match I.evolve t "CREATE SCHEMA VERSION X FROM NoSuch WITH CREATE TABLE t(a);" with
  | exception Inverda.Genealogy.Catalog_error _ -> ()
  | () -> Alcotest.fail "unknown parent accepted"

let test_duplicate_version_rejected () =
  let t = setup_full () in
  match I.evolve t "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE t(a);" with
  | exception Inverda.Genealogy.Catalog_error _ -> ()
  | () -> Alcotest.fail "duplicate version accepted"

let test_smo_on_unknown_table_rejected () =
  let t = setup_full () in
  match
    I.evolve t "CREATE SCHEMA VERSION X FROM TasKy WITH DROP TABLE nosuch;"
  with
  | exception Inverda.Genealogy.Catalog_error _ -> ()
  | () -> Alcotest.fail "SMO on unknown table accepted"

let test_untouched_tables_carry_over () =
  (* tables not consumed by any SMO are shared between versions *)
  let t = I.create () in
  I.evolve t "CREATE SCHEMA VERSION v1 WITH CREATE TABLE a(x); CREATE TABLE b(y);";
  I.evolve t "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN z AS 0 INTO a;";
  Alcotest.(check (list string)) "v2 keeps b" [ "b"; "a" ]
    (List.sort compare (I.version_tables t "v2") |> List.rev);
  ignore (I.exec_sql t "INSERT INTO v1.b (y) VALUES (7)");
  Alcotest.(check int) "b shared" 7 (I.query_int t "SELECT y FROM v2.b")

let test_deep_chain_writes () =
  (* 12 ADD COLUMN hops: writes propagate the whole chain in both directions *)
  let t = I.create () in
  I.evolve t "CREATE SCHEMA VERSION v0 WITH CREATE TABLE r(a);";
  for i = 1 to 12 do
    ignore
      (I.evolve t
         (Fmt.str "CREATE SCHEMA VERSION v%d FROM v%d WITH ADD COLUMN c%d AS %d INTO r;"
            i (i - 1) i i))
  done;
  ignore (I.exec_sql t "INSERT INTO v12.r (a, c12) VALUES (1, 99)");
  Alcotest.(check int) "visible at v0" 1 (I.query_int t "SELECT COUNT(*) FROM v0.r");
  ignore (I.exec_sql t "INSERT INTO v0.r (a) VALUES (2)");
  Alcotest.(check int) "defaults applied along the chain" 7
    (I.query_int t "SELECT c7 FROM v12.r WHERE a = 2");
  Alcotest.(check int) "explicit value preserved" 99
    (I.query_int t "SELECT c12 FROM v12.r WHERE a = 1");
  (* migrate the whole chain forward and back *)
  I.materialize t [ "v12" ];
  Alcotest.(check int) "v0 after migration" 2
    (I.query_int t "SELECT COUNT(*) FROM v0.r");
  I.materialize t [ "v0" ];
  Alcotest.(check int) "v12 after migrating back" 2
    (I.query_int t "SELECT COUNT(*) FROM v12.r")

let test_advisor () =
  let t = setup_full () in
  let gen = I.genealogy t in
  let pick profile =
    match Inverda.Advisor.advise gen profile with
    | Some r -> r.Inverda.Advisor.materialization
    | None -> Alcotest.fail "no recommendation"
  in
  (* pure TasKy2 load: materialize the whole decompose+rename branch *)
  let m = pick [ ("TasKy2", 1.0) ] in
  Alcotest.(check int) "TasKy2 branch fully materialized" 0
    (Inverda.Advisor.cost gen m [ ("TasKy2", 1.0) ] |> int_of_float);
  (* pure TasKy load: the initial materialization is optimal *)
  let m0 = pick [ ("TasKy", 1.0) ] in
  Alcotest.(check (float 0.001)) "TasKy local" 0.0
    (Inverda.Advisor.cost gen m0 [ ("TasKy", 1.0) ]);
  (* migrating to the recommendation keeps all versions intact *)
  Alcotest.(check bool) "migrates" true
    (Inverda.Advisor.advise_and_migrate (I.database t) gen [ ("TasKy2", 1.0) ]);
  check_all_versions t

(* No observed traffic, and explicit all-zero weights: neither may divide by
   zero or recommend migrating off the current materialization. *)
let test_advisor_zero_profile () =
  let t = setup_full () in
  let cur = I.current_materialization t in
  let conservative = function
    | None -> Alcotest.fail "advise returned no recommendation"
    | Some (r : Inverda.Advisor.recommendation) ->
      Alcotest.(check (list int)) "keeps the current materialization" cur
        r.Inverda.Advisor.materialization;
      Alcotest.(check bool) "no arbitrary tie-break alternatives" true
        (r.Inverda.Advisor.alternatives = [])
  in
  conservative (I.advise t []);
  conservative (I.advise t [ ("TasKy", 0.0); ("TasKy2", 0.0); ("Do!", 0.0) ]);
  (* a real profile still produces a full scored ranking *)
  match I.advise t [ ("TasKy2", 1.0) ] with
  | Some r ->
    Alcotest.(check bool) "non-degenerate" true
      (r.Inverda.Advisor.alternatives <> [])
  | None -> Alcotest.fail "real profile got no recommendation"

let test_bidel_via_sql_interface () =
  (* MATERIALIZE parsed from BiDEL text, with table-version targets *)
  let t = setup_full () in
  I.evolve t "MATERIALIZE 'TasKy2.Task', 'TasKy2.Author';";
  check_all_versions t

let test_drop_version_preserves_connections () =
  (* dropping the middle version keeps evolutions between the remaining ones *)
  let t = I.create () in
  I.evolve t "CREATE SCHEMA VERSION v1 WITH CREATE TABLE r(a);";
  I.evolve t "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN b AS 1 INTO r;";
  I.evolve t "CREATE SCHEMA VERSION v3 FROM v2 WITH ADD COLUMN c AS 2 INTO r;";
  ignore (I.exec_sql t "INSERT INTO v1.r (a) VALUES (5)");
  I.exec_bidel t (Bidel.Ast.Drop_schema_version "v2");
  Alcotest.(check (list string)) "v2 gone" [ "v1"; "v3" ] (I.versions t);
  Alcotest.(check int) "v3 still served" 1
    (I.query_int t "SELECT COUNT(*) FROM v3.r");
  I.materialize t [ "v3" ];
  Alcotest.(check int) "v1 still served after migration" 5
    (I.query_int t "SELECT a FROM v1.r")

let test_condition_decompose_end_to_end () =
  (* the B.4 machinery end to end: pair table, rule-166 re-joining, the
     omega-pad guard on IDn, and the IDn fold-back at virtualisation *)
  let t = I.create () in
  I.evolve t "CREATE SCHEMA VERSION v1 WITH CREATE TABLE booking(guest, room);";
  ignore
    (I.exec_sql t
       "INSERT INTO v1.booking (guest, room) VALUES ('Ann', 101), ('Ben', 102), ('Cleo', 101)");
  I.evolve t
    "CREATE SCHEMA VERSION v2 FROM v1 WITH      DECOMPOSE TABLE booking INTO guest(guest), room(room) ON guest <> 'nobody';";
  check_rows "guests" [ [ "Ann" ]; [ "Ben" ]; [ "Cleo" ] ]
    (I.query_rows t "SELECT guest FROM v2.guest");
  check_rows "rooms deduplicated" [ [ "101" ]; [ "102" ] ]
    (I.query_rows t "SELECT room FROM v2.room");
  (* renaming through v2 reaches v1 *)
  ignore (I.exec_sql t "UPDATE v2.guest SET guest = 'Annette' WHERE guest = 'Ann'");
  Alcotest.(check int) "renamed in v1" 1
    (I.query_int t "SELECT COUNT(*) FROM v1.booking WHERE guest = 'Annette'");
  I.materialize t [ "v2" ];
  check_rows "v1 after migration"
    [ [ "Annette"; "101" ]; [ "Ben"; "102" ]; [ "Cleo"; "101" ] ]
    (I.query_rows t "SELECT guest, room FROM v1.booking");
  (* a lone guest inserted while materialized re-joins with every matching
     partner (rule 166) and must not also resurface omega-padded *)
  ignore (I.exec_sql t "INSERT INTO v2.guest (guest) VALUES ('Eve')");
  check_rows "rule 166 re-joins, no padded duplicate"
    [ [ "Eve"; "101" ]; [ "Eve"; "102" ] ]
    (I.query_rows t "SELECT guest, room FROM v1.booking WHERE guest = 'Eve'");
  (* migrating back folds IDn into the persistent pair table: no duplicates *)
  I.materialize t [ "v1" ];
  check_rows "guest view stays deduplicated"
    [ [ "Annette" ]; [ "Ben" ]; [ "Cleo" ]; [ "Eve" ] ]
    (I.query_rows t "SELECT guest FROM v2.guest")

(* --- rejected evolutions leave no trace --------------------------------------- *)

(* Everything a rejected CREATE SCHEMA VERSION could leave behind: the
   version list, the catalog description and the engine state. *)
let state t =
  (String.concat "," (I.versions t), I.describe t, I.dump t)

(* [bad] must be rejected with [expected] and leave [state] byte-identical;
   the same version name must then evolve with [good]. *)
let check_rejected_cleanly t ~bad ~expected ~good =
  let before = state t in
  (match I.evolve t bad with
  | () -> Alcotest.failf "accepted: %s" bad
  | exception e when expected e -> ()
  | exception e -> Alcotest.failf "%s: unexpected %s" bad (Printexc.to_string e));
  let v, d, dump = before and v', d', dump' = state t in
  Alcotest.(check string) "versions unchanged" v v';
  Alcotest.(check string) "describe unchanged" d d';
  Alcotest.(check string) "dump unchanged" dump dump';
  I.evolve t good

let rejected_by code = function
  | Analysis.Diagnostic.Rejected ds ->
    List.exists (fun (d : Analysis.Diagnostic.t) -> d.code = code) ds
  | _ -> false

let smo_error = function
  | Bidel.Smo_semantics.Semantics_error _ -> true
  | _ -> false

let injected_fault = function
  | Minidb.Database.Injected_fault _ -> true
  | _ -> false

let test_rejected_delta_code () =
  (* an evolution that fails while its delta code is being installed — its
     tables and backfill already exist — must not linger and break the next
     evolutions, the DROP SCHEMA VERSION of the rejected name, or recovery.
     The fault hits the last statement the evolution executes, counted on a
     twin instance. *)
  let setup t =
    I.evolve t "CREATE SCHEMA VERSION v1 WITH CREATE TABLE t (a);";
    ignore (I.exec_sql t "INSERT INTO v1.t (a) VALUES (7)")
  in
  let bad =
    "CREATE SCHEMA VERSION v2 FROM v1 WITH DROP COLUMN a FROM t DEFAULT 1;"
  in
  let statements =
    let twin = I.create () in
    setup twin;
    let executed () = (I.database twin).Minidb.Database.statements_executed in
    let before = executed () in
    I.evolve twin bad;
    executed () - before
  in
  let dir = Scenarios.Faults.fresh_dir () in
  Fun.protect ~finally:(fun () -> Scenarios.Faults.rm_rf dir) @@ fun () ->
  let t = I.create () in
  I.attach_wal t dir;
  setup t;
  Minidb.Database.set_failpoint (I.database t) statements;
  check_rejected_cleanly t ~bad ~expected:injected_fault
    ~good:"CREATE SCHEMA VERSION v3 FROM v1 WITH ADD COLUMN b AS 1 INTO t;";
  (match I.evolve t "DROP SCHEMA VERSION v2;" with
  | exception Inverda.Genealogy.Catalog_error _ -> ()
  | () -> Alcotest.fail "the rejected version v2 could be dropped");
  I.evolve t "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS 2 INTO t;";
  Alcotest.(check (list string)) "versions" [ "v1"; "v3"; "v2" ] (I.versions t);
  Alcotest.(check int) "v2 reads through" 2
    (I.query_int t "SELECT c FROM v2.t WHERE a = 7");
  (* the log never saw the rejected attempt: a recovered catalog agrees *)
  I.detach_wal t;
  let r = I.recover dir in
  I.detach_wal r;
  Alcotest.(check string) "recovered describe" (I.describe t) (I.describe r);
  Alcotest.(check string) "recovered dump" (I.dump t) (I.dump r)

let test_key_only_table () =
  (* DROP COLUMN of a table's only payload column leaves rows that are just
     their key: nothing to update, so no UPDATE is generated for them, and
     the version evolves, writes propagate, and migration keeps every
     version's answers *)
  let t = I.create () in
  I.evolve t "CREATE SCHEMA VERSION v1 WITH CREATE TABLE t (a);";
  I.evolve t
    "CREATE SCHEMA VERSION v2 FROM v1 WITH DROP COLUMN a FROM t DEFAULT 1;";
  ignore (I.exec_sql t "INSERT INTO v2.t (p) VALUES (7)");
  ignore (I.exec_sql t "INSERT INTO v1.t (p, a) VALUES (8, 5)");
  check_rows "v1 reads the default" [ [ "7"; "1" ]; [ "8"; "5" ] ]
    (I.query_rows t "SELECT p, a FROM v1.t");
  ignore (I.exec_sql t "DELETE FROM v2.t WHERE p = 8");
  check_rows "delete propagates" [ [ "7"; "1" ] ]
    (I.query_rows t "SELECT p, a FROM v1.t");
  I.evolve t "CREATE SCHEMA VERSION v3 FROM v2 WITH ADD COLUMN b AS 2 INTO t;";
  let answers () =
    List.map
      (fun sql -> List.sort compare (I.query_rows t sql))
      [ "SELECT p, a FROM v1.t"; "SELECT p FROM v2.t"; "SELECT p, b FROM v3.t" ]
  in
  let before = answers () in
  I.materialize t [ "v2" ];
  Alcotest.(check bool) "MATERIALIZE v2 keeps every answer" true
    (before = answers ());
  I.materialize t [ "v1" ];
  Alcotest.(check bool) "and back" true (before = answers ());
  match I.exec_sql t "UPDATE v2.t SET p = 9 WHERE p = 7" with
  | _ -> Alcotest.fail "a key-only view accepted an UPDATE"
  | exception Minidb.Exec.Exec_error msg ->
    Alcotest.(check string) "no update trigger"
      "cannot update view v2.t (no INSTEAD OF trigger)" msg

let test_rejected_law () =
  (* strict mode refutes PutGet of JOIN ON FOREIGN KEY (VRF001) *)
  let t = I.create () in
  I.evolve t "CREATE SCHEMA VERSION v1 WITH CREATE TABLE r (a, fk); CREATE TABLE s (b);";
  ignore (I.exec_sql t "INSERT INTO v1.s (p, b) VALUES (100, 'x')");
  ignore (I.exec_sql t "INSERT INTO v1.r (a, fk) VALUES (1, 100)");
  check_rejected_cleanly t
    ~bad:"CREATE SCHEMA VERSION v2 FROM v1 WITH JOIN TABLE r, s INTO t ON FOREIGN KEY fk;"
    ~expected:(rejected_by "VRF001")
    ~good:"CREATE SCHEMA VERSION v2 FROM v1 WITH JOIN TABLE r, s INTO t ON PK;";
  Alcotest.(check (list string)) "versions" [ "v1"; "v2" ] (I.versions t)

let test_rejected_columns () =
  (* a duplicate column, or one named like the key p, is a located SMO
     error, not an escaped schema exception *)
  let t = I.create () in
  I.evolve t "CREATE SCHEMA VERSION v0 WITH CREATE TABLE u (x);";
  check_rejected_cleanly t
    ~bad:"CREATE SCHEMA VERSION v1 FROM v0 WITH CREATE TABLE t (a, a);"
    ~expected:smo_error ~good:"CREATE SCHEMA VERSION v1 FROM v0 WITH CREATE TABLE t (a);";
  check_rejected_cleanly t
    ~bad:"CREATE SCHEMA VERSION v2 FROM v1 WITH CREATE TABLE w (p);"
    ~expected:smo_error ~good:"CREATE SCHEMA VERSION v2 FROM v1 WITH CREATE TABLE w (q);";
  check_rejected_cleanly t
    ~bad:"CREATE SCHEMA VERSION v3 FROM v2 WITH ADD COLUMN p AS 1 INTO t;"
    ~expected:smo_error ~good:"CREATE SCHEMA VERSION v3 FROM v2 WITH ADD COLUMN b AS 1 INTO t;";
  Alcotest.(check (list string)) "versions" [ "v0"; "v1"; "v2"; "v3" ] (I.versions t)

(* --- prepared plans follow every catalog change -------------------------------- *)

(* Seeded paper-mix traffic over the three versions, then a full read of
   every version view: what the reads answered. *)
let version_traffic t seed =
  let module W = Scenarios.Workload in
  ignore
    (W.replay_profile
       (W.make_runner ~rng:(Scenarios.Rng.create ~seed ()) (I.database t))
       ~shares:W.[ (V_tasky, 0.3); (V_tasky2, 0.4); (V_do, 0.3) ]
       ~mix:W.paper_mix ~ops:60);
  List.map
    (fun view ->
      sorted
        (List.map (List.map Value.to_string)
           (I.query_rows t ("SELECT * FROM " ^ view))))
    [ "TasKy.Task"; "Do!.Todo"; "TasKy2.Task"; "TasKy2.Author" ]

(* [reach] takes an instance that ran traffic, and so prepared plans, to a
   state. A twin runs the same history with the planner fast paths off until
   the state is reached, so it brings no plan into it. Every version view
   must then answer the same writes and reads on both. *)
let check_plans_after label reach =
  let build fast =
    let t = Scenarios.Tasky.setup_full ~tasks:20 () in
    Minidb.Database.set_optimizations (I.database t) fast;
    ignore (version_traffic t 1);
    reach t;
    Minidb.Database.set_optimizations (I.database t) true;
    t
  in
  let t = build true and twin = build false in
  Alcotest.(check (list (list (list string))))
    (label ^ ": answers") (version_traffic twin 2) (version_traffic t 2);
  Alcotest.(check string) (label ^ ": dump") (I.dump twin) (I.dump t)

let test_plans_after_materialize () =
  check_plans_after "MATERIALIZE TasKy2 and back" (fun t ->
      I.materialize t [ "TasKy2" ];
      I.materialize t [ "TasKy" ])

let test_plans_after_rejected_evolution () =
  let bad =
    "CREATE SCHEMA VERSION TasKy3 FROM TasKy2 WITH ADD COLUMN due AS 0 INTO \
     Task;"
  in
  (* the fault hits half-way through the evolution, counted on a twin *)
  let statements =
    let twin = Scenarios.Tasky.setup_full ~tasks:20 () in
    let executed () = (I.database twin).Minidb.Database.statements_executed in
    let before = executed () in
    I.evolve twin bad;
    executed () - before
  in
  check_plans_after "a rejected CREATE SCHEMA VERSION" (fun t ->
      Minidb.Database.set_failpoint (I.database t) (statements / 2);
      match I.evolve t bad with
      | () -> Alcotest.fail "the evolution was not rejected"
      | exception Minidb.Database.Injected_fault _ ->
        Minidb.Database.clear_failpoint (I.database t))

let test_plans_after_rolled_back_view () =
  check_plans_after "a generated view re-created and rolled back" (fun t ->
      let exec sql = ignore (I.exec_sql t sql) in
      exec "BEGIN";
      exec "DROP VIEW tv!1!Task";
      exec
        "CREATE VIEW tv!1!Task AS SELECT p, author, task, 1 AS prio FROM \
         d!1!Task";
      Alcotest.(check (list (list string))) "the re-created view answers"
        [ [ "1" ] ]
        (List.map (List.map Value.to_string)
           (I.query_rows t "SELECT DISTINCT prio FROM TasKy.Task"));
      exec "ROLLBACK")

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "inverda"
    [
      ( "evolution",
        [
          tc "initial version" test_initial_version;
          tc "Do! (split + drop column)" test_do_version;
          tc "TasKy2 (fk decompose + rename)" test_tasky2_version;
          tc "three versions co-exist" test_three_versions_coexist;
        ] );
      ( "write propagation",
        [
          tc "through TasKy" test_write_propagation_tasky;
          tc "through TasKy2" test_write_propagation_tasky2;
          tc "duplicate key rejected" test_duplicate_key_rejected;
          tc "update through TasKy2" test_update_through_tasky2;
          tc "delete through Do!" test_delete_through_do;
        ] );
      ( "migration",
        [
          tc "materialize TasKy2" test_materialize_tasky2;
          tc "materialize Do!" test_materialize_do;
          tc "round trip" test_materialize_round_trip;
          tc "all 5 materializations (Table 2)" test_all_materializations_table2;
          tc "cache agreement across materializations"
            test_cache_agreement_all_materializations;
        ] );
      ( "catalog",
        [
          tc "drop schema version" test_drop_schema_version;
          tc "describe" test_describe;
          tc "validity conditions (55)/(56)" test_validity_conditions;
          tc "invalid materialization rejected" test_invalid_materialization_rejected;
          tc "unknown version errors" test_unknown_version_errors;
          tc "duplicate version rejected" test_duplicate_version_rejected;
          tc "SMO on unknown table rejected" test_smo_on_unknown_table_rejected;
          tc "untouched tables carry over" test_untouched_tables_carry_over;
          tc "drop version keeps connections" test_drop_version_preserves_connections;
        ] );
      ( "rejected versions",
        [
          tc "delta code (IVD001)" test_rejected_delta_code;
          tc "lens law (VRF001)" test_rejected_law;
          tc "duplicate or key column" test_rejected_columns;
          tc "key-only table evolves" test_key_only_table;
        ] );
      ( "prepared plans",
        [
          tc "after MATERIALIZE and back" test_plans_after_materialize;
          tc "after a rejected evolution" test_plans_after_rejected_evolution;
          tc "after a rolled-back view" test_plans_after_rolled_back_view;
        ] );
      ( "extensions",
        [
          tc "deep evolution chain" test_deep_chain_writes;
          tc "advisor" test_advisor;
          tc "advisor zero profile" test_advisor_zero_profile;
          tc "MATERIALIZE with table targets" test_bidel_via_sql_interface;
          tc "condition decompose end to end" test_condition_decompose_end_to_end;
        ] );
    ]
