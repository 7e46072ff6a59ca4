(* Scenario-level tests: the handwritten-SQL baseline must behave exactly
   like the InVerDa-generated delta code (differential oracle), the synthetic
   Wikimedia history must reproduce the Table 4 histogram, and every two-SMO
   chain of Figure 13 must build, load and migrate. *)

module I = Inverda.Api
module Value = Minidb.Value

let sorted_rows db sql =
  Minidb.Engine.query_rows db sql
  |> List.map (List.map Value.to_string)
  |> List.sort compare

(* --- handwritten vs generated --------------------------------------------- *)

let compare_systems ~materialization ops =
  let inverda = Scenarios.Tasky.setup_full ~tasks:30 () in
  (match materialization with
  | Scenarios.Tasky_sql.Initial -> ()
  | Scenarios.Tasky_sql.Evolved -> I.materialize inverda [ "TasKy2" ]);
  let hand = Scenarios.Tasky_sql.setup ~tasks:30 ~materialization () in
  let idb = I.database inverda in
  List.iter
    (fun op ->
      (match Minidb.Engine.exec idb op with
      | _ -> ()
      | exception e ->
        Alcotest.failf "inverda failed on %s: %s" op (Printexc.to_string e));
      match Minidb.Engine.exec hand op with
      | _ -> ()
      | exception e ->
        Alcotest.failf "handwritten failed on %s: %s" op (Printexc.to_string e))
    ops;
  List.iter
    (fun probe ->
      Alcotest.(check (list (list string)))
        (Fmt.str "same answer for %s" probe)
        (sorted_rows hand probe) (sorted_rows idb probe))
    [
      "SELECT author, task, prio FROM TasKy.Task";
      "SELECT author, task FROM Do!.Todo";
      "SELECT task, prio FROM TasKy2.Task";
      "SELECT name FROM TasKy2.Author";
      "SELECT t.task, a.name FROM TasKy2.Task t JOIN TasKy2.Author a ON t.author = a.p";
    ]

let crud_ops =
  [
    "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Zoe', 'Task via v1', 1)";
    "INSERT INTO Do!.Todo (author, task) VALUES ('Yan', 'Task via Do')";
    "UPDATE TasKy.Task SET prio = 2 WHERE task = 'Task via v1'";
    "UPDATE Do!.Todo SET task = 'renamed via do' WHERE author = 'Yan'";
    "DELETE FROM TasKy.Task WHERE task = 'task-3'";
    "UPDATE TasKy2.Task SET prio = 5 WHERE task = 'task-5'";
    "UPDATE TasKy2.Author SET name = 'Annette' WHERE name = 'Ann'";
    "DELETE FROM Do!.Todo WHERE task = 'task-7'";
  ]

let test_differential_initial () =
  compare_systems ~materialization:Scenarios.Tasky_sql.Initial crud_ops

let test_differential_evolved () =
  compare_systems ~materialization:Scenarios.Tasky_sql.Evolved crud_ops

let test_handwritten_migration_preserves () =
  let hand = Scenarios.Tasky_sql.setup ~tasks:25 () in
  let before = sorted_rows hand "SELECT author, task, prio FROM TasKy.Task" in
  Scenarios.Tasky_sql.migrate_to_evolved hand;
  let after = sorted_rows hand "SELECT author, task, prio FROM TasKy.Task" in
  Alcotest.(check (list (list string))) "TasKy unchanged by migration" before after

(* --- Table 3 metrics -------------------------------------------------------- *)

let test_code_size_ratio () =
  let bidel_evo =
    Bidel.Metrics.measure (Scenarios.Tasky.bidel_do ^ "\n" ^ Scenarios.Tasky.bidel_tasky2)
  in
  let sql_evo = Bidel.Metrics.measure Scenarios.Tasky_sql.evolution_script in
  let bidel_mig = Bidel.Metrics.measure Scenarios.Tasky.bidel_migration in
  let sql_mig = Bidel.Metrics.measure Scenarios.Tasky_sql.migration_script in
  (* the paper reports 359x LoC for the evolution and 182x for the migration;
     we only assert the orders of magnitude *)
  Alcotest.(check bool)
    "evolution SQL an order of magnitude longer" true
    (sql_evo.Bidel.Metrics.lines >= 10 * bidel_evo.Bidel.Metrics.lines
    && sql_evo.Bidel.Metrics.characters >= 10 * bidel_evo.Bidel.Metrics.characters);
  Alcotest.(check bool)
    "migration SQL roughly two orders of magnitude longer" true
    (sql_mig.Bidel.Metrics.lines >= 50 * bidel_mig.Bidel.Metrics.lines);
  Alcotest.(check bool)
    "bidel evolution fits in a handful of statements" true
    (bidel_evo.Bidel.Metrics.statements <= 6)

(* --- workload machinery ------------------------------------------------------ *)

let test_workload_runs () =
  let t = Scenarios.Tasky.setup_full ~tasks:40 () in
  let r = Scenarios.Workload.make_runner (I.database t) in
  let elapsed =
    Scenarios.Workload.run_mix r ~version:Scenarios.Workload.V_tasky
      ~mix:Scenarios.Workload.paper_mix ~ops:40
  in
  Alcotest.(check bool) "positive time" true (elapsed >= 0.0);
  (* all versions still answer *)
  Alcotest.(check bool) "tasky2 alive" true
    (I.query_int t "SELECT COUNT(*) FROM TasKy2.Task" >= 0)

let test_adoption_curve () =
  let f0 = Scenarios.Workload.adoption_fraction ~slice:0 ~slices:100 in
  let f50 = Scenarios.Workload.adoption_fraction ~slice:50 ~slices:100 in
  let f100 = Scenarios.Workload.adoption_fraction ~slice:100 ~slices:100 in
  Alcotest.(check bool) "starts low" true (f0 < 0.05);
  Alcotest.(check bool) "midpoint" true (abs_float (f50 -. 0.5) < 0.05);
  Alcotest.(check bool) "ends high" true (f100 > 0.95)

(* --- view-cache coherence ------------------------------------------------------ *)

let unsorted_rows t sql =
  List.map (List.map Value.to_string) (I.query_rows t sql)

let test_cache_coherence_randomized () =
  (* a cached and an uncached instance driven by the same seeded random
     workload — reads, inserts, updates and deletes interleaved across all
     three versions, with migrations in between — must stay byte-identical
     (unsorted: even row order must agree) *)
  let module W = Scenarios.Workload in
  let mk cache =
    let t = Scenarios.Tasky.setup_full ~tasks:40 () in
    I.set_cache t cache;
    let r = W.make_runner ~rng:(Scenarios.Rng.create ~seed:99 ()) (I.database t) in
    (t, r)
  in
  let t_on, r_on = mk true in
  let t_off, r_off = mk false in
  let probes =
    [
      "SELECT * FROM TasKy.Task";
      "SELECT * FROM Do!.Todo";
      "SELECT * FROM TasKy2.Task";
      "SELECT * FROM TasKy2.Author";
    ]
  in
  let agree msg =
    List.iter
      (fun q ->
        (* prime the cache so the comparison read is a cache hit *)
        ignore (I.query_rows t_on q);
        Alcotest.(check (list (list string)))
          (msg ^ ": " ^ q) (unsorted_rows t_off q) (unsorted_rows t_on q))
      probes
  in
  let phase version =
    ignore (W.run_mix r_on ~version ~mix:W.paper_mix ~ops:25);
    ignore (W.run_mix r_off ~version ~mix:W.paper_mix ~ops:25)
  in
  phase W.V_tasky;
  agree "after TasKy mix";
  phase W.V_do;
  agree "after Do! mix";
  I.materialize t_on [ "TasKy2" ];
  I.materialize t_off [ "TasKy2" ];
  agree "after MATERIALIZE TasKy2";
  phase W.V_tasky2;
  agree "after TasKy2 mix";
  I.materialize t_on [ "TasKy" ];
  I.materialize t_off [ "TasKy" ];
  phase W.V_tasky;
  agree "after migrating back + TasKy mix";
  let hits, misses = I.cache_stats t_on in
  Alcotest.(check bool) "cache exercised" true (hits > 0 && misses > 0)

let test_wikimedia_cache_coherence () =
  (* same invariant on the deeper Wikimedia genealogy: reads at version
     distance 4+ agree with the cache on and off, before and after a
     migration *)
  let mk cache =
    let api, names = Scenarios.Wikimedia.build ~versions:8 () in
    I.set_cache api cache;
    Scenarios.Wikimedia.load api ~version:names.(3) ~pages:40 ~links:120;
    (api, names)
  in
  let on, names = mk true in
  let off, _ = mk false in
  let probes =
    [
      Scenarios.Wikimedia.query_page_by_title ~version:names.(7) ~i:5;
      Scenarios.Wikimedia.query_link_count ~version:names.(7);
      Scenarios.Wikimedia.query_link_count ~version:names.(0);
    ]
  in
  let agree msg =
    List.iter
      (fun q ->
        ignore (I.query_rows on q);
        Alcotest.(check (list (list string)))
          (msg ^ ": " ^ q) (unsorted_rows off q) (unsorted_rows on q))
      probes
  in
  agree "virtualized";
  I.materialize on [ names.(6) ];
  I.materialize off [ names.(6) ];
  agree "after MATERIALIZE";
  let hits, _ = I.cache_stats on in
  Alcotest.(check bool) "cache served hits" true (hits > 0)

(* --- Wikimedia ---------------------------------------------------------------- *)

let test_wikimedia_small () =
  let api, names = Scenarios.Wikimedia.build ~versions:12 () in
  Alcotest.(check int) "12 versions" 12 (Array.length names);
  Scenarios.Wikimedia.load api ~version:names.(5) ~pages:30 ~links:60;
  (* pages visible in first and last version *)
  let db = I.database api in
  Alcotest.(check int) "pages in v001" 30
    (Minidb.Engine.query_int db "SELECT COUNT(*) FROM v001.page");
  Alcotest.(check int) "pages in last" 30
    (Minidb.Engine.query_int db
       (Fmt.str "SELECT COUNT(*) FROM %s.page" names.(11)));
  Alcotest.(check int) "links joined" 60
    (Minidb.Engine.query_int db
       (Fmt.str "SELECT COUNT(*) FROM %s.link" names.(11)))

let test_wikimedia_histogram_full () =
  (* building all 171 versions must reproduce the Table 4 histogram exactly *)
  let api, names = Scenarios.Wikimedia.build () in
  Alcotest.(check int) "171 versions" 171 (Array.length names);
  let hist = Scenarios.Wikimedia.histogram api in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) name expected (List.assoc name hist))
    [
      ("CREATE TABLE", 42); ("DROP TABLE", 10); ("RENAME TABLE", 1);
      ("ADD COLUMN", 95); ("DROP COLUMN", 21); ("RENAME COLUMN", 36);
      ("JOIN", 0); ("DECOMPOSE", 4); ("MERGE", 2); ("SPLIT", 0);
    ]

(* --- two-SMO chains ----------------------------------------------------------- *)

let test_two_smo_chains () =
  List.iter
    (fun k1 ->
      List.iter
        (fun k2 ->
          let name =
            Fmt.str "%s + %s" (Scenarios.Two_smo.kind_name k1)
              (Scenarios.Two_smo.kind_name k2)
          in
          match
            let t = Scenarios.Two_smo.build (k1, k2) in
            Scenarios.Two_smo.load t 20;
            (* all three versions answer under all three materializations *)
            List.iter
              (fun v ->
                Scenarios.Two_smo.materialize_at t v;
                Scenarios.Two_smo.read_all t "v1";
                Scenarios.Two_smo.read_all t "v2";
                Scenarios.Two_smo.read_all t "v3")
              [ "v2"; "v3"; "v1" ];
            (* R's contents survive every migration *)
            Alcotest.(check int)
              (name ^ ": R cardinality")
              20
              (I.query_int t "SELECT COUNT(*) FROM v2.R")
          with
          | () -> ()
          | exception e ->
            Alcotest.failf "%s failed: %s" name (Printexc.to_string e))
        Scenarios.Two_smo.all_kinds)
    Scenarios.Two_smo.all_kinds

(* --- randomized differential + invariance properties --------------------------- *)

(* a random CRUD statement against a random version view; both systems expose
   the same views, so one statement stream drives both *)
let random_op rng i =
  let author () = Scenarios.Rng.pick rng Scenarios.Tasky.authors in
  match Scenarios.Rng.int rng 8 with
  | 0 ->
    Fmt.str "INSERT INTO TasKy.Task (author, task, prio) VALUES ('%s', 'r%d', %d)"
      (author ()) i (1 + Scenarios.Rng.int rng 4)
  | 1 -> Fmt.str "INSERT INTO Do!.Todo (author, task) VALUES ('%s', 'd%d')" (author ()) i
  | 2 -> Fmt.str "UPDATE TasKy.Task SET prio = %d WHERE task = 'task-%d'"
           (1 + Scenarios.Rng.int rng 4) (1 + Scenarios.Rng.int rng 25)
  | 3 -> Fmt.str "UPDATE TasKy.Task SET author = '%s' WHERE task = 'task-%d'"
           (author ()) (1 + Scenarios.Rng.int rng 25)
  | 4 -> Fmt.str "DELETE FROM TasKy.Task WHERE task = 'task-%d'" (1 + Scenarios.Rng.int rng 25)
  | 5 -> Fmt.str "UPDATE Do!.Todo SET task = 'u%d' WHERE task = 'task-%d'" i
           (1 + Scenarios.Rng.int rng 25)
  | 6 -> Fmt.str "DELETE FROM Do!.Todo WHERE task = 'task-%d'" (1 + Scenarios.Rng.int rng 25)
  | _ -> Fmt.str "UPDATE TasKy2.Task SET prio = %d WHERE task = 'task-%d'"
           (1 + Scenarios.Rng.int rng 4) (1 + Scenarios.Rng.int rng 25)

let probes =
  [
    "SELECT author, task, prio FROM TasKy.Task";
    "SELECT author, task FROM Do!.Todo";
    "SELECT task, prio FROM TasKy2.Task";
  ]

let qcheck_differential =
  QCheck.Test.make ~name:"random workload: handwritten = generated" ~count:25
    QCheck.(pair int (int_bound 1))
    (fun (seed, mat) ->
      let materialization =
        if mat = 0 then Scenarios.Tasky_sql.Initial else Scenarios.Tasky_sql.Evolved
      in
      let inverda = Scenarios.Tasky.setup_full ~tasks:25 () in
      (match materialization with
      | Scenarios.Tasky_sql.Initial -> ()
      | Scenarios.Tasky_sql.Evolved -> I.materialize inverda [ "TasKy2" ]);
      let hand = Scenarios.Tasky_sql.setup ~tasks:25 ~materialization () in
      let rng = Scenarios.Rng.create ~seed:(abs seed) () in
      let idb = I.database inverda in
      for i = 1 to 30 do
        let op = random_op rng i in
        ignore (Minidb.Engine.exec idb op);
        ignore (Minidb.Engine.exec hand op)
      done;
      List.for_all
        (fun probe -> sorted_rows hand probe = sorted_rows idb probe)
        probes)

let qcheck_no_duplicate_keys =
  (* the UNION ALL exclusivity invariant: no version view may ever show a key
     twice, whatever the writes and the materialization *)
  QCheck.Test.make ~name:"no duplicate keys in any version view" ~count:20
    QCheck.(pair int (int_bound 4))
    (fun (seed, mat_idx) ->
      let t = Scenarios.Tasky.setup_full ~tasks:20 () in
      let mats = Inverda.Genealogy.enumerate_materializations (I.genealogy t) in
      I.set_materialization t (List.nth mats (mat_idx mod List.length mats));
      let rng = Scenarios.Rng.create ~seed:(abs seed) () in
      let db = I.database t in
      for i = 1 to 25 do
        ignore (Minidb.Engine.exec db (random_op rng i))
      done;
      List.for_all
        (fun view ->
          let keys =
            Minidb.Engine.query_rows db (Fmt.str "SELECT p FROM %s" view)
          in
          List.length keys = List.length (List.sort_uniq compare keys))
        [ "TasKy.Task"; "Do!.Todo"; "TasKy2.Task"; "TasKy2.Author" ])

let qcheck_migration_invariance =
  (* migrations must be invisible: after random writes, walking through a
     random sequence of valid materializations never changes any version's
     contents *)
  QCheck.Test.make ~name:"migration invariance under random workloads" ~count:15
    QCheck.(pair int (list_of_size (Gen.return 3) (int_bound 4)))
    (fun (seed, path) ->
      let t = Scenarios.Tasky.setup_full ~tasks:15 () in
      let rng = Scenarios.Rng.create ~seed:(abs seed) () in
      let db = I.database t in
      for i = 1 to 20 do
        ignore (Minidb.Engine.exec db (random_op rng i))
      done;
      let snapshot () = List.map (sorted_rows db) probes in
      let before = snapshot () in
      let mats = Inverda.Genealogy.enumerate_materializations (I.genealogy t) in
      List.for_all
        (fun idx ->
          I.set_materialization t (List.nth mats (idx mod List.length mats));
          snapshot () = before)
        path)

let qcheck_optimizer_equivalence =
  (* the planner fast paths (index probes, view pushdown, index nested-loop
     joins) must never change results *)
  QCheck.Test.make ~name:"optimizer fast paths preserve semantics" ~count:15
    QCheck.(pair int (int_bound 1))
    (fun (seed, mat) ->
      let build optimizations =
        let t = Scenarios.Tasky.setup_full ~tasks:20 () in
        if mat = 1 then I.materialize t [ "TasKy2" ];
        Minidb.Database.set_optimizations (I.database t) optimizations;
        let rng = Scenarios.Rng.create ~seed:(abs seed) () in
        let db = I.database t in
        for i = 1 to 20 do
          ignore (Minidb.Engine.exec db (random_op rng i))
        done;
        List.map (sorted_rows db) probes
      in
      build true = build false)

let qcheck_first_row =
  (* first-row mode answers like full evaluation: an EXISTS like the COUNT
     of its query, a LIMIT 1 like the first row of its query without it —
     under every materialization, after seeded writes, for keys [k] and [j]
     drawn from the instance's own *)
  QCheck.Test.make ~name:"first-row EXISTS and LIMIT 1 agree with full evaluation"
    ~count:25
    QCheck.(quad (int_bound 4) int small_nat small_nat)
    (fun (mat_idx, seed, ki, ji) ->
      let t = Scenarios.Tasky.setup_full ~tasks:30 () in
      let mats = Inverda.Genealogy.enumerate_materializations (I.genealogy t) in
      I.set_materialization t (List.nth mats (mat_idx mod List.length mats));
      let db = I.database t in
      ignore
        (Scenarios.Workload.replay_profile
           (Scenarios.Workload.make_runner
              ~rng:(Scenarios.Rng.create ~seed:(abs seed) ())
              db)
           ~shares:Scenarios.Workload.[ (V_tasky, 0.3); (V_tasky2, 0.4); (V_do, 0.3) ]
           ~mix:Scenarios.Workload.paper_mix ~ops:40);
      let rows sql = Minidb.Engine.query_rows db sql in
      let keys =
        rows "SELECT p FROM TasKy2.Author UNION SELECT p FROM TasKy2.Task"
        |> List.sort compare |> Array.of_list
      in
      let key i =
        if Array.length keys = 0 then "0"
        else Value.to_string (List.hd keys.(i mod Array.length keys))
      in
      let k = key ki in
      (* [j] among [k]'s own tasks when it has some, so that the EXISTS is
         false exactly when [k] keeps one task *)
      let j =
        match rows (Fmt.str "SELECT p FROM TasKy2.Task WHERE author = %s" k) with
        | [] -> key ji
        | tasks -> Value.to_string (List.hd (List.nth tasks (ji mod List.length tasks)))
      in
      let where = Fmt.str "author = %s AND p <> %s" k j in
      let count =
        Minidb.Engine.query_int db ("SELECT COUNT(*) FROM TasKy2.Task WHERE " ^ where)
      in
      let exists =
        rows
          (Fmt.str "SELECT 1 WHERE EXISTS (SELECT * FROM TasKy2.Task WHERE %s)"
             where)
        <> []
      in
      exists = (count > 0)
      && List.for_all
           (fun view ->
             let q = Fmt.str "SELECT * FROM %s WHERE p = %s" view k in
             let first = match rows q with [] -> [] | r :: _ -> [ r ] in
             rows (q ^ " LIMIT 1") = first)
           [ "TasKy2.Author"; "TasKy2.Task"; "TasKy.Task"; "Do!.Todo" ])

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_differential; qcheck_no_duplicate_keys; qcheck_migration_invariance;
      qcheck_optimizer_equivalence; qcheck_first_row;
    ]

(* --- writes in O(|delta|) ------------------------------------------------------ *)

(* The rows a statement's operators produce, summed over the operator spans
   of its profile-mode trace (rows entering an operator are not counted). *)
let rows_produced db sql =
  let m = db.Minidb.Database.metrics in
  Minidb.Metrics.set_detail m true;
  ignore (Minidb.Engine.exec db sql);
  Minidb.Metrics.set_detail m false;
  match List.rev (Minidb.Metrics.recent_traces m) with
  | [] -> Alcotest.failf "%s: no trace recorded" sql
  | tr :: _ ->
    List.fold_left
      (fun n (sp : Minidb.Metrics.span) ->
        match sp.Minidb.Metrics.sp_kind with
        | "select" | "scan" | "view" | "join" -> n + max 0 sp.Minidb.Metrics.sp_rows
        | _ -> n)
      0 tr.Minidb.Metrics.tr_spans

(* A TasKy2 write at the initial materialization reads a bounded number of
   rows whatever the table holds: the partner lookup and the "does this
   author keep a task" test stop at their first row instead of reading every
   task of the author. So growing TasKy from 5,000 to 50,000 tasks (each
   author's fan-out with it) must not grow what an insert, an update or a
   delete through TasKy2.Task produces. *)
let test_tasky2_writes_bounded () =
  let produced tasks =
    let t = Scenarios.Tasky.setup_full ~tasks () in
    let db = I.database t in
    let author =
      match Minidb.Engine.query_rows db "SELECT p FROM TasKy2.Author" with
      | [ p ] :: _ -> Value.to_string p
      | _ -> Alcotest.fail "TasKy2.Author is empty"
    in
    List.map
      (fun (name, sql) -> (name, rows_produced db sql))
      [
        ( "insert",
          "INSERT INTO TasKy2.Task (task, prio, author) VALUES ('new', 2, "
          ^ author ^ ")" );
        ("update", "UPDATE TasKy2.Task SET task = 'upd' WHERE p = 1");
        ("delete", "DELETE FROM TasKy2.Task WHERE p = 2");
      ]
  in
  let small = produced 5_000 and large = produced 50_000 in
  List.iter2
    (fun (name, s) (_, l) ->
      Alcotest.(check bool)
        (Fmt.str "TasKy2 %s: %d rows at 50,000 tasks, %d at 5,000" name l s)
        true (l <= s))
    small large

(* Delta code is prepared once per catalog state. At 5,000 tasks, under the
   initial materialization, the second TasKy2 insert, TasKy2 update, Do!
   update and TasKy2 delete prepare no plan: every trigger statement and view
   body they run was prepared by the first. The first write after a CREATE
   SCHEMA VERSION, which reinstalls all delta code, prepares again. *)
let test_writes_reuse_prepared_plans () =
  let t = Scenarios.Tasky.setup_full ~tasks:5_000 () in
  let db = I.database t in
  let m = db.Minidb.Database.metrics in
  let prepared sql =
    let before = m.Minidb.Metrics.plans_prepared in
    ignore (Minidb.Engine.exec db sql);
    m.Minidb.Metrics.plans_prepared - before
  in
  let author = I.query_int t "SELECT MIN(p) FROM TasKy2.Author" in
  let key view i =
    I.query_int t (Fmt.str "SELECT MIN(p) FROM %s WHERE p > %d" view (100 * i))
  in
  let insert i =
    Fmt.str "INSERT INTO TasKy2.Task (task, prio, author) VALUES ('new-%d', 2, %d)"
      i author
  in
  List.iter
    (fun (name, sql) ->
      ignore (prepared (sql 1));
      Alcotest.(check int) (name ^ ": the second prepares no plan") 0
        (prepared (sql 2)))
    [
      ("TasKy2 insert", insert);
      ( "TasKy2 update",
        fun i ->
          Fmt.str "UPDATE TasKy2.Task SET task = 'upd-%d' WHERE p = %d" i
            (key "TasKy2.Task" i) );
      ( "Do! update",
        fun i ->
          Fmt.str "UPDATE Do!.Todo SET task = 'upd-%d' WHERE p = %d" i
            (key "Do!.Todo" i) );
      ( "TasKy2 delete",
        fun i -> Fmt.str "DELETE FROM TasKy2.Task WHERE p = %d" (key "TasKy2.Task" i) );
    ];
  I.evolve t
    "CREATE SCHEMA VERSION TasKy3 FROM TasKy2 WITH ADD COLUMN due AS 0 INTO Task;";
  Alcotest.(check bool) "the first write after an evolution prepares plans" true
    (prepared (insert 3) > 0)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "scenarios"
    [
      ( "handwritten baseline",
        [
          tc "differential (initial mat.)" test_differential_initial;
          tc "differential (evolved mat.)" test_differential_evolved;
          tc "handwritten migration" test_handwritten_migration_preserves;
          tc "code size (Table 3 shape)" test_code_size_ratio;
        ] );
      ( "workload",
        [ tc "mix runs" test_workload_runs; tc "adoption curve" test_adoption_curve ] );
      ( "view cache",
        [
          tc "randomized workload coherence" test_cache_coherence_randomized;
          tc "wikimedia coherence" test_wikimedia_cache_coherence;
        ] );
      ( "wikimedia",
        [
          tc "small build + load" test_wikimedia_small;
          slow "full 171-version histogram (Table 4)" test_wikimedia_histogram_full;
        ] );
      ("two-smo", [ slow "all 36 chains" test_two_smo_chains ]);
      ( "writes",
        [
          slow "TasKy2 writes bounded in the table size" test_tasky2_writes_bounded;
          tc "second writes prepare no plan" test_writes_reuse_prepared_plans;
        ] );
      ("properties", property_tests);
    ]
