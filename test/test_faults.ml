(* Fault injection for the Database Migration Operation: every failpoint
   must roll back to a byte-identical database with all version views still
   answering, and the satellites around atomic MATERIALIZE. *)

module I = Inverda.Api
module G = Inverda.Genealogy
module Db = Minidb.Database
module F = Scenarios.Faults

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* --- the sweeps (acceptance criterion) ------------------------------------ *)

let test_tasky_sweep () =
  (* all five valid TasKy materializations (Table 2), every failpoint *)
  let reports = F.sweep_tasky ~tasks:8 () in
  Alcotest.(check int) "five materializations" 5 (List.length reports);
  List.iter
    (fun (mat, (r : F.report)) ->
      let label = String.concat "," (List.map string_of_int mat) in
      Alcotest.(check bool)
        (Fmt.str "{%s}: injected a fault at every statement" label)
        true
        (r.F.failpoints >= r.F.statements))
    reports

let test_wikimedia_sweep () =
  let r = F.sweep_wikimedia ~versions:4 ~pages:6 ~links:8 () in
  Alcotest.(check bool) "swept the whole migration" true
    (r.F.failpoints >= r.F.statements && r.F.statements > 0)

(* --- satellite: MATERIALIZE inside an open transaction --------------------- *)

let test_materialize_in_open_txn () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  let pre = I.dump t in
  ignore (I.exec_sql t "BEGIN");
  (match I.materialize t [ "TasKy2" ] with
  | exception I.Inverda_error msg ->
    Alcotest.(check bool) "clear error" true (contains msg "open transaction")
  | () -> Alcotest.fail "MATERIALIZE accepted inside an open transaction");
  (* refused before any mutation: the user's transaction is intact *)
  ignore (I.exec_sql t "ROLLBACK");
  Alcotest.(check string) "nothing mutated" pre (I.dump t);
  (* and works once the transaction is closed *)
  I.materialize t [ "TasKy2" ];
  Alcotest.(check int) "migrated" 5
    (I.query_int t "SELECT COUNT(*) FROM TasKy2.Task")

let test_bidel_materialize_in_open_txn () =
  let t = Scenarios.Tasky.setup_full ~tasks:3 () in
  ignore (I.exec_sql t "BEGIN");
  (match I.evolve t "MATERIALIZE 'TasKy2';" with
  | exception I.Inverda_error _ -> ()
  | () -> Alcotest.fail "BiDEL MATERIALIZE accepted inside an open transaction");
  ignore (I.exec_sql t "ROLLBACK")

(* --- satellite: target parsing and dedup ----------------------------------- *)

let test_overlapping_targets () =
  (* a duplicated / overlapping target list must behave like the deduped one *)
  let t1 = Scenarios.Tasky.setup_full ~tasks:6 () in
  let t2 = Scenarios.Tasky.setup_full ~tasks:6 () in
  I.materialize t1 [ "TasKy2" ];
  I.materialize t2 [ "TasKy2"; "TasKy2.Task"; "TasKy2" ];
  Alcotest.(check string) "same physical state" (I.dump t1) (I.dump t2);
  Alcotest.(check (list (list int)))
    "same materialization"
    [ I.current_materialization t1 ]
    [ I.current_materialization t2 ]

let test_unknown_target_reports_full_string () =
  let t = Scenarios.Tasky.setup_full () in
  (match I.materialize t [ "TasKy2.nosuch" ] with
  | exception Inverda.Migration.Migration_error msg ->
    Alcotest.(check bool) "full target named" true
      (contains msg "TasKy2.nosuch")
  | () -> Alcotest.fail "unknown table accepted");
  match I.materialize t [ "NoVersion.Task" ] with
  | exception Inverda.Migration.Migration_error msg ->
    Alcotest.(check bool) "full target named" true
      (contains msg "NoVersion.Task")
  | () -> Alcotest.fail "unknown version accepted"

let test_version_name_with_dot () =
  (* a whole-string version-name match beats the version.table split, and
     the split is at the last dot. (Non-strict: the delta typechecker's name
     resolution predates dotted version names.) *)
  let t = I.create ~strict:false () in
  I.evolve t "CREATE SCHEMA VERSION \"rel.1\" WITH CREATE TABLE t(a);";
  I.evolve t
    "CREATE SCHEMA VERSION \"rel.2\" FROM \"rel.1\" WITH ADD COLUMN b AS 0 INTO t;";
  ignore (I.exec_sql t "INSERT INTO \"rel.1.t\" (a) VALUES (7)");
  I.materialize t [ "rel.2" ];
  Alcotest.(check int) "whole-name target" 1
    (I.query_int t "SELECT COUNT(*) FROM \"rel.2.t\"");
  I.materialize t [ "rel.1.t" ];
  Alcotest.(check int) "last-dot split target" 1
    (I.query_int t "SELECT COUNT(*) FROM \"rel.1.t\"")

(* --- satellite: cache coherence across failed migrations -------------------- *)

let failing_migration t mat ~failpoint =
  Db.set_failpoint (I.database t) failpoint;
  match I.set_materialization t mat with
  | () -> Alcotest.fail "failpoint did not fire"
  | exception Inverda.Migration.Migration_error _ ->
    Db.clear_failpoint (I.database t)

let all_views t =
  List.concat_map
    (fun v ->
      List.map
        (fun table ->
          I.query_rows t (Fmt.str "SELECT * FROM \"%s.%s\"" v table)
          |> List.sort compare)
        (I.version_tables t v))
    (I.versions t)

let test_cache_coherent_after_failed_migration () =
  let cached = Scenarios.Tasky.setup_full ~tasks:10 () in
  let plain = Scenarios.Tasky.setup_full ~tasks:10 () in
  I.set_cache plain false;
  (* warm the cache so stale entries would be observable *)
  ignore (all_views cached);
  let mat =
    List.hd (G.enumerate_materializations (I.genealogy cached) |> List.rev)
  in
  failing_migration cached mat ~failpoint:12;
  failing_migration plain mat ~failpoint:12;
  (* identical answers with and without the cache after the rollback *)
  Alcotest.(check bool) "views agree with --no-cache" true
    (all_views cached = all_views plain);
  Alcotest.(check string) "dumps agree" (I.dump cached) (I.dump plain);
  (* the cache is live again and counts hits/misses consistently *)
  let h0, m0 = I.cache_stats cached in
  ignore (all_views cached);
  ignore (all_views cached);
  let h1, m1 = I.cache_stats cached in
  Alcotest.(check bool) "cache active after rollback" true
    (h1 > h0 && m1 >= m0);
  let hp0, mp0 = I.cache_stats plain in
  ignore (all_views plain);
  Alcotest.(check (pair int int)) "no-cache run counts nothing" (hp0, mp0)
    (I.cache_stats plain)

(* --- satellite: telemetry coherence across migrations ------------------------ *)

(* Everything a migration must not disturb: the per-version workload counters
   and the span sequence. Cache statistics are deliberately excluded —
   migration data movement legitimately changes them. *)
let telemetry_snapshot t =
  let db = I.database t in
  let counters =
    Inverda.Telemetry.version_counters db (I.genealogy t)
    |> List.map (fun (name, (c : Inverda.Telemetry.totals)) ->
           ( name,
             ( c.Inverda.Telemetry.t_reads,
               c.Inverda.Telemetry.t_writes,
               c.Inverda.Telemetry.t_rows_returned,
               c.Inverda.Telemetry.t_trigger_hops ) ))
  in
  (counters, db.Db.metrics.Minidb.Metrics.span_seq)

let test_counters_unchanged_by_migration () =
  let t = Scenarios.Tasky.setup_full ~tasks:10 () in
  I.reset_telemetry t;
  (* generate some attributed traffic on every version *)
  ignore (I.query_rows t "SELECT author, task, prio FROM TasKy.Task");
  ignore (I.query_rows t "SELECT task FROM TasKy2.Task");
  ignore (I.query_rows t "SELECT author, task FROM Do!.Todo");
  ignore (I.exec_sql t "INSERT INTO Do!.Todo (author, task) VALUES ('Zed', 'm')");
  let before = telemetry_snapshot t in
  Alcotest.(check bool) "snapshot is non-trivial" true
    (List.exists (fun (_, (r, w, _, _)) -> r + w > 0) (fst before));
  (* a successful migration moves data through the very views the counters
     watch — none of that movement may be attributed to the workload. The
     migration itself surfaces as exactly one [migrate] phase trace: spans,
     but no counter traffic *)
  I.materialize t [ "TasKy2" ];
  let after_mig = telemetry_snapshot t in
  Alcotest.(check bool) "counters unchanged by successful MATERIALIZE" true
    (fst before = fst after_mig);
  Alcotest.(check bool) "successful MATERIALIZE leaves a migrate trace" true
    (snd after_mig > snd before
    &&
    match List.rev (I.recent_traces t) with
    | tr :: _ ->
      tr.Minidb.Metrics.tr_root.Minidb.Metrics.sp_kind = "migrate"
    | [] -> false);
  let before = telemetry_snapshot t in
  (* a fault-injected migration rolls back mid-flight; the rollback replay
     must be bit-identical to never having run — spans included *)
  let mat = List.hd (G.enumerate_materializations (I.genealogy t)) in
  failing_migration t mat ~failpoint:5;
  Alcotest.(check bool) "unchanged by rolled-back MATERIALIZE" true
    (before = telemetry_snapshot t);
  (* and collection still works afterwards *)
  ignore (I.query_rows t "SELECT task FROM TasKy2.Task");
  Alcotest.(check bool) "collection live after rollback" true
    (before <> telemetry_snapshot t)

(* --- satellite: dry-run plan ------------------------------------------------ *)

let test_migration_plan_dry_run () =
  let t = Scenarios.Tasky.setup_full ~tasks:4 () in
  let pre = I.dump t in
  let to_virtualize, to_materialize = I.migration_plan t [ "TasKy2" ] in
  Alcotest.(check string) "plan touches no data" pre (I.dump t);
  Alcotest.(check bool) "plan is non-trivial" true (to_materialize <> []);
  (* sanity: executing the plan's migration flips exactly those SMOs *)
  let before = I.current_materialization t in
  I.materialize t [ "TasKy2" ];
  let after = I.current_materialization t in
  Alcotest.(check (list int)) "virtualized as planned" to_virtualize
    (List.filter (fun id -> not (List.mem id after)) before
    |> List.sort (fun a b -> compare b a));
  Alcotest.(check (list int)) "materialized as planned" to_materialize
    (List.filter (fun id -> not (List.mem id before)) after |> List.sort compare);
  (* a no-op migration has an empty plan *)
  Alcotest.(check (pair (list int) (list int))) "no-op plan" ([], [])
    (I.migration_plan t [ "TasKy2" ])

(* --- suite ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "faults"
    [
      ( "atomicity",
        [
          tc "tasky sweep" test_tasky_sweep;
          tc "wikimedia sweep" test_wikimedia_sweep;
        ] );
      ( "guards",
        [
          tc "materialize in open txn" test_materialize_in_open_txn;
          tc "bidel materialize in open txn" test_bidel_materialize_in_open_txn;
        ] );
      ( "targets",
        [
          tc "overlapping targets" test_overlapping_targets;
          tc "unknown target full string" test_unknown_target_reports_full_string;
          tc "version name with dot" test_version_name_with_dot;
        ] );
      ( "cache",
        [ tc "coherent after failed migration" test_cache_coherent_after_failed_migration ] );
      ( "telemetry",
        [ tc "counters unchanged by migration" test_counters_unchanged_by_migration ] );
      ( "dry-run",
        [ tc "migration plan" test_migration_plan_dry_run ] );
    ]
