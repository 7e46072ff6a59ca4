(* Batch-vs-row executor equivalence properties.

   The compiled columnar executor (lib/minidb/batch.ml + the fused
   pipelines in exec.ml) must be observationally equivalent to the
   row-at-a-time interpreter: same rows, same Value comparison semantics,
   same NULL ordering and same raise/no-raise behavior — over columns
   holding mixed types and NULLs, which exercise the [C_value] fallback
   column representation next to the typed ones. *)

module Engine = Minidb.Engine
module Db = Minidb.Database

(* Run [sql] under the chosen executor. Error payloads are normalized
   away: the two executors may phrase a type error differently (flipped
   operands on the probe side of a join, say), but they must agree on
   whether the query raises at all. *)
let run ?(sorted = true) db enabled sql =
  Db.set_batch db enabled;
  match Engine.query_rows db sql with
  | rows -> Ok (if sorted then List.sort compare rows else rows)
  | exception _ -> Error ()

let agree ?sorted db sql = run ?sorted db true sql = run ?sorted db false sql

let fresh_table cells =
  let db = Engine.create () in
  ignore
    (Engine.exec db "CREATE TABLE t (p INTEGER PRIMARY KEY, a INTEGER, b TEXT)");
  List.iteri
    (fun i (a, b) ->
      ignore
        (Engine.execf db "INSERT INTO t (p, a, b) VALUES (%d, %s, %s)" i a b))
    cells;
  db

(* SQL literals drawn from every Value constructor plus NULL; a column
   filled from this generator compresses to the mixed-type [C_value]
   representation, not a typed vector. *)
let cell_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return "NULL");
        (3, map string_of_int (int_range (-40) 40));
        (2, map (fun i -> Fmt.str "%.2f" (float_of_int i /. 4.0)) (int_range (-80) 80));
        (2, oneofl [ "'a'"; "'b'"; "'cd'"; "''" ]);
        (1, oneofl [ "TRUE"; "FALSE" ]);
      ])

(* Homogeneous integers with NULLs: the typed [C_int] column + null mask. *)
let int_cell_gen =
  QCheck.Gen.(
    frequency
      [ (1, return "NULL"); (4, map string_of_int (int_range (-10) 10)) ])

let rows_arb cell =
  QCheck.make
    ~print:(fun cs ->
      String.concat "; " (List.map (fun (a, b) -> a ^ "," ^ b) cs))
    QCheck.Gen.(list_size (0 -- 25) (pair cell cell_gen))

let qsuite =
  let open QCheck in
  let scan_projection =
    Test.make ~name:"scan/projection/distinct agree on mixed columns"
      ~count:60 (rows_arb cell_gen) (fun cells ->
        let db = fresh_table cells in
        List.for_all (agree db)
          [
            "SELECT * FROM t";
            "SELECT b, a FROM t";
            "SELECT DISTINCT b FROM t";
            "SELECT COUNT(*), COUNT(a), COUNT(b) FROM t";
          ])
  in
  let null_ordering =
    (* exact (unsorted) comparison: ORDER BY must place NULLs and compare
       mixed Values identically under both executors; p breaks ties so the
       expected order is total *)
    Test.make ~name:"ORDER BY places NULLs and mixed values identically"
      ~count:60 (rows_arb cell_gen) (fun cells ->
        let db = fresh_table cells in
        List.for_all
          (agree ~sorted:false db)
          [
            "SELECT a, p FROM t ORDER BY a, p";
            "SELECT a, p FROM t ORDER BY a DESC, p DESC";
          ])
  in
  let filters_aggregates =
    Test.make ~name:"filters and aggregates agree on INT columns with NULLs"
      ~count:60
      (pair (rows_arb int_cell_gen) (int_bound 10))
      (fun (cells, k) ->
        let db = fresh_table cells in
        List.for_all (agree db)
          [
            Fmt.str "SELECT p, a FROM t WHERE a >= %d" (k - 5);
            Fmt.str "SELECT p FROM t WHERE a >= %d AND a <= %d" (-k) k;
            "SELECT p FROM t WHERE a IS NULL";
            "SELECT p, b FROM t WHERE a IS NOT NULL";
            "SELECT COUNT(a), MIN(a), MAX(a), SUM(a) FROM t";
          ])
  in
  let joins =
    (* NULL keys never join; the batch hash join must agree with the
       row-path nested probe on inner and left-outer shapes alike *)
    Test.make ~name:"self-joins agree (NULL keys never match)" ~count:40
      (rows_arb int_cell_gen) (fun cells ->
        let db = fresh_table cells in
        List.for_all (agree db)
          [
            "SELECT x.p, y.p FROM t x JOIN t y ON x.a = y.a";
            "SELECT x.p, y.b FROM t x LEFT JOIN t y ON x.a = y.a";
            "SELECT x.p FROM t x JOIN t y ON x.a = y.a WHERE x.p < y.p";
          ])
  in
  let error_alignment =
    (* a comparison over a fully mixed column may legitimately raise a
       type error — but then it must raise under both executors, and
       return the same rows when it does not *)
    Test.make ~name:"raise/no-raise aligns on mixed-type comparisons"
      ~count:60 (rows_arb cell_gen) (fun cells ->
        let db = fresh_table cells in
        List.for_all (agree db)
          [
            "SELECT p FROM t WHERE a > 5";
            "SELECT p FROM t WHERE a = 'a'";
            "SELECT x.p, y.p FROM t x JOIN t y ON x.a = y.b";
          ])
  in
  List.map QCheck_alcotest.to_alcotest
    [ scan_projection; null_ordering; filters_aggregates; joins; error_alignment ]

(* --- snapshots live on their tables ------------------------------------------ *)

module I = Inverda.Api

(* A weak pointer to [tbl]'s columnar snapshot, taken in a function of its
   own so that no stack slot of the caller keeps the snapshot alive. *)
let weak_snapshot tbl =
  let w = Weak.create 1 in
  Weak.set w 0 (Some (Minidb.Table.batch tbl));
  w

let check_collected label w =
  Gc.full_major ();
  Alcotest.(check bool) label false (Weak.check w 0)

let test_snapshot_dies_with_dropped_table () =
  let db = fresh_table [ ("1", "'a'") ] in
  Alcotest.(check int) "a scan" 1 (List.length (Engine.query_rows db "SELECT a FROM t"));
  let tbl = Db.find_table db "t" in
  Alcotest.(check bool) "the scan kept its snapshot on the table" true
    (Option.is_some tbl.Minidb.Table.batch);
  (* switching the batch executor off drops the snapshot: cold start *)
  Db.set_batch db false;
  Alcotest.(check bool) "batch off drops it" true (tbl.Minidb.Table.batch = None);
  Db.set_batch db true;
  let w = weak_snapshot tbl in
  ignore (Engine.exec db "DROP TABLE t");
  check_collected "the dropped table's snapshot is collected" w

let test_snapshot_dies_with_replaced_table () =
  let t = Scenarios.Tasky.setup_full ~tasks:5 () in
  let db = I.database t in
  ignore (I.query_rows t "SELECT task FROM TasKy.Task");
  let w = weak_snapshot (Db.find_table db "d!1!Task") in
  I.materialize t [ "TasKy2" ];
  I.materialize t [ "TasKy" ];
  ignore (I.query_rows t "SELECT task FROM TasKy.Task");
  check_collected "the replaced table's snapshot is collected" w

let () =
  Alcotest.run "batch"
    [
      ("batch-vs-row", qsuite);
      ( "snapshots",
        [
          Alcotest.test_case "die with a dropped table" `Quick
            test_snapshot_dies_with_dropped_table;
          Alcotest.test_case "die with a MATERIALIZE round trip" `Quick
            test_snapshot_dies_with_replaced_table;
        ] );
    ]
