(* The write-ahead log, checkpoint recovery and changeset time travel:
   record framing and torn-tail detection, checkpoint round-trips, recovery
   from genesis and from a checkpoint, AS OF at every schema version against
   the genesis-replay ground truth, the crash-recovery fault sweep, and the
   satellite regressions that ride along in this PR. *)

module I = Inverda.Api
module W = Minidb.Wal
module Db = Minidb.Database
module F = Scenarios.Faults
module T = Scenarios.Tasky

let value = Alcotest.testable Minidb.Value.pp Minidb.Value.equal

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let record =
  Alcotest.testable
    (fun ppf (r : W.record) ->
      Fmt.pf ppf "{%d %s %S %S}" r.W.lsn r.W.kind r.W.tag r.W.payload)
    ( = )

(* --- record framing -------------------------------------------------------- *)

let sample_records =
  [
    { W.lsn = 1; kind = "dml"; tag = "task"; payload = "INSERT INTO t VALUES (1, 'a | b')" };
    (* multi-line payload with a frame-lookalike inside *)
    { W.lsn = 2; kind = "bidel"; tag = ""; payload = "CREATE SCHEMA VERSION X WITH\nW1 9 dml 0 0 00000000\nCREATE TABLE t(a);" };
    { W.lsn = 5; kind = "memo"; tag = "f!x"; payload = "" };
  ]

let encode_all records =
  let buf = Buffer.create 256 in
  List.iter (W.encode buf) records;
  Buffer.contents buf

let test_record_roundtrip () =
  let s = encode_all sample_records in
  let got, torn = W.scan s in
  Alcotest.(check (list record)) "roundtrip" sample_records got;
  Alcotest.(check (option int)) "no torn tail" None torn

let test_torn_tail_detection () =
  let s = encode_all sample_records in
  (* byte offsets at which the log is whole: after each full record *)
  let boundaries =
    List.fold_left
      (fun acc r -> (List.hd acc + String.length (encode_all [ r ])) :: acc)
      [ 0 ] sample_records
  in
  (* every proper prefix decodes to a prefix of the records, never garbage,
     and any cut not on a record boundary is flagged as torn *)
  for len = 0 to String.length s - 1 do
    let got, torn = W.scan (String.sub s 0 len) in
    let n = List.length got in
    Alcotest.(check (list record))
      (Fmt.str "prefix of length %d" len)
      (List.filteri (fun i _ -> i < n) sample_records)
      got;
    Alcotest.(check bool)
      (Fmt.str "truncation at %d detected" len)
      (not (List.mem len boundaries))
      (torn <> None)
  done;
  (* a flipped payload byte fails the checksum and stops the scan there *)
  let r1 = List.hd sample_records in
  let ofs1 = String.length (encode_all [ r1 ]) in
  let corrupt = Bytes.of_string s in
  Bytes.set corrupt (ofs1 + 20) 'Z';
  let got, torn = W.scan (Bytes.to_string corrupt) in
  Alcotest.(check (list record)) "good prefix survives" [ r1 ] got;
  Alcotest.(check (option int)) "corruption located" (Some ofs1) torn

let test_monotone_lsn () =
  let out_of_order =
    [
      { W.lsn = 5; kind = "dml"; tag = ""; payload = "a" };
      { W.lsn = 3; kind = "dml"; tag = ""; payload = "b" };
    ]
  in
  let got, torn = W.scan (encode_all out_of_order) in
  Alcotest.(check (list record))
    "regressing LSN rejected"
    [ List.hd out_of_order ]
    got;
  Alcotest.(check bool) "flagged" true (torn <> None);
  (* checkpoint record lists are scanned without the monotone constraint *)
  let got, torn = W.scan ~monotone:false (encode_all out_of_order) in
  Alcotest.(check (list record)) "non-monotone scan" out_of_order got;
  Alcotest.(check (option int)) "clean" None torn

let test_append_and_repair () =
  let dir = F.fresh_dir () in
  let w = W.open_append ~next_lsn:1 dir in
  let appended =
    List.map
      (fun (kind, tag, payload) -> W.append w ~kind ~tag ~payload)
      [ ("dml", "t", "INSERT 1"); ("ddl", "v", "CREATE VIEW v"); ("dml", "t", "INSERT 2") ]
  in
  W.commit w;
  W.close w;
  let records, torn = W.read_log dir in
  Alcotest.(check (list record)) "logged" appended records;
  Alcotest.(check (option int)) "clean" None torn;
  (* simulate a torn write: half of a fourth record *)
  let torn_frame = encode_all [ { W.lsn = 4; kind = "dml"; tag = ""; payload = "INSERT 3" } ] in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (W.log_file dir) in
  output_string oc (String.sub torn_frame 0 (String.length torn_frame - 5));
  close_out oc;
  let records', torn' = W.read_log dir in
  Alcotest.(check (list record)) "tail ignored" appended records';
  Alcotest.(check bool) "tail detected" true (torn' <> None);
  (* repair truncates; appending then continues after the last good record *)
  Alcotest.(check (list record)) "repair keeps good prefix" appended (W.repair_log dir);
  Alcotest.(check (option int)) "log clean after repair" None (snd (W.read_log dir));
  let w = W.open_append ~next_lsn:4 dir in
  let r4 = W.append w ~kind:"dml" ~tag:"t" ~payload:"INSERT 3 again" in
  W.commit w;
  W.close w;
  Alcotest.(check (list record)) "append resumes" (appended @ [ r4 ]) (fst (W.read_log dir));
  F.rm_rf dir

(* --- checkpoint files ------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let dir = F.fresh_dir () in
  Alcotest.(check bool) "absent at first" true (W.read_checkpoint dir = None);
  let ck =
    {
      W.ck_lsn = 42;
      ck_meta = [ ("counter", "17") ];
      ck_records =
        [
          { W.lsn = 2; kind = "bidel"; tag = "X"; payload = "CREATE SCHEMA VERSION X WITH CREATE TABLE t(a);" };
          { W.lsn = 0; kind = "memo"; tag = "f"; payload = "3 | 'it''s'" };
        ];
      ck_dump = "TABLE t (p, a) PK=0\nROW 1 | 'x | y'\n";
    }
  in
  W.write_checkpoint dir ck;
  (match W.read_checkpoint dir with
  | None -> Alcotest.fail "checkpoint did not read back"
  | Some ck' ->
    Alcotest.(check int) "lsn" ck.W.ck_lsn ck'.W.ck_lsn;
    Alcotest.(check (list (pair string string))) "meta" ck.W.ck_meta ck'.W.ck_meta;
    Alcotest.(check (list record)) "records" ck.W.ck_records ck'.W.ck_records;
    Alcotest.(check string) "dump" ck.W.ck_dump ck'.W.ck_dump);
  (* a truncated checkpoint is rejected wholesale, never half-loaded *)
  let path = W.checkpoint_file dir in
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 8)));
  Alcotest.(check bool) "truncated checkpoint rejected" true (W.read_checkpoint dir = None);
  F.rm_rf dir

(* --- recovery round-trips --------------------------------------------------- *)

(** TasKy with the log attached from the very first statement, so the whole
    genealogy is replayable. *)
let build_tasky ?(tasks = 5) dir =
  let t = I.create () in
  I.attach_wal t dir;
  I.evolve t T.bidel_initial;
  I.evolve t T.bidel_do;
  I.evolve t T.bidel_tasky2;
  T.load_tasks t tasks;
  t

let check_recovered ~label live recovered =
  Alcotest.(check string) (label ^ ": dump") (I.dump live) (I.dump recovered);
  Alcotest.(check bool)
    (label ^ ": views")
    true
    (F.view_contents live = F.view_contents recovered)

let test_recover_genesis () =
  (* no checkpoint at all: recovery replays the log from genesis *)
  let dir = F.fresh_dir () in
  let t = build_tasky dir in
  ignore (I.exec_sql t "INSERT INTO Do!.Todo (author, task) VALUES ('Zed', 'g-1')");
  I.materialize t [ "TasKy2" ];
  let c = I.current_changeset t in
  I.detach_wal t;
  let r = I.recover dir in
  check_recovered ~label:"genesis" t r;
  Alcotest.(check int) "changeset position restored" c (I.current_changeset r);
  (* the recovered instance keeps appending where the crash stopped *)
  ignore (I.exec_sql r "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Ada', 'g-2', 1)");
  Alcotest.(check int) "appends continue" (c + 1) (I.current_changeset r);
  I.detach_wal r;
  F.rm_rf dir

(* Audit annotations ride inside the frame tag: who/why must round-trip
   through the log, leave the displayed tag bare, and never disturb replay. *)
let test_audit_annotations () =
  let dir = F.fresh_dir () in
  let t = build_tasky dir in
  I.set_author t ~who:"alice" ~why:"backfill sprint 12";
  ignore
    (I.exec_sql t "INSERT INTO TasKy.Task (author, task, prio) VALUES ('A', 'a-1', 1)");
  I.set_author t ~who:"" ~why:"";
  ignore
    (I.exec_sql t "INSERT INTO TasKy.Task (author, task, prio) VALUES ('B', 'a-2', 1)");
  let records = I.history t in
  let annotated =
    List.filter (fun r -> I.record_audit r <> None) records
  in
  Alcotest.(check int) "exactly one annotated record" 1 (List.length annotated);
  let r = List.hd annotated in
  Alcotest.(check (option (pair string string))) "who/why round-trip"
    (Some ("alice", "backfill sprint 12"))
    (I.record_audit r);
  Alcotest.(check string) "displayed tag is bare" "tasky.task" (I.record_tag r);
  Alcotest.(check bool) "raw tag carries the annotation" true
    (String.length r.W.tag > String.length "tasky.task");
  (* the annotation is invisible to recovery *)
  I.detach_wal t;
  let rec_t = I.recover dir in
  check_recovered ~label:"audited log" t rec_t;
  I.detach_wal rec_t;
  F.rm_rf dir

let test_recover_checkpoint () =
  let dir = F.fresh_dir () in
  let t = build_tasky dir in
  ignore (I.exec_sql t "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Bo', 'c-1', 1)");
  I.checkpoint t;
  (* tail past the checkpoint, including a migration *)
  ignore (I.exec_sql t "UPDATE TasKy.Task SET prio = 2 WHERE task = 'c-1'");
  I.materialize t [ "TasKy2" ];
  ignore (I.exec_sql t "INSERT INTO Do!.Todo (author, task) VALUES ('Cy', 'c-2')");
  I.detach_wal t;
  let r = I.recover dir in
  check_recovered ~label:"checkpointed" t r;
  (* the checkpoint is pure acceleration: genesis replay lands on the same
     bytes *)
  let g = I.replay_to ~dir (I.current_changeset r) in
  Alcotest.(check string) "checkpoint = genesis" (I.dump r) (I.dump g);
  (* recovery is idempotent *)
  I.detach_wal r;
  let r2 = I.recover dir in
  Alcotest.(check string) "idempotent" (I.dump r) (I.dump r2);
  I.detach_wal r2;
  F.rm_rf dir

let test_recover_torn_tail () =
  let dir = F.fresh_dir () in
  let t = build_tasky ~tasks:3 dir in
  let committed = I.dump t in
  I.detach_wal t;
  (* a torn record after the last committed one: must be dropped, and the
     repair must stick so appends continue cleanly *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (W.log_file dir) in
  output_string oc "W1 999 dml 0 57 0abc";
  close_out oc;
  let r = I.recover dir in
  Alcotest.(check string) "torn tail dropped" committed (I.dump r);
  Alcotest.(check (option int)) "log repaired on disk" None (snd (W.read_log dir));
  I.detach_wal r;
  F.rm_rf dir

let test_txn_buffering () =
  (* rolled-back statements never reach the log *)
  let dir = F.fresh_dir () in
  let t = build_tasky ~tasks:2 dir in
  let c = I.current_changeset t in
  ignore (I.exec_sql t "BEGIN");
  ignore (I.exec_sql t "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Nil', 'x', 1)");
  ignore (I.exec_sql t "ROLLBACK");
  Alcotest.(check int) "rollback logs nothing" c (I.current_changeset t);
  ignore (I.exec_sql t "BEGIN");
  ignore (I.exec_sql t "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Eli', 'y', 1)");
  ignore (I.exec_sql t "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Fay', 'z', 2)");
  ignore (I.exec_sql t "COMMIT");
  Alcotest.(check int) "commit logs the batch" (c + 2) (I.current_changeset t);
  I.detach_wal t;
  let r = I.recover dir in
  check_recovered ~label:"after txn" t r;
  I.detach_wal r;
  F.rm_rf dir

(* A log that holds no history, attached to an instance that already holds
   state, would start in the middle of that state's history: after
   [setup_initial ~tasks:3], an attach and one insert, recovery raised "no
   such table or view TasKy.Task". Attach refuses instead, and creates
   nothing. *)
let test_attach_refuses_state () =
  let dir = F.fresh_dir () in
  let refused t =
    match I.attach_wal t dir with
    | () -> Alcotest.fail "attach must refuse an instance that holds state"
    | exception I.Inverda_error msg ->
      Alcotest.(check bool) "names the directory" true (contains msg dir);
      msg
  in
  let t = T.setup_initial ~tasks:3 () in
  Alcotest.(check bool) "names the version" true
    (contains (refused t) "schema version TasKy");
  Alcotest.(check (option string)) "no log attached" None (I.wal_dir t);
  Alcotest.(check bool) "no log created" false (Sys.file_exists (W.log_file dir));
  ignore (I.exec_sql t "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Ada', 'a', 1)");
  let u = I.create () in
  ignore (I.exec_sql u "CREATE TABLE x (p INTEGER PRIMARY KEY)");
  Alcotest.(check bool) "names the table" true (contains (refused u) "table x");
  (* the same history with the log attached first recovers *)
  let t = I.create () in
  I.attach_wal t dir;
  I.evolve t T.bidel_initial;
  T.load_tasks t 3;
  ignore (I.exec_sql t "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Ada', 'a', 1)");
  I.detach_wal t;
  let r = I.recover dir in
  check_recovered ~label:"attached first" t r;
  I.detach_wal r;
  F.rm_rf dir

(* --- AS OF ------------------------------------------------------------------ *)

let sorted_rows rel =
  List.sort compare (List.map Array.to_list rel.Minidb.Exec.rel_rows)

let test_as_of () =
  let dir = F.fresh_dir () in
  let t = I.create () in
  I.attach_wal t dir;
  I.evolve t T.bidel_initial;
  ignore (I.exec_sql t "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Ann', 't1', 1)");
  ignore (I.exec_sql t "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Ben', 't2', 2)");
  let c1 = I.current_changeset t in
  I.evolve t T.bidel_do;
  I.evolve t T.bidel_tasky2;
  ignore (I.exec_sql t "INSERT INTO Do!.Todo (author, task) VALUES ('Cleo', 't3')");
  let c2 = I.current_changeset t in
  I.checkpoint t;
  I.materialize t [ "TasKy2" ];
  ignore (I.exec_sql t "UPDATE TasKy.Task SET prio = 9 WHERE task = 't1'");
  let c3 = I.current_changeset t in
  ignore (I.exec_sql t "DELETE FROM TasKy.Task WHERE task = 't2'");
  let c4 = I.current_changeset t in
  (* at every changeset, every schema version alive in that reality answers
     exactly as the genesis-replay ground truth (c1/c2 predate the
     checkpoint and replay from genesis; c3/c4 take the accelerated path,
     so this also cross-checks the checkpoint against pure replay) *)
  List.iter
    (fun c ->
      let ground = I.replay_to ~dir c in
      List.iter
        (fun version ->
          List.iter
            (fun table ->
              let view = Inverda.Naming.version_view ~version ~table in
              let sql = Fmt.str "SELECT * FROM \"%s\"" view in
              Alcotest.(check (list (list value)))
                (Fmt.str "%s AS OF %d" view c)
                (List.sort compare (I.query_rows ground sql))
                (sorted_rows (I.as_of t ~changeset:c sql)))
            (I.version_tables ground version))
        (I.versions ground))
    [ c1; c2; c3; c4 ];
  (* a version created after the changeset does not exist in that reality *)
  (match I.as_of t ~changeset:c1 "SELECT * FROM \"TasKy2.Task\"" with
  | exception Minidb.Exec.Exec_error msg ->
    Alcotest.(check bool) "unknown object named" true
      (contains msg "TasKy2.Task")
  | _ -> Alcotest.fail "TasKy2 answered before it was created");
  (* time travel does not disturb the live instance *)
  Alcotest.(check int) "live position unchanged" c4 (I.current_changeset t);
  I.detach_wal t;
  F.rm_rf dir

(* --- crash-recovery sweep --------------------------------------------------- *)

let test_recovery_sweep_smoke () =
  let r = F.recovery_sweep_tasky ~tasks:3 ~stride:19 () in
  Alcotest.(check bool) "swept the whole workload" true
    (r.F.failpoints > 0 && r.F.statements > 0)

(* --- satellites -------------------------------------------------------------- *)

let test_float_mod () =
  let db = Minidb.Engine.create () in
  ignore (Minidb.Engine.exec db "CREATE TABLE t (p INTEGER PRIMARY KEY, x REAL)");
  ignore (Minidb.Engine.exec db "INSERT INTO t (p, x) VALUES (1, 7.5)");
  Alcotest.(check value) "float remainder" (Minidb.Value.Real 1.5)
    (Minidb.Engine.query_scalar db "SELECT x % 2.0 FROM t");
  match Minidb.Engine.query_scalar db "SELECT x % 0.0 FROM t" with
  | exception Minidb.Exec.Exec_error msg ->
    Alcotest.(check bool) "named error, not NaN" true
      (contains msg "division by zero")
  | v -> Alcotest.fail ("float MOD 0.0 produced " ^ Minidb.Value.to_literal v)

let test_workload_zero_weight_mix () =
  let t = T.setup_full ~tasks:4 () in
  let r = Scenarios.Workload.make_runner (I.database t) in
  (match
     Scenarios.Workload.replay_profile r ~shares:[] ~mix:Scenarios.Workload.paper_mix ~ops:5
   with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "empty mix rejected" true (contains msg "zero-weight")
  | _ -> Alcotest.fail "empty share mix accepted");
  match
    Scenarios.Workload.replay_profile r
      ~shares:[ (Scenarios.Workload.V_tasky, 0.0) ]
      ~mix:Scenarios.Workload.paper_mix ~ops:5
  with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "zero-weight mix rejected" true (contains msg "zero-weight")
  | _ -> Alcotest.fail "zero-weight share mix accepted"

(* --- suite -------------------------------------------------------------------- *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "wal"
    [
      ( "framing",
        [
          tc "record roundtrip" test_record_roundtrip;
          tc "torn tail detection" test_torn_tail_detection;
          tc "monotone lsn" test_monotone_lsn;
          tc "append and repair" test_append_and_repair;
        ] );
      ( "checkpoint",
        [ tc "roundtrip" test_checkpoint_roundtrip ] );
      ( "recovery",
        [
          tc "genesis replay" test_recover_genesis;
          tc "audit annotations" test_audit_annotations;
          tc "checkpoint + tail" test_recover_checkpoint;
          tc "torn tail" test_recover_torn_tail;
          tc "transaction buffering" test_txn_buffering;
          tc "attach refuses an instance with state" test_attach_refuses_state;
        ] );
      ( "time travel",
        [ tc "as of vs replay" test_as_of ] );
      ( "crash",
        [ tc "recovery sweep smoke" test_recovery_sweep_smoke ] );
      ( "satellites",
        [
          tc "float mod" test_float_mod;
          tc "workload zero-weight mix" test_workload_zero_weight_mix;
        ] );
    ]
