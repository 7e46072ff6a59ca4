(** Step-indexed fault injection for the Database Migration Operation.

    A sweep arms the engine's failpoint at statement 1, 2, 3, ... of a
    migration and, after every injected failure, asserts the two halves of
    the atomicity contract: the rolled-back database dump is byte-identical
    to the pre-migration dump, and every version view still answers queries
    with its pre-migration contents. Once the failpoint index moves past the
    migration's last statement the command completes — that run doubles as
    the check that a successful migration leaves all version-view contents
    unchanged.

    Rollback restores the engine exactly (verified by the dump comparison),
    so one instance serves the whole sweep; the statement sequence is
    deterministic, and skolem functions memoize their identifiers, so every
    retry replays identically. *)

module I = Inverda.Api
module G = Inverda.Genealogy
module Db = Minidb.Database

exception Sweep_failure of string

let fail fmt = Fmt.kstr (fun s -> raise (Sweep_failure s)) fmt

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(** Every version view's contents, as [(view, sorted rows)] in catalog
    order. Queries run through the full delta-view stack, so this also
    proves every version is still readable. *)
let view_contents api =
  let gen = I.genealogy api in
  List.concat_map
    (fun (sv : G.schema_version) ->
      List.map
        (fun (table, _) ->
          let view =
            Inverda.Naming.version_view ~version:sv.G.sv_name ~table
          in
          let rows =
            I.query_rows api (Fmt.str "SELECT * FROM \"%s\"" view)
          in
          (view, List.sort compare rows))
        sv.G.sv_tables)
    gen.G.versions

let first_diff_line a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go = function
    | x :: xs, y :: ys when x = y -> go (xs, ys)
    | x :: _, y :: _ -> Fmt.str "%S vs %S" x y
    | x :: _, [] -> Fmt.str "%S vs <end>" x
    | [], y :: _ -> Fmt.str "<end> vs %S" y
    | [], [] -> "<equal>"
  in
  go (la, lb)

type report = {
  failpoints : int;  (** failures injected (= rollbacks verified) *)
  statements : int;  (** statements the successful migration executed *)
}

(** [sweep ?stride ~build ~migrate ()] builds one instance, then repeatedly
    attempts [migrate] with the failpoint armed at statement [1], [1 +
    stride], ... After each injected failure the post-rollback state is
    checked against the pre-migration dump and view contents; when the
    failpoint index passes the end of the migration, the now-successful run
    is checked to leave all version views unchanged. [check] runs on the
    pre-migration state, every rollback state and the migrated state, with
    a phrase naming which. Raises {!Sweep_failure} on any violation or on a
    non-injected migration failure. *)
let sweep ?(stride = 1) ?(max_statements = 200_000)
    ?(check = fun (_ : string) (_ : I.t) -> ()) ~build ~migrate () =
  if stride < 1 then invalid_arg "Faults.sweep: stride must be >= 1";
  let api = build () in
  let db = I.database api in
  check "before the migration" api;
  let pre_dump = I.dump api in
  let pre_views = view_contents api in
  let rec go k injected =
    if k > max_statements then
      fail "sweep did not terminate within %d statements" max_statements;
    Db.set_failpoint db k;
    let before = db.Db.statements_executed in
    match migrate api with
    | () ->
      (* the failpoint was never reached: the migration ran to completion *)
      Db.clear_failpoint db;
      let statements = db.Db.statements_executed - before in
      let post_views = view_contents api in
      if post_views <> pre_views then
        fail "successful migration changed version-view contents";
      check "after the migration" api;
      { failpoints = injected; statements }
    | exception Inverda.Migration.Migration_error msg ->
      Db.clear_failpoint db;
      if not (contains msg "injected fault") then
        fail "failpoint %d: migration failed on its own: %s" k msg;
      let d = I.dump api in
      if d <> pre_dump then
        fail "failpoint %d: post-rollback dump differs from pre-migration \
              state (first diff: %s)"
          k (first_diff_line pre_dump d);
      let v = view_contents api in
      if v <> pre_views then
        fail "failpoint %d: version-view contents differ after rollback" k;
      check (Fmt.str "after the rollback at failpoint %d" k) api;
      go (k + stride) (injected + 1)
  in
  go 1 0

(* --- canned sweeps -------------------------------------------------------- *)

(** Sweep every valid TasKy materialization (the five of Table 2), starting
    each from the freshly evolved database. Returns the per-materialization
    reports in enumeration order. *)
let sweep_tasky ?(tasks = 12) ?stride () =
  let mats =
    G.enumerate_materializations (I.genealogy (Tasky.setup_full ()))
  in
  List.map
    (fun mat ->
      let report =
        sweep ?stride
          ~build:(fun () -> Tasky.setup_full ~tasks ())
          ~migrate:(fun api -> I.set_materialization api mat)
          ()
      in
      (mat, report))
    mats

(** Sweep the migration of a small Wikimedia-style genealogy to its newest
    schema version. *)
let sweep_wikimedia ?(versions = 5) ?(pages = 8) ?(links = 12) ?stride () =
  let build () =
    let api, names = Wikimedia.build ~versions () in
    Wikimedia.load api ~version:names.(0) ~pages ~links;
    api
  in
  let target = Fmt.str "v%03d" versions in
  sweep ?stride ~build ~migrate:(fun api -> I.materialize api [ target ]) ()

(* --- crash-recovery sweeps ------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(** Fresh scratch directory for one crash run: deterministic per-process
    names, wiped before use. *)
let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "inverda-crash-%d-%d" (Unix.getpid ()) !counter)
    in
    rm_rf d;
    d

(** [recovery_sweep ?stride ?max_statements ~build ~workload ()] —
    the crash-recovery counterpart of {!sweep}. For every strided failpoint
    [k]: build a fresh instance over a fresh write-ahead log ([build dir]
    must attach the log before its first statement), arm the failpoint and
    run the deterministic [workload] until the fault kills it mid-statement
    — possibly deep inside a trigger cascade or a migration's data
    movement. The live instance is then abandoned exactly as a process kill
    would leave the disk (with the default [Flush] mode every committed
    record has already reached the file; any open transaction is rolled
    back first, because a crash discards uncommitted work and the log only
    holds committed records). {!Inverda.Api.recover} rebuilds an instance
    from the directory alone and the sweep asserts: the recovered dump is
    byte-identical to the live instance's committed state, every version
    view answers with identical contents, and recovering a second time
    yields the same bytes again. Terminates when the failpoint outlives the
    workload — that crash-free run must recover identically, too.

    The workload should stick to operations with statement-level fault
    atomicity (DML and migrations): only their post-fault live state is
    well-defined to compare against. *)
let recovery_sweep ?(stride = 1) ?(max_statements = 200_000) ~build ~workload
    () =
  if stride < 1 then invalid_arg "Faults.recovery_sweep: stride must be >= 1";
  let run_one k =
    let dir = fresh_dir () in
    let api = build dir in
    let db = I.database api in
    Db.set_failpoint db k;
    let before = db.Db.statements_executed in
    let crashed =
      match workload api with
      | () -> false
      | exception Db.Injected_fault _ -> true
      | exception Inverda.Migration.Migration_error msg ->
        if not (contains msg "injected fault") then
          fail "failpoint %d: migration failed on its own: %s" k msg;
        true
    in
    Db.clear_failpoint db;
    let statements = db.Db.statements_executed - before in
    if Db.in_transaction db then ignore (I.exec_sql api "ROLLBACK");
    let committed_dump = I.dump api in
    let committed_views = view_contents api in
    I.detach_wal api;
    let recovered = I.recover dir in
    let rdump = I.dump recovered in
    if rdump <> committed_dump then
      fail "failpoint %d: recovered dump differs from the pre-crash \
            committed state (first diff: %s)"
        k (first_diff_line committed_dump rdump);
    if view_contents recovered <> committed_views then
      fail "failpoint %d: version-view contents differ after recovery" k;
    I.detach_wal recovered;
    let again = I.recover dir in
    if I.dump again <> rdump then
      fail "failpoint %d: recovery is not idempotent" k;
    I.detach_wal again;
    rm_rf dir;
    (crashed, statements)
  in
  let rec go k injected =
    if k > max_statements then
      fail "recovery sweep did not terminate within %d statements"
        max_statements;
    match run_one k with
    | true, _ -> go (k + stride) (injected + 1)
    | false, statements -> { failpoints = injected; statements }
  in
  go 1 0

(** The canned crash-recovery sweep on TasKy. The log captures the whole
    history — all three versions evolve after it attaches, then a seed
    workload and a mid-run checkpoint — so early failpoints exercise genesis
    replay and later ones the checkpoint-accelerated path, with
    skolem-generated identifiers forced to reproduce exactly in both. *)
let recovery_sweep_tasky ?(tasks = 6) ?stride () =
  let build dir =
    let api = I.create () in
    I.attach_wal api dir;
    I.evolve api Tasky.bidel_initial;
    I.evolve api Tasky.bidel_do;
    I.evolve api Tasky.bidel_tasky2;
    Tasky.load_tasks api tasks;
    api
  in
  let workload api =
    ignore
      (I.exec_sql api
         "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Zed', 'crash-1', 1)");
    ignore
      (I.exec_sql api "INSERT INTO Do!.Todo (author, task) VALUES ('Yva', 'crash-2')");
    ignore (I.exec_sql api "UPDATE TasKy.Task SET prio = 2 WHERE task = 'crash-1'");
    I.checkpoint api;
    ignore (I.exec_sql api "BEGIN");
    ignore
      (I.exec_sql api
         "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Xan', 'crash-3', 1)");
    ignore (I.exec_sql api "DELETE FROM Do!.Todo WHERE task = 'crash-2'");
    ignore (I.exec_sql api "COMMIT");
    I.materialize api [ "TasKy2" ];
    ignore
      (I.exec_sql api
         "INSERT INTO TasKy.Task (author, task, prio) VALUES ('Walt', 'crash-4', 3)")
  in
  recovery_sweep ?stride ~build ~workload ()
