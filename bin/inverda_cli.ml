(* Interactive InVerDa shell: BiDEL evolution statements, the MATERIALIZE
   migration command, and plain SQL against any "version.table" view, all in
   one REPL.

     dune exec bin/inverda_cli.exe            # interactive
     dune exec bin/inverda_cli.exe -- --demo  # pre-load the TasKy example
     echo "script" | dune exec bin/inverda_cli.exe

   Statements end with ';'. Meta commands: .help .catalog .versions .smos
   .quit *)

module I = Inverda.Api

let help_text =
  {|Statements (end with ';'):
  CREATE SCHEMA VERSION <v> [FROM <v0>] WITH <smo>; <smo>; ...
      SMOs: CREATE TABLE t(a,b) | DROP TABLE t | RENAME TABLE t INTO u
            ADD COLUMN c AS <expr> INTO t | DROP COLUMN c FROM t DEFAULT <expr>
            RENAME COLUMN c IN t TO d
            DECOMPOSE TABLE t INTO r(a,..)[, s(b,..)] ON PK|FOREIGN KEY fk|<cond>
            [OUTER] JOIN TABLE r, s INTO t ON PK|FOREIGN KEY fk|<cond>
            SPLIT TABLE t INTO r WITH <cond> [, s WITH <cond>]
            MERGE TABLE r (<cond>), s (<cond>) INTO t
  DROP SCHEMA VERSION <v>;
  MATERIALIZE '<version>' | '<version>.<table>', ...;
  any SQL: SELECT/INSERT/UPDATE/DELETE ... FROM <version>.<table>
  SELECT ... AS OF <changeset>;   (time travel; needs --dir)
Meta commands: .help  .catalog  .versions  .smos  .stats  .metrics
               .trace [n]  .traces [n]  .profile <stmt>  .explain <sql>
               .author <who> [why...]  .history [n]  .checkpoint  .quit|}

let is_bidel sql =
  let up = String.uppercase_ascii (String.trim sql) in
  let starts p =
    String.length up >= String.length p && String.sub up 0 (String.length p) = p
  in
  starts "CREATE SCHEMA" || starts "DROP SCHEMA" || starts "MATERIALIZE"

let print_relation (rel : Minidb.Exec.relation) =
  Fmt.pr "%s@." (String.concat " | " rel.Minidb.Exec.rel_cols);
  List.iter
    (fun row ->
      Fmt.pr "%s@."
        (String.concat " | " (Array.to_list (Array.map Minidb.Value.to_string row))))
    rel.Minidb.Exec.rel_rows;
  Fmt.pr "(%d rows)@." (List.length rel.Minidb.Exec.rel_rows)

(* Print the error [f] raised on [input] the way the shell reports every
   failure: located and by its message, never by its constructor. *)
let reporting_errors input f =
  try f () with
  | Minidb.Sql_lexer.Cursor.Parse_error msg -> Fmt.pr "parse error: %s@." msg
  | Minidb.Sql_lexer.Lex_error (msg, off) ->
    Fmt.pr "lex error: %a: %s@." Minidb.Sql_lexer.pp_pos
      (Minidb.Sql_lexer.pos_of_offset input off)
      msg
  | Minidb.Database.Engine_error msg
  | Minidb.Exec.Exec_error msg
  | Inverda.Genealogy.Catalog_error msg
  | Inverda.Migration.Migration_error msg ->
    Fmt.pr "error: %s@." msg
  | Analysis.Diagnostic.Rejected ds ->
    Fmt.pr "rejected by the static analyzer:@.";
    Analysis.Diagnostic.report Fmt.stdout ds
  | Minidb.Table.Constraint_violation msg -> Fmt.pr "constraint violation: %s@." msg
  | Minidb.Value.Type_error msg -> Fmt.pr "type error: %s@." msg
  | Bidel.Smo_semantics.Semantics_error msg -> Fmt.pr "SMO error: %s@." msg

let execute t input =
  reporting_errors input (fun () ->
      if is_bidel input then begin
        I.evolve t input;
        Fmt.pr "ok@."
      end
      else
        match Inverda.Changeset.split_as_of input with
        | sql, Some changeset -> print_relation (I.as_of t ~changeset sql)
        | _, None -> (
          match Minidb.Engine.exec (I.database t) input with
          | Minidb.Exec.Rows rel -> print_relation rel
          | Minidb.Exec.Affected n -> Fmt.pr "%d rows affected@." n
          | Minidb.Exec.Done -> Fmt.pr "ok@."))

let print_record (r : Minidb.Wal.record) =
  let payload =
    String.map (fun c -> if c = '\n' then ' ' else c) r.Minidb.Wal.payload
  in
  let tag = I.record_tag r in
  let audit =
    match I.record_audit r with
    | None -> ""
    | Some (who, why) ->
      Fmt.str "  -- by %s%s"
        (if who = "" then "?" else who)
        (if why = "" then "" else Fmt.str " (%s)" why)
  in
  Fmt.pr "%6d  %-6s %-22s %s%s@." r.Minidb.Wal.lsn r.Minidb.Wal.kind
    (if tag = "" then "-" else tag)
    payload audit

let print_history t limit =
  try
    let records = I.history t in
    let records =
      match limit with
      | Some n when n >= 0 && n < List.length records ->
        (* the newest [n] *)
        List.filteri (fun i _ -> i >= List.length records - n) records
      | _ -> records
    in
    List.iter print_record records
  with I.Inverda_error msg -> Fmt.pr "error: %s@." msg

let meta t line =
  let line = String.trim line in
  let arg_of prefix =
    if
      String.length line > String.length prefix
      && String.sub line 0 (String.length prefix) = prefix
    then Some (String.trim (String.sub line (String.length prefix) (String.length line - String.length prefix)))
    else None
  in
  match arg_of ".history" with
  | Some n -> print_history t (int_of_string_opt n)
  | None ->
  match arg_of ".explain" with
  | Some sql -> reporting_errors sql (fun () -> Fmt.pr "%s%!" (I.explain t sql))
  | None ->
  match arg_of ".profile" with
  | Some sql -> reporting_errors sql (fun () -> Fmt.pr "%s%!" (I.profile t sql))
  | None ->
  match arg_of ".author" with
  | Some rest -> (
    let who, why =
      match String.index_opt rest ' ' with
      | None -> (rest, "")
      | Some i ->
        ( String.sub rest 0 i,
          String.trim
            (String.sub rest (i + 1) (String.length rest - i - 1)) )
    in
    try
      I.set_author t ~who ~why;
      if who = "" && why = "" then Fmt.pr "audit annotation cleared@."
      else
        Fmt.pr "changesets now stamped: by %s%s@." who
          (if why = "" then "" else Fmt.str " (%s)" why)
    with I.Inverda_error msg -> Fmt.pr "error: %s@." msg)
  | None ->
  let print_trace limit =
    List.iter
      (fun sp -> print_endline (Inverda.Telemetry.span_json sp))
      (I.recent_spans ~limit t)
  in
  let print_traces limit =
    List.iter
      (fun tr -> Fmt.pr "%s%!" (Inverda.Telemetry.trace_tree_text tr))
      (I.recent_traces ~limit t)
  in
  (* [.traces] must be tried before [.trace]: [arg_of] is a prefix match *)
  match arg_of ".traces" with
  | Some n -> print_traces (Option.value ~default:5 (int_of_string_opt n))
  | None ->
  match arg_of ".trace" with
  | Some n -> print_trace (Option.value ~default:20 (int_of_string_opt n))
  | None ->
  match line with
  | ".help" -> Fmt.pr "%s@." help_text
  | ".catalog" -> Fmt.pr "%s@." (I.describe t)
  | ".stats" -> Fmt.pr "%s%!" (I.stats_text t)
  | ".metrics" -> Fmt.pr "%s%!" (I.metrics_text t)
  | ".trace" -> print_trace 20
  | ".traces" -> print_traces 5
  | ".author" -> (
    try
      I.set_author t ~who:"" ~why:"";
      Fmt.pr "audit annotation cleared@."
    with I.Inverda_error msg -> Fmt.pr "error: %s@." msg)
  | ".history" -> print_history t None
  | ".checkpoint" -> (
    try
      I.checkpoint t;
      Fmt.pr "checkpoint written at changeset %d@." (I.current_changeset t)
    with I.Inverda_error msg -> Fmt.pr "error: %s@." msg)
  | ".versions" ->
    List.iter
      (fun v ->
        Fmt.pr "%s: %s@." v (String.concat ", " (I.version_tables t v)))
      (I.versions t)
  | ".smos" ->
    List.iter
      (fun (si : Inverda.Genealogy.smo_instance) ->
        Fmt.pr "#%d %s (%s)@." si.Inverda.Genealogy.si_id
          (Bidel.Printer.smo_to_string si.Inverda.Genealogy.si_smo)
          (if si.Inverda.Genealogy.si_materialized then "materialized"
           else "virtualized"))
      (Inverda.Genealogy.all_smos (I.genealogy t))
  | ".quit" | ".exit" -> exit 0
  | other -> Fmt.pr "unknown meta command %s (try .help)@." other

let repl t =
  let interactive = Unix.isatty Unix.stdin in
  if interactive then begin
    Fmt.pr "InVerDa shell — co-existing schema versions (type .help)@.";
    Fmt.pr "inverda> %!"
  end;
  let buf = Buffer.create 256 in
  try
    while true do
      let line = input_line stdin in
      let trimmed = String.trim line in
      if String.length trimmed > 0 && trimmed.[0] = '.' && Buffer.length buf = 0
      then meta t trimmed
      else begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        (* a statement ends when the buffered input ends with ';' *)
        let s = String.trim (Buffer.contents buf) in
        if String.length s > 0 && s.[String.length s - 1] = ';' then begin
          Buffer.clear buf;
          execute t s
        end
      end;
      if interactive then Fmt.pr "inverda> %!"
    done
  with End_of_file ->
    let rest = String.trim (Buffer.contents buf) in
    if rest <> "" then execute t rest

let run demo no_cache no_batch dir =
  let t =
    match dir with
    | Some dir when Sys.file_exists (Minidb.Wal.log_file dir) ->
      (* an existing history: recover it (repairing a torn tail) and keep
         appending where the last session stopped *)
      let t = I.recover dir in
      Fmt.pr "recovered %s: %d schema versions, changeset position %d@." dir
        (List.length (I.versions t))
        (I.current_changeset t);
      if demo then Fmt.pr "(--demo ignored: %s already holds a history)@." dir;
      t
    | _ ->
      let t = I.create () in
      (match dir with Some dir -> I.attach_wal t dir | None -> ());
      if demo then begin
        I.evolve t Scenarios.Tasky.bidel_initial;
        Scenarios.Tasky.load_tasks t 20;
        I.evolve t Scenarios.Tasky.bidel_do;
        I.evolve t Scenarios.Tasky.bidel_tasky2;
        Fmt.pr "loaded the TasKy demo: versions %s@."
          (String.concat ", " (I.versions t))
      end;
      t
  in
  if no_cache then I.set_cache t false;
  if no_batch then I.set_batch t false;
  repl t;
  0

(* --- the lint command ------------------------------------------------------- *)

let read_script path =
  if path = "-" then In_channel.input_all stdin
  else In_channel.with_open_text path In_channel.input_all

(* Replay the script on a scratch instance and collect the deeper layers'
   diagnostics: rule-set safety for every instantiated SMO and the
   typechecked delta code of the final state. *)
let deep_diagnostics ~unused src =
  let t = I.create ~strict:false () in
  match I.evolve t src with
  | () -> I.rule_diagnostics ~unused t @ I.delta_diagnostics t
  | exception e ->
    [
      Analysis.Diagnostic.error "IVD000" "script replay failed: %s"
        (match e with
        | Inverda.Genealogy.Catalog_error m
        | Inverda.Migration.Migration_error m
        | Minidb.Database.Engine_error m
        | Minidb.Exec.Exec_error m
        | Bidel.Smo_semantics.Semantics_error m ->
          m
        | e -> Printexc.to_string e);
    ]

let lint file json shallow deny_warnings unused =
  match read_script file with
  | exception Sys_error msg ->
    Fmt.epr "%s@." msg;
    2
  | src ->
    let script = Analysis.lint_source src in
    (* replaying an erroneous script would only duplicate its findings *)
    let deep =
      if shallow || Analysis.Diagnostic.has_errors script then []
      else deep_diagnostics ~unused src
    in
    let all = script @ deep in
    if json then print_endline (Analysis.Diagnostic.list_to_json all)
    else begin
      Analysis.Diagnostic.report Fmt.stdout all;
      if all = [] then Fmt.pr "no diagnostics@."
    end;
    if Analysis.Diagnostic.has_errors all || (deny_warnings && all <> []) then 1
    else 0

(* Errors a command reports instead of escaping as an uncaught exception
   (exit 125): a rejected script prints its diagnostics the way [lint]
   does; every other engine, catalog or script error prints one line. *)
let cli_errors f =
  try f () with
  | Analysis.Diagnostic.Rejected ds ->
    Fmt.epr "rejected by the static analyzer:@.";
    Analysis.Diagnostic.report Fmt.stderr ds;
    1
  | Inverda.Migration.Migration_error msg
  | Inverda.Genealogy.Catalog_error msg
  | Minidb.Database.Engine_error msg
  | Minidb.Exec.Exec_error msg
  | Minidb.Table.Constraint_violation msg
  | Bidel.Smo_semantics.Semantics_error msg ->
    Fmt.epr "error: %s@." msg;
    1
  | Minidb.Sql_lexer.Cursor.Parse_error msg | Minidb.Sql_lexer.Lex_error (msg, _)
    ->
    Fmt.epr "parse error: %s@." msg;
    1
  | Sys_error msg ->
    Fmt.epr "%s@." msg;
    2

(* --- the materialize command ------------------------------------------------ *)

let load_demo t =
  I.evolve t Scenarios.Tasky.bidel_initial;
  Scenarios.Tasky.load_tasks t 20;
  I.evolve t Scenarios.Tasky.bidel_do;
  I.evolve t Scenarios.Tasky.bidel_tasky2

let smo_label t id =
  let si = Inverda.Genealogy.smo (I.genealogy t) id in
  Fmt.str "#%d %s" id
    (Bidel.Printer.smo_to_string si.Inverda.Genealogy.si_smo)

let materialize_run demo script dry_run targets =
  cli_errors @@ fun () ->
  let t = I.create () in
  if demo then load_demo t;
  (match script with Some path -> I.evolve t (read_script path) | None -> ());
  let to_virtualize, to_materialize = I.migration_plan t targets in
  Fmt.pr "flip plan for MATERIALIZE %s:@."
    (String.concat ", " (List.map (Fmt.str "'%s'") targets));
  if to_virtualize = [] && to_materialize = [] then
    Fmt.pr "  nothing to do (already at the requested materialization)@.";
  List.iter
    (fun id -> Fmt.pr "  virtualize   %s@." (smo_label t id))
    to_virtualize;
  List.iter
    (fun id -> Fmt.pr "  materialize  %s@." (smo_label t id))
    to_materialize;
  if dry_run then 0
  else begin
    I.materialize t targets;
    Fmt.pr "ok: materialization is now {%s}@."
      (String.concat ","
         (List.map string_of_int (I.current_materialization t)));
    0
  end

(* --- the faults command ------------------------------------------------------ *)

let faults_run smoke stride recover =
  let module F = Scenarios.Faults in
  let stride =
    match stride with Some s -> s | None -> if smoke then 7 else 1
  in
  let started = Unix.gettimeofday () in
  if recover then (
    (* crash-recovery mode: kill the instance at every failpoint and
       recover from disk instead of relying on the in-memory rollback *)
    try
      let r = F.recovery_sweep_tasky ~tasks:(if smoke then 3 else 6) ~stride () in
      Fmt.pr "TasKy crash-recovery: %d kills injected over %d statements@."
        r.F.failpoints r.F.statements;
      Fmt.pr "crash-recovery sweep passed in %.1fs (stride %d)@."
        (Unix.gettimeofday () -. started)
        stride;
      0
    with F.Sweep_failure msg ->
      Fmt.epr "CRASH-RECOVERY SWEEP FAILED: %s@." msg;
      1)
  else
  try
    let tasky =
      F.sweep_tasky ~tasks:(if smoke then 6 else 12) ~stride ()
    in
    List.iter
      (fun (mat, (r : F.report)) ->
        Fmt.pr "TasKy {%s}: %d faults injected over %d statements@."
          (String.concat "," (List.map string_of_int mat))
          r.F.failpoints r.F.statements)
      tasky;
    let wiki =
      F.sweep_wikimedia
        ~versions:(if smoke then 4 else 6)
        ~pages:(if smoke then 6 else 10)
        ~links:(if smoke then 8 else 16)
        ~stride ()
    in
    Fmt.pr "Wikimedia: %d faults injected over %d statements@."
      wiki.F.failpoints wiki.F.statements;
    Fmt.pr "fault sweep passed in %.1fs (stride %d)@."
      (Unix.gettimeofday () -. started)
      stride;
    0
  with F.Sweep_failure msg ->
    Fmt.epr "FAULT SWEEP FAILED: %s@." msg;
    1

(* --- durability commands: checkpoint / recover / history --------------------- *)

(* The durability commands that read an existing log refuse a directory
   without one: recovering it would create an empty database, so a typo in
   --dir would pass silently. *)
let with_log dir f =
  if Sys.file_exists (Minidb.Wal.log_file dir) then f ()
  else begin
    Fmt.epr "error: %s: no write-ahead log@." dir;
    1
  end

let checkpoint_run dir =
  cli_errors @@ fun () ->
  with_log dir @@ fun () ->
  let t = I.recover dir in
  I.checkpoint t;
  Fmt.pr "checkpoint written at changeset %d (%d schema versions)@."
    (I.current_changeset t)
    (List.length (I.versions t));
  I.detach_wal t;
  0

(* AS OF at [changeset] answers identically to a genesis replay of the log,
   for every table of every schema version alive in that reality *)
let as_of_matches_ground ~dir api changeset =
  let ground = I.replay_to ~dir changeset in
  List.for_all
    (fun version ->
      List.for_all
        (fun table ->
          let sql =
            Fmt.str "SELECT * FROM \"%s\""
              (Inverda.Naming.version_view ~version ~table)
          in
          List.sort compare (I.query_rows ground sql)
          = List.sort compare
              (List.map Array.to_list
                 (I.as_of api ~changeset sql).Minidb.Exec.rel_rows))
        (I.version_tables ground version))
    (I.versions ground)

(* The self-contained round trip: build the TasKy demo over a scratch log
   (checkpoint in the middle, a migration after it), kill the instance,
   recover from disk, and check dump byte-identity and AS OF against genesis
   replay. *)
let recover_self_verify () =
  let dir = Scenarios.Faults.fresh_dir () in
  let t = I.create () in
  I.attach_wal t dir;
  I.evolve t Scenarios.Tasky.bidel_initial;
  Scenarios.Tasky.load_tasks t 12;
  I.evolve t Scenarios.Tasky.bidel_do;
  I.evolve t Scenarios.Tasky.bidel_tasky2;
  let mid = I.current_changeset t in
  I.checkpoint t;
  ignore
    (I.exec_sql t "INSERT INTO Do!.Todo (author, task) VALUES ('Zed', 'r-1')");
  I.materialize t [ "TasKy2" ];
  let live_dump = I.dump t in
  let live_cs = I.current_changeset t in
  I.detach_wal t;
  let r = I.recover dir in
  let ok_dump = I.dump r = live_dump in
  let ok_asof =
    as_of_matches_ground ~dir r mid && as_of_matches_ground ~dir r live_cs
  in
  I.detach_wal r;
  Scenarios.Faults.rm_rf dir;
  if ok_dump && ok_asof then begin
    Fmt.pr
      "recovery verify passed: dump byte-identical after recovery, AS OF \
       matches genesis replay at changesets %d and %d@."
      mid live_cs;
    0
  end
  else begin
    Fmt.epr "RECOVERY VERIFY FAILED: dump_identical=%b as_of_identical=%b@."
      ok_dump ok_asof;
    1
  end

let recover_run dir verify =
  cli_errors @@ fun () ->
  match dir with
  | None ->
    if verify then recover_self_verify ()
    else begin
      Fmt.epr
        "recover: --dir is required (or --verify alone for the \
         self-contained check)@.";
      2
    end
  | Some dir ->
    with_log dir @@ fun () ->
    let t = I.recover dir in
    Fmt.pr "recovered %s: %d schema versions, changeset position %d@." dir
      (List.length (I.versions t))
      (I.current_changeset t);
    if not verify then begin
      I.detach_wal t;
      0
    end
    else begin
      (* recovery is idempotent and the checkpoint is pure acceleration *)
      let d1 = I.dump t in
      I.detach_wal t;
      let t2 = I.recover dir in
      let idempotent = I.dump t2 = d1 in
      let cs = I.current_changeset t2 in
      let genesis_equal = I.dump (I.replay_to ~dir cs) = d1 in
      I.detach_wal t2;
      if idempotent && genesis_equal then begin
        Fmt.pr
          "recovery verified: idempotent, and the checkpointed path agrees \
           with genesis replay at changeset %d@."
          cs;
        0
      end
      else begin
        Fmt.epr "RECOVERY VERIFY FAILED: idempotent=%b genesis_equal=%b@."
          idempotent genesis_equal;
        1
      end
    end

let history_run dir limit =
  cli_errors @@ fun () ->
  with_log dir @@ fun () ->
  let records, torn = Minidb.Wal.read_log dir in
  let records =
    match limit with
    | Some n when n >= 0 && n < List.length records ->
      List.filteri (fun i _ -> i >= List.length records - n) records
    | _ -> records
  in
  List.iter print_record records;
  (match torn with
  | Some ofs ->
    Fmt.pr "(torn tail at byte %d — recovery will repair it)@." ofs
  | None -> ());
  (match Minidb.Wal.read_checkpoint dir with
  | Some ck -> Fmt.pr "(checkpoint at changeset %d)@." ck.Minidb.Wal.ck_lsn
  | None -> ());
  0

(* --- the coherence command ------------------------------------------------ *)

let coherence_run smoke =
  let module C = Scenarios.Coherence in
  let started = Unix.gettimeofday () in
  try
    let r =
      C.check_tasky
        ~tasks:(if smoke then 20 else 120)
        ~ops:(if smoke then 40 else 150)
        ()
    in
    Fmt.pr "TasKy: %d states x 5 points, %d queries each@." r.C.states
      r.C.queries;
    let r =
      C.check_wikimedia
        ~versions:(if smoke then 6 else 171)
        ~pages:(if smoke then 8 else 30)
        ~links:(if smoke then 12 else 60)
        ()
    in
    Fmt.pr "Wikimedia: %d states x 5 points, %d queries each@." r.C.states
      r.C.queries;
    let faults =
      C.check_faults
        ~tasks:(if smoke then 6 else 10)
        ?stride:(if smoke then Some 7 else None)
        ()
    in
    Fmt.pr "fault sweep: %d materializations, %d rollback states x 5 points@."
      (List.length faults)
      (List.fold_left
         (fun n (_, (r : Scenarios.Faults.report)) ->
           n + r.Scenarios.Faults.failpoints)
         0 faults);
    Fmt.pr "coherence passed in %.1fs: every point answers like the reference@."
      (Unix.gettimeofday () -. started);
    0
  with
  | C.Coherence_failure msg ->
    Fmt.epr "COHERENCE FAILED: %s@." msg;
    1
  | Scenarios.Faults.Sweep_failure msg ->
    Fmt.epr "COHERENCE FAILED (fault sweep): %s@." msg;
    1

(* --- the verify command ------------------------------------------------------ *)

let verify_run demo script json mutate =
  let module V = Analysis.Verify in
  (* a lax replay: a refuted law is what this command reports, and strict
     mode would reject the evolution before it could *)
  let t = I.create ~strict:false () in
  let replayed =
    cli_errors (fun () ->
        if demo then load_demo t;
        Option.iter (fun path -> I.evolve t (read_script path)) script;
        0)
  in
  if replayed <> 0 then 2
  else if Inverda.Genealogy.all_smos (I.genealogy t) = [] then begin
    Fmt.epr "nothing to verify (use --demo and/or --script)@.";
    2
  end
  else begin
    let diags = I.verify_diagnostics t in
    let mutations = if mutate then I.verify_mutations t else [] in
    let survivors =
      List.concat_map
        (fun (id, smo, (r : V.mutation_report)) ->
          List.map (fun s -> (id, smo, s)) r.V.mr_survivors)
        mutations
    in
    let ok =
      I.verify_ok t
      && (not (Analysis.Diagnostic.has_errors diags))
      && survivors = []
    in
    if json then print_endline (I.verify_json t)
    else begin
      List.iter
        (fun (v : I.smo_verification) ->
          Fmt.pr "#%d %s@." v.I.vr_id v.I.vr_smo;
          Fmt.pr "  GetPut: %s@."
            (V.verdict_to_string v.I.vr_laws.V.lr_getput);
          Fmt.pr "  PutGet: %s@."
            (V.verdict_to_string v.I.vr_laws.V.lr_putget))
        (I.verify_report t);
      if diags <> [] then begin
        Fmt.pr "diagnostics:@.";
        Analysis.Diagnostic.report Fmt.stdout diags
      end;
      List.iter
        (fun (id, smo, (r : V.mutation_report)) ->
          Fmt.pr
            "mutants of #%d %s: %d total — %d killed by law, %d by safety, \
             %d by divergence, %d equivalent, %d survived@."
            id smo r.V.mr_total r.V.mr_killed_by_law r.V.mr_killed_by_safety
            r.V.mr_killed_by_divergence r.V.mr_equivalent
            (List.length r.V.mr_survivors);
          List.iter (fun s -> Fmt.pr "  SURVIVOR: %s@." s) r.V.mr_survivors)
        mutations;
      Fmt.pr "%s@."
        (if ok then "verification passed" else "VERIFICATION FAILED")
    end;
    if ok then 0 else 1
  end

(* --- telemetry commands: stats / trace / explain / advise -------------------- *)

let build_instance ?(no_cache = false) ?(no_batch = false) demo script =
  let t = I.create () in
  if no_cache then I.set_cache t false;
  if no_batch then I.set_batch t false;
  if demo then load_demo t;
  (match script with Some path -> I.evolve t (read_script path) | None -> ());
  t

(* Demo traffic so stats/trace/advise have something to report: a paper-mix
   workload skewed toward the newer versions, echoing the adoption shift of
   Figures 9/10 (TasKy 20 %, TasKy2 50 %, Do! 30 %). *)
let demo_shares =
  Scenarios.Workload.[ (V_tasky, 0.2); (V_tasky2, 0.5); (V_do, 0.3) ]

let replay_demo_traffic t ops =
  if ops > 0 then
    let r = Scenarios.Workload.make_runner (I.database t) in
    ignore
      (Scenarios.Workload.replay_profile r ~shares:demo_shares
         ~mix:Scenarios.Workload.paper_mix ~ops)

let stats_run demo script ops json openmetrics no_cache no_batch =
  cli_errors @@ fun () ->
  let t = build_instance ~no_cache ~no_batch demo script in
  if demo then replay_demo_traffic t ops;
  if openmetrics then print_string (I.metrics_text t)
  else if json then print_endline (I.stats_json t)
  else print_string (I.stats_text t);
  0

let trace_run demo script ops limit smoke =
  cli_errors @@ fun () ->
  (* the smoke check is about ring wrap-around, so it needs traffic: force
     the demo workload and enough operations to overrun the buffer *)
  let demo = demo || (smoke && script = None) in
  let t = build_instance demo script in
  let ops = if smoke then max ops (2 * Minidb.Metrics.span_capacity) else ops in
  if demo then replay_demo_traffic t ops;
  if smoke then begin
    (* bounded-ring sanity: the buffer never exceeds its capacity, sequence
       numbers stay monotone, and the drop count is consistent *)
    let spans = I.recent_spans t in
    let held = List.length spans in
    let cap = Minidb.Metrics.span_capacity in
    let recorded =
      Minidb.Metrics.total_spans (I.database t).Minidb.Database.metrics
    in
    let monotone =
      let rec go = function
        | a :: (b :: _ as rest) ->
          a.Minidb.Metrics.sp_seq < b.Minidb.Metrics.sp_seq && go rest
        | _ -> true
      in
      go spans
    in
    let ok =
      held <= cap && monotone
      && (recorded < cap || held = cap)
      && recorded >= held
    in
    if ok then begin
      Fmt.pr "trace smoke passed: %d spans recorded, %d held (capacity %d)@."
        recorded held cap;
      0
    end
    else begin
      Fmt.epr
        "TRACE SMOKE FAILED: recorded=%d held=%d capacity=%d monotone=%b@."
        recorded held cap monotone;
      1
    end
  end
  else begin
    List.iter
      (fun sp -> print_endline (Inverda.Telemetry.span_json sp))
      (I.recent_spans ?limit t);
    0
  end

let explain_run demo script json analyze sql =
  cli_errors @@ fun () ->
  let t = build_instance demo script in
  if analyze then print_string (I.explain_analyze t sql)
  else if json then print_endline (I.explain_json t sql)
  else print_string (I.explain t sql);
  0

(* --- the profile command ----------------------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

(* The smoke mode runs a read and a cascading write under forced tracing and
   asserts the trace trees carry the expected span kinds: the read must show
   the synthesized parse child and the delta-code view stack, the write its
   INSTEAD OF trigger cascade. *)
let profile_run demo script smoke sql =
  cli_errors @@ fun () ->
  if smoke then begin
    let t = build_instance true script in
    let sel = I.profile t "SELECT author, task FROM Do!.Todo" in
    let ins =
      I.profile t "INSERT INTO Do!.Todo (author, task) VALUES ('Smoke', 'probe')"
    in
    let ok =
      contains sel "select" && contains sel "parse" && contains sel "spans"
      && contains ins "insert" && contains ins "trigger"
    in
    if ok then begin
      Fmt.pr "profile smoke passed:@.%s%s%!" sel ins;
      0
    end
    else begin
      Fmt.epr "PROFILE SMOKE FAILED:@.%s%s%!" sel ins;
      1
    end
  end
  else
    match sql with
    | None ->
      Fmt.epr "profile: a SQL statement is required (or --smoke)@.";
      2
    | Some sql ->
      let t = build_instance demo script in
      print_string (I.profile t sql);
      0

(* "TasKy=0.2,TasKy2=0.5,Do!=0.3" -> an Advisor.profile *)
let parse_profile s =
  String.split_on_char ',' s
  |> List.filter_map (fun part ->
         let part = String.trim part in
         if part = "" then None
         else
           match String.index_opt part '=' with
           | None ->
             failwith
               (Fmt.str "bad profile entry %S (expected version=weight)" part)
           | Some i ->
             let name = String.trim (String.sub part 0 i) in
             let w =
               String.trim
                 (String.sub part (i + 1) (String.length part - i - 1))
             in
             (match float_of_string_opt w with
             | Some f -> Some (name, f)
             | None ->
               failwith (Fmt.str "bad weight %S for version %s" w name)))

let print_recommendation t what (r : Inverda.Advisor.recommendation) =
  let mat_str mat =
    "{" ^ String.concat "," (List.map string_of_int mat) ^ "}"
  in
  Fmt.pr "recommended materialization (%s): %s, estimated cost %.3f@." what
    (mat_str r.Inverda.Advisor.materialization)
    r.Inverda.Advisor.estimated_cost;
  List.iter
    (fun id -> Fmt.pr "  materialize %s@." (smo_label t id))
    r.Inverda.Advisor.materialization;
  let current = I.current_materialization t in
  if List.sort compare current = List.sort compare r.Inverda.Advisor.materialization
  then Fmt.pr "already at the recommended materialization@."
  else Fmt.pr "current materialization is %s@." (mat_str current);
  let rec take k = function
    | x :: rest when k > 0 -> x :: take (k - 1) rest
    | _ -> []
  in
  Fmt.pr "alternatives:@.";
  List.iter
    (fun (mat, cost) -> Fmt.pr "  %s cost %.3f@." (mat_str mat) cost)
    (take 5 r.Inverda.Advisor.alternatives)

let advise_run demo script observed ops profile_str =
  cli_errors @@ fun () ->
  let t = build_instance demo script in
  if observed then begin
    if demo then replay_demo_traffic t ops;
    match I.advise_observed t with
    | None ->
      Fmt.epr
        "no observed traffic to advise from (run a workload first, or use \
         --profile)@.";
      1
    | Some r ->
      Fmt.pr "observed profile:@.";
      List.iter
        (fun (v, w) -> Fmt.pr "  %-16s %.1f%%@." v (100.0 *. w))
        (I.observed_profile t);
      print_recommendation t "observed traffic" r;
      0
  end
  else
    match profile_str with
    | None ->
      Fmt.epr "one of --observed or --profile is required@.";
      2
    | Some s -> (
      match parse_profile s with
      | exception Failure msg ->
        Fmt.epr "error: %s@." msg;
        2
      | profile -> (
        match I.advise t profile with
        | None ->
          Fmt.epr "no schema versions to advise on@.";
          1
        | Some r ->
          print_recommendation t "given profile" r;
          0))

open Cmdliner

let demo =
  let doc = "Preload the TasKy example (three schema versions, 20 tasks)." in
  Arg.(value & flag & info [ "demo" ] ~doc)

let no_cache =
  let doc =
    "Disable the cross-statement view-result cache (every read re-evaluates \
     the delta-view stack)."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let no_batch =
  let doc =
    "Disable the columnar batch executor (every read runs the row-at-a-time \
     interpreter instead of selection vectors over column snapshots)."
  in
  Arg.(value & flag & info [ "no-batch" ] ~doc)

let dir_opt =
  let doc =
    "Durability directory: attach a write-ahead log there (recovering from \
     it first when one exists), enabling $(b,.checkpoint), $(b,.history) and \
     $(b,AS OF) queries."
  in
  Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)

let dir_req =
  let doc = "Durability directory holding the write-ahead log." in
  Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)

let shell_term =
  Term.(const run $ demo $ no_cache $ no_batch $ dir_opt)

let shell_cmd =
  let doc = "Interactive shell (the default command)" in
  Cmd.v (Cmd.info "shell" ~doc) shell_term

let lint_cmd =
  let file =
    let doc = "BiDEL script to lint ($(b,-) reads standard input)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCRIPT" ~doc)
  in
  let json =
    let doc = "Emit diagnostics as a JSON array." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let shallow =
    let doc =
      "Script lints only: skip replaying the script to check Datalog rule \
       safety and typecheck the generated delta code."
    in
    Arg.(value & flag & info [ "shallow" ] ~doc)
  in
  let deny_warnings =
    let doc = "Exit non-zero on warnings too (for CI gates)." in
    Arg.(value & flag & info [ "deny-warnings" ] ~doc)
  in
  let unused =
    let doc =
      "Also report pedantic lints: singleton variables in generated mapping \
       rules ($(b,DLG006))."
    in
    Arg.(value & flag & info [ "unused" ] ~doc)
  in
  let doc = "Statically analyze a BiDEL evolution script" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses the script and reports coded diagnostics: evolution-script \
         lints ($(b,BDL0xx)), Datalog rule safety violations ($(b,DLG0xx)) \
         and delta-code type errors ($(b,IVD0xx)), each with its source \
         location where available. Exits non-zero when any error-severity \
         diagnostic is reported; warnings alone exit zero unless \
         $(b,--deny-warnings) is given.";
    ]
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man)
    Term.(const lint $ file $ json $ shallow $ deny_warnings $ unused)

let materialize_cmd =
  let targets =
    let doc =
      "Migration targets: schema version names or $(b,version.table)."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"TARGET" ~doc)
  in
  let script =
    let doc =
      "BiDEL evolution script to replay first ($(b,-) reads standard input)."
    in
    Arg.(value & opt (some string) None & info [ "script" ] ~docv:"FILE" ~doc)
  in
  let dry_run =
    let doc =
      "Report the flip plan (SMO instances to virtualize and materialize, in \
       execution order) without touching any data."
    in
    Arg.(value & flag & info [ "dry-run" ] ~doc)
  in
  let doc = "Run (or plan) a MATERIALIZE migration" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Builds the catalog from $(b,--demo) and/or $(b,--script), prints the \
         flip plan for the given targets and — unless $(b,--dry-run) is set — \
         executes the migration. Migrations are atomic: on any failure the \
         database rolls back to its pre-command state.";
    ]
  in
  Cmd.v
    (Cmd.info "materialize" ~doc ~man)
    Term.(const materialize_run $ demo $ script $ dry_run $ targets)

let faults_cmd =
  let smoke =
    let doc =
      "Small genealogies and a coarse default stride, for CI smoke checks."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let stride =
    let doc =
      "Inject a fault at every STRIDE-th statement instead of every one \
       (STRIDE >= 1)."
    in
    let positive =
      Arg.conv'
        ( (fun s ->
            match int_of_string_opt s with
            | Some n when n >= 1 -> Ok n
            | _ ->
              Error (Fmt.str "invalid value '%s', expected an integer >= 1" s)),
          Fmt.int )
    in
    Arg.(
      value & opt (some positive) None & info [ "stride" ] ~docv:"STRIDE" ~doc)
  in
  let recover =
    let doc =
      "Crash-recovery sweep instead: kill the instance at every failpoint of \
       a logged TasKy workload, recover from disk, and assert the recovered \
       dump is byte-identical to the pre-crash committed state."
    in
    Arg.(value & flag & info [ "recover" ] ~doc)
  in
  let doc = "Fault-injection sweep of the migration operation" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Arms a statement-indexed failpoint at every prefix of the TasKy \
         migrations (all five valid materializations) and of a Wikimedia-style \
         genealogy's migration, and asserts after every injected failure that \
         the rolled-back database dump is byte-identical to the pre-migration \
         dump and that every version view still answers with its original \
         contents. Exits non-zero on the first violation.";
      `P
        "With $(b,--recover) the sweep targets durability instead: for every \
         failpoint of a write-ahead-logged TasKy workload (DML, checkpoint, \
         a transaction and a migration) the instance is killed, recovered \
         from the on-disk log, and checked for byte-identical dumps, \
         identical version-view contents, and idempotent recovery.";
    ]
  in
  Cmd.v (Cmd.info "faults" ~doc ~man)
    Term.(const faults_run $ smoke $ stride $ recover)

let coherence_cmd =
  let smoke =
    let doc =
      "Smaller genealogies and data sets and a coarse fault-sweep stride, for \
       CI smoke checks."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let doc = "Check every optimization layer against the reference" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs one query battery (scans, filtered projections, aggregates and \
         self-joins over every version view) at five points: the reference \
         (batch executor, view cache and planner fast paths off: the layered \
         delta code on the row interpreter), the default (every layer on) \
         and the default with each one layer off. Every point must answer \
         exactly like the reference, and the engine state must be \
         byte-identical across all points. States: TasKy under all five \
         materializations, before and after writes; a Wikimedia-style \
         genealogy across writes and two migrations; and every rollback \
         state of a fault-injection sweep. Exits 1 on the first divergence, \
         naming the state, the point and the query.";
    ]
  in
  Cmd.v (Cmd.info "coherence" ~doc ~man) Term.(const coherence_run $ smoke)

(* shared options of the telemetry commands *)
let script_opt =
  let doc =
    "BiDEL evolution script to replay first ($(b,-) reads standard input)."
  in
  Arg.(value & opt (some string) None & info [ "script" ] ~docv:"FILE" ~doc)

let ops_opt =
  let doc =
    "With $(b,--demo): run this many workload operations (paper mix, skewed \
     toward the newer versions) before reporting, so the telemetry has \
     traffic to show."
  in
  Arg.(value & opt int 200 & info [ "ops" ] ~docv:"N" ~doc)

let json_opt =
  let doc = "Emit JSON instead of the human-readable rendering." in
  Arg.(value & flag & info [ "json" ] ~doc)

let stats_cmd =
  let doc = "Unified telemetry counters (cache, traffic)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Prints the engine's workload telemetry: view-cache hits/misses, \
         per-schema-version and per-table-version access counters, the \
         observed workload profile and the latency histograms. \
         $(b,--json) emits one JSON object (the schema checked in CI); \
         $(b,--openmetrics) emits the Prometheus/OpenMetrics text exposition \
         for scraping.";
    ]
  in
  let openmetrics =
    let doc =
      "Emit the OpenMetrics text exposition (counters, per-version traffic, \
       latency histograms with cumulative buckets, terminated by $(b,# EOF))."
    in
    Arg.(value & flag & info [ "openmetrics" ] ~doc)
  in
  Cmd.v (Cmd.info "stats" ~doc ~man)
    Term.(
      const stats_run $ demo $ script_opt $ ops_opt $ json_opt $ openmetrics
      $ no_cache $ no_batch)

let trace_cmd =
  let limit =
    let doc = "Emit at most this many spans (default: all buffered)." in
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc)
  in
  let smoke =
    let doc =
      "Bounded-ring-buffer sanity check (for CI): run more operations than \
       the ring holds and assert occupancy and sequence monotonicity."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let doc = "Statement spans as JSON lines" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replays a workload (with $(b,--demo)) and emits the buffered \
         statement spans — parse/compile/execute nanoseconds, targets, rows, \
         cache hits, trigger hops, view-expansion depth — one JSON object \
         per line, oldest first.";
    ]
  in
  Cmd.v (Cmd.info "trace" ~doc ~man)
    Term.(const trace_run $ demo $ script_opt $ ops_opt $ limit $ smoke)

let explain_cmd =
  let sql =
    let doc = "The SQL statement to explain (quote it)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)
  in
  let doc = "The compiled plan and the delta-code path of a statement" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "For a SELECT, the plan the executor compiles for it: one line per \
         operator (select, join, scan, view, ...) with the access path the \
         compiler chose (batch, row, index, pushdown, hash, ...), view \
         bodies expanded. A SELECT that does not compile is an error (exit \
         1). Then, for every object the statement names: its role in the \
         genealogy, the Section 6 access path from its table version to the \
         data, the installed view stack (one view per SMO), the physical \
         tables touched and \
         — for INSERT/UPDATE/DELETE — the trigger cascade the write would \
         fire. $(b,--analyze) additionally executes the statement under \
         profile tracing, prints each plan node's measured rows and time \
         (and the path it ran on where that differs: a computed view the \
         cache served reads cache-hit), flags any span the plan does not \
         account for, and cross-checks the executed row count.";
    ]
  in
  let analyze =
    let doc =
      "EXPLAIN ANALYZE: really execute the statement and annotate each node \
       of the compiled plan with its measured rows and time."
    in
    Arg.(value & flag & info [ "analyze" ] ~doc)
  in
  Cmd.v (Cmd.info "explain" ~doc ~man)
    Term.(
      const explain_run $ demo $ script_opt $ json_opt $ analyze $ sql)

let profile_cmd =
  let sql =
    let doc = "The SQL statement to profile (quote it)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)
  in
  let smoke =
    let doc =
      "Self-check for CI: profile a read and a cascading write on the demo \
       catalog and assert the trace trees carry parse, view and trigger \
       spans."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let doc = "Execute one statement and print its hierarchical trace tree" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the statement with tracing forced into profile mode (exact \
         per-operator row counts) and prints the resulting span tree: \
         parse/plan, every scan, view expansion, join and trigger hop with \
         its path (batch, row, index, view-pushdown, cache hit/miss), \
         duration and row counts, plus a one-line summary.";
    ]
  in
  Cmd.v (Cmd.info "profile" ~doc ~man)
    Term.(const profile_run $ demo $ script_opt $ smoke $ sql)

let advise_cmd =
  let observed =
    let doc =
      "Advise from observed traffic (the telemetry counters) instead of a \
       hand-written profile."
    in
    Arg.(value & flag & info [ "observed" ] ~doc)
  in
  let profile =
    let doc =
      "Hand-written workload profile, e.g. \
       $(b,TasKy=0.2,TasKy2=0.5,Do!=0.3)."
    in
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"PROFILE" ~doc)
  in
  let doc = "Recommend a materialization schema (Section 8.2 advisor)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Scores every valid materialization schema against a workload \
         profile — given by hand with $(b,--profile), or derived from the \
         observed per-version traffic with $(b,--observed) — and prints the \
         cheapest one with its alternatives.";
    ]
  in
  Cmd.v (Cmd.info "advise" ~doc ~man)
    Term.(const advise_run $ demo $ script_opt $ observed $ ops_opt $ profile)

let verify_cmd =
  let mutate =
    let doc =
      "Also run the single-atom mutation harness: corrupt each mapping rule \
       set one atom at a time and assert the verifier rejects (or proves \
       equivalent) every mutant."
    in
    Arg.(value & flag & info [ "mutate" ] ~doc)
  in
  let doc = "Prove the lens laws for every SMO instance" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Builds the catalog from $(b,--demo) and/or $(b,--script) and runs \
         the symbolic bidirectionality verifier on every SMO instance: both \
         lens laws (GetPut and PutGet) are proved with a chase over \
         canonical instances with labeled nulls, falling back to a grounded \
         sweep, with a minimized concrete counterexample on refutation. \
         Also reports $(b,VRF003) (trigger cascades with overlapping write \
         sets). Exits non-zero on any refuted law, \
         error-severity diagnostic or surviving mutant.";
    ]
  in
  Cmd.v (Cmd.info "verify" ~doc ~man)
    Term.(const verify_run $ demo $ script_opt $ json_opt $ mutate)

let checkpoint_cmd =
  let doc = "Write a checkpoint for a durability directory" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Recovers the catalog from the write-ahead log in $(b,--dir) and \
         writes a fresh checkpoint at the current changeset position. The \
         log itself is never truncated, so $(b,AS OF) time travel to any \
         earlier changeset keeps working; the checkpoint only accelerates \
         future recoveries.";
    ]
  in
  Cmd.v (Cmd.info "checkpoint" ~doc ~man) Term.(const checkpoint_run $ dir_req)

let recover_cmd =
  let verify =
    let doc =
      "After recovering, check that recovery is idempotent and that the \
       checkpointed path agrees with a genesis replay of the log. Without \
       $(b,--dir), run a self-contained round trip in a scratch directory \
       instead (build, kill, recover, compare)."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let doc = "Recover a catalog from its write-ahead log" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Loads the newest checkpoint in $(b,--dir) (if any), repairs a torn \
         log tail, replays the committed log suffix through the full \
         evolution and DML path, and reports the recovered changeset \
         position. With $(b,--verify) it additionally cross-checks the \
         result; with $(b,--verify) and no $(b,--dir) it builds a TasKy \
         catalog with a mid-stream checkpoint and a migration in a scratch \
         directory, kills it, and asserts dump byte-identity plus \
         $(b,AS OF) agreement with genesis replay.";
    ]
  in
  Cmd.v (Cmd.info "recover" ~doc ~man)
    Term.(const recover_run $ dir_opt $ verify)

let history_cmd =
  let limit =
    let doc = "Show only the newest $(docv) changesets." in
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc)
  in
  let doc = "Print the changeset history of a durability directory" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads the write-ahead log in $(b,--dir) without replaying it and \
         prints one line per committed changeset: its id, record kind, the \
         table version it targeted, and the logged statement. A torn tail \
         or an existing checkpoint is noted after the listing.";
    ]
  in
  Cmd.v (Cmd.info "history" ~doc ~man) Term.(const history_run $ dir_req $ limit)

let cmd =
  let doc = "Co-existing schema versions: shell and static analyzer" in
  Cmd.group ~default:shell_term (Cmd.info "inverda" ~doc)
    [
      shell_cmd;
      lint_cmd;
      materialize_cmd;
      faults_cmd;
      coherence_cmd;
      verify_cmd;
      stats_cmd;
      trace_cmd;
      explain_cmd;
      profile_cmd;
      advise_cmd;
      checkpoint_cmd;
      recover_cmd;
      history_cmd;
    ]

let () = exit (Cmd.eval' cmd)
