(** Convenience facade over the parser and executor: execute SQL text against
    a database and fetch results. *)

type db = Database.t

let create = Database.create

(* The committed-statement sink (the WAL hook) fires only for top-level user
   statements: never inside a trigger cascade, never while metrics are
   suspended for internal work (migration data movement, delta-code
   regeneration), and only after the statement succeeded
   — a failing statement rolls back and must not be logged. The SQL text is
   built lazily so the AST path pays nothing when no sink is installed. *)
let fire_sink db stmt sql_thunk =
  match db.Database.statement_sink with
  | Some sink
    when db.Database.trigger_depth = 0
         && db.Database.metrics.Metrics.internal_depth = 0 ->
    (* the sink runs after the statement's own trace closed, so its cost
       (changeset framing, append, fsync) gets a trace of its own, with the
       WAL observer's append/fsync spans as children *)
    let m = db.Database.metrics in
    if Metrics.collecting m then begin
      let t0 = Metrics.now_ns () in
      Metrics.begin_trace m;
      (try sink stmt (sql_thunk ())
       with exn ->
         Metrics.abort_trace m;
         raise exn);
      ignore
        (Metrics.end_trace m ~kind:"wal"
           ~targets:(snd (Exec.span_shape stmt))
           ~start_ns:t0
           ~ns:(Metrics.now_ns () - t0)
           ~rows:0 ())
    end
    else sink stmt (sql_thunk ())
  | _ -> ()

(** Execute one SQL statement given as text. When telemetry is collecting,
    the parse phase is timed separately and folded into the statement's span
    (pre-built ASTs report a parse time of 0). *)
let exec db sql =
  let m = db.Database.metrics in
  let stmt =
    if Metrics.collecting m && db.Database.trigger_depth = 0 then begin
      let t0 = Metrics.now_ns () in
      let stmt = Sql_parser.statement_of_string sql in
      let t1 = Metrics.now_ns () in
      m.Metrics.pending_parse_ns <- t1 - t0;
      m.Metrics.pending_t0 <- t1;
      stmt
    end
    else Sql_parser.statement_of_string sql
  in
  let r = Exec.exec_statement db stmt in
  fire_sink db stmt (fun () -> sql);
  r

let execf db fmt = Fmt.kstr (fun sql -> exec db sql) fmt

(** Execute a ';'-separated script; returns the number of statements run. *)
let exec_script db sql =
  let stmts = Sql_parser.script_of_string sql in
  List.iter
    (fun s ->
      ignore (Exec.exec_statement db s);
      fire_sink db s (fun () -> Sql_printer.statement_to_string s))
    stmts;
  List.length stmts

(** Run a query and return its relation. *)
let query db sql =
  match exec db sql with
  | Exec.Rows rel -> rel
  | Exec.Affected _ | Exec.Done ->
    Database.error "statement did not produce rows: %s" sql

let queryf db fmt = Fmt.kstr (fun sql -> query db sql) fmt

(** Rows as value lists, in unspecified order unless the query sorts. *)
let query_rows db sql = List.map Array.to_list (query db sql).Exec.rel_rows

(** First column of the single row of the result. *)
let query_scalar db sql =
  match (query db sql).Exec.rel_rows with
  | [ row ] when Array.length row >= 1 -> row.(0)
  | rows -> Database.error "expected a single scalar result, got %d rows" (List.length rows)

let query_int db sql = Value.as_int (query_scalar db sql)

let affected db sql =
  match exec db sql with
  | Exec.Affected n -> n
  | Exec.Rows _ | Exec.Done ->
    Database.error "statement is not DML: %s" sql

(** Execute a pre-built AST statement. *)
let exec_ast db stmt =
  let r = Exec.exec_statement db stmt in
  fire_sink db stmt (fun () -> Sql_printer.statement_to_string stmt);
  r

let pp_relation ppf (rel : Exec.relation) =
  Fmt.pf ppf "%a@." (Fmt.list ~sep:(Fmt.any " | ") Fmt.string) rel.Exec.rel_cols;
  List.iter
    (fun row ->
      Fmt.pf ppf "%a@."
        (Fmt.array ~sep:(Fmt.any " | ") Value.pp)
        row)
    rel.Exec.rel_rows
