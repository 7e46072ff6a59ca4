(** Public facade of InVerDa: one object bundling the relational engine, the
    schema version catalog and the two operations of the paper — the
    Database Evolution Operation (BiDEL scripts) and the Database Migration
    Operation (MATERIALIZE). Applications read and write the
    ["version.table"] views through plain SQL. *)

module G = Genealogy
module S = Bidel.Smo_semantics
module Sql = Minidb.Sql_ast
module Db = Minidb.Database

type t = {
  db : Db.t;
  gen : G.t;
  counter : int ref;  (** global id sequence: row keys and skolem ids *)
  mutable strict : bool;
      (** run the static analyzer on every evolution / migration *)
  skolems : (string, (Minidb.Value.t list, Minidb.Value.t) Hashtbl.t) Hashtbl.t;
      (** per-function skolem memos, held here (not in closures) so
          checkpoints can persist them: replaying a logged evolution after
          recovery must hand out the {e same} identifiers it did live *)
  mutable wal : Changeset.session option;
      (** the attached changeset log, if durability is on *)
}

exception Inverda_error = G.Catalog_error

let create ?(strict = true) () =
  let db = Db.create () in
  let counter = ref 0 in
  Db.register_function db Naming.global_id_function (fun db _ ->
      (* undo-logged like a sequence: identifiers consumed by a statement
         that rolls back are handed out again, so the committed statement
         history alone determines every generated id (what WAL replay and
         recovery reproduce) *)
      db.Db.undo <- Db.U_sequence (counter, !counter) :: db.Db.undo;
      incr counter;
      Minidb.Value.Int !counter);
  {
    db;
    gen = G.create ();
    counter;
    strict;
    skolems = Hashtbl.create 8;
    wal = None;
  }

(* Like {!Bidel.Verify.register_skolem}, but the memo lives in [t.skolems]
   so a checkpoint can serialize it, and a generation is transactional: the
   counter bump and the memo entry roll back together (counter via
   [U_sequence], memo via [U_hook]), so no stale memo can ever hand a
   rolled-back identifier to a second payload, and identifier generation is
   a deterministic function of the committed statement history — the
   property WAL replay and recovery rest on. The memo makes the function
   deterministic in its arguments (hence [~pure]). *)
let register_skolem t fname =
  let memo =
    match Hashtbl.find_opt t.skolems fname with
    | Some m -> m
    | None ->
      let m = Hashtbl.create 16 in
      Hashtbl.replace t.skolems fname m;
      m
  in
  Db.register_function ~pure:true t.db fname (fun db args ->
      match Hashtbl.find_opt memo args with
      | Some v -> v
      | None ->
        db.Db.undo <-
          Db.U_hook (fun () -> Hashtbl.remove memo args)
          :: Db.U_sequence (t.counter, !(t.counter))
          :: db.Db.undo;
        incr t.counter;
        let v = Minidb.Value.Int !(t.counter) in
        Hashtbl.replace memo args v;
        v)

(* Append a host-level logical record (evolution, migration flip) to the
   attached changeset log. Callers log only after the operation succeeded;
   with no log attached this is free. *)
let log_record t ~kind ~tag ~payload =
  match t.wal with
  | None -> ()
  | Some s -> Changeset.append s ~kind ~tag ~payload

let set_strict t b = t.strict <- b

(** Toggle the engine's cross-statement view-result cache (enabled by
    default; disabling it also drops all cached results). *)
let set_cache t b = Db.set_view_cache t.db b

(** (hits, misses) of the view-result cache since creation. *)
let cache_stats t = Db.cache_stats t.db

(** Toggle the columnar batch executor (enabled by default): table scans
    served from epoch-memoized column snapshots and eligible pipelines
    compiled to selection-vector filters. Off = the row-at-a-time
    interpreter everywhere (coherence harness, ablation benchmarks). *)
let set_batch t b = Db.set_batch t.db b

let batch_enabled t = t.db.Db.batch_enabled

let database t = t.db

let genealogy t = t.gen

(** Allocate a fresh InVerDa-managed identifier (for loaders that insert
    explicit keys). *)
let fresh_id t =
  incr t.counter;
  !(t.counter)

(* --- static analysis hooks -------------------------------------------------- *)

(** Catalog snapshot for the delta-code typechecker: every table and view of
    the engine, by columns. *)
let lint_env t : Analysis.Sql_check.env =
  {
    Analysis.Sql_check.schema =
      (fun name ->
        match Db.find_object t.db name with
        | Some (Db.Obj_table tbl) ->
          Some (Minidb.Schema.names tbl.Minidb.Table.schema)
        | Some (Db.Obj_view v) -> Some v.Db.view_cols
        | None -> None);
    is_function = (fun name -> Db.find_function t.db name <> None);
  }

(** Version environment for the script linter, from the live catalog. *)
let script_env t : Analysis.Script_check.env =
  List.map
    (fun (sv : G.schema_version) ->
      ( sv.G.sv_name,
        List.map
          (fun (table, tvid) -> (table, (G.tv t.gen tvid).G.tv_cols))
          sv.G.sv_tables ))
    t.gen.G.versions
  |> Analysis.Script_check.env_of_versions

(* In strict mode, reject regenerated delta code with resolution or
   round-trip errors before any of it is installed. *)
let validate_delta t stmts =
  if t.strict then
    Analysis.Diagnostic.reject_errors (Analysis.check_delta (lint_env t) stmts)

(** Diagnostics for the current state's complete delta code (also used by the
    [lint] CLI). *)
let delta_diagnostics t =
  Analysis.check_delta (lint_env t) (Codegen.delta_statements t.gen)

let smo_context (si : G.smo_instance) =
  Fmt.str "SMO #%d (%s)" si.G.si_id (Bidel.Ast.smo_name si.G.si_smo)

(* Diagnostics for one SMO instance: safety of its three mapping rule sets,
   then — once they are safe — its lens laws (VRF001 when a law is refuted:
   the SMO parameters lose information; VRF004 when one is undecided). Every
   catalog relation of the instance counts as live (its views and triggers
   read them), so DLG009 only fires on internal derived predicates nothing
   consumes. *)
let instance_rule_diagnostics ?unused (si : G.smo_instance) =
  let i = si.G.si_inst in
  let edb =
    List.map
      (fun (r : S.rel) -> r.S.rel_name)
      (i.S.sources @ i.S.targets @ i.S.aux_src @ i.S.aux_tgt @ i.S.aux_both)
  in
  let check what rules =
    let context = what ^ " of " ^ smo_context si in
    Analysis.check_rules ?unused ~edb ~live:edb ~context rules
  in
  let safety =
    check "gamma_src" i.S.gamma_src
    @ check "gamma_tgt" i.S.gamma_tgt
    @ check "backfill" i.S.backfill
  in
  if Analysis.Diagnostic.has_errors safety then safety
  else
    safety @ Analysis.Verify.law_diagnostics ~context:(smo_context si) i

(** Rule-set safety and lens-law diagnostics for every SMO instance in the
    catalog. [unused] enables the pedantic DLG006 singleton-variable lint. *)
let rule_diagnostics ?unused t =
  List.concat_map (instance_rule_diagnostics ?unused) (G.all_smos t.gen)

(* In strict mode, reject freshly instantiated SMOs whose rule sets are
   unsafe or whose lens laws are refuted, before any delta code is
   installed. Undecided laws are warnings and pass. *)
let check_instance_rules t (si : G.smo_instance) =
  if t.strict then
    Analysis.Diagnostic.reject_errors (instance_rule_diagnostics si)

(* Migrations manage their own internal engine transaction; letting one run
   inside an open user transaction would interleave the migration's undo
   entries with the user's log, so a later user ROLLBACK would tear half a
   migration out of the catalog. Refuse before any mutation. *)
let check_no_open_txn t =
  if Db.in_transaction t.db then
    raise
      (Inverda_error
         "MATERIALIZE is not allowed inside an open transaction; COMMIT or \
          ROLLBACK first")

(* --- the Database Evolution Operation -------------------------------------- *)

let run_backfill t (si : G.smo_instance) =
  Codegen.untracked t.db @@ fun () ->
  let lookup = Codegen.schema_lookup t.gen in
  let rules = si.G.si_inst.S.backfill in
  List.iter
    (fun (r : S.rel) ->
      if List.exists (fun ru -> ru.Datalog.Ast.head.Datalog.Ast.pred = r.S.rel_name) rules
      then begin
        ignore
          (Minidb.Exec.exec_statement t.db
             (Sql.Insert
                {
                  table = r.S.rel_name;
                  columns = Some r.S.rel_cols;
                  source =
                    Sql.Insert_query
                      (Rule_sql.query_of_rules lookup ~pred:r.S.rel_name rules);
                }))
      end)
    (si.G.si_inst.S.aux_src @ si.G.si_inst.S.aux_both)

(* One logical record per successful BiDEL statement; the payload is the
   printed statement, which round-trips through {!Bidel.Parser}. *)
let log_bidel t (stmt : Bidel.Ast.statement) =
  let tag =
    match stmt with
    | Bidel.Ast.Create_schema_version { name; _ } -> name
    | Bidel.Ast.Drop_schema_version name -> name
    | Bidel.Ast.Materialize targets -> String.concat "," targets
  in
  log_record t ~kind:"bidel" ~tag
    ~payload:(Bidel.Printer.statement_to_string stmt)

(* An evolution is all-or-nothing, like a migration. [f] runs inside an
   engine transaction (inside an open user transaction: from its current
   undo mark) and registers skolem functions through the callback it is
   handed. On any exception the undo log unwinds every engine change, the
   catalog drops what the attempt created, the new skolem functions go, and
   the delta code is regenerated from the restored catalog before the
   exception propagates. Nothing is copied up front: the undo log holds
   only what the attempt changed. *)
let all_or_nothing t f =
  let mark = G.evolution_mark t.gen in
  let added = ref [] in
  let register fname =
    if not (Hashtbl.mem t.skolems fname) then added := fname :: !added;
    register_skolem t fname
  in
  let own_txn = not (Db.in_transaction t.db) in
  if own_txn then Db.begin_internal_txn t.db;
  let undo = t.db.Db.undo in
  match f register with
  | () -> if own_txn then Db.commit_internal_txn t.db
  | exception exn ->
    if own_txn then Db.abort_internal_txn t.db else Db.rollback_to t.db undo;
    G.rollback_evolution t.gen mark;
    List.iter
      (fun fname ->
        Hashtbl.remove t.skolems fname;
        Db.unregister_function t.db fname)
      !added;
    Codegen.regenerate t.db t.gen;
    raise exn

(** Execute one BiDEL statement. *)
let exec_bidel t (stmt : Bidel.Ast.statement) =
  (match stmt with
  | Bidel.Ast.Create_schema_version { name; from; smos } ->
    all_or_nothing t @@ fun register_skolem ->
    let _sv, instances =
      G.create_schema_version t.gen ~register_skolem ~name ~from ~smos
    in
    List.iter (check_instance_rules t) instances;
    (* physical storage for the new SMOs (they start virtualized:
       aux_src + aux_both; CREATE TABLE SMOs get their data tables) *)
    Codegen.ensure_physical t.db t.gen;
    (* identifier backfill for pre-existing source data reads the *current*
       views, which still exist *)
    List.iter (run_backfill t) instances;
    Codegen.regenerate ~validate:(validate_delta t) t.db t.gen
  | Bidel.Ast.Drop_schema_version name ->
    G.drop_schema_version t.gen name;
    Codegen.regenerate ~validate:(validate_delta t) t.db t.gen
  | Bidel.Ast.Materialize targets ->
    check_no_open_txn t;
    Migration.materialize ~validate:(validate_delta t) t.db t.gen targets);
  log_bidel t stmt

(** Execute a BiDEL script given as text. *)
let evolve t script =
  List.iter (exec_bidel t) (Bidel.Parser.script_of_string script)

(** One-line migration command, e.g. [materialize t ["TasKy2"]]. *)
let materialize t targets =
  check_no_open_txn t;
  Migration.materialize ~validate:(validate_delta t) t.db t.gen targets;
  log_bidel t (Bidel.Ast.Materialize targets)

let set_materialization t mat =
  check_no_open_txn t;
  Migration.set_materialization ~validate:(validate_delta t) t.db t.gen mat;
  log_record t ~kind:"setmat" ~tag:""
    ~payload:(String.concat " " (List.map string_of_int mat))

(** The flip plan of [MATERIALIZE targets] — SMO ids to virtualize and to
    materialize, in execution order — without touching any data. *)
let migration_plan t targets = Migration.materialize_plan t.gen targets

(** Deterministic dump of the full engine state (tables with rows and
    indexes, views, triggers, sequences) for equality checks. *)
let dump t = Db.dump t.db

(* --- data access ------------------------------------------------------------ *)

let exec_sql t sql = Minidb.Engine.exec t.db sql

let query t sql = Minidb.Engine.query t.db sql

let query_rows t sql = Minidb.Engine.query_rows t.db sql

let query_int t sql = Minidb.Engine.query_int t.db sql

(* --- telemetry --------------------------------------------------------------- *)

(** Toggle workload telemetry (enabled by default; near-zero cost). *)
let set_telemetry t b = Telemetry.set_enabled t.db b

let telemetry_enabled t = Telemetry.enabled t.db

(** Zero every counter, histogram and the span ring buffer. *)
let reset_telemetry t = Telemetry.reset t.db

let recent_spans ?limit t = Telemetry.recent_spans ?limit t.db

(** Complete hierarchical traces still held in the span ring, oldest first. *)
let recent_traces ?limit t = Telemetry.recent_traces ?limit t.db

let observed_profile t = Telemetry.observed_profile t.db t.gen

let stats_json t = Telemetry.stats_json t.db t.gen

let stats_text t = Telemetry.stats_text t.db t.gen

(** OpenMetrics/Prometheus text exposition of the engine's telemetry. *)
let metrics_text t = Telemetry.metrics_text t.db t.gen

let explain t sql = Telemetry.explain t.db t.gen sql

let explain_json t sql = Telemetry.explain_json t.db t.gen sql

(** EXPLAIN ANALYZE: execute [sql] with profile-mode tracing and annotate
    the static plan with actual per-node rows and timings. The statement
    really runs. *)
let explain_analyze t sql = Telemetry.explain_analyze t.db t.gen sql

(** Execute [sql] with tracing forced on and render its trace tree. *)
let profile t sql = Telemetry.profile t.db sql

(** Route sampled slow-statement trace roots into a JSONL file: every
    [sample]th trace whose total latency reaches [threshold_ns] is appended
    as one JSON line. [set_slow_log t None] disables and closes the file. *)
let slow_log_channel : out_channel option ref = ref None

let set_slow_log t spec =
  (match !slow_log_channel with
  | Some oc ->
    close_out_noerr oc;
    slow_log_channel := None
  | None -> ());
  match spec with
  | None ->
    Minidb.Metrics.set_slow_sink t.db.Db.metrics ~threshold_ns:0 ~sample:1 None
  | Some (path, threshold_ns, sample) ->
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
    in
    slow_log_channel := Some oc;
    Minidb.Metrics.set_slow_sink t.db.Db.metrics ~threshold_ns ~sample
      (Some
         (fun sp ->
           output_string oc (Telemetry.span_json sp);
           output_char oc '\n';
           flush oc))

(** Advise a materialization schema from a hand-written profile. *)
let advise t profile = Advisor.advise t.gen profile

(** Advise from observed traffic: {!Advisor.advise} on {!observed_profile}.
    [None] when no traffic has been observed (or no version exists). *)
let advise_observed t =
  match observed_profile t with [] -> None | p -> Advisor.advise t.gen p

(* --- bidirectionality verification -------------------------------------------- *)

(** Law verdicts for one SMO instance of the catalog. *)
type smo_verification = {
  vr_id : int;  (** SMO id *)
  vr_smo : string;  (** printable SMO *)
  vr_laws : Analysis.Verify.law_report;
}

(** Prove (or refute, with a minimized counterexample) GetPut and PutGet for
    every SMO instance in the catalog. Verdicts are memoized inside the
    verifier, so repeated calls are cheap. *)
let verify_report t : smo_verification list =
  List.map
    (fun (si : G.smo_instance) ->
      {
        vr_id = si.G.si_id;
        vr_smo = Bidel.Ast.smo_name si.G.si_smo;
        vr_laws = Analysis.Verify.check_instance si.G.si_inst;
      })
    (G.all_smos t.gen)

(* physical relations the SMO's write-side triggers update under its current
   materialization *)
let write_set (si : G.smo_instance) =
  let i = si.G.si_inst in
  let rels =
    if si.G.si_materialized then i.S.targets @ i.S.aux_tgt @ i.S.aux_both
    else i.S.sources @ i.S.aux_src @ i.S.aux_both
  in
  List.map (fun (r : S.rel) -> r.S.rel_name) rels

(* VRF003: two SMO instances whose trigger cascades write the same physical
   relation — structurally expected at genealogy branch points (sibling
   versions converge on the shared parent's tables), but worth surfacing:
   writes through either sibling's views race on the shared state. *)
let cascade_diagnostics t =
  let smos = G.all_smos t.gen in
  List.concat_map
    (fun (a : G.smo_instance) ->
      List.filter_map
        (fun (b : G.smo_instance) ->
          if a.G.si_id >= b.G.si_id then None
          else
            let wb = write_set b in
            match List.filter (fun r -> List.mem r wb) (write_set a) with
            | [] -> None
            | shared ->
              Some
                (Analysis.Diagnostic.warning "VRF003"
                   ~context:
                     (Fmt.str "SMO #%d (%s) and SMO #%d (%s)" a.G.si_id
                        (Bidel.Ast.smo_name a.G.si_smo) b.G.si_id
                        (Bidel.Ast.smo_name b.G.si_smo))
                   "trigger cascades overlap on write set %s"
                   (String.concat ", " shared)))
        smos)
    smos

(** Every verification diagnostic for the catalog: VRF001 (law refuted,
    error) / VRF004 (law unprovable, warning) per SMO, VRF003 (cascade
    write-set overlap, warning) per SMO pair. *)
let verify_diagnostics t : Analysis.Diagnostic.t list =
  List.concat_map
    (fun (si : G.smo_instance) ->
      Analysis.Verify.law_diagnostics ~context:(smo_context si) si.G.si_inst)
    (G.all_smos t.gen)
  @ cascade_diagnostics t

(** Do both laws prove for every SMO instance? *)
let verify_ok t =
  List.for_all
    (fun v -> Analysis.Verify.report_ok v.vr_laws)
    (verify_report t)

(** Run the single-atom mutation harness over every SMO instance:
    [(id, smo, report)]. Expensive (hundreds of law checks); meant for the
    CLI and CI smoke, not the evolution path. *)
let verify_mutations t =
  List.map
    (fun (si : G.smo_instance) ->
      ( si.G.si_id,
        Bidel.Ast.smo_name si.G.si_smo,
        Analysis.Verify.mutation_test si.G.si_inst ))
    (G.all_smos t.gen)

let verdict_json (v : Analysis.Verify.verdict) =
  let jstr s = "\"" ^ Analysis.Diagnostic.json_escape s ^ "\"" in
  match v with
  | Analysis.Verify.Proved how ->
    Fmt.str "{\"status\":\"proved\",\"detail\":%s}" (jstr how)
  | Analysis.Verify.Refuted cx ->
    Fmt.str "{\"status\":\"refuted\",\"counterexample\":%s}"
      (jstr (Analysis.Symbolic.concrete_to_string cx.Analysis.Verify.cx_data))
  | Analysis.Verify.Unknown why ->
    Fmt.str "{\"status\":\"unknown\",\"detail\":%s}" (jstr why)

(** The verification report as one JSON document:
    [{"ok":bool,"smos":[{"id","smo","getput","putget"}...],
    "diagnostics":[...]}]. *)
let verify_json t =
  let jstr s = "\"" ^ Analysis.Diagnostic.json_escape s ^ "\"" in
  let smos =
    List.map
      (fun v ->
        Fmt.str "{\"id\":%d,\"smo\":%s,\"getput\":%s,\"putget\":%s}" v.vr_id
          (jstr v.vr_smo)
          (verdict_json v.vr_laws.Analysis.Verify.lr_getput)
          (verdict_json v.vr_laws.Analysis.Verify.lr_putget))
      (verify_report t)
  in
  Fmt.str "{\"ok\":%b,\"smos\":[%s],\"diagnostics\":%s}" (verify_ok t)
    (String.concat "," smos)
    (Analysis.Diagnostic.list_to_json (verify_diagnostics t))

(* --- introspection ----------------------------------------------------------- *)

let versions t = List.map (fun v -> v.G.sv_name) t.gen.G.versions

let version_tables t version =
  List.map fst (G.version t.gen version).G.sv_tables

let current_materialization t = G.current_materialization t.gen

(** Human-readable summary of the catalog (schema versions, SMOs,
    materialization states, physical tables). *)
let describe t =
  let buf = Buffer.create 256 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  add "schema versions:@.";
  List.iter
    (fun (sv : G.schema_version) ->
      add "  %s%s: %s@." sv.G.sv_name
        (match sv.G.sv_parent with Some p -> " (from " ^ p ^ ")" | None -> "")
        (String.concat ", "
           (List.map
              (fun (name, tvid) -> Fmt.str "%s[tv%d]" name tvid)
              sv.G.sv_tables)))
    t.gen.G.versions;
  add "smo instances:@.";
  List.iter
    (fun (si : G.smo_instance) ->
      add "  #%d %s (%s)@." si.G.si_id
        (Bidel.Ast.smo_name si.G.si_smo)
        (if si.G.si_materialized then "materialized" else "virtualized"))
    (G.all_smos t.gen);
  add "physical table versions: %s@."
    (String.concat ", "
       (List.map
          (fun v -> Fmt.str "tv%d(%s)" v.G.tv_id v.G.tv_table)
          (List.filter (G.is_physical t.gen) (G.all_table_versions t.gen))));
  Buffer.contents buf

(* --- durability: WAL, checkpoint, recovery, AS OF ---------------------------- *)

module W = Minidb.Wal

(** Close the log; further statements are no longer recorded. *)
let detach_wal t =
  match t.wal with
  | None -> ()
  | Some s ->
    Changeset.detach s;
    t.wal <- None;
    Db.set_statement_sink t.db None

(** Attach a changeset log in [dir]: a torn tail is repaired, the history is
    reloaded and every subsequent committed statement (DML/DDL through the
    engine, evolutions, migrations) appends one record.
    The instance's state must correspond to the log — a fresh instance with
    a fresh directory, or the result of {!recover}. An instance that already
    holds a schema version or a table is refused with {!Inverda_error} when
    the log holds no record and no checkpoint: its log would start in the
    middle of a history it does not hold, and no recovery could replay it.
    Nothing is attached or created then. [sync] defaults to
    {!Minidb.Wal.Flush}. *)
let attach_wal ?sync t dir =
  detach_wal t;
  let on_empty () =
    let held =
      match t.gen.G.versions with
      | sv :: _ -> Some ("schema version " ^ sv.G.sv_name)
      | [] ->
        List.find_map
          (function
            | Db.Obj_table tbl -> Some ("table " ^ tbl.Minidb.Table.name)
            | Db.Obj_view _ -> None)
          (Db.list_objects t.db)
    in
    Option.iter
      (fun held ->
        raise
          (Inverda_error
             (Fmt.str
                "cannot attach the log in %s: it holds no history, but the \
                 instance already holds %s; attach a log to a fresh instance \
                 before its first statement, or rebuild the instance from \
                 its log with recover"
                dir held)))
      held
  in
  let s = Changeset.attach ?sync ~on_empty dir in
  t.wal <- Some s;
  (* surface append/flush/fsync latency as child spans of whichever trace is
     open — the engine opens a dedicated "wal" root around the statement
     sink, so durability cost shows up inside the statement's own tree *)
  let m = t.db.Db.metrics in
  Minidb.Wal.set_observer s.Changeset.wal
    (Some
       (fun ~op ~start_ns ~ns ->
         if Minidb.Metrics.child_active m then
           Minidb.Metrics.record_child m ~kind:op ~detail:"" ~path:"wal"
             ~start_ns ~ns ~rows_in:(-1) ~rows:(-1)));
  Db.set_statement_sink t.db (Some (Changeset.on_statement s))

let wal_dir t = Option.map (fun s -> s.Changeset.dir) t.wal

(** Id of the newest durable changeset (0 before the first; raises without
    an attached log). *)
let current_changeset t =
  match t.wal with
  | Some s -> Changeset.current s
  | None -> raise (Inverda_error "no write-ahead log attached")

(** The full changeset history, oldest first. *)
let history t =
  match t.wal with
  | Some s -> Changeset.history s
  | None -> raise (Inverda_error "no write-ahead log attached")

let set_author t ~who ~why =
  match t.wal with
  | Some s -> Changeset.set_author s ~who ~why
  | None -> raise (Inverda_error "no write-ahead log attached")

let record_audit = Changeset.audit_of
let record_tag (r : W.record) = Changeset.bare_tag r.W.tag

(** Write a checkpoint: the schema-shaped record prefix (evolutions, DDL,
    migrations), the skolem memos and id counter, and
    the deterministic dump of the current state. Recovery then replays only
    the log tail past it. The log itself is never truncated. *)
let checkpoint t =
  match t.wal with
  | None -> raise (Inverda_error "no write-ahead log attached")
  | Some s ->
    if Db.in_transaction t.db then
      raise (Inverda_error "cannot checkpoint inside an open transaction");
    let schema =
      List.filter
        (fun (r : W.record) -> Changeset.is_schema_kind r.W.kind)
        (Changeset.history s)
    in
    let memos =
      Hashtbl.fold
        (fun fname memo acc ->
          Hashtbl.fold
            (fun args v acc ->
              {
                W.lsn = 0;
                kind = "memo";
                tag = fname;
                payload = W.row_literal (v :: args);
              }
              :: acc)
            memo acc)
        t.skolems []
      |> List.sort compare
    in
    W.write_checkpoint s.Changeset.dir
      {
        W.ck_lsn = Changeset.current s;
        ck_meta = [ ("counter", string_of_int !(t.counter)) ];
        ck_records = schema @ memos;
        ck_dump = Db.dump t.db;
      }

(* Re-execute one logical record. DML/DDL run through the engine (the full
   delta-code path: triggers fire);
   host-level records run through the same API entry points that logged
   them. The instance being replayed into has no log attached, so nothing
   is re-logged. *)
let replay_record t (r : W.record) =
  match r.W.kind with
  | "dml" | "ddl" -> ignore (Minidb.Engine.exec t.db r.W.payload)
  | "bidel" ->
    List.iter (exec_bidel t) (Bidel.Parser.script_of_string r.W.payload)
  | "setmat" ->
    set_materialization t
      (String.split_on_char ' ' r.W.payload |> List.filter_map int_of_string_opt)
  | "memo" -> (
    match W.parse_row r.W.payload with
    | v :: args -> (
      match Hashtbl.find_opt t.skolems r.W.tag with
      | Some memo -> Hashtbl.replace memo args v
      | None ->
        let memo = Hashtbl.create 16 in
        Hashtbl.replace memo args v;
        Hashtbl.replace t.skolems r.W.tag memo)
    | [] ->
      raise (Inverda_error ("empty skolem memo record for " ^ r.W.tag)))
  | other -> raise (Inverda_error ("unknown WAL record kind " ^ other))

(* Rebuild an instance from [dir] up to changeset [upto].

   With a usable checkpoint (its LSN within [upto]): replay its
   schema-shaped record prefix on the fresh, empty instance — backfills see
   no rows and migrations move none, but the genealogy and delta code come
   out exactly as live, because they are data-independent
   — restore the id counter and skolem memos, bulk-load the dump (raw table
   loads: the dump *is* the committed state, so no triggers, no undo, no
   observers), then replay the log tail through the full path.

   Without one: replay everything from genesis. The log is never truncated,
   so this path always exists; it is also the ground truth the checkpointed
   path is tested against. *)
(* Phase timings staged by {!reconstitute}; only {!recover} emits them (as
   one [recover] trace on the recovered instance), and only on success, so a
   failed or scratch reconstruction leaves no telemetry behind. *)
let recover_phases : (string * int * int * int) list ref = ref []

let note_recover_phase detail t0 rows =
  recover_phases :=
    (detail, t0, Minidb.Metrics.now_ns () - t0, rows) :: !recover_phases

let reconstitute ?(use_checkpoint = true) ~repair ~upto dir =
  recover_phases := [];
  let t0 = Minidb.Metrics.now_ns () in
  let records = if repair then W.repair_log dir else fst (W.read_log dir) in
  note_recover_phase
    (if repair then "repair+scan log" else "scan log")
    t0 (List.length records);
  let t = create ~strict:false () in
  (match (if use_checkpoint then W.read_checkpoint dir else None) with
  | Some ck when ck.W.ck_lsn <= upto ->
    let t0 = Minidb.Metrics.now_ns () in
    List.iter (replay_record t) ck.W.ck_records;
    (match List.assoc_opt "counter" ck.W.ck_meta with
    | Some n -> (
      match int_of_string_opt n with
      | Some n -> t.counter := n
      | None -> raise (Inverda_error "checkpoint: malformed counter"))
    | None -> ());
    W.load_dump t.db ck.W.ck_dump;
    note_recover_phase "load checkpoint" t0 (List.length ck.W.ck_records);
    let t0 = Minidb.Metrics.now_ns () in
    let replayed = ref 0 in
    List.iter
      (fun (r : W.record) ->
        if r.W.lsn > ck.W.ck_lsn && r.W.lsn <= upto then begin
          replay_record t r;
          incr replayed
        end)
      records;
    note_recover_phase "replay tail" t0 !replayed
  | _ ->
    let t0 = Minidb.Metrics.now_ns () in
    let replayed = ref 0 in
    List.iter
      (fun (r : W.record) ->
        if r.W.lsn <= upto then begin
          replay_record t r;
          incr replayed
        end)
      records;
    note_recover_phase "replay from genesis" t0 !replayed);
  t

(** Recover the durable state from [dir]: repair a torn log tail, load the
    checkpoint (when present), replay the tail, and re-attach the log so
    the recovered instance continues appending where the crash stopped.
    Idempotent: recovering twice yields byte-identical dumps (the only
    mutation is the one-time torn-tail repair). *)
let recover ?sync dir =
  let t0 = Minidb.Metrics.now_ns () in
  let t = reconstitute ~repair:true ~upto:max_int dir in
  let a0 = Minidb.Metrics.now_ns () in
  attach_wal ?sync t dir;
  note_recover_phase "attach log" a0 0;
  Minidb.Metrics.record_phase_trace t.db.Db.metrics ~kind:"recover"
    ~detail:(Filename.basename dir) ~targets:[] ~start_ns:t0
    ~ns:(Minidb.Metrics.now_ns () - t0)
    ~rows:0
    ~phases:(List.rev !recover_phases);
  t

(** Ground truth for time travel: replay the log from genesis up to
    [changeset], ignoring any checkpoint. *)
let replay_to ~dir changeset =
  reconstitute ~use_checkpoint:false ~repair:false ~upto:changeset dir

(** [as_of t ~changeset sql] — answer [sql] (a query against any live
    schema version's views) as of the named changeset: the base tables are
    reconstituted at that changeset (via the checkpoint when it is old
    enough, from genesis otherwise) and the query runs through the ordinary
    genealogy / codegen read path of the reconstituted instance.
    A version created after [changeset] does not exist in that reality and
    errors like any unknown object. *)
let as_of t ~changeset sql =
  match t.wal with
  | None -> raise (Inverda_error "no write-ahead log attached")
  | Some s ->
    let scratch =
      reconstitute ~repair:false ~upto:changeset s.Changeset.dir
    in
    Minidb.Engine.query scratch.db sql
