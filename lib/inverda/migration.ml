(** The Database Migration Operation (Section 7): change the materialization
    schema with a single command. Data is moved stepwise along the genealogy
    — one SMO instance at a time — by evaluating the mapping rules through
    the very views the delta-code generator maintains, then regenerating all
    delta code. No schema version ever becomes unavailable.

    Every public entry point is atomic: the whole migration runs inside an
    internal engine transaction whose undo log covers DDL (dropped tables
    come back with their rows), and the genealogy's materialization flags are
    snapshotted up front. On any failure the object graph is rolled back,
    the flags restored, the view cache flushed and the delta code
    regenerated from the restored state before a {!Migration_error} carrying
    the original failure is raised — the database is left exactly as it was
    before the command. *)

module G = Genealogy
module S = Bidel.Smo_semantics
module Sql = Minidb.Sql_ast
module Db = Minidb.Database

exception Migration_error of string

let error fmt = Fmt.kstr (fun s -> raise (Migration_error s)) fmt

let exec db stmt = ignore (Minidb.Exec.exec_statement db stmt)

let copy_into db ~table ~source_view cols =
  exec db
    (Sql.Insert
       {
         table;
         columns = Some cols;
         source =
           Sql.Insert_query
             (Sql.select_query
                (Sql.simple_select
                   ~from:(Sql.From_table (source_view, None))
                   (List.map (fun c -> Sql.Sel_expr (Sql.Col (None, c), None)) cols)));
       })

let drop_table db name = Db.drop_table db ~name ~if_exists:true

(* Flip one SMO instance. The destination side's relations are readable as
   views in the current state; snapshot them into fresh physical tables, flip
   the state, regenerate the delta code, then drop the now-derived physical
   storage of the old side. *)
let flip_raw ?validate db (gen : G.t) (si : G.smo_instance) ~to_materialized =
  if si.G.si_materialized = to_materialized then ()
  else begin
    let i = si.G.si_inst in
    let dest_tvs, dest_aux, old_tvs, old_aux =
      if to_materialized then
        (si.G.si_target_tvs, i.S.aux_tgt, si.G.si_source_tvs, i.S.aux_src)
      else (si.G.si_source_tvs, i.S.aux_src, si.G.si_target_tvs, i.S.aux_tgt)
    in
    (* 0. stateful pair-identifier updates: when virtualizing, the derived
       IDn view (old entries plus pairs freshly joined by the condition
       rules) becomes the new content of the persistent ID table *)
    let staged_state =
      if to_materialized then []
      else
        List.map
          (fun (fresh, state) ->
            let cols =
              match
                List.find_opt
                  (fun (r : S.rel) -> r.S.rel_name = state)
                  i.S.aux_both
              with
              | Some r -> r.S.rel_cols
              | None -> [ "p" ]
            in
            let stage = "stage" ^ state in
            exec db (Codegen.create_table_stmt stage cols);
            copy_into db ~table:stage ~source_view:fresh cols;
            (stage, state, cols))
          i.S.state_updates
    in
    (* 1. snapshot destination contents from the current views *)
    let staged =
      List.map
        (fun tvid ->
          let v = G.tv gen tvid in
          let data = Naming.data_table ~id:v.G.tv_id ~table:v.G.tv_table in
          let cols = "p" :: v.G.tv_cols in
          exec db (Codegen.create_table_stmt data cols);
          copy_into db ~table:data ~source_view:(G.tv_name v) cols;
          data)
        dest_tvs
    in
    ignore staged;
    let staged_aux =
      List.map
        (fun (r : S.rel) ->
          (* the auxiliary is currently a derived view; snapshot it under a
             staging name, it becomes the physical table after the flip *)
          let stage = "stage" ^ r.S.rel_name in
          exec db (Codegen.create_table_stmt stage r.S.rel_cols);
          copy_into db ~table:stage ~source_view:r.S.rel_name r.S.rel_cols;
          (stage, r))
        dest_aux
    in
    (* 2. flip and rebuild *)
    si.G.si_materialized <- to_materialized;
    Codegen.drop_generated db;
    (* move staged auxiliaries into place *)
    List.iter
      (fun (stage, (r : S.rel)) ->
        drop_table db r.S.rel_name;
        exec db (Codegen.create_table_stmt r.S.rel_name r.S.rel_cols);
        copy_into db ~table:r.S.rel_name ~source_view:stage r.S.rel_cols;
        drop_table db stage)
      staged_aux;
    List.iter
      (fun (stage, state, cols) ->
        drop_table db state;
        exec db (Codegen.create_table_stmt state cols);
        copy_into db ~table:state ~source_view:stage cols;
        drop_table db stage)
      staged_state;
    (* 3. drop the old side's physical storage *)
    List.iter
      (fun tvid ->
        let v = G.tv gen tvid in
        if not (G.is_physical gen v) then
          drop_table db (Naming.data_table ~id:v.G.tv_id ~table:v.G.tv_table))
      old_tvs;
    List.iter (fun (r : S.rel) -> drop_table db r.S.rel_name) old_aux;
    Codegen.regenerate ?validate db gen
  end

(* --- atomicity ----------------------------------------------------------- *)

let failure_text = function
  | Migration_error s
  | Db.Engine_error s
  | Minidb.Exec.Exec_error s
  | Minidb.Table.Constraint_violation s
  | Triggers.Trigger_error s
  | G.Catalog_error s -> s
  | Db.Injected_fault n -> Fmt.str "injected fault at statement %d" n
  | Analysis.Diagnostic.Rejected ds ->
    String.concat "; " (List.map Analysis.Diagnostic.to_string ds)
  | exn -> Printexc.to_string exn

(* Run [f] as an all-or-nothing migration. The engine transaction records
   every row change and every DDL action; the genealogy snapshot covers the
   mutable materialization flags. On failure everything is undone and the
   delta code is regenerated from the restored state (without re-validation:
   that state was installed and valid before), so every version view answers
   queries exactly as before the attempt. *)
(* Phase timings staged by {!run_plan}'s flips while metrics are suspended.
   They only ever reach the span ring through {!Minidb.Metrics.record_phase_trace}
   after a successful commit, so a fault-injected MATERIALIZE leaves the
   telemetry bit-identical to never having run (the PR 5 discipline extended
   to trace trees). *)
let phase_buf : (string * int * int * int) list ref = ref []

let note_phase detail t0 ns rows = phase_buf := (detail, t0, ns, rows) :: !phase_buf

let atomically ?(label = "") db (gen : G.t) f =
  if Db.in_transaction db then
    error
      "MATERIALIZE is not allowed inside an open transaction; COMMIT or \
       ROLLBACK first";
  let snap = G.snapshot_materialization gen in
  (* the data movement below is engine-internal: a MATERIALIZE flipping rows
     between sides must not inflate the per-version access counters the
     telemetry-driven advisor reads (neither on success nor on rollback) *)
  let metrics = db.Db.metrics in
  phase_buf := [];
  let t0 = Minidb.Metrics.now_ns () in
  Minidb.Metrics.suspend metrics;
  Fun.protect
    ~finally:(fun () -> Minidb.Metrics.resume metrics)
    (fun () ->
      Db.begin_internal_txn db;
      match f () with
      | () -> Db.commit_internal_txn db
      | exception exn ->
        (* disarm any still-pending failpoint so recovery runs unimpeded *)
        Db.clear_failpoint db;
        Db.abort_internal_txn db;
        G.restore_materialization gen snap;
        Codegen.regenerate db gen;
        raise
          (Migration_error
             (Fmt.str "migration failed and was rolled back: %s"
                (failure_text exn))));
  (* success only: the suspended phases surface as one [migrate] trace *)
  Minidb.Metrics.record_phase_trace metrics ~kind:"migrate" ~detail:label
    ~targets:[] ~start_ns:t0
    ~ns:(Minidb.Metrics.now_ns () - t0)
    ~rows:0
    ~phases:(List.rev !phase_buf)

(* --- planning ------------------------------------------------------------ *)

(** The flip sequence that moves the database to materialization schema
    [mat]: SMO ids to virtualize (outside-in, descending) and to materialize
    (inside-out, ascending). Pure — touches no data. *)
let plan (gen : G.t) mat =
  if not (G.valid_materialization gen mat) then
    error "invalid materialization schema {%s}"
      (String.concat "," (List.map string_of_int mat));
  let current = G.current_materialization gen in
  let to_virtualize =
    List.filter (fun id -> not (List.mem id mat)) current
    |> List.sort (fun a b -> compare b a)
  in
  let to_materialize =
    List.filter (fun id -> not (List.mem id current)) mat |> List.sort compare
  in
  (to_virtualize, to_materialize)

(** Resolve MATERIALIZE targets to a materialization schema. A target is a
    schema version name or ["version.table"]; version names themselves may
    contain dots, so a whole-string version match wins and the fallback
    splits at the {e last} dot. Duplicate or overlapping targets are
    deduplicated. *)
let targets_materialization (gen : G.t) targets =
  let tv_ids =
    List.concat_map
      (fun target ->
        match G.find_version gen target with
        | Some sv -> List.map snd sv.G.sv_tables
        | None -> (
          match String.rindex_opt target '.' with
          | None -> error "MATERIALIZE target %S: no such schema version" target
          | Some i -> (
            let version = String.sub target 0 i in
            let table =
              String.sub target (i + 1) (String.length target - i - 1)
            in
            match G.find_version gen version with
            | None ->
              error "MATERIALIZE target %S: no such schema version %s" target
                version
            | Some sv -> (
              match List.assoc_opt table sv.G.sv_tables with
              | Some tvid -> [ tvid ]
              | None ->
                error "MATERIALIZE target %S: schema version %s has no table %s"
                  target version table))))
      targets
    |> List.sort_uniq compare
  in
  G.materialization_for_tables gen tv_ids

(* --- the public, atomic entry points ------------------------------------- *)

let run_plan ?validate db gen (to_virtualize, to_materialize) =
  let timed_flip verb id to_materialized =
    let t0 = Minidb.Metrics.now_ns () in
    flip_raw ?validate db gen (G.smo gen id) ~to_materialized;
    note_phase
      (Fmt.str "%s smo %d" verb id)
      t0
      (Minidb.Metrics.now_ns () - t0)
      0
  in
  List.iter (fun id -> timed_flip "virtualize" id false) to_virtualize;
  List.iter (fun id -> timed_flip "materialize" id true) to_materialize

let flip ?validate db (gen : G.t) (si : G.smo_instance) ~to_materialized =
  atomically db gen (fun () -> flip_raw ?validate db gen si ~to_materialized)

(** Move to the materialization schema [mat] (a set of SMO ids). *)
let set_materialization ?validate db (gen : G.t) mat =
  let p = plan gen mat in
  atomically db gen (fun () -> run_plan ?validate db gen p)

(** The MATERIALIZE command: arguments are schema version names or
    ["version.table"] table versions. *)
let materialize ?validate db (gen : G.t) targets =
  let p = plan gen (targets_materialization gen targets) in
  atomically ~label:(String.concat "," targets) db gen (fun () ->
      run_plan ?validate db gen p)

(** The flip plan of [MATERIALIZE targets] without touching any data:
    [(to_virtualize, to_materialize)] in execution order. *)
let materialize_plan (gen : G.t) targets =
  plan gen (targets_materialization gen targets)
