(** Incremental co-materialization: redundant physical copies of hot table
    versions, kept exact on every write.

    A {e co-materialized} table version keeps, next to the regular delta
    code, a stored copy table ({!Naming.comat_table}) holding its full
    contents. Reads at that version are re-anchored at the copy (see
    {!Codegen.physical_rename}); writes anywhere in the genealogy keep the
    copy exact through a per-write maintenance step driven by the engine's
    write observer:

    - {e incremental} mode: the copy's definition composes to single-hop
      rules over stored tables ({!Flatten}), so a base write of one row
      maintains the copy via the semi-naive delta rules of {!Datalog.Delta}
      — evaluate the candidate-key query over the post-state, then rectify
      each affected key (delete + recompute), touching O(|delta|) rows;
    - {e refresh} mode: no safe single-hop program exists (impure skolems,
      size-gated compositions …), so every relevant base write re-runs the
      copy's source view ({!Naming.comat_source}) in full.

    Maintenance runs inside the writing statement: its row writes share the
    statement's undo log, so an induced fault rolls base tables and copies
    back together, and the table-epoch bumps it performs invalidate exactly
    the cached view results that could observe the copy. Copies may read
    other copies (paths re-anchor at the nearest copy); the observer fires
    again on a copy's own maintenance writes, which maintains dependent
    copies without any global ordering. *)

module G = Genealogy
module S = Bidel.Smo_semantics
module D = Datalog.Ast
module Delta = Datalog.Delta
module Db = Minidb.Database
module Sql = Minidb.Sql_ast
module Value = Minidb.Value

exception Comat_error of string

let error fmt = Fmt.kstr (fun s -> raise (Comat_error s)) fmt

let affected db stmt =
  match Minidb.Exec.exec_statement db stmt with
  | Minidb.Exec.Affected n -> n
  | _ -> 0

(* --- program derivation ------------------------------------------------------ *)

(* The layered one-hop rules reading the version's neighbour side. *)
let layered_rules gen v =
  match G.access_case gen v with
  | G.Local -> []
  | G.Forwards o -> (G.smo gen o).G.si_inst.S.gamma_src
  | G.Backwards i -> (G.smo gen i).G.si_inst.S.gamma_tgt

(* Compute the copy-independent single-hop program for [v]: what {!Flatten}
   yields for the version once its own copy is disregarded (other copies
   still re-anchor the composition). Returns the mode plus the proof label. *)
let derive_mode db (gen : G.t) v : G.comat_mode * string =
  let name = G.tv_name v in
  let mine (rules : D.rule list) =
    List.filter (fun (r : D.rule) -> r.D.head.D.pred = name) rules
  in
  (* stored-table check for every read position of the candidate program:
     incremental maintenance only works when each body predicate renames to
     a table the write observer can watch *)
  let rename = Codegen.physical_rename gen in
  let all_stored rules =
    List.for_all
      (fun p -> Db.find_table_opt db (rename p) <> None)
      (D.body_preds rules)
  in
  let removed = G.comat gen v.G.tv_id in
  (match removed with Some _ -> G.comat_unregister gen v.G.tv_id | None -> ());
  Fun.protect
    ~finally:(fun () ->
      match removed with Some cm -> G.comat_register gen cm | None -> ())
    (fun () ->
      match Flatten.plan gen name with
      | Flatten.F_physical ->
        (* only reachable for a physical version, which [add] refuses *)
        (G.Cm_refresh "version is physical", "refresh: version is physical")
      | Flatten.F_single ->
        let rules = mine (layered_rules gen v) in
        if all_stored rules then
          (G.Cm_incremental rules, "incremental: layered body is single-hop")
        else
          ( G.Cm_refresh "layered body reads a derived relation",
            "refresh: layered body reads a derived relation" )
      | Flatten.F_flat (composed, proof) ->
        let rules = mine composed in
        if all_stored rules then
          (G.Cm_incremental rules, "incremental: " ^ proof)
        else
          ( G.Cm_refresh "composed body reads a derived relation",
            "refresh: composed body reads a derived relation" )
      | Flatten.F_fallback reason -> (G.Cm_refresh reason, "refresh: " ^ reason))

(* Secondary indexes for the maintenance probes. Per-key rectification pins
   the head key variable and the candidate query joins body atoms on their
   shared variables; the engine only turns such equalities into index probes
   on indexed columns — without them every single-row maintenance step scans
   its base tables, i.e. O(n) instead of O(|delta|) per write. Index every
   stored column a cross-atom variable binds (hash indexes; idempotent and
   undo-logged, so a rolled-back registration removes them again). *)
let ensure_probe_indexes db (gen : G.t) (rules : D.rule list) =
  let rename = Codegen.physical_rename gen in
  let lookup = Codegen.schema_lookup gen in
  List.iter
    (fun (r : D.rule) ->
      let atoms =
        r.D.head
        :: List.filter_map
             (function D.Pos a | D.Neg a -> Some a | _ -> None)
             r.D.body
      in
      let occurrences x =
        List.length
          (List.filter (fun (a : D.atom) -> List.mem (D.Var x) a.D.args) atoms)
      in
      List.iter
        (fun (a : D.atom) ->
          match Db.find_table_opt db (rename a.D.pred) with
          | Some tbl ->
            let cols = lookup a.D.pred in
            List.iteri
              (fun j t ->
                match t with
                | D.Var x when occurrences x >= 2 -> (
                  match List.nth_opt cols j with
                  | Some col when String.lowercase_ascii col <> "p" ->
                    Db.logged_add_index db tbl col
                  | _ -> ())
                | _ -> ())
              a.D.args
          | None -> ())
        (List.tl atoms))
    rules

(* Stored tables whose writes can change the copy's contents. *)
let watched_bases (gen : G.t) (cm : G.comat_copy) =
  let v = G.tv gen cm.G.cm_tv in
  match cm.G.cm_mode with
  | G.Cm_incremental rules ->
    let rename = Codegen.physical_rename gen in
    List.map rename (D.body_preds rules) |> List.sort_uniq compare
  | G.Cm_refresh _ ->
    Viewcache.closure ~ignoring:[ cm.G.cm_tv ] gen (G.tv_name v)

(* --- maintenance ------------------------------------------------------------- *)

(* Bracket a maintenance batch: the statements run as part of the writing
   statement (sharing its undo log — [trigger_depth] keeps the nested
   {!Minidb.Exec.exec_statement} calls from truncating or rolling it back)
   and stay out of the telemetry counters. *)
let as_maintenance db f =
  db.Db.trigger_depth <- db.Db.trigger_depth + 1;
  Minidb.Metrics.suspend db.Db.metrics;
  Fun.protect
    ~finally:(fun () ->
      Minidb.Metrics.resume db.Db.metrics;
      db.Db.trigger_depth <- db.Db.trigger_depth - 1)
    f

let insert_from_query ~table ~cols query =
  Sql.Insert { table; columns = Some cols; source = Sql.Insert_query query }

let delete_key ~table key =
  Sql.Delete
    {
      table;
      where =
        Some (Sql.Binop (Sql.Eq, Sql.Col (None, "p"), Sql.Const key));
    }

let refresh_copy db gen (cm : G.comat_copy) =
  let t0 = Minidb.Metrics.now_ns () in
  let n =
    affected db (Sql.Delete { table = cm.G.cm_table; where = None })
  in
  let v = G.tv gen cm.G.cm_tv in
  let cols = "p" :: v.G.tv_cols in
  let m =
    affected db
      (insert_from_query ~table:cm.G.cm_table ~cols
         (Sql.select_query
            (Sql.simple_select
               ~from:(Sql.From_table (cm.G.cm_source, None))
               [ Sql.Star ])))
  in
  cm.G.cm_epoch <- cm.G.cm_epoch + 1;
  cm.G.cm_refreshes <- cm.G.cm_refreshes + 1;
  cm.G.cm_writes <- cm.G.cm_writes + 2;
  cm.G.cm_rows <- cm.G.cm_rows + n + m;
  let ns = Minidb.Metrics.now_ns () - t0 in
  cm.G.cm_maint_ns <- cm.G.cm_maint_ns + ns;
  (* maintenance runs suspended but is causally part of the writing
     statement: attach a [comat] child to its trace *)
  Minidb.Metrics.record_maintenance db.Db.metrics ~detail:cm.G.cm_table
    ~start_ns:t0 ~ns ~rows:(n + m)

(* One incremental maintenance application for a single base-row change:
   candidate keys over the post-state, then per-key rectification. *)
let maintain_incremental db gen (cm : G.comat_copy) rules ~stored ~old_row
    ~new_row =
  let t0 = Minidb.Metrics.now_ns () in
  let v = G.tv gen cm.G.cm_tv in
  let name = G.tv_name v in
  let rename = Codegen.physical_rename gen in
  let lookup = Codegen.schema_lookup gen in
  let lookup' p = if p = Delta.candidate_pred then [ "p" ] else lookup p in
  (* rule-body predicates backed by the written table *)
  let preds =
    D.body_preds rules
    |> List.filter (fun p -> rename p = stored)
    |> List.sort_uniq compare
  in
  let cand =
    List.concat_map
      (fun pred -> Delta.candidate_rules ~pred ~old_row ~new_row rules)
      preds
    |> List.sort_uniq compare
  in
  if cand <> [] then begin
    let keys =
      match
        Minidb.Exec.exec_statement db
          (Sql.Query
             (Codegen.rewrite_query rename
                (Rule_sql.query_of_rules ~union_all:false lookup'
                   ~pred:Delta.candidate_pred cand)))
      with
      | Minidb.Exec.Rows r ->
        List.filter_map
          (fun row -> if Array.length row > 0 then Some row.(0) else None)
          r.Minidb.Exec.rel_rows
        |> List.sort_uniq compare
      | _ -> []
    in
    let cols = "p" :: v.G.tv_cols in
    List.iter
      (fun key ->
        let n = affected db (delete_key ~table:cm.G.cm_table key) in
        let restricted = Delta.restrict_rules ~key rules in
        let m =
          affected db
            (insert_from_query ~table:cm.G.cm_table ~cols
               (Codegen.rewrite_query rename
                  (Rule_sql.query_of_rules ~union_all:false lookup ~pred:name
                     restricted)))
        in
        cm.G.cm_writes <- cm.G.cm_writes + 2;
        cm.G.cm_rows <- cm.G.cm_rows + n + m)
      keys;
    cm.G.cm_epoch <- cm.G.cm_epoch + 1
  end;
  let ns = Minidb.Metrics.now_ns () - t0 in
  cm.G.cm_maint_ns <- cm.G.cm_maint_ns + ns;
  Minidb.Metrics.record_maintenance db.Db.metrics ~detail:cm.G.cm_table
    ~start_ns:t0 ~ns ~rows:(-1)

(* The write observer: fired by the engine after every logged row write.
   [in_flight] breaks self-recursion (a copy's own rectification writes its
   copy table); writes to one copy still cascade to dependent copies. *)
let observer (gen : G.t) db =
  let in_flight : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  fun (tbl : Minidb.Table.t) old_row new_row ->
    if (not gen.G.comat_suspended) && Hashtbl.length gen.G.comats > 0 then begin
      let stored = tbl.Minidb.Table.name in
      let copies =
        List.filter
          (fun (cm : G.comat_copy) ->
            (not (Hashtbl.mem in_flight cm.G.cm_tv))
            && List.mem stored cm.G.cm_bases)
          (G.comats_list gen)
      in
      if copies <> [] then
        as_maintenance db (fun () ->
            List.iter
              (fun (cm : G.comat_copy) ->
                Hashtbl.replace in_flight cm.G.cm_tv ();
                Fun.protect
                  ~finally:(fun () -> Hashtbl.remove in_flight cm.G.cm_tv)
                  (fun () ->
                    match cm.G.cm_mode with
                    | G.Cm_incremental rules ->
                      maintain_incremental db gen cm rules ~stored ~old_row
                        ~new_row
                    | G.Cm_refresh _ -> refresh_copy db gen cm))
              copies)
    end

let install db (gen : G.t) = Db.set_write_observer db (Some (observer gen db))

(* --- registration ------------------------------------------------------------ *)

(* Resolve MATERIALIZE-style targets ("Version.Table") to a table version;
   version names may contain dots, so split at the last one. *)
let resolve_tv (gen : G.t) target =
  match String.rindex_opt target '.' with
  | Some i ->
    let version = String.sub target 0 i in
    let table = String.sub target (i + 1) (String.length target - i - 1) in
    let sv = G.version gen version in
    (match List.assoc_opt table sv.G.sv_tables with
    | Some tvid -> G.tv gen tvid
    | None -> error "no table %s in version %s" table version)
  | None -> error "co-materialization target must be Version.Table: %s" target

let rederive db gen (cm : G.comat_copy) =
  let v = G.tv gen cm.G.cm_tv in
  let mode, proof = derive_mode db gen v in
  cm.G.cm_mode <- mode;
  cm.G.cm_proof <- proof;
  cm.G.cm_bases <- watched_bases gen cm;
  match mode with
  | G.Cm_incremental rules -> ensure_probe_indexes db gen rules
  | G.Cm_refresh _ -> ()

(** Register a redundant copy for [target] ("Version.Table"), derive its
    maintenance program, install the re-anchored delta code and populate the
    copy. Returns the live copy record. *)
let add db (gen : G.t) target : G.comat_copy =
  let v = resolve_tv gen target in
  if G.is_comat gen v.G.tv_id then
    error "%s is already co-materialized" target;
  if G.is_physical gen v then
    error "%s is already physical in the current materialization" target;
  let cm =
    {
      G.cm_tv = v.G.tv_id;
      cm_table = Naming.comat_table ~id:v.G.tv_id ~table:v.G.tv_table;
      cm_source = Naming.comat_source ~id:v.G.tv_id ~table:v.G.tv_table;
      cm_mode = G.Cm_refresh "deriving";
      cm_bases = [];
      cm_proof = "";
      cm_epoch = 0;
      cm_writes = 0;
      cm_rows = 0;
      cm_refreshes = 0;
      cm_maint_ns = 0;
    }
  in
  (* derive before registering: the program must not read the copy itself *)
  let mode, proof = derive_mode db gen v in
  cm.G.cm_mode <- mode;
  cm.G.cm_proof <- proof;
  (match mode with
  | G.Cm_incremental rules -> ensure_probe_indexes db gen rules
  | G.Cm_refresh _ -> ());
  G.comat_register gen cm;
  cm.G.cm_bases <- watched_bases gen cm;
  (* install the re-anchored delta code (creates the copy table and source
     view), then backfill the copy; backfill writes cascade to any dependent
     copies through the observer *)
  install db gen;
  Codegen.regenerate db gen;
  Codegen.untracked db (fun () -> refresh_copy db gen cm);
  cm

(** Drop the copy for [target]: the version's reads fall back to its regular
    delta code and the copy table is removed. *)
let drop db (gen : G.t) target =
  let v = resolve_tv gen target in
  match G.comat gen v.G.tv_id with
  | None -> error "%s is not co-materialized" target
  | Some cm ->
    G.comat_unregister gen v.G.tv_id;
    Codegen.regenerate db gen;
    Codegen.untracked db (fun () ->
        Db.drop_table db ~name:cm.G.cm_table ~if_exists:true)

(** Drop copies no schema version can read anymore. DROP SCHEMA VERSION
    keeps table versions around as long as they connect remaining versions,
    but a copy only serves reads at the versions mapping to its table
    version — once none is left in the catalog, the copy is pure maintenance
    overhead. Call before regenerating. *)
let prune db (gen : G.t) =
  let readable tvid =
    List.exists
      (fun (sv : G.schema_version) ->
        List.exists (fun (_, id) -> id = tvid) sv.G.sv_tables)
      gen.G.versions
  in
  List.iter
    (fun (cm : G.comat_copy) ->
      if not (readable cm.G.cm_tv) then begin
        G.comat_unregister gen cm.G.cm_tv;
        Codegen.untracked db (fun () ->
            Db.drop_table db ~name:cm.G.cm_table ~if_exists:true)
      end)
    (G.comats_list gen)

(* Copies in dependency order: a copy reading another copy's table comes
   after it (the read graph over copies is acyclic — access chains towards
   the materialization never revisit a version). *)
let dependency_order (gen : G.t) =
  let copies = G.comats_list gen in
  let table_of =
    List.map (fun (cm : G.comat_copy) -> (cm.G.cm_table, cm.G.cm_tv)) copies
  in
  let rec visit seen acc (cm : G.comat_copy) =
    if List.mem cm.G.cm_tv seen then (seen, acc)
    else
      let seen = cm.G.cm_tv :: seen in
      let seen, acc =
        List.fold_left
          (fun (seen, acc) base ->
            match List.assoc_opt base table_of with
            | Some tvid when tvid <> cm.G.cm_tv -> (
              match G.comat gen tvid with
              | Some dep -> visit seen acc dep
              | None -> (seen, acc))
            | _ -> (seen, acc))
          (seen, acc) cm.G.cm_bases
      in
      (seen, cm :: acc)
  in
  let _, acc = List.fold_left (fun (s, a) cm -> visit s a cm) ([], []) copies in
  List.rev acc

(** Re-derive every copy's maintenance program and rebuild its contents from
    its source view, in dependency order. Used inside a migration's atomic
    section after the flips: the copies' {e logical} contents are invariant
    across a flip, but their programs and read anchors are not. *)
let refresh_all db (gen : G.t) =
  if Hashtbl.length gen.G.comats > 0 then begin
    let was = gen.G.comat_suspended in
    gen.G.comat_suspended <- true;
    Fun.protect
      ~finally:(fun () -> gen.G.comat_suspended <- was)
      (fun () ->
        List.iter (rederive db gen) (G.comats_list gen);
        Codegen.untracked db (fun () ->
            List.iter (refresh_copy db gen) (dependency_order gen)))
  end

(** Re-derive programs and watch sets only (contents untouched). Used after
    a migration rollback: the undo log already restored every table —
    including the copies — so only the derived programs need recomputing for
    the restored materialization. *)
let rederive_all db (gen : G.t) =
  List.iter (rederive db gen) (G.comats_list gen)

(* --- coherence --------------------------------------------------------------- *)

let sorted_rows db name =
  match
    Minidb.Exec.exec_statement db
      (Sql.Query
         (Sql.select_query
            (Sql.simple_select ~from:(Sql.From_table (name, None)) [ Sql.Star ])))
  with
  | Minidb.Exec.Rows r -> List.sort compare r.Minidb.Exec.rel_rows
  | _ -> []

(** Check every copy against its source view (the copy-independent
    definition), in dependency order; returns the offending copies. An empty
    list means all copies hold exactly their version's contents. *)
let incoherent db (gen : G.t) : G.comat_copy list =
  List.filter
    (fun (cm : G.comat_copy) ->
      sorted_rows db cm.G.cm_table <> sorted_rows db cm.G.cm_source)
    (dependency_order gen)

(** Like {!incoherent} but raises {!Comat_error} on the first mismatch. *)
let check db (gen : G.t) =
  match incoherent db gen with
  | [] -> ()
  | cm :: _ ->
    let v = G.tv gen cm.G.cm_tv in
    error "co-materialized copy %s diverged from %s" cm.G.cm_table
      (G.tv_name v)
