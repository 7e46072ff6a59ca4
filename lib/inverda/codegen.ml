(** Delta-code generation (Section 6): for the current genealogy and
    materialization state, (re)create

    - the canonical view of every table version, reading either its data
      table (case 1 "local"), the next materialized SMO's target side via
      gamma_src (case 2 "forwards"), or the virtualized incoming SMO's source
      side via gamma_tgt (case 3 "backwards");
    - a derived view for every auxiliary relation that is not physical in the
      current state;
    - INSTEAD OF triggers on every canonical view implementing write
      propagation plus auxiliary upkeep;
    - the user-facing ["version.table"] alias views with forwarding triggers.

    Physical storage (data tables, physical auxiliaries) is created here when
    missing but never dropped; {!Migration} owns data movement. *)

module G = Genealogy
module S = Bidel.Smo_semantics
module Sql = Minidb.Sql_ast
module Value = Minidb.Value
module Db = Minidb.Database

let exec db stmt = ignore (Minidb.Exec.exec_statement db stmt)

(* --- schema lookup --------------------------------------------------------- *)

let instance_rels (si : G.smo_instance) =
  let i = si.G.si_inst in
  i.S.sources @ i.S.targets @ i.S.aux_src @ i.S.aux_tgt @ i.S.aux_both

(** Relation name -> columns (key first) for every generated relation. *)
let schema_lookup (gen : G.t) : Rule_sql.schema_lookup =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun v ->
      Hashtbl.replace tbl (G.tv_name v) ("p" :: v.G.tv_cols))
    (G.all_table_versions gen);
  List.iter
    (fun si ->
      List.iter
        (fun (r : S.rel) ->
          if not (Hashtbl.mem tbl r.S.rel_name) then
            Hashtbl.replace tbl r.S.rel_name r.S.rel_cols)
        (instance_rels si))
    (G.all_smos gen);
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some cols -> cols
    | None -> Rule_sql.error "unknown generated relation %s" name

(* --- read-position rewriting --------------------------------------------------

   Generated delta code references neighbour table versions by their
   canonical view names so the templates stay independent of the
   materialization state. At generation time we substitute the *data tables*
   for the canonical views of physical table versions in every read position
   (view bodies, subqueries inside trigger statements): the engine's index
   fast paths only apply to stored tables. Write targets keep their view
   names — writes must run the propagation triggers. *)

let rec rewrite_query rename (q : Sql.query) =
  { q with Sql.body = rewrite_set_op rename q.Sql.body }

and rewrite_set_op rename = function
  | Sql.Select s -> Sql.Select (rewrite_select rename s)
  | Sql.Union (a, b, all) ->
    Sql.Union (rewrite_set_op rename a, rewrite_set_op rename b, all)

and rewrite_select rename (s : Sql.select) =
  {
    s with
    Sql.items =
      List.map
        (function
          | Sql.Sel_expr (e, a) -> Sql.Sel_expr (rewrite_expr rename e, a)
          | item -> item)
        s.Sql.items;
    from = Option.map (rewrite_from rename) s.Sql.from;
    where = Option.map (rewrite_expr rename) s.Sql.where;
    having = Option.map (rewrite_expr rename) s.Sql.having;
  }

and rewrite_from rename = function
  | Sql.From_table (name, a) -> Sql.From_table (rename name, a)
  | Sql.From_select (q, a) -> Sql.From_select (rewrite_query rename q, a)
  | Sql.From_join (l, k, r, c) ->
    Sql.From_join
      (rewrite_from rename l, k, rewrite_from rename r,
       Option.map (rewrite_expr rename) c)

and rewrite_expr rename (e : Sql.expr) =
  match e with
  | Sql.Const _ | Sql.Col _ | Sql.Param _ -> e
  | Sql.Unop (op, a) -> Sql.Unop (op, rewrite_expr rename a)
  | Sql.Binop (op, a, b) ->
    Sql.Binop (op, rewrite_expr rename a, rewrite_expr rename b)
  | Sql.Is_null (a, n) -> Sql.Is_null (rewrite_expr rename a, n)
  | Sql.Fun (f, args) -> Sql.Fun (f, List.map (rewrite_expr rename) args)
  | Sql.Case (arms, d) ->
    Sql.Case
      ( List.map (fun (c, v) -> (rewrite_expr rename c, rewrite_expr rename v)) arms,
        Option.map (rewrite_expr rename) d )
  | Sql.In_list (a, items, n) ->
    Sql.In_list (rewrite_expr rename a, List.map (rewrite_expr rename) items, n)
  | Sql.Exists (q, n) -> Sql.Exists (rewrite_query rename q, n)
  | Sql.In_query (a, q, n) ->
    Sql.In_query (rewrite_expr rename a, rewrite_query rename q, n)
  | Sql.Scalar q -> Sql.Scalar (rewrite_query rename q)

(** Rewrite the read positions of a trigger statement, leaving the write
    target untouched. *)
let rewrite_statement_reads rename (stmt : Sql.statement) =
  match stmt with
  | Sql.Insert i ->
    Sql.Insert
      {
        i with
        source =
          (match i.source with
          | Sql.Values rows ->
            Sql.Values (List.map (List.map (rewrite_expr rename)) rows)
          | Sql.Insert_query q -> Sql.Insert_query (rewrite_query rename q));
      }
  | Sql.Update u ->
    Sql.Update
      {
        u with
        sets = List.map (fun (c, e) -> (c, rewrite_expr rename e)) u.sets;
        where = Option.map (rewrite_expr rename) u.where;
      }
  | Sql.Delete d ->
    Sql.Delete { d with where = Option.map (rewrite_expr rename) d.where }
  | Sql.Set_new (c, e) -> Sql.Set_new (c, rewrite_expr rename e)
  | other -> other

(** canonical-view name -> stored-table name: the data table for physical
    table versions. *)
let physical_rename (gen : G.t) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      if G.is_physical gen v then
        Hashtbl.replace tbl (G.tv_name v)
          (Naming.data_table ~id:v.G.tv_id ~table:v.G.tv_table))
    (G.all_table_versions gen);
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:name

(* --- physical storage ------------------------------------------------------- *)

let create_table_stmt name cols =
  Sql.Create_table
    {
      name;
      if_not_exists = true;
      cols =
        List.mapi
          (fun i c ->
            { Sql.col_name = c; col_ty = Value.TText; primary_key = i = 0 })
          cols;
    }

(** Physical auxiliaries of an SMO in its current state. *)
let physical_aux (si : G.smo_instance) =
  let i = si.G.si_inst in
  (if si.G.si_materialized then i.S.aux_tgt else i.S.aux_src) @ i.S.aux_both

(** CREATE TABLE IF NOT EXISTS statements for all physical storage of the
    current state. *)
let physical_statements (gen : G.t) =
  List.filter_map
    (fun v ->
      if G.is_physical gen v then
        Some
          (create_table_stmt
             (Naming.data_table ~id:v.G.tv_id ~table:v.G.tv_table)
             ("p" :: v.G.tv_cols))
      else None)
    (G.all_table_versions gen)
  @ List.concat_map
      (fun si ->
        List.map
          (fun (r : S.rel) -> create_table_stmt r.S.rel_name r.S.rel_cols)
          (physical_aux si))
      (G.all_smos gen)

(* identifier auxiliaries are probed by their non-key columns *)
let ensure_aux_indexes db (gen : G.t) =
  List.iter
    (fun si ->
      List.iter
        (fun (r : S.rel) ->
          match Minidb.Database.find_table_opt db r.S.rel_name with
          | Some tbl ->
            List.iter
              (fun c -> Minidb.Database.logged_add_index db tbl c)
              (List.tl r.S.rel_cols)
          | None -> ())
        (physical_aux si))
    (G.all_smos gen)

(* Engine-internal statement brackets: delta-code installation and physical
   backfills must not show up in the telemetry counters the advisor reads. *)
let untracked db f =
  let m = db.Db.metrics in
  Minidb.Metrics.suspend m;
  Fun.protect ~finally:(fun () -> Minidb.Metrics.resume m) f

(** Create any missing physical tables for the current state. *)
let ensure_physical db (gen : G.t) =
  untracked db (fun () ->
      List.iter (exec db) (physical_statements gen);
      ensure_aux_indexes db gen)

(* --- view + trigger assembly ------------------------------------------------- *)

(* The generators below write to an [emit] callback so the same code paths
   produce either live installation ({!regenerate}) or the pure statement
   list ({!delta_statements}) the static analyzer typechecks. *)

let star_view emit name source =
  emit
    (Sql.Create_view
       {
         name;
         or_replace = true;
         query = Sql.select_query (Sql.simple_select ~from:(Sql.From_table (source, None)) [ Sql.Star ]);
       })

(* A key-only row has no payload to update: an UPDATE with no SET column
   is dropped (it would not re-parse), and a body left empty gets no
   trigger, so updating that view fails cleanly. *)
let make_trigger emit ~target ~event body =
  let body =
    List.filter
      (function Sql.Update { sets = []; _ } -> false | _ -> true)
      body
  in
  if body <> [] then
    emit
      (Sql.Create_trigger
         {
           name = Naming.trigger ~target event;
           event;
           table = target;
           instead_of = true;
           body;
         })

let direct_dml ~data_table ~cols op =
  match (op : Triggers.op) with
  | Triggers.Ins ->
    [
      Sql.Insert
        {
          table = data_table;
          columns = Some cols;
          source = Sql.Values [ List.map Triggers.nw cols ];
        };
    ]
  | Triggers.Del ->
    [ Triggers.delete_key data_table (Triggers.od "p") ]
  | Triggers.Upd ->
    [
      Triggers.update_where data_table
        (List.map (fun c -> (c, Triggers.nw c)) (List.tl cols))
        (Triggers.key_eq (Triggers.od "p"));
    ]

(* Key assignment for an INSERT entering at [view_name]: an explicit NEW.p
   that is already present is a duplicate-key violation (matching stored
   tables; silently upserting here used to mask collisions), otherwise the
   key is NEW.p or a fresh global identifier. The duplicate probe reads the
   canonical view, so the read-position rewrite turns it into an indexed
   probe of the data table whenever the version is physical. *)
let assign_key_stmt view_name =
  let dup_probe =
    Sql.Exists
      ( Sql.select_query
          (Sql.simple_select
             ~from:(Sql.From_table (view_name, None))
             ~where:(Sql.Binop (Sql.Eq, Sql.Col (None, "p"), Sql.Param "NEW.p"))
             [ Sql.Star ]),
        false )
  in
  let message =
    Sql.Binop
      ( Sql.Concat,
        Sql.Const (Value.Text "duplicate primary key "),
        Sql.Binop
          ( Sql.Concat,
            Sql.Param "NEW.p",
            Sql.Const (Value.Text (" in " ^ view_name)) ) )
  in
  Sql.Set_new
    ( "p",
      Sql.Case
        ( [ (dup_probe, Sql.Fun ("CONSTRAINT_ERROR", [ message ])) ],
          Some
            (Sql.Fun
               ( "COALESCE",
                 [ Sql.Param "NEW.p"; Sql.Fun (Naming.global_id_function, []) ]
               )) ) )

(* Propagation statements across [si]: write targets are redirected to the
   opposite side's via-views so their triggers skip [si]'s own maintenance. *)
let propagate_redirected (si : G.smo_instance) ~direction ~written op =
  let stmts = Triggers.propagate si.G.si_inst ~direction ~written op in
  let opposite =
    match direction with
    | Triggers.Forward -> si.G.si_inst.S.targets
    | Triggers.Backward -> si.G.si_inst.S.sources
  in
  let data_names = List.map (fun (r : S.rel) -> r.S.rel_name) opposite in
  Triggers.redirect
    ~rename:(fun name ->
      if List.mem name data_names then Naming.via name ~smo_id:si.G.si_id
      else name)
    stmts

(* Virtualized FK/condition decomposes whose source table version derives its
   data from the physical table version [v], connected by key-preserving SMOs
   only; their ID auxiliaries need refreshing when [v]'s data table is
   written. The directly adjacent case is handled by source_maintenance. *)
let remote_id_smos (gen : G.t) v =
  let key_preserving (si : G.smo_instance) =
    match si.G.si_smo with
    | Bidel.Ast.Decompose { linkage = Bidel.Ast.On_fk _ | Bidel.Ast.On_cond _; _ }
    | Bidel.Ast.Join { linkage = Bidel.Ast.On_fk _ | Bidel.Ast.On_cond _; _ } ->
      false
    | _ -> true
  in
  (* all table versions whose access chain (always via key-preserving SMOs)
     ends at v *)
  let reached = Hashtbl.create 16 in
  let rec expand tvid =
    if not (Hashtbl.mem reached tvid) then begin
      Hashtbl.replace reached tvid ();
      let u = G.tv gen tvid in
      (* backwards: sources of a materialized incoming SMO read forward to us *)
      (match u.G.tv_in with
      | Some i ->
        let si = G.smo gen i in
        if si.G.si_materialized && key_preserving si then
          List.iter expand si.G.si_source_tvs
      | None -> ());
      (* forwards: targets of virtualized outgoing SMOs read backward to us *)
      List.iter
        (fun o ->
          let so = G.smo gen o in
          if (not so.G.si_materialized) && key_preserving so then
            List.iter expand so.G.si_target_tvs)
        u.G.tv_out
    end
  in
  expand v.G.tv_id;
  Hashtbl.remove reached v.G.tv_id;
  (* virtualized id-bearing SMOs hanging off any reached table version *)
  Hashtbl.fold
    (fun tvid () acc ->
      let u = G.tv gen tvid in
      List.fold_left
        (fun acc o ->
          let so = G.smo gen o in
          match so.G.si_smo with
          | Bidel.Ast.Decompose
              { linkage = Bidel.Ast.On_fk _ | Bidel.Ast.On_cond _; right = Some _; _ }
            when not so.G.si_materialized ->
            so :: acc
          | _ -> acc)
        acc u.G.tv_out)
    reached []

(** Trigger body for one operation on a table version's canonical view.
    [arrived_via] is the SMO a cascaded write crossed to get here (None for
    direct writes): its maintenance — and, defensively, a primary path
    pointing back across it — is skipped. *)
let tv_trigger_body (gen : G.t) v ?arrived_via op =
  let written_rel (si : G.smo_instance) =
    let name = G.tv_name v in
    List.find_opt
      (fun (r : S.rel) -> r.S.rel_name = name)
      (si.G.si_inst.S.sources @ si.G.si_inst.S.targets)
  in
  let skip id = arrived_via = Some id in
  let primary =
    match G.access_case gen v with
    | G.Local ->
      direct_dml
        ~data_table:(Naming.data_table ~id:v.G.tv_id ~table:v.G.tv_table)
        ~cols:("p" :: v.G.tv_cols) op
    | G.Forwards o when not (skip o) ->
      let si = G.smo gen o in
      let written = Option.get (written_rel si) in
      propagate_redirected si ~direction:Triggers.Forward ~written op
    | G.Backwards i when not (skip i) ->
      let si = G.smo gen i in
      let written = Option.get (written_rel si) in
      propagate_redirected si ~direction:Triggers.Backward ~written op
    | G.Forwards _ | G.Backwards _ -> []
  in
  (* auxiliary upkeep for adjacent SMOs not covered by the primary path *)
  let source_side =
    List.concat_map
      (fun o ->
        let si = G.smo gen o in
        if si.G.si_materialized || skip o then []
        else
          match written_rel si with
          | Some written -> Triggers.source_maintenance si.G.si_inst ~written op
          | None -> [])
      v.G.tv_out
  in
  let target_side =
    match v.G.tv_in with
    | Some i when (G.smo gen i).G.si_materialized && not (skip i) -> (
      let si = G.smo gen i in
      match written_rel si with
      | Some written -> Triggers.target_maintenance si.G.si_inst ~written op
      | None -> [])
    | _ -> []
  in
  let remote =
    match G.access_case gen v with
    | G.Local ->
      List.concat_map
        (fun (si : G.smo_instance) ->
          Triggers.remote_id_maintenance si.G.si_inst op)
        (remote_id_smos gen v)
    | G.Forwards _ | G.Backwards _ -> []
  in
  let setp =
    match op with
    | Triggers.Ins -> [ assign_key_stmt (G.tv_name v) ]
    | _ -> []
  in
  setp @ primary @ source_side @ target_side @ remote

let adjacent_smos v =
  (match v.G.tv_in with Some i -> [ i ] | None -> []) @ v.G.tv_out

(* The read-side view for a derived relation: the one-hop [rules] of the SMO
   it reads through — one view per SMO, the paper's layered delta code. *)
let emit_rules_view emit lookup rename ~name rules =
  emit
    (Sql.Create_view
       {
         name;
         or_replace = true;
         query =
           rewrite_query rename (Rule_sql.query_of_rules lookup ~pred:name rules);
       })

let generate_tv emit (gen : G.t) lookup rename v =
  let name = G.tv_name v in
  (* the read side *)
  (match G.access_case gen v with
  | G.Local ->
    star_view emit name (Naming.data_table ~id:v.G.tv_id ~table:v.G.tv_table)
  | G.Forwards o ->
    let si = G.smo gen o in
    emit_rules_view emit lookup rename ~name si.G.si_inst.S.gamma_src
  | G.Backwards i ->
    let si = G.smo gen i in
    emit_rules_view emit lookup rename ~name si.G.si_inst.S.gamma_tgt);
  (* the write side *)
  let body ?arrived_via op =
    List.map (rewrite_statement_reads rename) (tv_trigger_body gen v ?arrived_via op)
  in
  List.iter
    (fun (op, event) -> make_trigger emit ~target:name ~event (body op))
    [
      (Triggers.Ins, Sql.On_insert);
      (Triggers.Upd, Sql.On_update);
      (Triggers.Del, Sql.On_delete);
    ];
  (* via variants: same contents, per-arriving-SMO trigger bodies *)
  List.iter
    (fun smo_id ->
      let via_name = Naming.via name ~smo_id in
      star_view emit via_name (rename name);
      List.iter
        (fun (op, event) ->
          make_trigger emit ~target:via_name ~event (body ~arrived_via:smo_id op))
        [
          (Triggers.Ins, Sql.On_insert);
          (Triggers.Upd, Sql.On_update);
          (Triggers.Del, Sql.On_delete);
        ])
    (adjacent_smos v)

(** Derived views for the auxiliaries that are not physical right now. *)
let generate_aux_views emit (gen : G.t) lookup rename =
  List.iter
    (fun (si : G.smo_instance) ->
      let i = si.G.si_inst in
      let derived, rules =
        if si.G.si_materialized then (i.S.aux_src, i.S.gamma_src)
        else (i.S.aux_tgt, i.S.gamma_tgt)
      in
      List.iter
        (fun (r : S.rel) ->
          emit_rules_view emit lookup rename ~name:r.S.rel_name rules)
        derived)
    (G.all_smos gen)

(** User-facing alias views per schema version. *)
let generate_version_views emit (gen : G.t) =
  List.iter
    (fun (sv : G.schema_version) ->
      List.iter
        (fun (table, tvid) ->
          let v = G.tv gen tvid in
          let alias = Naming.version_view ~version:sv.G.sv_name ~table in
          let canonical = G.tv_name v in
          star_view emit alias canonical;
          let cols = "p" :: v.G.tv_cols in
          make_trigger emit ~target:alias ~event:Sql.On_insert
            [
              Sql.Insert
                {
                  table = canonical;
                  columns = Some cols;
                  source = Sql.Values [ List.map Triggers.nw cols ];
                };
            ];
          make_trigger emit ~target:alias ~event:Sql.On_update
            [
              Triggers.update_where canonical
                (List.map (fun c -> (c, Triggers.nw c)) v.G.tv_cols)
                (Triggers.key_eq (Triggers.od "p"));
            ];
          make_trigger emit ~target:alias ~event:Sql.On_delete
            [ Triggers.delete_key canonical (Triggers.od "p") ])
        sv.G.sv_tables)
    gen.G.versions

(** Drop every generated view and trigger (physical tables stay). *)
let drop_generated db =
  List.iter
    (fun name -> Db.drop_trigger db ~name ~if_exists:true)
    (Hashtbl.fold (fun name _ acc -> name :: acc) db.Db.triggers []);
  List.iter
    (fun obj ->
      match obj with
      | Db.Obj_view v -> Db.drop_view db ~name:v.Db.view_name ~if_exists:true
      | Db.Obj_table _ -> ())
    (Db.list_objects db)

(** The complete delta code for the current state, as a pure statement list
    in installation order: physical CREATE TABLEs, auxiliary views, canonical
    views with their triggers, version alias views with theirs. This is what
    {!regenerate} installs and what the static analyzer typechecks. *)
let delta_statements (gen : G.t) : Sql.statement list =
  let acc = ref [] in
  let emit stmt = acc := stmt :: !acc in
  List.iter emit (physical_statements gen);
  let lookup = schema_lookup gen in
  let rename = physical_rename gen in
  generate_aux_views emit gen lookup rename;
  List.iter (generate_tv emit gen lookup rename) (G.all_table_versions gen);
  generate_version_views emit gen;
  List.rev !acc

(** Full regeneration of all delta code for the current state. [validate] is
    called on the statement list before anything is dropped or installed;
    raising from it leaves the database untouched. *)
let regenerate ?(validate = fun (_ : Sql.statement list) -> ()) db (gen : G.t)
    =
  let stmts = delta_statements gen in
  validate stmts;
  untracked db (fun () ->
      drop_generated db;
      List.iter (exec db) stmts;
      ensure_aux_indexes db gen)
