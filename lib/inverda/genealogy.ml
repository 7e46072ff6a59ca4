(** The schema version catalog (Section 3): a directed acyclic hypergraph of
    table versions (vertices) and SMO instances (hyperedges), the
    materialization state of every SMO, and the mapping from schema versions
    to their table versions.

    This module is pure bookkeeping; SQL generation lives in {!Codegen} and
    data movement in {!Migration}. *)

module S = Bidel.Smo_semantics

type table_version = {
  tv_id : int;
  tv_table : string;  (** logical table name *)
  tv_cols : string list;  (** payload columns (the key [p] is implicit) *)
  mutable tv_in : int option;  (** id of the SMO that created this version *)
  mutable tv_out : int list;  (** ids of SMOs consuming this version *)
}

type smo_instance = {
  si_id : int;
  si_smo : Bidel.Ast.smo;
  si_inst : S.instance;
  si_source_tvs : int list;
  si_target_tvs : int list;
  mutable si_materialized : bool;
      (** true = data lives on the target side; CREATE TABLE SMOs are always
          materialized *)
}

type schema_version = {
  sv_name : string;
  sv_parent : string option;
  mutable sv_tables : (string * int) list;  (** logical name -> tv id *)
}

type t = {
  mutable next_id : int;
  table_versions : (int, table_version) Hashtbl.t;
  smos : (int, smo_instance) Hashtbl.t;
  mutable versions : schema_version list;  (** in creation order *)
}

exception Catalog_error of string

let error fmt = Fmt.kstr (fun s -> raise (Catalog_error s)) fmt

let create () =
  {
    next_id = 0;
    table_versions = Hashtbl.create 32;
    smos = Hashtbl.create 32;
    versions = [];
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let tv t id =
  match Hashtbl.find_opt t.table_versions id with
  | Some v -> v
  | None -> error "no table version %d" id

let smo t id =
  match Hashtbl.find_opt t.smos id with
  | Some s -> s
  | None -> error "no SMO instance %d" id

let find_version t name =
  List.find_opt (fun v -> v.sv_name = name) t.versions

let version t name =
  match find_version t name with
  | Some v -> v
  | None -> error "no schema version %s" name

let version_exists t name = find_version t name <> None

let all_smos t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.smos []
  |> List.sort (fun a b -> compare a.si_id b.si_id)

let all_table_versions t =
  Hashtbl.fold (fun _ v acc -> v :: acc) t.table_versions []
  |> List.sort (fun a b -> compare a.tv_id b.tv_id)

(** Is the data of this table version physically present? True iff its
    creating SMO is materialized and no outgoing SMO is materialized. *)
let is_physical t v =
  let incoming_ok =
    match v.tv_in with
    | None -> true (* defensive: versionless roots *)
    | Some i -> (smo t i).si_materialized
  in
  incoming_ok
  && not (List.exists (fun o -> (smo t o).si_materialized) v.tv_out)

(** Case analysis of Section 6 for a table version. *)
type access_case =
  | Local  (** case 1: data table present *)
  | Forwards of int  (** case 2: through this materialized outgoing SMO *)
  | Backwards of int  (** case 3: through the virtualized incoming SMO *)

let access_case t v =
  match List.find_opt (fun o -> (smo t o).si_materialized) v.tv_out with
  | Some o -> Forwards o
  | None -> (
    match v.tv_in with
    | None -> Local
    | Some i -> if (smo t i).si_materialized then Local else Backwards i)

(* --- evolution ------------------------------------------------------------- *)

let tv_name v = Naming.table_version ~id:v.tv_id ~table:v.tv_table

(** Apply one SMO to [tables] (the evolving version's name->tv map),
    creating table versions and the SMO instance. [register_skolem] is called
    for every skolem function name the instance needs. *)
let apply_smo t ~register_skolem ~tables smo_ast =
  let source_names = Bidel.Ast.source_tables smo_ast in
  let source_tvs =
    List.map
      (fun name ->
        match List.assoc_opt name !tables with
        | Some id -> tv t id
        | None -> error "SMO references unknown table %s" name)
      source_names
  in
  let smo_id = fresh_id t in
  let source_cols table =
    match List.assoc_opt table !tables with
    | Some id -> (tv t id).tv_cols
    | None -> error "SMO references unknown table %s" table
  in
  (* allocate target table versions *)
  let target_cols =
    S.target_table_cols ~smo:smo_ast ~source_cols
  in
  let target_tvs =
    List.map
      (fun (name, cols) ->
        let id = fresh_id t in
        let v = { tv_id = id; tv_table = name; tv_cols = cols; tv_in = Some smo_id; tv_out = [] } in
        Hashtbl.replace t.table_versions id v;
        v)
      target_cols
  in
  let name_src table = tv_name (tv t (List.assoc table !tables)) in
  let name_tgt table =
    match List.find_opt (fun v -> v.tv_table = table) target_tvs with
    | Some v -> tv_name v
    | None -> error "internal: unknown target table %s" table
  in
  let skolem_name kind =
    let name = Naming.skolem ~smo_id kind in
    register_skolem name;
    name
  in
  let inst =
    S.instantiate ~smo:smo_ast ~source_cols ~name_src ~name_tgt
      ~aux_name:(Naming.aux ~smo_id) ~skolem_name
  in
  let si =
    {
      si_id = smo_id;
      si_smo = smo_ast;
      si_inst = inst;
      si_source_tvs = List.map (fun v -> v.tv_id) source_tvs;
      si_target_tvs = List.map (fun v -> v.tv_id) target_tvs;
      (* CREATE TABLE SMOs are materialized by definition; everything else
         starts virtualized (data stays at the source side) *)
      si_materialized = (match smo_ast with Bidel.Ast.Create_table _ -> true | _ -> false);
    }
  in
  Hashtbl.replace t.smos smo_id si;
  List.iter (fun v -> v.tv_out <- v.tv_out @ [ smo_id ]) source_tvs;
  (* update the evolving table map: sources are consumed, targets appear *)
  tables :=
    List.filter (fun (name, _) -> not (List.mem name source_names)) !tables
    @ List.map (fun v -> (v.tv_table, v.tv_id)) target_tvs;
  si

(** Create a schema version from [from] (or from scratch) by applying the
    SMOs in order. Returns the new version and the created SMO instances. *)
let create_schema_version t ~register_skolem ~name ~from ~smos =
  if version_exists t name then error "schema version %s already exists" name;
  let parent_tables =
    match from with
    | None -> []
    | Some p -> (version t p).sv_tables
  in
  let tables = ref parent_tables in
  let instances =
    List.map (fun smo_ast -> apply_smo t ~register_skolem ~tables smo_ast) smos
  in
  let sv = { sv_name = name; sv_parent = from; sv_tables = !tables } in
  t.versions <- t.versions @ [ sv ];
  (sv, instances)

type evolution_mark = { em_next_id : int; em_versions : schema_version list }

let evolution_mark t = { em_next_id = t.next_id; em_versions = t.versions }

(* Everything an evolution creates carries an id at or above the mark's;
   the only older state it changes is its sources' [tv_out] links and the
   version list. *)
let rollback_evolution t m =
  let fresh id = id >= m.em_next_id in
  Hashtbl.filter_map_inplace
    (fun id v -> if fresh id then None else Some v)
    t.table_versions;
  Hashtbl.filter_map_inplace (fun id s -> if fresh id then None else Some s) t.smos;
  Hashtbl.iter
    (fun _ v -> v.tv_out <- List.filter (fun o -> not (fresh o)) v.tv_out)
    t.table_versions;
  t.versions <- m.em_versions;
  t.next_id <- m.em_next_id

let drop_schema_version t name =
  let _ = version t name in
  (* The version disappears from the catalog; SMO instances and table
     versions are kept while they connect remaining versions (the paper keeps
     them as long as any evolution path needs them). We keep them all: they
     still carry data placement. *)
  t.versions <- List.filter (fun v -> v.sv_name <> name) t.versions

(* --- materialization schemas (Section 7) ----------------------------------- *)

(** Validity conditions (55)/(56) for a set of materialized SMO ids. *)
let valid_materialization t mat =
  let is_mat id = List.mem id mat in
  let cond55 =
    List.for_all
      (fun id ->
        let s = smo t id in
        List.for_all
          (fun tvid ->
            match (tv t tvid).tv_in with
            | None -> true
            | Some i -> is_mat i)
          s.si_source_tvs)
      mat
  in
  let cond56 =
    List.for_all
      (fun id ->
        let s = smo t id in
        List.for_all
          (fun tvid ->
            let v = tv t tvid in
            not
              (List.exists (fun o -> o <> id && is_mat o) v.tv_out))
          s.si_source_tvs)
      mat
  in
  let create_tables_mat =
    (* CREATE TABLE SMOs are always materialized *)
    Hashtbl.fold
      (fun id s acc ->
        acc
        && (match s.si_smo with
           | Bidel.Ast.Create_table _ -> is_mat id
           | _ -> true))
      t.smos true
  in
  cond55 && cond56 && create_tables_mat

let current_materialization t =
  List.filter_map
    (fun s -> if s.si_materialized then Some s.si_id else None)
    (all_smos t)

type mat_snapshot = (int * bool) list

let snapshot_materialization t =
  List.map (fun s -> (s.si_id, s.si_materialized)) (all_smos t)

let restore_materialization t snap =
  List.iter (fun (id, m) -> (smo t id).si_materialized <- m) snap

(** Materialization schema that puts the data exactly at the given table
    versions: all SMOs on the paths from the roots to those versions. *)
let materialization_for_tables t tv_ids =
  let mat = Hashtbl.create 16 in
  let rec mark tvid =
    match (tv t tvid).tv_in with
    | None -> ()
    | Some i ->
      if not (Hashtbl.mem mat i) then begin
        Hashtbl.replace mat i ();
        List.iter mark (smo t i).si_source_tvs
      end
  in
  List.iter mark tv_ids;
  (* always include CREATE TABLE SMOs *)
  Hashtbl.iter
    (fun id s ->
      match s.si_smo with
      | Bidel.Ast.Create_table _ -> Hashtbl.replace mat id ()
      | _ -> ())
    t.smos;
  Hashtbl.fold (fun id () acc -> id :: acc) mat [] |> List.sort compare

(** Enumerate all valid materialization schemas (used by Table 2 and the
    Fig. 11 sweep; exponential in independent SMOs, fine at example scale). *)
let enumerate_materializations t =
  let smos = all_smos t in
  let optional =
    List.filter
      (fun s -> match s.si_smo with Bidel.Ast.Create_table _ -> false | _ -> true)
      smos
  in
  let always =
    List.filter_map
      (fun s ->
        match s.si_smo with Bidel.Ast.Create_table _ -> Some s.si_id | _ -> None)
      smos
  in
  let rec subsets = function
    | [] -> [ [] ]
    | s :: rest ->
      let subs = subsets rest in
      subs @ List.map (fun sub -> s.si_id :: sub) subs
  in
  subsets optional
  |> List.map (fun sub -> List.sort compare (always @ sub))
  |> List.filter (valid_materialization t)

(** The physical table schema implied by a materialization: the table
    versions whose data tables exist. *)
let physical_tables_for t mat =
  let is_mat id = List.mem id mat in
  List.filter
    (fun v ->
      (match v.tv_in with None -> true | Some i -> is_mat i)
      && not (List.exists is_mat v.tv_out))
    (all_table_versions t)
