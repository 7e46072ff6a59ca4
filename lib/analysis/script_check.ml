(** Evolution-script lints: check a parsed BiDEL script against the schema
    versions it builds up, before anything touches the catalog.

    The checker replays the script over a symbolic environment (version name
    -> table -> columns) and reports, with source spans:

    - [BDL001] unknown schema version (error)
    - [BDL002] unknown table in the source version (error)
    - [BDL003] unknown column (error)
    - [BDL004] table name clash in the target version (error)
    - [BDL005] duplicate schema version name (error)
    - [BDL006] duplicate / clashing column name (error)
    - [BDL007] DECOMPOSE/JOIN parts do not partition the columns (error)
    - [BDL008] SPLIT conditions overlap — a witness row satisfies both
      (warning)
    - [BDL009] SPLIT conditions are not exhaustive — a witness row satisfies
      neither (warning)
    - [BDL010] JOIN ON condition has no equality between a left and a right
      column (warning: the join degenerates to a filtered cross product)
    - [BDL011] table name is reserved or shadows generated auxiliaries, or
      recreates a name dropped earlier in the same script (warning)
    - [BDL012] MERGE sources have different schemas (error)

    Errors mirror the checks {!Bidel.Smo_semantics.instantiate} performs at
    evolution time, so a script that lints error-free will not be rejected by
    the catalog for structural reasons. The SPLIT warnings are witness-based:
    the two conditions are evaluated on sample rows built from the constants
    they mention, and a diagnostic is only produced when a concrete
    counterexample row is found — never on heuristic grounds. *)

module A = Bidel.Ast
module Sql = Minidb.Sql_ast
module Value = Minidb.Value
module Exec = Minidb.Exec

(* Columns of a table: [None] when unknown (the table came from an unknown
   source and errors were already reported — don't cascade). *)
type table = string * string list option

type version = table list

type env = (string * version) list
(** Known schema versions, by name. *)

let empty_env : env = []

(** A version environment from genealogy-style data ([sv_name ->
    (table, cols) list]). *)
let env_of_versions vs : env =
  List.map
    (fun (name, tables) ->
      (name, List.map (fun (t, cols) -> (t, Some cols)) tables))
    vs

(* --- condition probing for SPLIT ------------------------------------------- *)

(* Only expressions made of these nodes are probed; anything else (functions,
   subqueries, parameters) makes the probe bail out silently — the lint is
   witness-based and must not guess. *)
let rec probeable (e : Sql.expr) =
  match e with
  | Sql.Const _ | Sql.Col (None, _) -> true
  | Sql.Unop (_, a) | Sql.Is_null (a, _) -> probeable a
  | Sql.Binop (_, a, b) -> probeable a && probeable b
  | Sql.Case (arms, default) ->
    List.for_all (fun (c, v) -> probeable c && probeable v) arms
    && (match default with Some d -> probeable d | None -> true)
  | Sql.In_list (a, items, _) -> probeable a && List.for_all probeable items
  | Sql.Col (Some _, _) | Sql.Param _ | Sql.Fun _ | Sql.Exists _
  | Sql.In_query _ | Sql.Scalar _ ->
    false

(* Candidate values per column: the constants the conditions compare the
   column against, widened around integers to hit both sides of inequalities,
   plus NULL. *)
let candidates_of_conds cols conds =
  let tbl : (string, Value.t list) Hashtbl.t = Hashtbl.create 8 in
  let addv c v =
    let have = Option.value (Hashtbl.find_opt tbl c) ~default:[] in
    if not (List.exists (Value.equal v) have) then
      Hashtbl.replace tbl c (v :: have)
  in
  let widen c v =
    match v with
    | Value.Int n ->
      addv c (Value.Int (n - 1));
      addv c (Value.Int n);
      addv c (Value.Int (n + 1))
    | Value.Real _ | Value.Text _ | Value.Bool _ | Value.Null -> addv c v
  in
  let rec walk (e : Sql.expr) =
    (match e with
    | Sql.Binop (_, Sql.Col (None, c), Sql.Const v)
    | Sql.Binop (_, Sql.Const v, Sql.Col (None, c)) ->
      widen c v
    | _ -> ());
    match e with
    | Sql.Const _ | Sql.Col _ | Sql.Param _ -> ()
    | Sql.Unop (_, a) | Sql.Is_null (a, _) -> walk a
    | Sql.Binop (_, a, b) ->
      walk a;
      walk b
    | Sql.Case (arms, default) ->
      List.iter
        (fun (c, v) ->
          walk c;
          walk v)
        arms;
      Option.iter walk default
    | Sql.In_list (a, items, _) -> (
      walk a;
      List.iter walk items;
      match a with
      | Sql.Col (None, c) ->
        List.iter (function Sql.Const v -> widen c v | _ -> ()) items
      | _ -> ())
    | Sql.Fun (_, args) -> List.iter walk args
    | Sql.Exists _ | Sql.In_query _ | Sql.Scalar _ -> ()
  in
  List.iter walk conds;
  List.map
    (fun c ->
      let vs = Option.value (Hashtbl.find_opt tbl c) ~default:[] in
      (* always offer a few generic values so columns only tested for
         NULL-ness or truth still vary *)
      let vs = vs @ [ Value.Int 0; Value.Bool true; Value.Bool false ] in
      let vs =
        List.fold_left
          (fun acc v -> if List.exists (Value.equal v) acc then acc else v :: acc)
          [] vs
        |> List.rev
      in
      (c, Value.Null :: vs))
    cols

let max_probe_rows = 1024

type verdict = { overlap : string option; gap : string option }

(* Evaluate both conditions over the sample grid; return the first witness
   row (as a display string) satisfying both, and the first satisfying
   neither. Unsupported expressions or evaluation errors yield no witnesses. *)
let probe_split cols lcond rcond : verdict =
  let none = { overlap = None; gap = None } in
  if not (probeable lcond && probeable rcond) then none
  else begin
    (* probe only the columns the conditions mention *)
    let used =
      List.filter
        (fun c ->
          List.mem c (Datalog.Ast.expr_vars lcond)
          || List.mem c (Datalog.Ast.expr_vars rcond))
        cols
    in
    let used = List.sort_uniq compare used in
    if used = [] then none
    else begin
      let cands = candidates_of_conds used [ lcond; rcond ] in
      let rows =
        List.fold_left
          (fun rows (_, vs) ->
            if List.length rows * List.length vs > max_probe_rows then rows
            else List.concat_map (fun row -> List.map (fun v -> v :: row) vs) rows)
          [ [] ] cands
        (* candidate lists were folded left-to-right, so each row is reversed *)
        |> List.map (fun r -> Array.of_list (List.rev r))
      in
      try
        let ctx = Exec.fresh_ctx (Minidb.Database.create ()) in
        let env0 = Exec.start_env ctx.Exec.db in
        let scope = [ Exec.scope_of_cols used ] in
        let fl = Exec.compile_expr ctx scope lcond in
        let fr = Exec.compile_expr ctx scope rcond in
        let is_true = function Value.Bool true -> true | _ -> false in
        let witness row =
          String.concat ", "
            (List.mapi
               (fun i c -> c ^ " = " ^ Value.to_literal row.(i))
               used)
        in
        let overlap = ref None and gap = ref None in
        List.iter
          (fun row ->
            (* ill-typed sample rows (e.g. a boolean where the condition
               compares integers) are simply skipped *)
            match
              let env = { env0 with rows = [ row ] } in
              (is_true (fl env), is_true (fr env))
            with
            | true, true -> if !overlap = None then overlap := Some (witness row)
            | false, false ->
              (* a NULL-padded row satisfies neither side of almost any pair
                 of conditions under three-valued logic; only a fully
                 non-NULL counterexample marks a genuine gap *)
              if !gap = None && not (Array.exists Value.is_null row) then
                gap := Some (witness row)
            | _ -> ()
            | exception _ -> ())
          rows;
        { overlap = !overlap; gap = !gap }
      with _ -> none
    end
  end

(* --- the checker ------------------------------------------------------------ *)

type state = {
  mutable versions : env;
  mutable diags : Diagnostic.t list;
}

let err st code span context fmt =
  Fmt.kstr
    (fun msg ->
      st.diags <-
        Diagnostic.error code ~span ~context "%s" msg :: st.diags)
    fmt

let warn st code span context fmt =
  Fmt.kstr
    (fun msg ->
      st.diags <-
        Diagnostic.warning code ~span ~context "%s" msg :: st.diags)
    fmt

(* Column references of a BiDEL condition / value function. *)
let expr_cols e = List.sort_uniq compare (Datalog.Ast.expr_vars e)

let check_expr_cols st span ctx what cols e =
  match cols with
  | None -> ()
  | Some cols ->
    List.iter
      (fun c ->
        if not (List.mem c cols) then
          err st "BDL003" span ctx "%s references unknown column %s" what c)
      (expr_cols e)

let dup_names names =
  let rec go seen = function
    | [] -> []
    | n :: rest ->
      if List.mem n seen then n :: go seen rest else go (n :: seen) rest
  in
  List.sort_uniq compare (go [] names)

(* Generated physical names embed '!' separators ({!Inverda.Naming}); a user
   table named that way can collide with auxiliary or version views. *)
let reserved_name n = String.contains n '!' || String.contains n '@'

let check_new_name st span ctx ~dropped tables n =
  if List.mem_assoc n tables then
    err st "BDL004" span ctx "table %s already exists in the target version" n;
  if reserved_name n then
    warn st "BDL011" span ctx
      "table name %s contains '!' or '@' and may collide with generated auxiliary tables"
      n
  else if List.mem n !dropped then
    warn st "BDL011" span ctx
      "table %s was dropped earlier in this script; recreating the name makes the composition lossy"
      n

(* Replay one SMO over the table map of the version under construction.
   Returns the updated map. [dropped] accumulates names removed earlier in
   the same script (for BDL011). *)
let apply_smo st ctx ~dropped (tables : version) (lsmo : A.smo A.located) :
    version =
  let span = lsmo.A.span in
  let smo = lsmo.A.node in
  let find t : [ `Missing | `Cols of string list option ] =
    match List.assoc_opt t tables with
    | Some cols -> `Cols cols
    | None -> `Missing
  in
  let source t =
    match find t with
    | `Cols cols -> cols
    | `Missing ->
      err st "BDL002" span ctx "%s: no table %s in the source version"
        (A.smo_name smo) t;
      None
  in
  let remove t tables = List.remove_assoc t tables in
  let add n cols tables = (n, cols) :: tables in
  let check_col what cols c =
    match cols with
    | Some cs when not (List.mem c cs) ->
      err st "BDL003" span ctx "%s: no column %s in %s" (A.smo_name smo) c what
    | _ -> ()
  in
  (* every table is stored as [key :: payload] *)
  let check_key_name table c =
    if c = Bidel.Smo_semantics.key then
      err st "BDL006" span ctx "%s: column %s of %s clashes with the key column"
        (A.smo_name smo) c table
  in
  match smo with
  | A.Create_table { table; columns } ->
    List.iter
      (fun c -> err st "BDL006" span ctx "duplicate column %s in CREATE TABLE %s" c table)
      (dup_names columns);
    List.iter (check_key_name table) (List.sort_uniq compare columns);
    check_new_name st span ctx ~dropped tables table;
    add table (Some columns) tables
  | A.Drop_table { table } ->
    ignore (source table);
    dropped := table :: !dropped;
    remove table tables
  | A.Rename_table { table; into } ->
    let cols = source table in
    let tables = remove table tables in
    check_new_name st span ctx ~dropped tables into;
    add into cols tables
  | A.Rename_column { table; col; into } ->
    let cols = source table in
    check_col table cols col;
    check_key_name table into;
    (match cols with
    | Some cs when List.mem into cs && into <> col ->
      err st "BDL006" span ctx "RENAME COLUMN: %s already has a column %s" table
        into
    | _ -> ());
    let cols' =
      Option.map (List.map (fun c -> if c = col then into else c)) cols
    in
    add table cols' (remove table tables)
  | A.Add_column { table; col; default } ->
    let cols = source table in
    check_key_name table col;
    (match cols with
    | Some cs when List.mem col cs ->
      err st "BDL006" span ctx "ADD COLUMN: %s already has a column %s" table col
    | _ -> ());
    check_expr_cols st span ctx "the value function" cols default;
    add table (Option.map (fun cs -> cs @ [ col ]) cols) (remove table tables)
  | A.Drop_column { table; col; default } ->
    let cols = source table in
    check_col table cols col;
    let cols' = Option.map (List.filter (fun c -> c <> col)) cols in
    check_expr_cols st span ctx "the DEFAULT function" cols' default;
    add table cols' (remove table tables)
  | A.Decompose { table; left = lname, lcols; right; linkage } ->
    let cols = source table in
    let rcols = match right with Some (_, cs) -> cs | None -> [] in
    List.iter (check_col table cols) (lcols @ rcols);
    List.iter
      (fun c ->
        err st "BDL007" span ctx "DECOMPOSE: column %s is assigned to both parts" c)
      (List.sort_uniq compare (List.filter (fun c -> List.mem c rcols) lcols));
    (match (cols, right) with
    | Some cs, Some _ ->
      let missing =
        List.filter (fun c -> not (List.mem c (lcols @ rcols))) cs
      in
      if missing <> [] then
        err st "BDL007" span ctx
          "DECOMPOSE: the parts must partition the columns of %s (missing %s)"
          table
          (String.concat ", " missing)
    | _ -> ());
    (match linkage with
    | A.On_fk fk ->
      check_key_name lname fk;
      if List.mem fk lcols then
        err st "BDL006" span ctx
          "DECOMPOSE ON FK: foreign key column %s clashes with a column of %s" fk
          lname
    | A.On_cond e -> check_expr_cols st span ctx "the ON condition" cols e
    | A.On_pk -> ());
    let tables = remove table tables in
    let lcols' =
      match (linkage, right) with
      | A.On_fk fk, Some _ -> lcols @ [ fk ]
      | _ -> lcols
    in
    check_new_name st span ctx ~dropped tables lname;
    let tables = add lname (Some lcols') tables in
    (match right with
    | Some (rname, rcs) ->
      if rname = lname then
        err st "BDL004" span ctx "DECOMPOSE: both parts are named %s" lname;
      check_new_name st span ctx ~dropped tables rname;
      add rname (Some rcs) tables
    | None -> tables)
  | A.Join { left; right; into; linkage; outer = _ } ->
    let lcols = source left and rcols = source right in
    (match linkage with
    | A.On_fk fk -> check_col left lcols fk
    | A.On_cond e ->
      let both =
        match (lcols, rcols) with
        | Some a, Some b -> Some (a @ b)
        | _ -> None
      in
      check_expr_cols st span ctx "the ON condition" both e;
      (* BDL010: no equality between a left and a right column anywhere in
         the condition — the join degenerates to a filtered cross product *)
      (match (lcols, rcols) with
      | Some a, Some b ->
        let rec has_equi (x : Sql.expr) =
          match x with
          | Sql.Binop (Sql.Eq, Sql.Col (None, p), Sql.Col (None, q)) ->
            (List.mem p a && List.mem q b) || (List.mem p b && List.mem q a)
          | Sql.Binop (_, l, r) -> has_equi l || has_equi r
          | Sql.Unop (_, l) | Sql.Is_null (l, _) -> has_equi l
          | Sql.Case (arms, d) ->
            List.exists (fun (c, v) -> has_equi c || has_equi v) arms
            || (match d with Some d -> has_equi d | None -> false)
          | _ -> false
        in
        if not (has_equi e) then
          warn st "BDL010" span ctx
            "JOIN ON condition relates no column of %s to a column of %s; this is a filtered cross product"
            left right
      | _ -> ())
    | A.On_pk -> ());
    (* duplicate payload names across the sides are rejected at evolution *)
    let lpay =
      match (linkage, lcols) with
      | A.On_fk fk, Some cs -> Some (List.filter (fun c -> c <> fk) cs)
      | _, cs -> cs
    in
    (match (lpay, rcols) with
    | Some a, Some b ->
      List.iter
        (fun c ->
          err st "BDL006" span ctx
            "JOIN: column %s appears in both %s and %s" c left right)
        (List.sort_uniq compare (List.filter (fun c -> List.mem c b) a))
    | _ -> ());
    let tables = remove left (remove right tables) in
    check_new_name st span ctx ~dropped tables into;
    let cols =
      match (lpay, rcols) with Some a, Some b -> Some (a @ b) | _ -> None
    in
    add into cols tables
  | A.Split { table; left = lname, lcond; right } ->
    let cols = source table in
    check_expr_cols st span ctx "the WITH condition" cols lcond;
    (match right with
    | Some (_, rcond) ->
      check_expr_cols st span ctx "the WITH condition" cols rcond;
      (match cols with
      | Some cs ->
        let v = probe_split cs lcond rcond in
        (match v.overlap with
        | Some w ->
          warn st "BDL008" span ctx
            "SPLIT conditions overlap: the row (%s) satisfies both; it will appear in %s and in the second part"
            w lname
        | None -> ());
        (match v.gap with
        | Some w ->
          warn st "BDL009" span ctx
            "SPLIT conditions are not exhaustive: the row (%s) satisfies neither and is lost in the target version"
            w
        | None -> ())
      | None -> ())
    | None -> ());
    let tables = remove table tables in
    check_new_name st span ctx ~dropped tables lname;
    let tables = add lname cols tables in
    (match right with
    | Some (rname, _) ->
      if rname = lname then
        err st "BDL004" span ctx "SPLIT: both parts are named %s" lname;
      check_new_name st span ctx ~dropped tables rname;
      add rname cols tables
    | None -> tables)
  | A.Merge { left = lname, lcond; right = rname, rcond; into } ->
    let lcols = source lname and rcols = source rname in
    check_expr_cols st span ctx "the condition" lcols lcond;
    check_expr_cols st span ctx "the condition" rcols rcond;
    (match (lcols, rcols) with
    | Some a, Some b when a <> b ->
      err st "BDL012" span ctx
        "MERGE requires identical schemas: %s has (%s) but %s has (%s)" lname
        (String.concat ", " a) rname (String.concat ", " b)
    | _ -> ());
    let tables = remove lname (remove rname tables) in
    check_new_name st span ctx ~dropped tables into;
    add into lcols tables

let check_statement st (l : Bidel.Parser.lstatement) =
  let span = l.Bidel.Parser.l_span in
  match l.Bidel.Parser.l_stmt with
  | A.Create_schema_version { name; from; _ } ->
    let ctx = Printf.sprintf "version %s" name in
    if List.mem_assoc name st.versions then
      err st "BDL005" span ctx "schema version %s already exists" name;
    let start : version option =
      match from with
      | None -> Some []
      | Some f -> (
        match List.assoc_opt f st.versions with
        | Some tables -> Some tables
        | None ->
          err st "BDL001" span ctx "unknown source schema version %s" f;
          None)
    in
    (match start with
    | None ->
      (* record the version so later references don't cascade, but skip the
         SMO replay — there is nothing sound to check it against *)
      st.versions <- st.versions @ [ (name, []) ]
    | Some tables ->
      let dropped = ref [] in
      let tables =
        List.fold_left
          (apply_smo st ctx ~dropped)
          tables l.Bidel.Parser.l_smos
      in
      st.versions <- st.versions @ [ (name, tables) ])
  | A.Drop_schema_version name ->
    if not (List.mem_assoc name st.versions) then
      err st "BDL001" span "" "unknown schema version %s" name
    else st.versions <- List.remove_assoc name st.versions
  | A.Materialize targets ->
    List.iter
      (fun t ->
        let v, table =
          match String.index_opt t '.' with
          | Some i ->
            ( String.sub t 0 i,
              Some (String.sub t (i + 1) (String.length t - i - 1)) )
          | None -> (t, None)
        in
        match List.assoc_opt v st.versions with
        | None -> err st "BDL001" span "" "unknown schema version %s" v
        | Some tables -> (
          match table with
          | Some tbl when not (List.mem_assoc tbl tables) ->
            err st "BDL002" span "" "version %s has no table %s" v tbl
          | _ -> ()))
      targets

(** Lint a parsed script. [env] seeds the known schema versions (e.g. from a
    live catalog); by default the script must be self-contained. *)
let check_script ?(env = empty_env) (script : Bidel.Parser.lstatement list) :
    Diagnostic.t list =
  let st = { versions = env; diags = [] } in
  List.iter (check_statement st) script;
  Diagnostic.sort (List.rev st.diags)
