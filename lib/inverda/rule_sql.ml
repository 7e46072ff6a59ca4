(** Datalog-to-SQL translation (Figure 7 of the paper).

    Each rule becomes a SELECT: positive body atoms are joined (with explicit
    equi-join conditions so the engine's hash-join path applies), negative
    atoms become NOT EXISTS subselects correlated on their bound arguments,
    conditions and assignments are substituted into SQL expressions. The
    rules of one head predicate are combined with UNION (set semantics, like
    Datalog). *)

module D = Datalog.Ast
module Sql = Minidb.Sql_ast
module Value = Minidb.Value

exception Codegen_error of string

let error fmt = Fmt.kstr (fun s -> raise (Codegen_error s)) fmt

type schema_lookup = string -> string list
(** relation name -> all columns (key first) *)

(* Substitute rule variables by SQL expressions. *)
let rec subst_expr binding (e : Sql.expr) : Sql.expr =
  match e with
  | Sql.Col (None, v) -> (
    match binding v with
    | Some e' -> e'
    | None -> error "unbound rule variable %s in condition" v)
  | Sql.Col (Some _, _) | Sql.Const _ | Sql.Param _ -> e
  | Sql.Unop (op, a) -> Sql.Unop (op, subst_expr binding a)
  | Sql.Binop (op, a, b) -> Sql.Binop (op, subst_expr binding a, subst_expr binding b)
  | Sql.Is_null (a, n) -> Sql.Is_null (subst_expr binding a, n)
  | Sql.Fun (f, args) -> Sql.Fun (f, List.map (subst_expr binding) args)
  | Sql.Case (arms, d) ->
    Sql.Case
      ( List.map (fun (c, v) -> (subst_expr binding c, subst_expr binding v)) arms,
        Option.map (subst_expr binding) d )
  | Sql.In_list (a, items, n) ->
    Sql.In_list (subst_expr binding a, List.map (subst_expr binding) items, n)
  | Sql.Exists _ | Sql.In_query _ | Sql.Scalar _ -> e

let conj = function
  | [] -> None
  | e :: rest ->
    Some (List.fold_left (fun acc x -> Sql.Binop (Sql.And, acc, x)) e rest)

(** SELECT for one rule. [head_cols] names the output columns. *)
let select_of_rule (lookup : schema_lookup) ~head_cols (r : D.rule) : Sql.select =
  let bindings : (string, Sql.expr) Hashtbl.t = Hashtbl.create 16 in
  let bind v e = if not (Hashtbl.mem bindings v) then Hashtbl.replace bindings v e in
  let binding v = Hashtbl.find_opt bindings v in
  let from = ref None in
  let where = ref [] in
  let alias_count = ref 0 in
  let fresh_alias () =
    incr alias_count;
    Fmt.str "t%d" !alias_count
  in
  let add_atom (a : D.atom) =
    let cols = lookup a.pred in
    if List.length cols <> List.length a.args then
      error "arity mismatch for %s (%d args, %d columns)" a.pred
        (List.length a.args) (List.length cols);
    let alias = fresh_alias () in
    let eqs = ref [] in
    List.iter2
      (fun term col ->
        let this = Sql.Col (Some alias, col) in
        match term with
        | D.Anon -> ()
        | D.Cst Value.Null -> eqs := Sql.Is_null (this, false) :: !eqs
        | D.Cst v -> eqs := Sql.Binop (Sql.Eq, this, Sql.Const v) :: !eqs
        | D.Var x -> (
          match binding x with
          | Some e -> eqs := Sql.Binop (Sql.Eq, this, e) :: !eqs
          | None -> bind x this))
      a.args cols;
    let item = Sql.From_table (a.pred, Some alias) in
    match !from with
    | None ->
      from := Some item;
      where := List.rev !eqs @ !where
    | Some f -> from := Some (Sql.From_join (f, Sql.Inner, item, conj (List.rev !eqs)))
  in
  let add_neg (a : D.atom) =
    let cols = lookup a.pred in
    let alias = fresh_alias () in
    let conds =
      List.concat
        (List.map2
           (fun term col ->
             let this = Sql.Col (Some alias, col) in
             match term with
             | D.Anon -> []
             | D.Cst Value.Null -> [ Sql.Is_null (this, false) ]
             | D.Cst v -> [ Sql.Binop (Sql.Eq, this, Sql.Const v) ]
             | D.Var x -> (
               match binding x with
               | Some e -> [ Sql.Binop (Sql.Eq, this, e) ]
               | None -> error "unbound variable %s in negated atom %s" x a.pred))
           a.args cols)
    in
    let sub =
      Sql.simple_select
        ~from:(Sql.From_table (a.pred, Some alias))
        ?where:(conj conds)
        [ Sql.Star ]
    in
    where := Sql.Exists (Sql.select_query sub, true) :: !where
  in
  (* positive atoms first (they bind), then assignments in dependency order,
     then conditions and negations *)
  List.iter (function D.Pos a -> add_atom a | _ -> ()) r.D.body;
  let rec process_rest pending =
    let ready, blocked =
      List.partition
        (fun l ->
          match l with
          | D.Pos _ -> true
          | D.Neg a ->
            List.for_all
              (function D.Var x -> binding x <> None | _ -> true)
              a.D.args
          | D.Cond e | D.Assign (_, e) ->
            List.for_all (fun x -> binding x <> None) (D.expr_vars e))
        pending
    in
    match ready, blocked with
    | [], [] -> ()
    | [], _ -> error "unsafe rule for %s" r.D.head.D.pred
    | _ ->
      List.iter
        (function
          | D.Pos _ -> ()
          | D.Neg a -> add_neg a
          | D.Cond e -> where := subst_expr binding e :: !where
          | D.Assign (x, e) -> bind x (subst_expr binding e))
        ready;
      if blocked <> [] then process_rest blocked
  in
  process_rest (List.filter (function D.Pos _ -> false | _ -> true) r.D.body);
  let items =
    List.map2
      (fun term col ->
        let e =
          match term with
          | D.Cst v -> Sql.Const v
          | D.Anon -> error "anonymous head argument in rule for %s" r.D.head.D.pred
          | D.Var x -> (
            match binding x with
            | Some e -> e
            | None -> error "unbound head variable %s" x)
        in
        Sql.Sel_expr (e, Some col))
      r.D.head.D.args head_cols
  in
  (* Datalog set semantics: one rule may derive the same tuple from several
     bindings (the deduplicating FK decompose). When the head key is bound to
     the key of a positive atom the derivation is unique per tuple and the
     DISTINCT pass is skipped. *)
  let key_unique =
    match r.D.head.D.args with
    | D.Var x :: _ ->
      List.exists
        (function
          | D.Pos a -> (
            match a.D.args with D.Var y :: _ -> y = x | _ -> false)
          | _ -> false)
        r.D.body
    | _ -> false
  in
  {
    Sql.distinct = not key_unique;
    items;
    from = !from;
    where = conj (List.rev !where);
    group_by = [];
    having = None;
  }

(** A query computing the head predicate [pred] from its rules: the UNION of
    the per-rule selects (set semantics), or an empty-relation select when no
    rule derives it. *)
let query_of_rules (lookup : schema_lookup) ~pred
    (rules : D.t) : Sql.query =
  let head_cols = lookup pred in
  let mine = List.filter (fun r -> r.D.head.D.pred = pred) rules in
  match mine with
  | [] ->
    let items =
      List.map (fun c -> Sql.Sel_expr (Sql.Const Value.Null, Some c)) head_cols
    in
    Sql.select_query
      {
        Sql.distinct = false;
        items;
        from = None;
        where = Some (Sql.Const (Value.Bool false));
        group_by = [];
        having = None;
      }
  | first :: rest ->
    (* the write-path maintenance keeps the per-head rule bodies of a single
       SMO mutually exclusive (e.g. R* is cleared whenever cR holds again),
       so branches combine with UNION ALL; branches that may self-duplicate
       carry their own DISTINCT from select_of_rule. *)
    let body =
      List.fold_left
        (fun acc r ->
          Sql.Union
            (acc, Sql.Select (select_of_rule lookup ~head_cols r), true))
        (Sql.Select (select_of_rule lookup ~head_cols first))
        rest
    in
    { Sql.body; order_by = []; limit = None }
