(** Datalog rules as used by the paper to define SMO semantics.

    Rule templates in the paper quantify over attribute *lists* (capital
    variables); here rules are already instantiated for a concrete SMO
    instance, so every variable stands for a single attribute. By the paper's
    convention the first argument of every predicate is the InVerDa-managed
    key [p], which is unique per relation (Lemma 5).

    Conditions and computed values reuse the SQL expression language
    ({!Minidb.Sql_ast.expr}) with [Col (None, v)] denoting the rule variable
    [v]; this makes the later Datalog-to-SQL translation (Figure 7 of the
    paper) a structural embedding. *)

type term = Var of string | Cst of Minidb.Value.t | Anon

type atom = { pred : string; args : term list }

type literal =
  | Pos of atom
  | Neg of atom
  | Cond of Minidb.Sql_ast.expr
      (** condition over rule variables, e.g. [prio = 1] *)
  | Assign of string * Minidb.Sql_ast.expr
      (** [v := f(...)], used for ADD COLUMN value functions and the
          identifier-generating skolem functions of DECOMPOSE/JOIN *)

type rule = { head : atom; body : literal list }

type t = rule list

let atom pred args = { pred; args }

let rule head body = { head; body }

(* --- convenience constructors ------------------------------------------- *)

let v name = Var name

let vars names = List.map (fun n -> Var n) names

let col name : Minidb.Sql_ast.expr = Minidb.Sql_ast.Col (None, name)

let eq a b : Minidb.Sql_ast.expr = Minidb.Sql_ast.(Binop (Eq, a, b))

let conj = function
  | [] -> Minidb.Sql_ast.Const (Minidb.Value.Bool true)
  | e :: rest ->
    List.fold_left (fun acc x -> Minidb.Sql_ast.(Binop (And, acc, x))) e rest

(* --- variable accounting -------------------------------------------------- *)

let rec expr_vars (e : Minidb.Sql_ast.expr) =
  match e with
  | Col (None, n) -> [ n ]
  | Col (Some _, _) | Const _ | Param _ -> []
  | Unop (_, a) | Is_null (a, _) -> expr_vars a
  | Binop (_, a, b) -> expr_vars a @ expr_vars b
  | Fun (_, args) -> List.concat_map expr_vars args
  | Case (arms, default) ->
    List.concat_map (fun (c, x) -> expr_vars c @ expr_vars x) arms
    @ (match default with Some d -> expr_vars d | None -> [])
  | In_list (a, items, _) -> expr_vars a @ List.concat_map expr_vars items
  | Exists _ | In_query _ | Scalar _ -> []

let term_vars = function Var x -> [ x ] | Cst _ | Anon -> []

let atom_vars a = List.concat_map term_vars a.args

let literal_vars = function
  | Pos a | Neg a -> atom_vars a
  | Cond e -> expr_vars e
  | Assign (x, e) -> x :: expr_vars e

(** Predicates appearing in bodies / heads of a rule set. *)
let body_preds rules =
  List.concat_map
    (fun r ->
      List.filter_map
        (function Pos a | Neg a -> Some a.pred | Cond _ | Assign _ -> None)
        r.body)
    rules
  |> List.sort_uniq compare

let head_preds rules =
  List.map (fun r -> r.head.pred) rules |> List.sort_uniq compare

(** Range-restriction / safety check: every head and condition variable must
    be bound by a positive literal or an assignment, and assignments must
    only use bound variables. Raises [Failure] with a message otherwise. *)
let check_safety rules =
  List.iter
    (fun r ->
      let bound = ref [] in
      List.iter
        (fun l ->
          match l with
          | Pos a -> bound := atom_vars a @ !bound
          | Assign (x, e) ->
            List.iter
              (fun y ->
                if not (List.mem y !bound) then
                  failwith
                    (Fmt.str "unsafe assignment to %s: %s unbound in rule for %s"
                       x y r.head.pred))
              (expr_vars e);
            bound := x :: !bound
          | Neg _ | Cond _ -> ())
        r.body;
      List.iter
        (fun l ->
          match l with
          | Neg a | Pos a ->
            ignore a (* negated atoms may introduce anonymous args only *)
          | Cond e ->
            List.iter
              (fun y ->
                if not (List.mem y !bound) then
                  failwith
                    (Fmt.str "unsafe condition variable %s in rule for %s" y
                       r.head.pred))
              (expr_vars e)
          | Assign _ -> ())
        r.body;
      List.iter
        (fun y ->
          if not (List.mem y !bound) then
            failwith (Fmt.str "unsafe head variable %s in rule for %s" y r.head.pred))
        (atom_vars r.head))
    rules;
  rules
