(** Condition helpers over the closed-world negation wrapper
    [NOT (COALESCE (e, FALSE))] that the SMO templates produce: negation
    and syntactic truth and falsity. {!Analysis.Symbolic} uses them to
    merge complementary guards and to drop decided ones while it chases a
    rule set over a canonical instance. *)

module Sql = Minidb.Sql_ast
module Value = Minidb.Value

(* the closed-world negation wrapper used by the SMO templates *)
let neg_cond (e : Sql.expr) : Sql.expr =
  match e with
  | Sql.Unop (Sql.Not, Sql.Fun ("COALESCE", [ inner; Sql.Const (Value.Bool false) ]))
    ->
    inner
  | _ ->
    Sql.Unop (Sql.Not, Sql.Fun ("COALESCE", [ e; Sql.Const (Value.Bool false) ]))

let is_negation_pair a b = neg_cond a = b || neg_cond b = a

(* fold a comparison of two literal constants; [None] when the comparison
   involves NULL or mixes types (the engine's coercion rules stay in charge
   there) *)
let fold_const_cmp op (a : Value.t) (b : Value.t) =
  let cmp =
    match a, b with
    | Value.Int x, Value.Int y -> Some (compare x y)
    | Value.Real x, Value.Real y -> Some (compare x y)
    | Value.Text x, Value.Text y -> Some (compare x y)
    | Value.Bool x, Value.Bool y -> Some (compare x y)
    | _ -> None
  in
  match cmp with
  | None -> None
  | Some c ->
    (match op with
    | Sql.Eq -> Some (c = 0)
    | Sql.Neq -> Some (c <> 0)
    | Sql.Lt -> Some (c < 0)
    | Sql.Le -> Some (c <= 0)
    | Sql.Gt -> Some (c > 0)
    | Sql.Ge -> Some (c >= 0)
    | _ -> None)

(** Condition that is syntactically never true. *)
let rec definitely_false (e : Sql.expr) =
  match e with
  | Sql.Const (Value.Bool false) | Sql.Const Value.Null -> true
  | Sql.Is_null (Sql.Const Value.Null, true) -> true
  | Sql.Is_null (Sql.Const c, false) when c <> Value.Null -> true
  | Sql.Binop (Sql.And, a, b) -> definitely_false a || definitely_false b
  | Sql.Binop (Sql.Or, a, b) -> definitely_false a && definitely_false b
  | Sql.Binop (op, Sql.Const a, Sql.Const b) ->
    fold_const_cmp op a b = Some false
  | Sql.Unop (Sql.Not, Sql.Fun ("COALESCE", [ inner; Sql.Const (Value.Bool false) ]))
    ->
    definitely_true inner
  | _ -> false

and definitely_true (e : Sql.expr) =
  match e with
  | Sql.Const (Value.Bool true) -> true
  | Sql.Is_null (Sql.Const Value.Null, false) -> true
  | Sql.Is_null (Sql.Const _, true) -> true
  | Sql.Binop (op, Sql.Const a, Sql.Const b) when fold_const_cmp op a b = Some true
    ->
    true
  (* nullsafe_eq x x always holds (unlike plain x = x under three-valued
     logic) *)
  | Sql.Binop
      ( Sql.Or,
        Sql.Binop (Sql.Eq, a, b),
        Sql.Binop (Sql.And, Sql.Is_null (a', false), Sql.Is_null (b', false)) )
    when a = b && a' = a && b' = b ->
    true
  | Sql.Binop (Sql.And, a, b) -> definitely_true a && definitely_true b
  | Sql.Binop (Sql.Or, a, b) -> definitely_true a || definitely_true b
  | _ -> false
