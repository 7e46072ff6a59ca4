(** Condition helpers over the closed-world negation wrapper
    [NOT (COALESCE (e, FALSE))] that the SMO templates produce. *)

val neg_cond : Minidb.Sql_ast.expr -> Minidb.Sql_ast.expr
(** Closed-world negation of a condition; involutive on the wrapper form. *)

val is_negation_pair : Minidb.Sql_ast.expr -> Minidb.Sql_ast.expr -> bool
(** Is one condition the {!neg_cond} of the other (either orientation)?
    Such a pair is total: one of the two holds in every database state. *)

val definitely_false : Minidb.Sql_ast.expr -> bool
(** The condition is syntactically never true. *)

val definitely_true : Minidb.Sql_ast.expr -> bool
(** The condition is syntactically always true. *)
