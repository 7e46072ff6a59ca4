(** Datalog-to-SQL translation (Figure 7 of the paper): each rule becomes a
    SELECT — positive body atoms joined with explicit equi-join conditions
    (so the engine's hash/index join paths apply), negative atoms as
    correlated NOT EXISTS subselects, conditions and assignments substituted
    into expressions — and the rules of one head combine with UNION ALL
    (per-branch DISTINCT where a rule can self-duplicate). *)

exception Codegen_error of string

type schema_lookup = string -> string list
(** Relation name to its columns (key first). *)

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

val subst_expr :
  (string -> Minidb.Sql_ast.expr option) ->
  Minidb.Sql_ast.expr ->
  Minidb.Sql_ast.expr
(** Substitute rule variables ([Col (None, v)]) by SQL expressions; raises
    {!Codegen_error} on unbound variables. *)

val select_of_rule :
  schema_lookup -> head_cols:string list -> Datalog.Ast.rule ->
  Minidb.Sql_ast.select

val query_of_rules :
  schema_lookup ->
  pred:string ->
  Datalog.Ast.t ->
  Minidb.Sql_ast.query
(** The query computing [pred] from its rules; an empty-relation select when
    no rule derives it. Branches combine with UNION ALL, relying on the
    write path keeping the per-head branches mutually exclusive. *)
