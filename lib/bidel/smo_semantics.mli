(** Bidirectional semantics of BiDEL SMOs as Datalog rule templates
    (Section 4 and Appendix B of the paper).

    Every SMO instance is described by two mapping rule sets:
    - [gamma_tgt] derives the target side (target data tables plus
      target-side auxiliaries) from the source side, and
    - [gamma_src] derives the source side from the target side.

    Auxiliary relations capture what the basic mapping would lose: split
    twins ([R-], [R*], [S+], [S-], [S*]), dropped-column values ([B]),
    unmatched join partners, archive copies of dropped tables, and the
    identifier mappings ([ID]) of FK/condition decompositions.

    Deviations from the paper's appendix are documented in DESIGN.md §5
    (notably: identifier skolems never appear in view rules — the [ID]
    auxiliaries are kept total eagerly via [backfill] and the write triggers;
    all-NULL payloads follow the ω-convention). *)

val key : string
(** The key column every relation carries first: ["p"]. *)

type rel = { rel_name : string; rel_cols : string list }
(** A relation of the instance; the first column is the key. *)

type instance = {
  spec : Ast.smo;
  sources : rel list;  (** source-side data relations *)
  targets : rel list;  (** target-side data relations *)
  aux_src : rel list;  (** physical while the SMO is virtualized *)
  aux_tgt : rel list;  (** physical while the SMO is materialized *)
  aux_both : rel list;  (** physical in both states (pair-id tables) *)
  gamma_tgt : Datalog.Ast.t;
  gamma_src : Datalog.Ast.t;
  backfill : Datalog.Ast.t;
      (** evolution-time rules populating identifier auxiliaries for
          pre-existing source data; the only rules calling skolem functions *)
  state_updates : (string * string) list;
      (** [(new_pred, state_pred)]: the mapping derives [new_pred] as the
          updated contents of the stateful auxiliary [state_pred] *)
}

exception Semantics_error of string

val instantiate :
  smo:Ast.smo ->
  source_cols:(string -> string list) ->
  name_src:(string -> string) ->
  name_tgt:(string -> string) ->
  aux_name:(string -> string) ->
  skolem_name:(string -> string) ->
  instance
(** Instantiate the rule templates for one SMO. [source_cols] gives the
    payload columns of each source table; the naming callbacks map logical
    table names to unique relation names and auxiliary/skolem kinds to
    object names ([skolem_name] must register the function). Raises
    {!Semantics_error} on ill-formed SMOs (unknown columns, non-partitioning
    decompositions, mismatched merge schemas, a target table with a
    duplicate column or a column named like the {!key}, ...). *)

val target_table_cols :
  smo:Ast.smo -> source_cols:(string -> string list) ->
  (string * string list) list
(** Payload columns of the SMO's target tables (for catalog bookkeeping). *)

val invert_instance : Ast.smo -> instance -> instance
(** Exchange the two mapping directions (how MERGE and the JOINs are built
    from SPLIT and DECOMPOSE). *)
