(** Symbolic rule-set simplification: the five lemmas of Section 5 of the
    paper plus subsumption, used to compose γ rule sets along genealogy
    paths into a co-materialized copy's program ([Inverda.Flatten]). The
    machinery relies on the paper's standing
    assumptions: the first argument of every atom is the unique key
    (Lemma 5), and condition negation is the closed-world
    [NOT (COALESCE (e, FALSE))] wrapper the SMO templates produce. *)

type subst = (string * Ast.term) list

val subst_rule : subst -> Ast.rule -> Ast.rule

val freshen_rule : Ast.rule -> Ast.rule
(** Rename every variable to a globally fresh one. *)

val canonicalize_rules : Ast.rule list -> Ast.rule list
(** Rename every variable of each rule to ["$0"], ["$1"], ... in order of
    first occurrence (head, then body). Composition freshens variables off a
    global counter; canonical names make a recomposed rule set — and hence
    the SQL emitted from it — deterministic across regenerations.
    Idempotent. *)

val neg_cond : Minidb.Sql_ast.expr -> Minidb.Sql_ast.expr
(** Closed-world negation of a condition; involutive on the wrapper form. *)

val is_negation_pair : Minidb.Sql_ast.expr -> Minidb.Sql_ast.expr -> bool
(** Is one condition the {!neg_cond} of the other (either orientation)?
    Such a pair is total: one of the two holds in every database state. *)

val definitely_false : Minidb.Sql_ast.expr -> bool

val definitely_true : Minidb.Sql_ast.expr -> bool

val simplify_rule : Ast.rule -> Ast.rule option
(** Within-rule simplification: unique-key merging (Lemma 5), nullsafe
    equality unification, duplicate literals, constant conditions, dead
    assignments; [None] when the rule contains a contradiction (Lemma 4). *)

val unfold_positive :
  ?derived:string list -> defs:Ast.rule list -> Ast.rule list -> Ast.rule list
(** Lemma 1.1: replace positive literals over defined predicates by the
    defining bodies (one output rule per definition). A predicate listed in
    [derived] but defined by no rule is empty, dropping the host rule. *)

val unfold_negative :
  ?derived:string list -> defs:Ast.rule list -> Ast.rule list -> Ast.rule list
(** Lemma 1.2: expand negated literals over defined predicates into the
    alternatives under which no definition applies — sound under the
    unique-key assumption. *)

val apply_empty : empty:string list -> Ast.rule list -> Ast.rule list
(** Lemma 2. *)

val rule_equivalent : Ast.rule -> Ast.rule -> bool
(** Equality up to variable renaming and body permutation. *)

val subsumes : Ast.rule -> Ast.rule -> bool

val simplify : ?empty:string list -> Ast.rule list -> Ast.rule list
(** Fixpoint of Lemmas 2–5 (including the Appendix-A twin-merge pattern of
    Lemma 3), subsumption and deduplication. *)

val compose :
  ?empty:string list ->
  ?derived:string list ->
  inner:Ast.rule list ->
  Ast.rule list ->
  Ast.rule list
(** Unfold the outer rule set's references to the inner rule set's head
    predicates (Lemma 1 in both polarities), then {!simplify} — the
    [gamma . gamma] composition of the paper's proofs. [derived] overrides
    the set of predicates the inner rules are responsible for: a listed
    predicate with no deriving rule unfolds as empty rather than remaining a
    dangling reference (auxiliary relations whose definitions simplified
    away). *)
