(** Path composition for co-materialized copies: compose the per-SMO γ rule
    sets along the genealogy path from a table version (or derived
    auxiliary) to its stored sources with {!Datalog.Simplify.compose},
    simplify with the lemma fixpoint, and hand {!Comat} a single-hop rule
    set over the physical tables — or the reason there is none (an impure
    function, blow-up, a safety error, a refuted equivalence). Reads always
    go through the layered delta code (one view per SMO); this program only
    drives a copy's incremental maintenance. *)

type outcome =
  | F_physical  (** a data table backs it; nothing to compose *)
  | F_single  (** already single-hop: the layered body reads physical tables *)
  | F_flat of Datalog.Ast.rule list * string
      (** path-composed, simplified, canonical single-hop rules; the string
          records how the acceptance was justified (equivalence proof from
          the verifier, or the syntactic gates when the proof was
          undecided) *)
  | F_fallback of string  (** why no single-hop program exists *)

val plan : Genealogy.t -> string -> outcome
(** [plan gen] returns a lookup of the composition outcome by canonical
    relation name, computed on demand for the current catalog
    (co-materialized table versions count as stored: paths re-anchor at
    their copies). Names the genealogy does not generate map to
    {!F_physical}. *)
