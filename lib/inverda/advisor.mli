(** Workload-driven materialization advisor — the tool the paper sketches as
    "very well imaginable" in Section 8.2: given how much of the workload
    each schema version serves, score every valid materialization schema and
    recommend (or migrate to) the cheapest one. *)

type profile = (string * float) list
(** Schema version name mapped to its relative access weight. *)

type recommendation = {
  materialization : int list;  (** SMO instance ids to materialize *)
  estimated_cost : float;
  alternatives : (int list * float) list;  (** all candidates, best first *)
}

val distance : Genealogy.t -> int list -> int -> float
(** [distance gen mat tv] — propagation hops from table version [tv] to its
    data under materialization [mat], weighted by direction (backward reads
    are slightly cheaper, cf. the Figure 12 asymmetry). *)

val cost : Genealogy.t -> int list -> profile -> float
(** Expected propagation cost of a workload profile under a materialization
    schema. *)

val advise : Genealogy.t -> profile -> recommendation option
(** Score every valid materialization schema; [None] only for an empty
    catalog. An all-zero (or empty) profile yields a conservative no-op
    recommendation — the current materialization, no alternatives — instead
    of an arbitrary pick among tied candidates. *)

val advise_and_migrate : Minidb.Database.t -> Genealogy.t -> profile -> bool
(** Recommend and migrate in one step; returns whether the materialization
    changed. *)
