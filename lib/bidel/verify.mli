(** The bidirectionality laws of Section 5,

    - condition (27), GetPut: [D_src = gamma_src^data (gamma_tgt (D_src))]
    - condition (26), PutGet: [D_tgt = gamma_tgt^data (gamma_src (D_tgt))]

    checked {e executably}: the mapping rule sets are evaluated on concrete
    data with the Datalog oracle. The round trip itself is generic in the
    evaluator and the tuple type; {!Analysis.Verify} runs the same round trip
    through its symbolic chase to prove the laws for every instance. *)

type data = (string * Minidb.Value.t array list) list

val register_skolem :
  Minidb.Database.t -> counter:int ref -> string -> unit
(** Register a memoized identifier-generating function (equal payloads get
    equal identifiers; the counter is never rolled back). *)

val skolem_name : string -> string
(** Standard skolem naming for stand-alone instantiations: ["sk!<kind>"]. *)

val test_engine : unit -> Minidb.Database.t
(** An engine with the standard skolems registered. *)

(** {1 The round trip} *)

type law = GetPut | PutGet

val law_side :
  Smo_semantics.instance ->
  law ->
  Smo_semantics.rel list * Datalog.Ast.t * Datalog.Ast.t
(** The data relations a law round-trips, the mapping out of their side and
    the mapping back: [(sources, gamma_tgt, gamma_src)] for GetPut,
    [(targets, gamma_src, gamma_tgt)] for PutGet. *)

val roundtrip :
  eval:(Datalog.Ast.t -> (string * 't list) list -> (string * 't list) list) ->
  Smo_semantics.instance ->
  law ->
  (string * 't list) list ->
  (string * 't list) list
(** Run [data] (the law's side) through the backfill, the mapping out — with
    the persistent pair-identifier state ([aux_both]) carried across and the
    derived state updates folded into it, mirroring InVerDa's eager
    maintenance — and the mapping back; return the law's data relations.
    Auxiliaries are left out of the result, as in the paper. *)

(** {1 Executable checks} *)

type report = { ok : bool; expected : data; actual : data }

val check :
  ?engine:Minidb.Database.t -> Smo_semantics.instance -> law -> data -> report
(** {!roundtrip} under {!Datalog.Eval.eval}, compared with the input. *)

val check_src :
  ?engine:Minidb.Database.t -> Smo_semantics.instance -> data -> report
(** Condition (27). *)

val check_tgt :
  ?engine:Minidb.Database.t -> Smo_semantics.instance -> data -> report
(** Condition (26). *)

val report_to_string : report -> string

val equal_data : data -> data -> bool
