(** Proving the bidirectionality laws — GetPut (condition 27) and PutGet
    (condition 26) — for SMO instances, and deciding semantic equivalence
    of Datalog programs (the mutation harness classifies lawful-but-different
    mutants with it).

    This is the one prover of the reproduction. Two engines cooperate (see
    {!Symbolic}); for the laws, both run {!Bidel.Verify.roundtrip}:

    - the {e chase} evaluates both round trips on canonical instances with
      labeled nulls and accepts only when the result is exactly the identity
      — a proof valid for every instance;
    - the {e grounded sweep} exhausts the abstract small-model family
      derived from the rule sets (NULLs, condition constants with boundary
      neighbours, key values, fresh values) through the concrete evaluator.

    A law is [Proved] if either engine succeeds, [Refuted] with a minimized
    concrete counterexample if the sweep finds a violating instance, and
    [Unknown] when the chase is inconclusive and the sweep exceeds its
    budget. Verdicts are memoized by a digest of the rule sets, so repeated
    verification of structurally identical SMOs (the common case across
    versions and tests) is free. *)

module D = Datalog.Ast
module Value = Minidb.Value
module S = Bidel.Smo_semantics
module BV = Bidel.Verify
module Sym = Symbolic

(* --- verdicts -------------------------------------------------------------------- *)

type law = BV.law = GetPut | PutGet

let law_name = function GetPut -> "GetPut" | PutGet -> "PutGet"

type counterexample = {
  cx_label : string;  (** which law or property failed *)
  cx_data : Sym.concrete;  (** the minimized violating instance *)
  cx_report : string;  (** expected-vs-actual rendering *)
}

type verdict =
  | Proved of string  (** the method that established the proof *)
  | Refuted of counterexample
  | Unknown of string  (** why neither engine could decide *)

let verdict_ok = function Proved _ -> true | Refuted _ | Unknown _ -> false

let verdict_to_string = function
  | Proved m -> Fmt.str "proved (%s)" m
  | Refuted cx ->
    Fmt.str "refuted by %s" (Sym.concrete_to_string cx.cx_data)
  | Unknown why -> Fmt.str "unknown (%s)" why

type law_report = { lr_getput : verdict; lr_putget : verdict }

let report_ok r = verdict_ok r.lr_getput && verdict_ok r.lr_putget

(* --- the chase fast path ---------------------------------------------------------- *)

let rel_schema rels =
  List.map (fun (r : S.rel) -> (r.S.rel_name, List.length r.S.rel_cols)) rels

(* The symbolic round trip: one canonical row per data relation, over every
   presence shape (any subset of relations empty) so negations are exercised
   both ways; every data table must chase back to exactly its unguarded
   canonical tuples. *)
let chase_law (inst : S.instance) law =
  let data_rels, _, second = BV.law_side inst law in
  (* only lens-mediated relations round-trip: a data table no rule of the
     way-back program derives is stored physically on both sides (CREATE
     TABLE's target, DROP TABLE's absent side) and the law is vacuous for
     it *)
  let mediated = D.head_preds second in
  let compared = List.filter (fun (r : S.rel) -> List.mem r.S.rel_name mediated) data_rels in
  let schema = rel_schema data_rels in
  let compared_schema = rel_schema compared in
  let shapes = Sym.subsets schema in
  let st = Sym.make_state () in
  let ok_shape shape =
    let start =
      List.map
        (fun (name, arity) ->
          if List.mem_assoc name shape then (name, [ Sym.fresh_row st arity ])
          else (name, []))
        schema
    in
    let back = BV.roundtrip ~eval:(Sym.chase st) inst law start in
    List.for_all
      (fun (name, _) ->
        Sym.ctuples_identical (List.assoc name back) (List.assoc name start))
      compared_schema
  in
  (List.for_all ok_shape shapes, List.length shapes)

(* --- the grounded sweep ------------------------------------------------------------ *)

(* skolem functions referenced by an instance's rules (identifier generation
   lives in the backfill and gamma assignments) *)
let skolem_functions (inst : S.instance) =
  let out = ref [] in
  let rec scan (e : Minidb.Sql_ast.expr) =
    match e with
    | Fun (fn, args) ->
      if String.length fn >= 3 && String.sub fn 0 3 = "sk!" then
        out := fn :: !out;
      List.iter scan args
    | Unop (_, a) | Is_null (a, _) -> scan a
    | Binop (_, a, b) ->
      scan a;
      scan b
    | Case (arms, d) ->
      List.iter
        (fun (c, v) ->
          scan c;
          scan v)
        arms;
      Option.iter scan d
    | In_list (a, items, _) ->
      scan a;
      List.iter scan items
    | Col _ | Const _ | Param _ | Exists _ | In_query _ | Scalar _ -> ()
  in
  List.iter
    (fun (r : D.rule) ->
      List.iter
        (function D.Cond e | D.Assign (_, e) -> scan e | _ -> ())
        r.D.body)
    (inst.S.backfill @ inst.S.gamma_src @ inst.S.gamma_tgt);
  List.sort_uniq compare !out

let law_engine (inst : S.instance) =
  let engine = Minidb.Database.create () in
  let counter = ref 1_000_000 in
  List.iter (fun f -> BV.register_skolem engine ~counter f) (skolem_functions inst);
  engine

(* Inclusion dependencies implied by the program that reads the enumerated
   data: a non-key field of one data relation equi-joined (through a shared
   rule variable) with the key position of another data relation must
   reference an existing partner row or be NULL. States violating them are
   outside the system's reachable set — linkage values are generated, never
   free — and the seed's own property tests make the same "referentially
   consistent data" restriction for the FK-linked SMOs. *)
let inclusion_constraints ~(schema : (string * int) list) (reader : D.t) :
    (string * int * string) list =
  let names = List.map fst schema in
  let out = ref [] in
  List.iter
    (fun (r : D.rule) ->
      let atoms =
        List.filter_map (function D.Pos a -> Some a | _ -> None) r.D.body
      in
      List.iter
        (fun (a : D.atom) ->
          if List.mem a.D.pred names then
            List.iteri
              (fun i arg ->
                match arg with
                | D.Var x when i >= 1 ->
                  List.iter
                    (fun (b : D.atom) ->
                      if b != a && b.D.pred <> a.D.pred && List.mem b.D.pred names
                      then
                        match b.D.args with
                        | D.Var y :: _ when y = x ->
                          let c = (a.D.pred, i, b.D.pred) in
                          if not (List.mem c !out) then out := c :: !out
                        | _ -> ())
                    atoms
                | _ -> ())
              a.D.args)
        atoms)
    reader;
  List.rev !out

(* Reachable-state side conditions. Keys are never NULL (the standing
   assumption behind Lemma 5 — every sweep-enumerated state satisfies this,
   but minimization must not shrink out of the family). Linkage values
   reference an existing partner row or are NULL. And the referenced
   relation's keys are surrogate identifiers the backfill generates through
   skolem functions, so they never collide with the referencing relation's
   own keys — γ_tgt's [p <> fk] guards encode exactly that freshness. *)
let consistent ~(schema : (string * int) list) constraints
    (data : Sym.concrete) =
  let rows n = Option.value (List.assoc_opt n data) ~default:[] in
  List.for_all
    (fun (n, _) ->
      List.for_all
        (fun row -> Array.length row = 0 || row.(0) <> Value.Null)
        (rows n))
    schema
  && List.for_all
       (fun (an, i, bn) ->
         List.for_all
           (fun row ->
             (Array.length row <= i
             || row.(i) = Value.Null
             || List.exists
                  (fun brow -> Array.length brow > 0 && brow.(0) = row.(i))
                  (rows bn))
             && (Array.length row = 0
                || not
                     (List.exists
                        (fun brow ->
                          Array.length brow > 0 && brow.(0) = row.(0))
                        (rows bn))))
           (rows an))
       constraints

let sweep_law ~max_instances (inst : S.instance) law =
  let data_rels, first, second = BV.law_side inst law in
  let reader = first @ inst.S.backfill in
  let schema = rel_schema data_rels in
  let programs = [ inst.S.gamma_src; inst.S.gamma_tgt; inst.S.backfill ] in
  (* one engine for the whole sweep: the skolem memo is deterministic in its
     arguments, so reuse across instances is sound and saves re-registration *)
  let engine = law_engine inst in
  (* only lens-mediated relations are compared (see {!chase_law}) *)
  let mediated =
    let heads = D.head_preds second in
    List.filter (fun (n, _) -> List.mem n heads) schema |> List.map fst
  in
  (* the omega convention (DESIGN §5): the outer-join / decompose templates
     cannot represent a row whose payload is entirely NULL — it pads missing
     partners with exactly that row — so such a row counts as absent on both
     sides of the comparison *)
  let omega data =
    List.map
      (fun (n, rows) ->
        ( n,
          List.filter
            (fun row ->
              let len = Array.length row in
              len <= 1
              ||
              let rec live i = i < len && (row.(i) <> Value.Null || live (i + 1)) in
              live 1)
            rows ))
      data
  in
  let proj data = omega (List.filter (fun (n, _) -> List.mem n mediated) data) in
  let ok (r : BV.report) = BV.equal_data (proj r.BV.expected) (proj r.BV.actual) in
  let constraints = inclusion_constraints ~schema reader in
  let check data =
    (not (consistent ~schema constraints data))
    ||
    (* the engine is dynamically typed per value: a candidate instance can
       feed an INTEGER into a TEXT comparison and raise, which only means
       this instance is not type-consistent with the SMO's conditions —
       skip it, like any other unreachable state *)
    match ok (BV.check ~engine inst law data) with
    | r -> r
    | exception Minidb.Value.Type_error _ -> true
  in
  match Sym.sweep ~schema ~programs ~max_instances ~check () with
  | Sym.Swept n ->
    let exhaustive = Sym.finite_fragment (List.concat programs) in
    if exhaustive then
      Proved
        (Fmt.str "grounded chase, %d instances%s" n
           (if constraints = [] then ""
            else ", referentially consistent states"))
    else
      Unknown
        (Fmt.str
           "conditions outside the finite fragment (%d instances checked, no violation)"
           n)
  | Sym.Budget n ->
    Unknown (Fmt.str "grounding family too large (%d instances > budget %d)" n max_instances)
  | Sym.Counterexample cx ->
    let cx = Sym.minimize ~check cx in
    Refuted
      {
        cx_label = law_name law;
        cx_data = cx;
        cx_report = BV.report_to_string (BV.check ~engine inst law cx);
      }
  | exception e ->
    Unknown (Fmt.str "evaluation error during sweep (%s)" (Printexc.to_string e))

(* --- memoized law checking ---------------------------------------------------------- *)

(* Every question this module decides is answered once per structure: the
   question is digested, so structurally identical ones (the common case
   across versions, regenerations and tests) share one verdict. *)
let memoized tbl question decide =
  let key = Digest.string (Marshal.to_string question []) in
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = decide () in
    Hashtbl.replace tbl key v;
    v

let law_memo : (Digest.t, verdict) Hashtbl.t = Hashtbl.create 64

(** Verify one law of one SMO instance: symbolic chase first, grounded sweep
    where the chase cannot close the round trip. *)
let check_law ?(max_instances = 20_000) (inst : S.instance) law =
  memoized law_memo
    ( law_name law,
      inst.S.gamma_src,
      inst.S.gamma_tgt,
      inst.S.backfill,
      inst.S.state_updates,
      rel_schema inst.S.sources,
      rel_schema inst.S.targets,
      rel_schema inst.S.aux_src,
      rel_schema inst.S.aux_tgt,
      rel_schema inst.S.aux_both )
    (fun () ->
      match chase_law inst law with
      | true, shapes ->
        Proved (Fmt.str "symbolic chase, %d canonical shapes" shapes)
      | false, _ -> sweep_law ~max_instances inst law
      | exception _ -> sweep_law ~max_instances inst law)

let check_instance ?max_instances (inst : S.instance) =
  {
    lr_getput = check_law ?max_instances inst GetPut;
    lr_putget = check_law ?max_instances inst PutGet;
  }

(* --- program equivalence (the composition gate, the mutation harness) ------------------ *)

let equivalent_on_uncached ~max_instances ~(schema : (string * int) list)
    ~(outputs : string list) ~(reference : D.t) ~(candidate : D.t) () :
    verdict =
  let label = "program-equivalence" in
  let fast () =
    let st = Sym.make_state () in
    let shapes = Sym.subsets schema in
    List.for_all
      (fun shape ->
        let start =
          List.map
            (fun (name, arity) ->
              if List.mem_assoc name shape then
                (name, [ Sym.fresh_row st arity ])
              else (name, []))
            schema
        in
        let o1 = Sym.chase st reference start in
        let o2 = Sym.chase st candidate start in
        List.for_all
          (fun p ->
            Sym.ctuples_equivalent
              (Option.value (List.assoc_opt p o1) ~default:[])
              (Option.value (List.assoc_opt p o2) ~default:[]))
          outputs)
      shapes
  in
  match fast () with
  | true -> Proved "symbolic chase, canonical instances"
  | false | (exception _) -> (
    let engine = Minidb.Database.create () in
    let get p out = Option.value (List.assoc_opt p out) ~default:[] in
    let check data =
      let o1 = Datalog.Eval.eval ~engine reference data in
      let o2 = Datalog.Eval.eval ~engine candidate data in
      List.for_all
        (fun p -> Datalog.Eval.same_tuples (get p o1) (get p o2))
        outputs
    in
    match
      Sym.sweep ~schema ~programs:[ reference; candidate ] ~max_instances
        ~check ()
    with
    | Sym.Swept n ->
      if Sym.finite_fragment (reference @ candidate) then
        Proved (Fmt.str "grounded chase, %d instances" n)
      else
        Unknown
          (Fmt.str "conditions outside the finite fragment (%d instances checked)" n)
    | Sym.Budget n ->
      Unknown
        (Fmt.str "grounding family too large (%d instances > budget %d)" n
           max_instances)
    | Sym.Counterexample cx ->
      let cx = Sym.minimize ~check cx in
      Refuted { cx_label = label; cx_data = cx; cx_report = "" }
    | exception _ -> Unknown "evaluation error during sweep")

let eq_memo : (Digest.t, verdict) Hashtbl.t = Hashtbl.create 64

(** Are [reference] and [candidate] equivalent on the [outputs] predicates
    for every database over [schema]? Chase both on canonical instances
    first; sweep the grounded family when the symbolic comparison is not
    syntactically exact. Verdicts are memoized by a digest of the question,
    like the law verdicts. *)
let equivalent_on ?(max_instances = 20_000) ~(schema : (string * int) list)
    ~(outputs : string list) ~(reference : D.t) ~(candidate : D.t) () :
    verdict =
  memoized eq_memo (max_instances, schema, outputs, reference, candidate)
    (fun () ->
      equivalent_on_uncached ~max_instances ~schema ~outputs ~reference
        ~candidate ())

(* --- the mutation harness -------------------------------------------------------------- *)

(** One corrupted copy of an instance: a single atom of one γ rule set
    flipped, dropped, argument-swapped, or retargeted. *)
type mutation = { m_label : string; m_inst : S.instance }

type fate =
  | Killed_by_law of string  (** a law verdict rejected the mutant *)
  | Killed_by_safety of string  (** the rule analyzer rejected it outright *)
  | Killed_by_divergence of string
      (** both laws hold but the mutant provably maps differently from the
          original — a lawful lens, just not this one; the equivalence check
          detected it *)
  | Equivalent of string  (** provably the same mapping as the original *)
  | Survived of string  (** undetected: a verifier gap *)

let fate_to_string = function
  | Killed_by_law s -> Fmt.str "killed (%s)" s
  | Killed_by_safety s -> Fmt.str "rejected by analyzer (%s)" s
  | Killed_by_divergence s -> Fmt.str "killed by divergence (%s)" s
  | Equivalent s -> Fmt.str "equivalent mutant (%s)" s
  | Survived s -> Fmt.str "SURVIVED (%s)" s

let all_rels (inst : S.instance) =
  inst.S.sources @ inst.S.targets @ inst.S.aux_src @ inst.S.aux_tgt
  @ inst.S.aux_both

(* every single-atom corruption of one rule set *)
let mutate_rules ~(arity_of : string -> int option) (rules : D.rule list) :
    (string * D.rule list) list =
  let out = ref [] in
  List.iteri
    (fun ri (r : D.rule) ->
      let lits = r.D.body in
      List.iteri
        (fun li lit ->
          let replace_with variants =
            List.iter
              (fun (tag, lit') ->
                let body' =
                  List.concat
                    (List.mapi
                       (fun i l ->
                         if i = li then
                           match lit' with Some l' -> [ l' ] | None -> []
                         else [ l ])
                       lits)
                in
                let r' = { r with D.body = body' } in
                if r' <> r then
                  out :=
                    ( Fmt.str "rule %d atom %d: %s" ri li tag,
                      List.mapi (fun i x -> if i = ri then r' else x) rules )
                    :: !out)
              variants
          in
          match lit with
          | D.Pos a ->
            let swapped =
              match a.D.args with
              | x :: y :: rest when x <> y ->
                [ ("swap first args", Some (D.Pos { a with D.args = y :: x :: rest })) ]
              | _ -> []
            in
            let retargeted =
              match
                List.find_opt
                  (fun (q, n) ->
                    q <> a.D.pred && n = List.length a.D.args)
                  (List.filter_map
                     (fun q ->
                       match arity_of q with Some n -> Some (q, n) | None -> None)
                     (List.sort_uniq compare (D.body_preds rules)))
              with
              | Some (q, _) ->
                [ (Fmt.str "retarget to %s" q, Some (D.Pos { a with D.pred = q })) ]
              | None -> []
            in
            replace_with
              ([ ("flip to negation", Some (D.Neg a)); ("drop atom", None) ]
              @ swapped @ retargeted)
          | D.Neg a ->
            replace_with [ ("flip to positive", Some (D.Pos a)); ("drop atom", None) ]
          | D.Cond _ | D.Assign _ -> ())
        lits)
    rules;
  List.rev !out

let mutations (inst : S.instance) : mutation list =
  let rels = all_rels inst in
  let arity_of q =
    List.find_opt (fun (r : S.rel) -> r.S.rel_name = q) rels
    |> Option.map (fun (r : S.rel) -> List.length r.S.rel_cols)
  in
  let side name rules rebuild =
    List.map
      (fun (tag, rules') ->
        { m_label = Fmt.str "%s %s" name tag; m_inst = rebuild rules' })
      (mutate_rules ~arity_of rules)
  in
  side "gamma_tgt" inst.S.gamma_tgt (fun rs -> { inst with S.gamma_tgt = rs })
  @ side "gamma_src" inst.S.gamma_src (fun rs -> { inst with S.gamma_src = rs })

(* the mutated side's inputs and outputs, for the equivalence tiebreak *)
let mutant_side_io (orig : S.instance) (m : S.instance) =
  if m.S.gamma_tgt != orig.S.gamma_tgt then
    ( rel_schema (orig.S.sources @ orig.S.aux_src @ orig.S.aux_both),
      List.sort_uniq compare (D.head_preds orig.S.gamma_tgt),
      orig.S.gamma_tgt,
      m.S.gamma_tgt )
  else
    ( rel_schema (orig.S.targets @ orig.S.aux_tgt @ orig.S.aux_both),
      List.sort_uniq compare (D.head_preds orig.S.gamma_src),
      orig.S.gamma_src,
      m.S.gamma_src )

let classify ?max_instances (orig : S.instance) (m : mutation) : fate =
  let edb = List.map (fun (r : S.rel) -> r.S.rel_name) (all_rels orig) in
  (* each γ set is checked on its own — together they are mutually recursive
     by construction (sources from targets and back) *)
  let _, _, _, mutated_side = mutant_side_io orig m.m_inst in
  let safety = Rule_check.check_rules ~edb mutated_side in
  match List.filter Diagnostic.is_error safety with
  | d :: _ -> Killed_by_safety (Diagnostic.to_string d)
  | [] -> (
    let rep = check_instance ?max_instances m.m_inst in
    match (rep.lr_getput, rep.lr_putget) with
    | Proved _, Proved _ -> (
      (* both laws hold: reject unless the mutant provably implements the
         same mapping as the original *)
      let schema, outputs, reference, candidate = mutant_side_io orig m.m_inst in
      match equivalent_on ?max_instances ~schema ~outputs ~reference ~candidate () with
      | Proved how -> Equivalent how
      | Refuted cx ->
        Killed_by_divergence
          (Fmt.str "laws prove but the mapping differs on %s"
             (Sym.concrete_to_string cx.cx_data))
      | Unknown why -> Survived (Fmt.str "laws prove, equivalence undecided: %s" why))
    | (Refuted cx, _ | _, Refuted cx) ->
      Killed_by_law (Fmt.str "%s refuted" cx.cx_label)
    | (Unknown why, _ | _, Unknown why) ->
      Killed_by_law (Fmt.str "law not provable: %s" why))

type mutation_report = {
  mr_total : int;
  mr_killed_by_law : int;
  mr_killed_by_safety : int;
  mr_killed_by_divergence : int;
  mr_equivalent : int;
  mr_survivors : string list;  (** labels of undetected mutants *)
}

(** Run the whole harness over one instance: every single-atom corruption of
    either γ rule set must be rejected (by the law checker or the analyzer)
    or proven equivalent to the original. Survivors indicate prover gaps. *)
let mutation_test ?max_instances (inst : S.instance) : mutation_report =
  let fates =
    List.map
      (fun m -> (m.m_label, classify ?max_instances inst m))
      (mutations inst)
  in
  {
    mr_total = List.length fates;
    mr_killed_by_law =
      List.length
        (List.filter (function _, Killed_by_law _ -> true | _ -> false) fates);
    mr_killed_by_safety =
      List.length
        (List.filter
           (function _, Killed_by_safety _ -> true | _ -> false)
           fates);
    mr_killed_by_divergence =
      List.length
        (List.filter
           (function _, Killed_by_divergence _ -> true | _ -> false)
           fates);
    mr_equivalent =
      List.length
        (List.filter (function _, Equivalent _ -> true | _ -> false) fates);
    mr_survivors =
      List.filter_map
        (function
          | label, Survived why -> Some (Fmt.str "%s: %s" label why)
          | _ -> None)
        fates;
  }

(* --- diagnostics bridge ------------------------------------------------------------------ *)

(** VRF001 (error): a lens law is refuted — the SMO's parameters lose
    information. VRF004 (warning): a law could not be decided within
    budget. *)
let law_diagnostics ?context ?max_instances (inst : S.instance) :
    Diagnostic.t list =
  let rep = check_instance ?max_instances inst in
  let diag law = function
    | Proved _ -> []
    | Refuted cx ->
      [
        Diagnostic.error "VRF001" ?context
          "%s law refuted — the SMO parameters lose information; counterexample: %s"
          (law_name law)
          (Sym.concrete_to_string cx.cx_data);
      ]
    | Unknown why ->
      [
        Diagnostic.warning "VRF004" ?context "%s law not provable: %s"
          (law_name law) why;
      ]
  in
  diag GetPut rep.lr_getput @ diag PutGet rep.lr_putget
