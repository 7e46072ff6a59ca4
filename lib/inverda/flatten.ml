(** Path composition for co-materialized copies: the single-hop program
    that defines a table version directly over stored tables.

    A table version at genealogy distance k from its materialized sources is
    read through a k-layer stack of generated views (each SMO contributes
    one hop). This pass composes the per-SMO γ rule sets along the genealogy
    path with {!Datalog.Simplify.compose} — both polarities, auxiliary
    relations included — runs the lemma fixpoint, and, when the result
    passes the analyzer's Datalog safety and stratification checks and the
    verifier's equivalence gate, hands {!Comat} a {e single-hop} rule set
    over the physical tables to derive per-write delta rules from. Anything
    that does not compose cleanly (impure functions, rule-set blow-up, a
    safety error) is reported with its reason; the copy then falls back to
    full refresh.

    The composed rules are variable-canonicalized, so re-deriving a copy's
    program yields the same rules. *)

module G = Genealogy
module S = Bidel.Smo_semantics
module D = Datalog.Ast
module Simplify = Datalog.Simplify

(* Guards against composition blow-up: a composed program beyond these
   bounds would be slower to evaluate per write than a full refresh —
   unless the verifier proves the composition equivalent to the stack, in
   which case the relaxed ceilings apply (the proof replaces the syntactic
   heuristic; beyond the hard ceiling even a proved composition is
   refused). *)
let max_rules = 64
let max_literals = 512
let max_rules_proved = 4 * max_rules
let max_literals_proved = 4 * max_literals

(* budget for the equivalence sweep behind the proof-backed gate: composed
   programs read a handful of physical relations, so their grounded
   families are small; anything larger stays with the syntactic verdict *)
let proof_budget = 4_096

(* Functions whose calls may appear inside a composed (re-evaluable)
   program. Mirrors the executor's pure builtins; skolem functions and
   NEXTVAL are deliberately absent — identifier generation must never be
   re-run by copy maintenance. *)
let pure_functions = [ "coalesce"; "nullif"; "abs"; "length"; "upper"; "lower" ]

let impure_function rules =
  let found = ref None in
  let rec scan (e : Minidb.Sql_ast.expr) =
    match e with
    | Fun (fn, args) ->
      if not (List.mem (String.lowercase_ascii fn) pure_functions) then
        (match !found with None -> found := Some fn | Some _ -> ());
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
    rules;
  !found

(** Outcome of composing one generated relation's definition. *)
type outcome =
  | F_physical  (** a data table backs it; nothing to compose *)
  | F_single  (** already single-hop: the layered body reads physical tables *)
  | F_flat of D.rule list * string
      (** path-composed, simplified, canonical single-hop rules, and how
          their acceptance was justified (equivalence proof from the
          verifier, or the syntactic gates when the proof was undecided) *)
  | F_fallback of string  (** why no single-hop program exists *)

(* --- one-hop definitions ----------------------------------------------------- *)

(* How a generated relation is defined right now, mirroring the case analysis
   of {!Codegen.generate_tv} / {!Codegen.generate_aux_views} (and hence
   {!Viewcache.closure}). *)
type def =
  | Physical  (** a data table or physical auxiliary backs it *)
  | Derived of D.rule list  (** the one-hop defining rules *)
  | Foreign  (** not a relation this genealogy generates *)

(* name -> def over the whole genealogy, as one lookup table *)
let definitions (gen : G.t) =
  let defs : (string, def) Hashtbl.t = Hashtbl.create 64 in
  (* table versions *)
  List.iter
    (fun (v : G.table_version) ->
      let name = G.tv_name v in
      let d =
        (* A co-materialized table version is physically backed by its copy
           table: paths through it re-anchor at the copy instead of composing
           on towards the original materialization root. *)
        if G.is_comat gen v.G.tv_id then Physical
        else
        match G.access_case gen v with
        | G.Local -> Physical
        | G.Forwards o ->
          Derived
            (List.filter
               (fun (r : D.rule) -> r.D.head.D.pred = name)
               (G.smo gen o).G.si_inst.S.gamma_src)
        | G.Backwards i ->
          Derived
            (List.filter
               (fun (r : D.rule) -> r.D.head.D.pred = name)
               (G.smo gen i).G.si_inst.S.gamma_tgt)
      in
      Hashtbl.replace defs name d)
    (G.all_table_versions gen);
  (* auxiliary relations *)
  List.iter
    (fun (si : G.smo_instance) ->
      let i = si.G.si_inst in
      let physical, derived, rules =
        if si.G.si_materialized then
          (i.S.aux_tgt, i.S.aux_src, i.S.gamma_src)
        else (i.S.aux_src, i.S.aux_tgt, i.S.gamma_tgt)
      in
      List.iter
        (fun (r : S.rel) -> Hashtbl.replace defs r.S.rel_name Physical)
        (physical @ i.S.aux_both);
      List.iter
        (fun (r : S.rel) ->
          let mine =
            List.filter
              (fun (rl : D.rule) -> rl.D.head.D.pred = r.S.rel_name)
              rules
          in
          Hashtbl.replace defs r.S.rel_name (Derived mine))
        derived)
    (G.all_smos gen);
  fun name -> Option.value (Hashtbl.find_opt defs name) ~default:Foreign

(* --- the composition pass ----------------------------------------------------- *)

let body_refs (rules : D.rule list) =
  List.sort_uniq compare (D.body_preds rules)

let rule_set_size (rules : D.rule list) =
  List.fold_left (fun n (r : D.rule) -> n + 1 + List.length r.D.body) 0 rules

(** The composition outcome for every generated relation of [gen]. Returns
    a lookup by relation name, computed on demand; names the genealogy does
    not generate map to {!F_physical}. *)
let plan (gen : G.t) : string -> outcome =
  let def_of = definitions gen in
  let memo : (string, outcome) Hashtbl.t = Hashtbl.create 64 in
  let derived q = match def_of q with Derived _ -> true | _ -> false in
  (* the layered stack a composed rule set replaces: the one-hop definition
     plus, transitively, the one-hop definitions of everything it reads *)
  let layered_program rules =
    let seen = Hashtbl.create 8 in
    let acc = ref [] in
    let rec go rs =
      acc := !acc @ rs;
      List.iter
        (fun q ->
          if not (Hashtbl.mem seen q) then begin
            Hashtbl.replace seen q ();
            match def_of q with Derived qrs -> go qrs | _ -> ()
          end)
        (body_refs rs)
    in
    go rules;
    !acc
  in
  (* arities of the physical relations a program reads, for the verifier's
     grounded sweep *)
  let physical_schema prog =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (r : D.rule) ->
        List.iter
          (function
            | D.Pos a | D.Neg a ->
              if not (derived a.D.pred) then
                Hashtbl.replace tbl a.D.pred (List.length a.D.args)
            | D.Cond _ | D.Assign _ -> ())
          r.D.body)
      prog;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  (* Proof-backed acceptance. The verifier compares the composed rules
     against the layered stack they replace: a proof certifies the
     composition (and lifts the syntactic size bounds), a refutation is a
     composition bug and refuses it, an undecided verdict falls back to the
     syntactic gates. *)
  let accept ~name ~one_hop ~oversize canon =
    let reference = layered_program one_hop in
    let schema = physical_schema (reference @ canon) in
    match
      Analysis.Verify.equivalent_on ~max_instances:proof_budget ~schema
        ~outputs:[ name ] ~reference ~candidate:canon ()
    with
    | Analysis.Verify.Refuted cx ->
      F_fallback
        (Fmt.str "composed rules diverge from the layered stack on %s"
           (Analysis.Symbolic.concrete_to_string cx.Analysis.Verify.cx_data))
    | Analysis.Verify.Proved how ->
      F_flat (canon, Fmt.str "equivalence proved (%s)" how)
    | Analysis.Verify.Unknown why ->
      if oversize then
        F_fallback
          (Fmt.str
             "composed rule set too large (%d rules, %d literals) and equivalence undecided (%s)"
             (List.length canon) (rule_set_size canon) why)
      else
        F_flat (canon, Fmt.str "syntactic gates (equivalence undecided: %s)" why)
  in
  (* the gates a fully composed rule set must pass *)
  let gates ~name ~one_hop composed =
    let oversize =
      List.length composed > max_rules || rule_set_size composed > max_literals
    in
    if
      List.length composed > max_rules_proved
      || rule_set_size composed > max_literals_proved
    then
      F_fallback
        (Fmt.str "composed rule set too large (%d rules, %d literals)"
           (List.length composed) (rule_set_size composed))
    else
      match impure_function composed with
      | Some fn ->
        F_fallback (Fmt.str "composition introduces impure function %s" fn)
      | None -> (
        (* every reference must have bottomed out at a physical relation *)
        match List.filter derived (body_refs composed) with
        | _ :: _ as residual ->
          F_fallback
            (Fmt.str "residual derived reference %s"
               (String.concat ", " residual))
        | [] -> (
          (* the analyzer's safety gate: range restriction, safe
             negation/assignment, arities, stratification *)
          let diags =
            Analysis.check_rules ~edb:(body_refs composed)
              ~context:(Fmt.str "composed program %s" name)
              composed
          in
          match List.filter Analysis.Diagnostic.is_error diags with
          | d :: _ ->
            F_fallback
              (Fmt.str "safety gate: %s" (Analysis.Diagnostic.to_string d))
          | [] ->
            accept ~name ~one_hop ~oversize
              (Simplify.canonicalize_rules composed)))
  in
  let rec outcome name visiting =
    match Hashtbl.find_opt memo name with
    | Some o -> o
    | None ->
      let o = compute name visiting in
      Hashtbl.replace memo name o;
      o
  and compute name visiting =
    match def_of name with
    | Physical | Foreign -> F_physical
    | Derived _ when List.mem name visiting ->
      (* the genealogy is a DAG and definitions point towards the
         materialization frontier, so this is defensive only *)
      F_fallback "cyclic definition"
    | Derived rules -> (
      match impure_function rules with
      | Some fn -> F_fallback (Fmt.str "calls impure function %s" fn)
      | None -> (
        match List.filter derived (body_refs rules) with
        | [] ->
          (* distance <= 1: the layered body already reads physical
             relations only *)
          F_single
        | derived_refs -> (
          (* compose each derived reference's composed definition in *)
          let compose_ref acc q =
            Result.bind acc (fun rules ->
                let inner =
                  match (outcome q (name :: visiting), def_of q) with
                  | F_single, Derived one_hop -> Ok one_hop
                  | F_flat (composed, _), _ -> Ok composed
                  | F_fallback why, _ -> Error (Fmt.str "via %s: %s" q why)
                  | _ -> Error (Fmt.str "via %s: not composable" q)
                in
                Result.map
                  (fun inner -> Simplify.compose ~derived:[ q ] ~inner rules)
                  inner)
          in
          match List.fold_left compose_ref (Ok rules) derived_refs with
          | Error why -> F_fallback why
          | Ok composed -> gates ~name ~one_hop:rules composed)))
  in
  fun name -> outcome name []
