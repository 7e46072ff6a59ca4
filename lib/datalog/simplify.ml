(** Symbolic rule-set simplification: the five lemmas of Section 5 plus
    subsumption. [Inverda.Flatten] composes γ rule sets along genealogy
    paths with it for co-materialized copies; the test suite replays the
    paper's Appendix A derivation for SPLIT with it. Deciding whether a
    composition is the identity is {!Analysis.Verify}'s job.

    The machinery relies on the paper's standing assumptions: the first
    argument of every atom is the unique key (Lemma 5), and condition
    negation is the closed-world [NOT (COALESCE (e, FALSE))] wrapper
    introduced by the SMO templates. *)

open Ast
module Sql = Minidb.Sql_ast
module Value = Minidb.Value

(* --- substitutions ---------------------------------------------------------- *)

type subst = (string * term) list

let rec walk (s : subst) t =
  match t with
  | Var x -> (
    match List.assoc_opt x s with Some t' when t' <> t -> walk s t' | _ -> t)
  | _ -> t

let subst_term s t = walk s t

let subst_expr_term s e =
  let f v =
    match walk s (Var v) with
    | Var v' -> Some (Sql.Col (None, v'))
    | Cst c -> Some (Sql.Const c)
    | Anon -> Some (Sql.Col (None, v))
  in
  let rec go (e : Sql.expr) =
    match e with
    | Sql.Col (None, v) -> Option.value (f v) ~default:e
    | Sql.Col (Some _, _) | Sql.Const _ | Sql.Param _ -> e
    | Sql.Unop (op, a) -> Sql.Unop (op, go a)
    | Sql.Binop (op, a, b) -> Sql.Binop (op, go a, go b)
    | Sql.Is_null (a, n) -> Sql.Is_null (go a, n)
    | Sql.Fun (fn, args) -> Sql.Fun (fn, List.map go args)
    | Sql.Case (arms, d) ->
      Sql.Case (List.map (fun (c, v) -> (go c, go v)) arms, Option.map go d)
    | Sql.In_list (a, items, n) -> Sql.In_list (go a, List.map go items, n)
    | Sql.Exists _ | Sql.In_query _ | Sql.Scalar _ -> e
  in
  go e

let subst_atom s a = { a with args = List.map (subst_term s) a.args }

let subst_literal s = function
  | Pos a -> Pos (subst_atom s a)
  | Neg a -> Neg (subst_atom s a)
  | Cond e -> Cond (subst_expr_term s e)
  | Assign (x, e) -> (
    match walk s (Var x) with
    | Var x' -> Assign (x', subst_expr_term s e)
    | _ -> Assign (x, subst_expr_term s e))

let subst_rule s r =
  { head = subst_atom s r.head; body = List.map (subst_literal s) r.body }

(* --- fresh renaming ---------------------------------------------------------- *)

let fresh_counter = ref 0

let freshen_rule r =
  let vars = rule_vars r in
  let s =
    List.map
      (fun v ->
        incr fresh_counter;
        (v, Var (Fmt.str "%s~%d" v !fresh_counter)))
      vars
  in
  subst_rule s r

(** Rename every variable of each rule to ["$0"], ["$1"], ... in order of
    first occurrence (head, then body). Unfolding freshens variables off a
    global counter, so a recomposed rule set would otherwise differ textually
    between regenerations; canonical names make the emitted SQL — and hence
    {!Minidb.Database.dump} — deterministic. ["$"] never occurs in source
    column names or freshened variants thereof, so the renaming is injective
    per rule. *)
let canonicalize_rule r =
  (* [subst_rule] chases bindings transitively, so a source variable that is
     itself a ["$i"] name (an already-canonical rule) could capture; escape
     such names out of the way first *)
  let escaped v = String.length v > 0 && v.[0] = '$' in
  let r =
    match List.filter escaped (rule_vars r) with
    | [] -> r
    | vs -> subst_rule (List.map (fun v -> (v, Var ("`" ^ v))) vs) r
  in
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  let note v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      order := v :: !order
    end
  in
  List.iter note (atom_vars r.head);
  List.iter (fun l -> List.iter note (literal_vars l)) r.body;
  let s =
    List.rev !order |> List.mapi (fun i v -> (v, Var (Fmt.str "$%d" i)))
  in
  subst_rule s r

let canonicalize_rules rules = List.map canonicalize_rule rules

(* --- condition normalization -------------------------------------------------- *)

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

(* nullsafe_eq (a, b) as produced by the templates *)
let nullsafe_pair (e : Sql.expr) =
  match e with
  | Sql.Binop
      ( Sql.Or,
        Sql.Binop (Sql.Eq, Sql.Col (None, a), Sql.Col (None, b)),
        Sql.Binop
          ( Sql.And,
            Sql.Is_null (Sql.Col (None, a'), false),
            Sql.Is_null (Sql.Col (None, b'), false) ) )
    when a = a' && b = b' ->
    Some (a, b)
  | _ -> None

(* [differ_pairs e] recognizes the lists_differ template:
   NOT (COALESCE (nullsafe_eq a1 b1 AND ... AND nullsafe_eq an bn, FALSE)) *)
let differ_pairs (e : Sql.expr) =
  let inner = neg_cond e in
  if inner = e then None
  else
    let rec conjuncts (e : Sql.expr) =
      match e with
      | Sql.Binop (Sql.And, a, b) -> conjuncts a @ conjuncts b
      | e -> [ e ]
    in
    let pairs = List.map nullsafe_pair (conjuncts inner) in
    if List.for_all Option.is_some pairs then
      Some (List.map Option.get pairs)
    else None

(* --- Lemma 5 (unique key) + within-rule cleanup ------------------------------- *)

exception Contradiction

(** Merge positive atoms sharing predicate and key; returns the substitution-
    applied rule. Raises {!Contradiction} if merging equates distinct
    constants. *)
let merge_same_key r =
  let rec pass r fuel =
    if fuel = 0 then r
    else begin
      let positives =
        List.filter_map (function Pos a -> Some a | _ -> None) r.body
      in
      let merged = ref None in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if
                !merged = None && i < j && a.pred = b.pred
                && List.length a.args = List.length b.args
                && a.args <> [] && b.args <> []
                && List.hd a.args = List.hd b.args
                && List.hd a.args <> Anon
              then merged := Some (a, b))
            positives)
        positives;
      match !merged with
      | None -> r
      | Some (a, b) ->
        (* build the merged atom, preferring informative arguments *)
        let s = ref [] in
        let merged_args =
          List.map2
            (fun x y ->
              match walk !s x, walk !s y with
              | Anon, t | t, Anon -> t
              | Var v, t ->
                if t <> Var v then s := (v, t) :: !s;
                t
              | t, Var v ->
                s := (v, t) :: !s;
                t
              | Cst c1, Cst c2 ->
                if Value.equal c1 c2 then Cst c1 else raise Contradiction)
            a.args b.args
        in
        let body =
          List.filter (fun l -> l <> Pos a && l <> Pos b) r.body
          @ [ Pos { a with args = merged_args } ]
        in
        let r = subst_rule !s { r with body } in
        pass { r with body = List.sort_uniq compare r.body } (fuel - 1)
    end
  in
  pass r 20

(* variables occurring only inside one negated atom are existential
   wildcards: anonymize them so contradiction detection (Lemma 4) sees
   [not q(p, _)] *)
let anonymize_negs r =
  let count v =
    let occ = ref 0 in
    let bump x = if x = v then incr occ in
    List.iter bump (atom_vars r.head);
    List.iter
      (function
        | Pos a | Neg a -> List.iter bump (atom_vars a)
        | Cond e -> List.iter bump (expr_vars e)
        | Assign (x, e) ->
          bump x;
          List.iter bump (expr_vars e))
      r.body;
    !occ
  in
  {
    r with
    body =
      List.map
        (function
          | Neg a ->
            Neg
              {
                a with
                args =
                  List.map
                    (function
                      | Var x when count x = 1 -> Anon
                      | t -> t)
                    a.args;
              }
          | l -> l)
        r.body;
  }

(** Within-rule simplification: duplicate literals, constant conditions,
    contradictions (Lemma 4), dead assignments. Returns None if the rule can
    never fire. *)
(* a body condition nullsafe_eq(x, y) over two variables is true equality:
   unify the variables and drop the condition *)
let unify_nullsafe_conds r =
  let rec go r fuel =
    if fuel = 0 then r
    else
      match
        List.find_map
          (function
            | Cond e as l -> (
              match nullsafe_pair e with
              | Some (x, y) when x <> y -> Some (l, x, y)
              | _ -> None)
            | _ -> None)
          r.body
      with
      | None -> r
      | Some (l, x, y) ->
        let r = { r with body = List.filter (fun k -> k <> l) r.body } in
        go (subst_rule [ (y, Var x) ] r) (fuel - 1)
  in
  go r 20

let simplify_rule r =
  match merge_same_key (unify_nullsafe_conds r) with
  | exception Contradiction -> None
  | r -> (
    let r = anonymize_negs r in
    let body = List.sort_uniq compare r.body in
    (* Lemma 4: Pos a with Neg a' matching modulo Anon *)
    let neg_matches a a' =
      a.pred = a'.pred
      && List.length a.args = List.length a'.args
      && List.for_all2
           (fun x y ->
             match x, y with
             | _, Anon | Anon, _ -> true
             | _ -> x = y)
           a.args a'.args
    in
    (* conditions read assigned variables through the assignment: substitute
       constant assignments in before testing for contradiction, so a
       composed rule carrying [x := 1] and [NOT (x = 1)] dies here *)
    let const_assigns =
      List.filter_map
        (function Assign (x, Sql.Const c) -> Some (x, Cst c) | _ -> None)
        body
    in
    let through_assigns c =
      if const_assigns = [] then c else subst_expr_term const_assigns c
    in
    let contradictory =
      List.exists
        (function
          | Pos a ->
            List.exists
              (function Neg a' -> neg_matches a a' | _ -> false)
              body
          | Cond c ->
            definitely_false (through_assigns c)
            || List.exists
                 (function
                   | Cond c' -> is_negation_pair c c'
                   | _ -> false)
               body
          | _ -> false)
        body
    in
    if contradictory then None
    else
      let used_vars =
        atom_vars r.head
        @ List.concat_map
            (function
              | Pos a | Neg a -> atom_vars a
              | Cond e -> expr_vars e
              | Assign (_, e) -> expr_vars e)
            body
      in
      let body =
        List.filter
          (function
            | Cond c when definitely_true c -> false
            | Assign (x, _) ->
              (* dead assignment: variable never read anywhere ([used_vars]
                 never counts the assignment target itself, so a single read
                 elsewhere keeps it) *)
              List.length (List.filter (( = ) x) used_vars) >= 1
              || List.mem x (atom_vars r.head)
            | _ -> true)
          body
      in
      Some { r with body })

(* --- Lemma 1: unfolding ------------------------------------------------------- *)

(* unify a definition's head with a call's arguments: returns the spliced
   body (definition side freshened, call-side terms substituted in) *)
let apply_def call_args (def : rule) =
  let def = freshen_rule def in
  (* head args of definitions are Var or Cst *)
  let rec bind s hargs cargs extra =
    match hargs, cargs with
    | [], [] -> Some (s, extra)
    | _ :: hs, Anon :: cs ->
      (* the call ignores this position; the (freshened) definition variable
         stays free *)
      bind s hs cs extra
    | Var x :: hs, c :: cs -> (
      match walk s (Var x) with
      | Var x' -> bind ((x', c) :: s) hs cs extra
      | t ->
        (* head var already bound (repeated var in head): require equality *)
        (match t, c with
        | Cst a, Cst b when not (Value.equal a b) -> None
        | _, Var v -> bind ((v, t) :: s) hs cs extra
        | _ -> bind s hs cs extra))
    | Cst a :: hs, Cst b :: cs ->
      if Value.equal a b then bind s hs cs extra else None
    | Cst a :: hs, Var v :: cs -> bind ((v, Cst a) :: s) hs cs extra
    | Anon :: hs, _ :: cs -> bind s hs cs extra
    | _ -> None
  in
  match bind [] def.head.args call_args [] with
  | None -> None
  | Some (s, _) -> Some (List.map (subst_literal s) def.body, s)

(** Lemma 1.1: unfold positive literals whose predicate is defined by [defs].
    Each rule multiplies by the number of matching definitions. *)
let unfold_positive ?derived ~defs rules =
  let defined p =
    match derived with
    | Some preds -> List.mem p preds
    | None -> List.exists (fun d -> d.head.pred = p) defs
  in
  let rec expand_rule r =
    match
      List.find_opt
        (function Pos a -> defined a.pred | _ -> false)
        r.body
    with
    | None -> [ r ]
    | Some (Pos a as lit) ->
      let rest = List.filter (fun l -> l != lit) r.body in
      List.concat_map
        (fun d ->
          if d.head.pred = a.pred then
            match apply_def a.args d with
            | Some (spliced, su) ->
              (* constant head arguments of the definition may bind call-side
                 variables: propagate into the rest of the rule *)
              expand_rule
                {
                  head = subst_atom su r.head;
                  body = spliced @ List.map (subst_literal su) rest;
                }
            | None -> []
          else [])
        defs
    | Some _ -> assert false
  in
  List.concat_map expand_rule rules

(** Lemma 1.2: unfold a negated literal over a defined predicate. Sound under
    the unique-key assumption: [not q(k, ...)] with the key bound means no
    definition of q derives a tuple with that key. For each definition the
    negation contributes alternatives (the definition's single data atom is
    absent, or it is present but one of the remaining literals fails). *)
let unfold_negative ?derived ~defs rules =
  let defined p =
    match derived with
    | Some preds -> List.mem p preds
    | None -> List.exists (fun d -> d.head.pred = p) defs
  in
  let negate_literal = function
    | Pos a -> [ Neg a ]
    | Neg a -> [ Pos a ]
    | Cond c -> [ Cond (neg_cond c) ]
    | Assign _ -> []
  in
  let rec expand_rule r =
    match
      List.find_opt
        (function Neg a -> defined a.pred | _ -> false)
        r.body
    with
    | None -> [ r ]
    | Some (Neg a as lit) ->
      let rest = List.filter (fun l -> l != lit) r.body in
      (* conjunction over definitions: each definition must fail *)
      let per_def (d : rule) =
        match apply_def a.args d with
        | None -> [ [] ] (* cannot derive the call at all: trivially fails *)
        | Some (spliced, su) ->
          (* constant head arguments of the definition that met call-side
             variables become match conditions: the definition only covers
             the call when they hold *)
          let call_vars = List.concat_map term_vars a.args in
          let match_conds =
            List.filter_map
              (fun v ->
                match walk su (Var v) with
                | Cst Value.Null ->
                  Some (Sql.Is_null (Sql.Col (None, v), false))
                | Cst c ->
                  Some (Sql.Binop (Sql.Eq, Sql.Col (None, v), Sql.Const c))
                | _ -> None)
              call_vars
          in
          let conj = function
            | [] -> None
            | e :: rest ->
              Some (List.fold_left (fun a x -> Sql.Binop (Sql.And, a, x)) e rest)
          in
          (* fail = the head match fails, or the body fails while the head
             matches *)
          let mismatch =
            match conj match_conds with
            | Some c -> [ [ Cond (neg_cond c) ] ]
            | None -> []
          in
          let match_lits = List.map (fun c -> Cond c) match_conds in
          let alternatives =
            List.concat_map
              (fun l ->
                match l with
                | Pos a' -> [ Neg a' :: match_lits ]
                | Neg a' -> [ Pos a' :: match_lits ]
                | Cond c ->
                  (* the condition fails while the data atoms hold *)
                  let positives =
                    List.filter (function Pos _ -> true | _ -> false) spliced
                  in
                  [ (positives @ (Cond (neg_cond c) :: match_lits)) ]
                | Assign _ -> [])
              spliced
          in
          ignore negate_literal;
          mismatch @ alternatives
      in
      let defs_for = List.filter (fun d -> d.head.pred = a.pred) defs in
      let combos =
        List.fold_left
          (fun acc d ->
            List.concat_map
              (fun chosen -> List.map (fun alt -> alt @ chosen) (per_def d))
              acc)
          [ [] ] defs_for
      in
      List.concat_map
        (fun extra -> expand_rule { r with body = extra @ rest })
        combos
    | Some _ -> assert false
  in
  List.concat_map expand_rule rules

(** Lemma 2: predicates known to be empty — rules with a positive literal on
    them are dropped, negative literals on them are removed. *)
let apply_empty ~empty rules =
  List.filter_map
    (fun r ->
      if
        List.exists
          (function Pos a -> List.mem a.pred empty | _ -> false)
          r.body
      then None
      else
        Some
          {
            r with
            body =
              List.filter
                (function Neg a -> not (List.mem a.pred empty) | _ -> true)
                r.body;
          })
    rules

(* --- rule equivalence and subsumption ------------------------------------------ *)

(* match rule r onto rule s: find a variable renaming of r making head equal
   and body a subset (for equivalence: a permutation) *)
let match_rules ~subset r s =
  let rec match_terms s_acc ts1 ts2 =
    match ts1, ts2 with
    | [], [] -> Some s_acc
    | Anon :: a, Anon :: b -> match_terms s_acc a b
    | Cst x :: a, Cst y :: b when Value.equal x y -> match_terms s_acc a b
    | Var x :: a, Var y :: b -> (
      match List.assoc_opt x s_acc with
      | Some y' when y' = y -> match_terms s_acc a b
      | Some _ -> None
      | None ->
        if List.exists (fun (_, v) -> v = y) s_acc then None
        else match_terms ((x, y) :: s_acc) a b)
    | _ -> None
  in
  let match_atom s_acc (a : atom) (b : atom) =
    if a.pred = b.pred && List.length a.args = List.length b.args then
      match_terms s_acc a.args b.args
    else None
  in
  let apply_renaming s_acc e =
    subst_expr_term (List.map (fun (x, y) -> (x, Var y)) s_acc) e
  in
  let match_literal s_acc l1 l2 =
    match l1, l2 with
    | Pos a, Pos b | Neg a, Neg b -> match_atom s_acc a b
    | Cond c1, Cond c2 ->
      (* rename with current bindings; remaining vars must match by name *)
      if apply_renaming s_acc c1 = c2 then Some s_acc else None
    | Assign (x, e1), Assign (y, e2) ->
      if apply_renaming ((x, y) :: s_acc) e1 = e2 then Some ((x, y) :: s_acc)
      else None
    | _ -> None
  in
  let rec cover s_acc lits1 lits2 =
    match lits1 with
    | [] -> true
    | l1 :: rest ->
      List.exists
        (fun l2 ->
          match match_literal s_acc l1 l2 with
          | Some s' ->
            cover s'
              rest
              (if subset then lits2 else List.filter (fun l -> l != l2) lits2)
          | None -> false)
        lits2
  in
  match match_atom [] r.head s.head with
  | None -> false
  | Some s0 ->
    (if subset then true else List.length r.body = List.length s.body)
    && cover s0 r.body s.body

let rule_equivalent r s = match_rules ~subset:false r s

(** r subsumes s: same head, body of r (under renaming) included in s. *)
let subsumes r s = match_rules ~subset:true r s

(* --- Lemma 3 (tautology) --------------------------------------------------------- *)

(* merge rule pairs identical except L vs (neg L); also the Appendix-A twin
   pattern: r has atom q(k,X) reusing bound payload X, s has q(k,X') with
   fresh X' and the lists_differ(X,X') condition — their union drops the
   constraint entirely. *)
let lemma3_pass rules =
  let try_merge r s =
    let drop rule l = { rule with body = List.filter (fun k -> k != l) rule.body } in
    (* literal-level negation pairs: conditions c / not-c, or a positive atom
       versus its negation (args matching modulo Anon) *)
    let lit_negation l1 l2 =
      match l1, l2 with
      | Cond c1, Cond c2 -> is_negation_pair c1 c2
      | Pos a, Neg a' | Neg a', Pos a ->
        a.pred = a'.pred
        && List.length a.args = List.length a'.args
        && List.for_all2
             (fun x y ->
               match x, y with _, Anon | Anon, _ -> true | _ -> x = y)
             a.args a'.args
      | _ -> false
    in
    let plain =
      List.find_map
        (fun l1 ->
          List.find_map
            (fun l2 ->
              if lit_negation l1 l2 && rule_equivalent (drop r l1) (drop s l2)
              then Some (drop r l1)
              else None)
            s.body)
        r.body
    in
    let conds_of rule =
      List.filter_map (function Cond c -> Some c | _ -> None) rule.body
    in
    let try_drop_cond rule c =
      let body = List.filter (fun l -> l <> Cond c) rule.body in
      { rule with body }
    in
    match plain with
    | Some merged -> Some merged
    | None ->
      (* twin pattern: s = r' + differ-cond where unifying the differ pairs
         maps s onto r *)
      List.find_map
        (fun c ->
          match differ_pairs c with
          | None -> None
          | Some pairs ->
            let s' = try_drop_cond s c in
            let unify = List.map (fun (a, b) -> (b, Var a)) pairs in
            let s_unified = subst_rule unify s' in
            let s_unified =
              match simplify_rule s_unified with Some x -> x | None -> s_unified
            in
            if rule_equivalent s_unified r then Some s' else None)
        (conds_of s)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | r :: rest -> (
      let merged =
        List.find_map
          (fun s ->
            match try_merge r s with
            | Some m -> Some (s, m)
            | None -> (
              match try_merge s r with
              | Some m -> Some (s, m)
              | None -> None))
          rest
      in
      match merged with
      | Some (s, m) ->
        let rest' = List.filter (fun x -> x != s) rest in
        go acc (m :: rest')
      | None -> go (r :: acc) rest)
  in
  go [] rules

(* --- the main simplification loop ------------------------------------------------- *)

let dedupe_rules rules =
  let rec go acc = function
    | [] -> List.rev acc
    | r :: rest ->
      if
        List.exists (fun s -> rule_equivalent r s) acc
        || List.exists (fun s -> subsumes s r && not (s == r)) (acc @ rest)
      then go acc rest
      else go (r :: acc) rest
  in
  go [] rules

let simplify ?(empty = []) rules =
  let step rules =
    rules
    |> apply_empty ~empty
    |> List.filter_map simplify_rule
    |> lemma3_pass
    |> dedupe_rules
  in
  let rec fix rules n =
    let rules' = step rules in
    if n = 0 || List.length rules' = List.length rules && rules' = rules then
      rules'
    else fix rules' (n - 1)
  in
  fix rules 10

(** Full composition: unfold [outer]'s positive and negative references to
    [inner]'s head predicates, then simplify. [empty] lists predicates known
    to hold no tuples. [derived] overrides which predicates the inner rule
    set is responsible for: a predicate listed there but derived by no rule
    (an auxiliary with no surviving definition, say) unfolds as empty instead
    of surviving as a dangling reference. *)
let compose ?(empty = []) ?derived ~inner outer =
  (* a predicate the inner rule set is responsible for but (after removing
     rules over empty relations) no longer derives is itself empty *)
  let derived =
    match derived with Some ds -> ds | None -> head_preds inner
  in
  let inner = apply_empty ~empty inner |> List.filter_map simplify_rule in
  outer
  |> unfold_positive ~derived ~defs:inner
  |> unfold_negative ~derived ~defs:inner
  |> simplify ~empty
