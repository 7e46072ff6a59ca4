(** Chase-style symbolic evaluation of Datalog mapping programs over
    canonical instances with labeled nulls, plus the grounded small-model
    sweep that decides what the chase leaves open.

    The symbolic side evaluates a (non-recursive, stratified) rule set on a
    {e c-instance}: every relation holds conditional tuples whose fields are
    either constants or labeled nulls ⊥i, and every tuple carries a guard —
    a conjunction of SQL conditions over the nulls under which the tuple
    exists. Joins and conditions accumulate guards instead of deciding them;
    complementary guards on otherwise identical tuples merge away (the
    closed-world [NOT (COALESCE (e, FALSE))] wrapper makes a guard and its
    negation total, so the merged tuple is unconditional). A round trip that
    chases back to exactly the unguarded canonical tuples is an identity
    proof valid for {e every} instance.

    Where guard reasoning would need disjunctions the chase cannot merge,
    the grounded sweep takes over: labeled nulls are instantiated from a
    finite abstract domain — NULL, the constants appearing in conditions
    with their boundary neighbours, key values, and fresh values no
    condition mentions — and every grounding is evaluated concretely. For
    the condition language of the SMO templates (comparisons against
    constants, nullness tests, key joins) behaviour is determined by which
    domain cell each field falls into, so exhausting the cells decides the
    property; the per-position domains are derived from the rule sets
    themselves. *)

module D = Datalog.Ast
module Sql = Minidb.Sql_ast
module Value = Minidb.Value
module Simp = Datalog.Simplify

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

(* --- symbolic values ---------------------------------------------------------- *)

(** A symbolic field: a constant or a labeled null. *)
type sval = C of Value.t | N of int

(* labeled nulls are rendered as the pseudo-columns ["?i"] inside guard
   expressions; "?" never occurs in rule variable or column names *)
let sval_expr = function
  | C v -> Sql.Const v
  | N i -> Sql.Col (None, Printf.sprintf "?%d" i)

let pp_sval ppf = function
  | C v -> Value.pp ppf v
  | N i -> Fmt.pf ppf "?%d" i

(** A conditional tuple: the guard conjuncts must all hold for the tuple to
    exist. An empty guard means the tuple is unconditionally present. *)
type ctuple = { vals : sval array; guard : Sql.expr list }

type cinstance = (string * ctuple list) list

let pp_ctuple ppf (t : ctuple) =
  Fmt.pf ppf "(%a)%s"
    (Fmt.array ~sep:(Fmt.any ", ") pp_sval)
    t.vals
    (if t.guard = [] then ""
     else
       Fmt.str " if %s"
         (String.concat " AND "
            (List.map Minidb.Sql_printer.expr_to_string t.guard)))

(* --- guards -------------------------------------------------------------------- *)

let conj_expr = function
  | [] -> Sql.Const (Value.Bool true)
  | e :: rest -> List.fold_left (fun a x -> Sql.Binop (Sql.And, a, x)) e rest

(* Datalog matching equates NULL with NULL (values, not SQL three-valued
   equality), so the guard for two symbolic fields matching is the nullsafe
   form the simplifier already recognizes *)
let nullsafe_eq a b =
  Sql.Binop
    ( Sql.Or,
      Sql.Binop (Sql.Eq, a, b),
      Sql.Binop (Sql.And, Sql.Is_null (a, false), Sql.Is_null (b, false)) )

(* Does symbolic field [a] match [b]? [`Guard g]: only under [g]. *)
let sval_eq_guard a b =
  if a = b then `True
  else
    match a, b with
    | C x, C y -> if Value.equal x y then `True else `False
    | C Value.Null, N i | N i, C Value.Null ->
      `Guard (Sql.Is_null (sval_expr (N i), false))
    | C c, N i | N i, C c -> `Guard (Sql.Binop (Sql.Eq, sval_expr (N i), Sql.Const c))
    | N _, N _ -> `Guard (nullsafe_eq (sval_expr a) (sval_expr b))

(* --- chase state: null allocation and skolem memoization ------------------------ *)

type state = {
  mutable next_null : int;
  skolems : (Sql.expr, int) Hashtbl.t;
      (** computed expression (args substituted) -> labeled null. Memoizing
          per substituted expression mirrors the engine's memoized skolem
          functions: equal arguments yield the same (unknown) identifier. *)
}

let make_state () = { next_null = 0; skolems = Hashtbl.create 16 }

let fresh_null st =
  let i = st.next_null in
  st.next_null <- i + 1;
  i

let fresh_row st arity = { vals = Array.init arity (fun _ -> N (fresh_null st)); guard = [] }

(* --- substitution of candidate bindings into rule expressions ------------------- *)

let subst_bindings (binding : string -> sval option) (e : Sql.expr) : Sql.expr =
  let rec go (e : Sql.expr) =
    match e with
    | Sql.Col (None, v) -> (
      match binding v with
      | Some sv -> sval_expr sv
      | None -> unsupported "unbound variable %s in rule expression" v)
    | Sql.Const _ -> e
    | Sql.Col (Some _, _) | Sql.Param _ ->
      unsupported "qualified column or parameter in rule expression"
    | Sql.Unop (op, a) -> Sql.Unop (op, go a)
    | Sql.Binop (op, a, b) -> Sql.Binop (op, go a, go b)
    | Sql.Is_null (a, n) -> Sql.Is_null (go a, n)
    | Sql.Fun (f, args) -> Sql.Fun (f, List.map go args)
    | Sql.Case (arms, d) ->
      Sql.Case (List.map (fun (c, v) -> (go c, go v)) arms, Option.map go d)
    | Sql.In_list (a, items, n) -> Sql.In_list (go a, List.map go items, n)
    | Sql.Exists _ | Sql.In_query _ | Sql.Scalar _ ->
      unsupported "subquery in rule expression"
  in
  go e

(* a substituted expression that is just a field reference again *)
let expr_sval (e : Sql.expr) =
  match e with
  | Sql.Const c -> Some (C c)
  | Sql.Col (None, s)
    when String.length s > 1 && s.[0] = '?' -> (
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some i -> Some (N i)
    | None -> None)
  | _ -> None

(* --- evaluating one rule on a c-instance ---------------------------------------- *)

(* literal processing order mirroring the evaluator's safety reordering:
   assignments become ready once their reads are bound, negations once their
   arguments are *)
let order_rest (positives_bound : string list) rest =
  let bound = ref positives_bound in
  let pending = ref rest in
  let ordered = ref [] in
  let progress = ref true in
  while !pending <> [] && !progress do
    progress := false;
    let ready, blocked =
      List.partition
        (fun l ->
          match l with
          | D.Neg a ->
            List.for_all (fun x -> List.mem x !bound) (D.atom_vars a)
          | D.Cond e | D.Assign (_, e) ->
            List.for_all (fun x -> List.mem x !bound) (D.expr_vars e)
          | D.Pos _ -> true)
        !pending
    in
    if ready <> [] then begin
      progress := true;
      List.iter
        (function D.Assign (x, _) -> bound := x :: !bound | _ -> ())
        ready;
      ordered := !ordered @ ready;
      pending := blocked
    end
  done;
  if !pending <> [] then unsupported "unsafe rule (unbound negation or condition)";
  !ordered

let eval_rule st (lookup : string -> ctuple list) (r : D.rule) : ctuple list =
  let positives =
    List.filter_map (function D.Pos a -> Some a | _ -> None) r.D.body
  in
  let rest = List.filter (function D.Pos _ -> false | _ -> true) r.D.body in
  (* candidates: (bindings, guard conjuncts) *)
  let match_atom (bnd, grd) (a : D.atom) =
    List.filter_map
      (fun (t : ctuple) ->
        if Array.length t.vals <> List.length a.D.args then None
        else begin
          let ok = ref true in
          let bnd = ref bnd in
          let grd = ref (t.guard @ grd) in
          List.iteri
            (fun i arg ->
              if !ok then
                let v = t.vals.(i) in
                match arg with
                | D.Anon -> ()
                | D.Cst c -> (
                  match sval_eq_guard (C c) v with
                  | `True -> ()
                  | `False -> ok := false
                  | `Guard g -> grd := g :: !grd)
                | D.Var x -> (
                  match List.assoc_opt x !bnd with
                  | None -> bnd := (x, v) :: !bnd
                  | Some v' -> (
                    match sval_eq_guard v v' with
                    | `True -> ()
                    | `False -> ok := false
                    | `Guard g -> grd := g :: !grd)))
            a.D.args;
          if !ok then Some (!bnd, !grd) else None
        end)
      (lookup a.D.pred)
  in
  let after_pos =
    List.fold_left
      (fun cands a -> List.concat_map (fun c -> match_atom c a) cands)
      [ ([], []) ]
      positives
  in
  let pos_bound = List.concat_map (fun a -> D.atom_vars a) positives in
  let ordered_rest = order_rest pos_bound rest in
  let apply_lit (bnd, grd) lit =
    let binding v = List.assoc_opt v bnd in
    match lit with
    | D.Pos _ -> Some (bnd, grd)
    | D.Cond e ->
      let e' = subst_bindings binding e in
      if Simp.definitely_true e' then Some (bnd, grd)
      else if Simp.definitely_false e' then None
      else Some (bnd, e' :: grd)
    | D.Assign (x, e) ->
      let e' = subst_bindings binding e in
      let sv =
        match expr_sval e' with
        | Some sv -> sv
        | None -> (
          (* a computed value: an uninterpreted fresh null, memoized per
             substituted expression (skolem semantics) *)
          match Hashtbl.find_opt st.skolems e' with
          | Some i -> N i
          | None ->
            let i = fresh_null st in
            Hashtbl.replace st.skolems e' i;
            N i)
      in
      Some ((x, sv) :: bnd, grd)
    | D.Neg a ->
      (* each matching tuple of the negated predicate must be absent: its
         match conditions conjoined with its own guard, negated *)
      let rec fold grd = function
        | [] -> Some grd
        | (t : ctuple) :: ts ->
          if Array.length t.vals <> List.length a.D.args then fold grd ts
          else begin
            let feasible = ref true in
            let conds = ref [] in
            List.iteri
              (fun i arg ->
                if !feasible then
                  let v = t.vals.(i) in
                  let arg_sv =
                    match arg with
                    | D.Anon -> None
                    | D.Cst c -> Some (C c)
                    | D.Var x -> (
                      match binding x with
                      | Some sv -> Some sv
                      | None -> unsupported "unbound variable %s in negated atom" x)
                  in
                  match arg_sv with
                  | None -> ()
                  | Some sv -> (
                    match sval_eq_guard sv v with
                    | `True -> ()
                    | `False -> feasible := false
                    | `Guard g -> conds := g :: !conds))
              a.D.args;
            if not !feasible then fold grd ts
            else
              let all =
                List.filter
                  (fun g -> not (Simp.definitely_true g))
                  (List.rev !conds @ t.guard)
              in
              if all = [] then None (* the tuple is definitely present *)
              else if List.exists Simp.definitely_false all then fold grd ts
              else fold (Simp.neg_cond (conj_expr all) :: grd) ts
          end
      in
      (match fold grd (lookup a.D.pred) with
      | None -> None
      | Some grd -> Some (bnd, grd))
  in
  let finished =
    List.filter_map
      (fun cand ->
        List.fold_left
          (fun acc lit -> match acc with None -> None | Some c -> apply_lit c lit)
          (Some cand) ordered_rest)
      after_pos
  in
  List.filter_map
    (fun (bnd, grd) ->
      let vals =
        Array.of_list
          (List.map
             (function
               | D.Var x -> (
                 match List.assoc_opt x bnd with
                 | Some v -> v
                 | None -> unsupported "unbound head variable %s" x)
               | D.Cst c -> C c
               | D.Anon -> unsupported "anonymous head argument")
             r.D.head.D.args)
      in
      let grd =
        List.sort_uniq compare
          (List.filter (fun g -> not (Simp.definitely_true g)) grd)
      in
      if List.exists Simp.definitely_false grd then None
      else Some { vals; guard = grd })
    finished

(* --- merging conditional tuples ------------------------------------------------- *)

(* identical tuples under complementary guards are unconditional: the
   closed-world negation wrapper makes [g] and [NOT (COALESCE (g, FALSE))]
   total over three-valued conditions *)
let merge_ctuples (ts : ctuple list) : ctuple list =
  let groups : (sval array, ctuple list) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun t ->
      match Hashtbl.find_opt groups t.vals with
      | Some g -> Hashtbl.replace groups t.vals (t :: g)
      | None ->
        Hashtbl.replace groups t.vals [ t ];
        order := t.vals :: !order)
    ts;
  List.concat_map
    (fun vals ->
      let group = List.rev (Hashtbl.find groups vals) in
      if List.exists (fun t -> t.guard = []) group then [ { vals; guard = [] } ]
      else
        let conjs = List.map (fun t -> conj_expr t.guard) group in
        let complementary =
          List.exists
            (fun c1 ->
              List.exists (fun c2 -> c1 != c2 && Simp.is_negation_pair c1 c2) conjs)
            conjs
        in
        if complementary then [ { vals; guard = [] } ]
        else
          List.sort_uniq compare group)
    (List.rev !order)

(* --- the chase ------------------------------------------------------------------ *)

(** Evaluate [rules] bottom-up on the symbolic instance [edb]; returns the
    c-relations of every head predicate (mirroring {!Datalog.Eval.eval}).
    Raises {!Unsupported} on constructs the symbolic evaluator cannot
    handle and {!Datalog.Eval.Eval_error} on recursion. *)
let chase st (rules : D.t) (edb : cinstance) : cinstance =
  let order = Datalog.Eval.stratify rules in
  let derived : (string, ctuple list) Hashtbl.t = Hashtbl.create 16 in
  let lookup p =
    match Hashtbl.find_opt derived p with
    | Some ts -> ts
    | None -> Option.value (List.assoc_opt p edb) ~default:[]
  in
  List.iter
    (fun pred ->
      let mine = List.filter (fun (r : D.rule) -> r.D.head.D.pred = pred) rules in
      let ts = List.concat_map (fun r -> eval_rule st lookup r) mine in
      Hashtbl.replace derived pred (merge_ctuples ts))
    order;
  List.map (fun p -> (p, Hashtbl.find derived p)) order

(** Do two c-relations hold exactly the same unconditional tuples (and no
    conditional ones)? The identity test of the round-trip proofs. *)
let ctuples_identical (a : ctuple list) (b : ctuple list) =
  let strict ts =
    if List.exists (fun t -> t.guard <> []) ts then None
    else Some (List.sort_uniq compare (List.map (fun t -> t.vals) ts))
  in
  match strict a, strict b with
  | Some xs, Some ys -> xs = ys
  | _ -> false

(* Rewrite a conditional tuple modulo the equalities its own guard asserts.
   A nullsafe-equality conjunct between two labeled nulls means the two are
   the same unknown wherever the tuple exists, so every occurrence is
   replaced by the class representative (the smallest label) and the
   equality conjunct itself is re-oriented representative-first. Two chases
   that walked one join in different literal orders — the layered stack vs
   its path composition — then render the same tuple identically. *)
let normalize_ctuple (t : ctuple) : ctuple =
  let parent : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let rec find i =
    match Hashtbl.find_opt parent i with
    | Some j when j <> i ->
      let r = find j in
      Hashtbl.replace parent i r;
      r
    | _ -> i
  in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then Hashtbl.replace parent (max ri rj) (min ri rj)
  in
  let null_of e = match expr_sval e with Some (N i) -> Some i | _ -> None in
  let as_nullsafe = function
    | Sql.Binop
        ( Sql.Or,
          Sql.Binop (Sql.Eq, a, b),
          Sql.Binop (Sql.And, Sql.Is_null (a', false), Sql.Is_null (b', false))
        )
      when a = a' && b = b' -> (
      match (null_of a, null_of b) with
      | Some i, Some j -> Some (i, j)
      | _ -> None)
    | _ -> None
  in
  List.iter
    (fun g -> match as_nullsafe g with Some (i, j) -> union i j | None -> ())
    t.guard;
  let rec subst (e : Sql.expr) =
    match null_of e with
    | Some i -> sval_expr (N (find i))
    | None -> (
      match e with
      | Sql.Unop (op, a) -> Sql.Unop (op, subst a)
      | Sql.Binop (op, a, b) -> Sql.Binop (op, subst a, subst b)
      | Sql.Is_null (a, n) -> Sql.Is_null (subst a, n)
      | Sql.Fun (f, args) -> Sql.Fun (f, List.map subst args)
      | Sql.Case (arms, d) ->
        Sql.Case
          ( List.map (fun (c, v) -> (subst c, subst v)) arms,
            Option.map subst d )
      | Sql.In_list (a, items, n) ->
        Sql.In_list (subst a, List.map subst items, n)
      | Sql.Col _ | Sql.Const _ | Sql.Param _ | Sql.Exists _ | Sql.In_query _
      | Sql.Scalar _ -> e)
  in
  let rec orient (e : Sql.expr) =
    match as_nullsafe e with
    | Some (i, j) when j < i -> nullsafe_eq (sval_expr (N j)) (sval_expr (N i))
    | Some _ -> e
    | None -> (
      match e with
      | Sql.Unop (op, a) -> Sql.Unop (op, orient a)
      | Sql.Binop (op, a, b) -> Sql.Binop (op, orient a, orient b)
      | Sql.Is_null (a, n) -> Sql.Is_null (orient a, n)
      | Sql.Fun (f, args) -> Sql.Fun (f, List.map orient args)
      | Sql.Case (arms, d) ->
        Sql.Case
          ( List.map (fun (c, v) -> (orient c, orient v)) arms,
            Option.map orient d )
      | Sql.In_list (a, items, n) ->
        Sql.In_list (orient a, List.map orient items, n)
      | Sql.Col _ | Sql.Const _ | Sql.Param _ | Sql.Exists _ | Sql.In_query _
      | Sql.Scalar _ -> e)
  in
  {
    vals = Array.map (function N i -> N (find i) | v -> v) t.vals;
    guard = List.map (fun g -> orient (subst g)) t.guard;
  }

(** Do two c-relations agree as guarded tuple multisets — the same values
    under syntactically identical guard sets, each tuple normalized modulo
    its own asserted equalities? Weaker than {!ctuples_identical} (tuples
    may stay conditional) but still sound for program equivalence: every
    concrete state satisfies the same guards on both sides, so it
    materializes the same tuples. Incomplete where the two sides express one
    condition differently. *)
let ctuples_equivalent (a : ctuple list) (b : ctuple list) =
  let key t =
    let t = normalize_ctuple t in
    (t.vals, List.sort_uniq compare t.guard)
  in
  let norm ts = List.sort compare (List.map key ts) in
  norm a = norm b

(** All sublists, preserving order ([[]] first). *)
let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
    let rs = subsets rest in
    rs @ List.map (fun s -> x :: s) rs

(* --- the grounded sweep ---------------------------------------------------------- *)

type concrete = (string * Value.t array list) list
(** A grounded instance: relation -> rows (at most one per relation here). *)

let pp_concrete ppf (data : concrete) =
  let pp_rel ppf (n, rows) =
    match rows with
    | [] -> Fmt.pf ppf "%s={}" n
    | rows ->
      Fmt.pf ppf "%s={%a}" n
        (Fmt.list ~sep:(Fmt.any "; ") (fun ppf row ->
             Fmt.pf ppf "(%a)" (Fmt.array ~sep:(Fmt.any ", ") Value.pp) row))
        rows
  in
  Fmt.pf ppf "%a" (Fmt.list ~sep:(Fmt.any " ") pp_rel) (List.sort compare data)

let concrete_to_string d = Fmt.str "%a" pp_concrete d

(* union-find over relation positions (pred, index) *)
let rec uf_find parent p =
  match Hashtbl.find_opt parent p with
  | Some q when q <> p ->
    let r = uf_find parent q in
    Hashtbl.replace parent p r;
    r
  | _ -> p

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then Hashtbl.replace parent ra rb

let consts_of_expr (e : Sql.expr) =
  let out = ref [] in
  let rec go (e : Sql.expr) =
    match e with
    | Sql.Const (Value.Bool _) | Sql.Const Value.Null -> ()
    | Sql.Const v -> out := v :: !out
    | Sql.Col _ | Sql.Param _ -> ()
    | Sql.Unop (_, a) | Sql.Is_null (a, _) -> go a
    | Sql.Binop (_, a, b) ->
      go a;
      go b
    | Sql.Fun (_, args) -> List.iter go args
    | Sql.Case (arms, d) ->
      List.iter
        (fun (c, v) ->
          go c;
          go v)
        arms;
      Option.iter go d
    | Sql.In_list (a, items, _) ->
      go a;
      List.iter go items
    | Sql.Exists _ | Sql.In_query _ | Sql.Scalar _ -> ()
  in
  go e;
  !out

(** Per-position value domains for the stored relations of [schema], derived
    from [programs]: positions are clustered by shared variables (joins,
    including through intermediate derived predicates), each cluster collects
    the constants of the conditions and assignments its variables feed, and
    the domain of a position is NULL, the cluster's constants with integer
    boundary neighbours, the key domain where the cluster touches a key
    position, and a position-unique fresh value. *)
let sweep_domains ~(schema : (string * int) list) ~(programs : D.t list)
    ~(key_domain : Value.t list) : (string * Value.t list array) list =
  let parent : (string * int, string * int) Hashtbl.t = Hashtbl.create 64 in
  let consts : (string * int, Value.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let members : (string * int, int ref) Hashtbl.t = Hashtbl.create 64 in
  let has_key : (string * int, bool ref) Hashtbl.t = Hashtbl.create 64 in
  let root_slot tbl mk root =
    match Hashtbl.find_opt tbl root with
    | Some r -> r
    | None ->
      let r = mk () in
      Hashtbl.replace tbl root r;
      r
  in
  List.iter
    (fun rules ->
      List.iter
        (fun (r : D.rule) ->
          let var_pos : (string, (string * int) list) Hashtbl.t =
            Hashtbl.create 8
          in
          let note (a : D.atom) =
            List.iteri
              (fun i arg ->
                match arg with
                | D.Var x ->
                  Hashtbl.replace var_pos x
                    ((a.D.pred, i)
                    :: Option.value (Hashtbl.find_opt var_pos x) ~default:[])
                | D.Cst c ->
                  (* a constant compared in place: seed that position *)
                  if c <> Value.Null then begin
                    let root = uf_find parent (a.D.pred, i) in
                    let slot = root_slot consts (fun () -> ref []) root in
                    slot := c :: !slot
                  end
                | D.Anon -> ())
              a.D.args
          in
          note r.D.head;
          List.iter
            (function D.Pos a | D.Neg a -> note a | _ -> ())
            r.D.body;
          Hashtbl.iter
            (fun _ ps ->
              match ps with
              | p0 :: rest -> List.iter (uf_union parent p0) rest
              | [] -> ())
            var_pos;
          List.iter
            (function
              | D.Cond e | D.Assign (_, e) ->
                let cs = consts_of_expr e in
                List.iter
                  (fun v ->
                    match Hashtbl.find_opt var_pos v with
                    | None -> ()
                    | Some ps ->
                      List.iter
                        (fun p ->
                          let root = uf_find parent p in
                          let slot = root_slot consts (fun () -> ref []) root in
                          slot := cs @ !slot)
                        ps)
                  (D.expr_vars e)
              | _ -> ())
            r.D.body)
        rules)
    programs;
  (* cluster statistics over the stored positions *)
  let all_positions =
    List.concat_map
      (fun (name, arity) -> List.init arity (fun i -> (name, i)))
      schema
  in
  List.iter
    (fun p ->
      let root = uf_find parent p in
      incr (root_slot members (fun () -> ref 0) root);
      if snd p = 0 then root_slot has_key (fun () -> ref false) root := true)
    all_positions;
  (* migrate constants recorded before later unions to the final roots *)
  let final_consts : (string * int, Value.t list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  Hashtbl.iter
    (fun p cs ->
      let root = uf_find parent p in
      let slot = root_slot final_consts (fun () -> ref []) root in
      slot := !cs @ !slot)
    consts;
  let fresh_seq = ref 0 in
  List.map
    (fun (name, arity) ->
      ( name,
        Array.init arity (fun i ->
            if i = 0 then key_domain
            else begin
              let root = uf_find parent (name, i) in
              let cs =
                match Hashtbl.find_opt final_consts root with
                | Some r -> List.sort_uniq compare !r
                | None -> []
              in
              let keyish =
                match Hashtbl.find_opt has_key root with
                | Some r -> !r
                | None -> false
              in
              incr fresh_seq;
              let fresh = Value.Int (9000 + !fresh_seq) in
              let expanded =
                List.concat_map
                  (fun (c : Value.t) ->
                    match c with
                    | Value.Int n ->
                      [ Value.Int (n - 1); Value.Int n; Value.Int (n + 1) ]
                    | c -> [ c ])
                  cs
              in
              let fresh_text =
                if List.exists (function Value.Text _ -> true | _ -> false) cs
                then [ Value.Text (Printf.sprintf "v%d" !fresh_seq) ]
                else []
              in
              List.sort_uniq compare
                ((Value.Null :: fresh :: expanded)
                @ fresh_text
                @ (if keyish then key_domain else []))
            end) ))
    schema

type sweep_result =
  | Swept of int  (** every grounding passed [check]; the count *)
  | Counterexample of concrete  (** the first grounding where [check] failed *)
  | Budget of int  (** the grounding count exceeded the budget *)

(** Exhaustively evaluate [check] over the canonical family: every relation
    of [schema] absent or holding one row drawn from the derived domains.
    [programs] only feed the domain derivation. *)
let sweep ~(schema : (string * int) list) ~(programs : D.t list)
    ?(key_domain = [ Value.Int 1; Value.Int 2 ]) ?(max_instances = 20_000)
    ~(check : concrete -> bool) () : sweep_result =
  let domains = sweep_domains ~schema ~programs ~key_domain in
  let total =
    List.fold_left
      (fun acc (_, doms) ->
        let rows = Array.fold_left (fun n d -> n * List.length d) 1 doms in
        acc * (1 + rows))
      1 domains
  in
  if total > max_instances then Budget total
  else begin
    let found = ref None in
    let count = ref 0 in
    let rec go acc = function
      | [] ->
        incr count;
        let data = List.rev acc in
        if not (check data) then found := Some data
      | (name, (doms : Value.t list array)) :: rest ->
        go ((name, []) :: acc) rest;
        if !found = None then begin
          let arity = Array.length doms in
          let rec rows i rev_row =
            if !found <> None then ()
            else if i = arity then
              go ((name, [ Array.of_list (List.rev rev_row) ]) :: acc) rest
            else
              List.iter
                (fun v -> if !found = None then rows (i + 1) (v :: rev_row))
                doms.(i)
          in
          rows 0 []
        end
    in
    go [] domains;
    match !found with Some cx -> Counterexample cx | None -> Swept !count
  end

(** Shrink a failing grounding while [check] keeps failing: drop whole rows,
    then simplify surviving field values towards NULL/0/1. Deterministic. *)
let minimize ~(check : concrete -> bool) (cx : concrete) : concrete =
  let fails data = not (check data) in
  let current = ref cx in
  List.iter
    (fun (name, rows) ->
      if rows <> [] then begin
        let cand =
          List.map
            (fun (n, rs) -> if n = name then (n, []) else (n, rs))
            !current
        in
        if fails cand then current := cand
      end)
    cx;
  let shrink_values (name, rows) =
    match rows with
    | [ row ] ->
      Array.iteri
        (fun i v ->
          List.iter
            (fun cand_v ->
              if v <> cand_v then begin
                let cand =
                  List.map
                    (fun (n, rs) ->
                      if n = name then
                        ( n,
                          List.map
                            (fun r ->
                              let r' = Array.copy r in
                              r'.(i) <- cand_v;
                              r')
                            rs )
                      else (n, rs))
                    !current
                in
                if fails cand then current := cand
              end)
            [ Value.Null; Value.Int 0; Value.Int 1 ])
        row
    | _ -> ()
  in
  List.iter
    (fun (name, _) ->
      match List.assoc_opt name !current with
      | Some rows -> shrink_values (name, rows)
      | None -> ())
    cx;
  !current

(* --- the finite-condition fragment ----------------------------------------------- *)

(** Conditions and assignments whose behaviour is fully determined by the
    abstract domain cells: comparisons, boolean structure, nullness tests,
    COALESCE, and literal values. Arithmetic or other functions compute
    values outside the harvested domains, so sweep verdicts over rule sets
    outside this fragment are best-effort rather than exhaustive. *)
let finite_fragment (rules : D.t) =
  let rec ok (e : Sql.expr) =
    match e with
    | Sql.Const _ | Sql.Col (None, _) -> true
    | Sql.Col (Some _, _) | Sql.Param _ -> false
    | Sql.Unop (Sql.Not, a) -> ok a
    | Sql.Unop (Sql.Neg, _) -> false
    | Sql.Binop ((Sql.Eq | Sql.Neq | Sql.Lt | Sql.Le | Sql.Gt | Sql.Ge | Sql.And | Sql.Or), a, b)
      ->
      ok a && ok b
    | Sql.Binop (_, _, _) -> false
    | Sql.Is_null (a, _) -> ok a
    | Sql.Fun (f, args) ->
      (* skolem calls are memoized injections of their arguments: their
         outputs are fresh values compared only for equality, so behaviour
         is determined by the argument cells *)
      (String.lowercase_ascii f = "coalesce"
      || (String.length f >= 3 && String.sub f 0 3 = "sk!"))
      && List.for_all ok args
    | Sql.In_list (a, items, _) -> ok a && List.for_all ok items
    | Sql.Case _ | Sql.Exists _ | Sql.In_query _ | Sql.Scalar _ -> false
  in
  List.for_all
    (fun (r : D.rule) ->
      List.for_all
        (function
          | D.Cond e -> ok e
          | D.Assign (_, e) -> (
            (* an assignment may also be a plain copy or literal *)
            match e with Sql.Const _ | Sql.Col (None, _) -> true | _ -> ok e)
          | D.Pos _ | D.Neg _ -> true)
        r.D.body)
    rules

(** Predicates read but never derived by any of [programs], with arities
    (the stored relations a sweep must populate). *)
let stored_schema (programs : D.t list) : (string * int) list =
  let heads =
    List.sort_uniq compare (List.concat_map D.head_preds programs)
  in
  let out = ref [] in
  List.iter
    (fun rules ->
      List.iter
        (fun (r : D.rule) ->
          List.iter
            (function
              | D.Pos a | D.Neg a ->
                if
                  (not (List.mem a.D.pred heads))
                  && not (List.mem_assoc a.D.pred !out)
                then out := (a.D.pred, List.length a.D.args) :: !out
              | _ -> ())
            r.D.body)
        rules)
    programs;
  List.sort compare !out
