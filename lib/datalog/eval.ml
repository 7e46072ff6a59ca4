(** Naive bottom-up evaluation of non-recursive Datalog rule sets with
    stratified negation.

    This is the semantics oracle for the SMO mapping functions: the generated
    SQL delta code must compute exactly what [eval] computes on the same
    extensional database. Rule sets coming from SMO templates never recurse
    (the paper notes the genealogy is acyclic), so a single topological pass
    over head predicates suffices. *)

open Ast
module Value = Minidb.Value

type edb = (string * Value.t array list) list

exception Eval_error of string

let error fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

(* Topologically order head predicates by body dependencies. *)
let stratify rules =
  let heads = head_preds rules in
  let deps h =
    List.concat_map
      (fun r ->
        if r.head.pred = h then
          List.filter_map
            (function
              | Pos a | Neg a when List.mem a.pred heads -> Some a.pred
              | _ -> None)
            r.body
        else [])
      rules
    |> List.sort_uniq compare
  in
  let visited = Hashtbl.create 8 in
  let order = ref [] in
  (* [path] holds the predicates currently being visited, most recent first;
     on a back-edge it yields the offending dependency cycle for the error *)
  let cycle_string path h =
    let rec upto = function
      | [] -> []
      | x :: rest -> if x = h then [ x ] else x :: upto rest
    in
    String.concat " -> " (List.rev (upto path))
  in
  let rec visit path h =
    if List.mem h path then
      error "recursive rule set through predicate %s (cycle: %s -> %s)" h
        (cycle_string path h) h
    else if not (Hashtbl.mem visited h) then begin
      Hashtbl.replace visited h ();
      List.iter (visit (h :: path)) (List.filter (fun d -> d <> h) (deps h));
      order := h :: !order
    end
  in
  (* allow a head to read its own predicate only if it is not derived, which
     [deps] already excludes; self-loops are recursion *)
  List.iter
    (fun h ->
      if List.mem h (deps h) then
        error "recursive predicate %s (cycle: %s -> %s)" h h h)
    heads;
  List.iter (visit []) heads;
  List.rev !order

type env = { subst : (string, Value.t) Hashtbl.t }

let lookup env x = Hashtbl.find_opt env.subst x

let eval ?engine (rules : Ast.t) (edb : edb) : edb =
  let db =
    match engine with Some d -> d | None -> Minidb.Database.create ()
  in
  let ctx = Minidb.Exec.fresh_ctx db in
  let store : (string, Value.t array list) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (p, tuples) -> Hashtbl.replace store p tuples) edb;
  let relation p = Option.value (Hashtbl.find_opt store p) ~default:[] in

  let eval_expr env e =
    let vars = expr_vars e in
    List.iter
      (fun x ->
        if lookup env x = None then error "unbound variable %s in condition" x)
      vars;
    let scope_vars = List.sort_uniq compare vars in
    let compiled =
      Minidb.Exec.compile_expr ctx
        [ Minidb.Exec.scope_of_cols scope_vars ]
        e
    in
    let row =
      Array.of_list (List.map (fun x -> Option.get (lookup env x)) scope_vars)
    in
    compiled { (Minidb.Exec.start_env db) with rows = [ row ] }
  in

  let match_atom env a tuple =
    (* returns the variables newly bound, or None on mismatch *)
    if List.length a.args <> Array.length tuple then
      error "arity mismatch on %s" a.pred;
    let added = ref [] in
    let ok =
      List.for_all2
        (fun term v ->
          match term with
          | Anon -> true
          | Cst c -> Value.equal c v
          | Var x -> (
            match lookup env x with
            | Some w -> Value.equal w v
            | None ->
              Hashtbl.replace env.subst x v;
              added := x :: !added;
              true))
        a.args (Array.to_list tuple)
    in
    if ok then Some !added
    else begin
      List.iter (Hashtbl.remove env.subst) !added;
      None
    end
  in

  let literal_ready env = function
    | Pos _ -> true
    | Neg a ->
      List.for_all
        (function Var x -> lookup env x <> None | Cst _ | Anon -> true)
        a.args
    | Cond e -> List.for_all (fun x -> lookup env x <> None) (expr_vars e)
    | Assign (_, e) ->
      List.for_all (fun x -> lookup env x <> None) (expr_vars e)
  in

  let eval_rule r =
    let out = ref [] in
    let rec go env pending =
      match pending with
      | [] ->
        let tuple =
          Array.of_list
            (List.map
               (fun term ->
                 match term with
                 | Cst c -> c
                 | Anon -> error "anonymous variable in head of %s" r.head.pred
                 | Var x -> (
                   match lookup env x with
                   | Some v -> v
                   | None -> error "unbound head variable %s" x))
               r.head.args)
        in
        out := tuple :: !out
      | _ -> (
        (* pick the first evaluable literal (safety reordering) *)
        match List.partition (literal_ready env) pending with
        | [], _ -> error "unsafe rule for %s (no evaluable literal)" r.head.pred
        | ready :: rest_ready, not_ready -> (
          let rest = rest_ready @ not_ready in
          match ready with
          | Pos a ->
            List.iter
              (fun tuple ->
                match match_atom env a tuple with
                | Some added ->
                  go env rest;
                  List.iter (Hashtbl.remove env.subst) added
                | None -> ())
              (relation a.pred)
          | Neg a ->
            let blocked =
              List.exists
                (fun tuple ->
                  match match_atom env a tuple with
                  | Some added ->
                    List.iter (Hashtbl.remove env.subst) added;
                    true
                  | None -> false)
                (relation a.pred)
            in
            if not blocked then go env rest
          | Cond e ->
            (match eval_expr env e with
            | Value.Bool true -> go env rest
            | _ -> ())
          | Assign (x, e) ->
            let v = eval_expr env e in
            (match lookup env x with
            | Some w -> if Value.equal w v then go env rest
            | None ->
              Hashtbl.replace env.subst x v;
              go env rest;
              Hashtbl.remove env.subst x)))
    in
    go { subst = Hashtbl.create 16 } r.body;
    !out
  in

  let dedupe tuples =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun t ->
        let key = Array.to_list t in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      tuples
  in

  let order = stratify rules in
  List.iter
    (fun pred ->
      let tuples =
        List.concat_map
          (fun r -> if r.head.pred = pred then eval_rule r else [])
          rules
        |> dedupe
      in
      Hashtbl.replace store pred tuples)
    order;
  List.map (fun pred -> (pred, relation pred)) order

(** Evaluate and return only the named predicate. *)
let eval_pred ?engine rules edb pred =
  match List.assoc_opt pred (eval ?engine rules edb) with
  | Some tuples -> tuples
  | None -> []

(** Compare two tuple multisets as sets (the key makes duplicates impossible
    in well-formed states). *)
let same_tuples a b =
  let norm ts = List.sort compare (List.map Array.to_list ts) in
  norm a = norm b
