(** Query and statement execution.

    Statements are compiled into closures over a run environment (the
    statement run's snapshots and memos, the current rows of the enclosing
    scopes, NEW./OLD. trigger parameters and a pushed key). A client
    statement compiles once per statement; delta code — view bodies, key
    pushdowns into them and trigger statements — is prepared on first use
    and kept, with the planner fast paths on, until the catalog changes
    ({!Db.prepared}). Joins use a hash-join fast path on equality
    conjuncts, EXISTS / IN subqueries are decorrelated into index probes or
    per-statement hash memos, and view results are cached for the duration
    of a statement. All write paths go through the database undo log so
    that a failing statement (or an explicit transaction) rolls back
    atomically. *)

open Sql_ast
module Db = Database

type relation = Db.relation = {
  rel_cols : string list;
  rel_rows : Value.t array list;
  rel_count : int;  (** row count, or [-1] when not tracked at build time *)
}

type result = Rows of relation | Affected of int | Done

exception Exec_error of string

let error fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

(** One operator of a compiled plan, returned by the compile function that
    chose it: the span [kind] and [detail] it records when it runs
    ([select], [join], [scan], [view]; the [query] root, [union], [order]
    and batch-fused [filter] nodes record none of their own), the access
    [path] it was compiled to — the very label its span carries — its
    [inputs] in evaluation order, and whether it was compiled in first-row
    mode ([first_row]: it stops at the first row its consumer keeps, see
    {!first_row_ok}). *)
type plan = {
  kind : string;
  detail : string;
  path : string;
  inputs : plan list;
  first_row : bool;
}

(* --- compile context and run environment ----------------------------------- *)

(** What compiling needs: the catalog, the plan collector, the
    view-expansion stack and the count of errors put off until run time. A
    compiled closure keeps nothing of it but [db], so one closure can serve
    many statements ({!Db.prepared}). *)
type compile_ctx = {
  db : Db.t;
  mutable subplans : plan list;
      (** plans of the expression subqueries (EXISTS, IN, scalar) compiled
          since the enclosing operator started compiling, newest first; that
          operator adopts them as inputs (see {!collecting}) *)
  mutable expanding : string list;
      (** views whose bodies are being compiled right now, innermost first
          (see {!expand_view}) *)
  mutable deferred : int;
      (** compile errors {!compile_aggregate} has put off until a group
          runs, so far (see {!compile_subquery}) *)
}

(* What one run of a subquery built, kept for the rest of the statement run
   (see {!run_memo}): a decorrelated subquery's hash of its inner rows, or
   the answer of a subquery that reads no enclosing row. *)
type memo =
  | Hash of (Value.t list, Value.t array list) Hashtbl.t
  | Once of Value.t array list

(** What one statement's run owns. *)
type run = {
  rdb : Db.t;
  cache : (string, relation) Hashtbl.t;  (** object snapshots *)
  scans : (string, unit) Hashtbl.t;
      (** tables whose scan was already recorded this statement — shared by
          the row and batch paths so telemetry counts one scan per statement
          per table regardless of which executor served it *)
  mutable evaluating : string list;
      (** views whose bodies are being evaluated right now, innermost first
          (see {!view_relation}) *)
  mutable memos : (unit ref * Value.t * memo) list;
      (** per compiled subquery (its site) and pin *)
}

type env = {
  run : run;
  rows : Value.t array list;  (** innermost scope first *)
  args : args;
}

(* What a compiled closure reads besides rows: the trigger parameters and
   the pin, the key a view pushdown runs its prepared body with (read by
   {!pin_param}). *)
and args = { params : (string, Value.t) Hashtbl.t; pin : Value.t }

(** A compile-time scope: for each column position its alias and name. *)
type scope = { entries : (string option * string) array }

(** A row source compiled in first-row mode: it hands the rows full
    evaluation returns, in the same order, one at a time to its consumer's
    test and stops at the first row the test keeps, which it returns. A test
    handed down this way never runs a subquery, so every span recorded
    meanwhile belongs to the source. *)
type rows_iter = env -> (Value.t array -> bool) -> Value.t array option

(* The plans {!Db.prepared} holds: a view body for full evaluation, with
   the plans of its operators ({!view_body}); a body with a key pushed into
   it, per pinned column position and first-row mode ({!view_pushdown});
   and a trigger's statements ({!run_trigger}). *)
type pushed_body = All of (env -> relation) | First of rows_iter

type trigger_plan = {
  statements : ((string, Value.t) Hashtbl.t -> result) option array;
      (** each compiled on its first run *)
  new_params : string array;  (** [NEW.<column>] for each target column *)
  old_params : string array;
}

type Db.prepared +=
  | Body of plan list * (env -> relation)
  | Pushdown of int * bool * plan * pushed_body
  | Trigger_plan of trigger_plan

let count_prepared db =
  let m = db.Db.metrics in
  m.Metrics.plans_prepared <- m.Metrics.plans_prepared + 1

(* The iterator over an evaluated row list, and every row of an iterator:
   each mode can serve the other, the native one being the cheap one. *)
let iter_of produce : rows_iter = fun env keep -> List.find_opt keep (produce env)

let drain (it : rows_iter) env =
  let acc = ref [] in
  ignore
    (it env (fun row ->
         acc := row :: !acc;
         false));
  List.rev !acc

let fresh_ctx db = { db; subplans = []; expanding = []; deferred = 0 }

let no_params : (string, Value.t) Hashtbl.t = Hashtbl.create 1

let no_args = { params = no_params; pin = Value.Null }

(** The environment a statement's run starts from. *)
let start_env ?(params = no_params) db =
  {
    run =
      {
        rdb = db;
        cache = Hashtbl.create 16;
        scans = Hashtbl.create 8;
        evaluating = [];
        memos = [];
      };
    rows = [];
    args = (if params == no_params then no_args else { params; pin = Value.Null });
  }

(* The parameter a prepared view body reads its pushed key from: the pin of
   its env. No statement can name it. *)
let pin_param = "$pin"

(* What the subquery compiled at [site] built in [env]'s run, under its
   pin; [build env] runs on the first use. A probe asks once per outer row,
   so the lookup allocates nothing. *)
let rec find_memo site pin = function
  | [] -> None
  | (s, p, m) :: rest ->
    if s == site && (p == pin || compare p pin = 0) then Some m
    else find_memo site pin rest

let run_memo env site build =
  let pin = env.args.pin in
  match find_memo site pin env.run.memos with
  | Some m -> m
  | None ->
    let m = build env in
    env.run.memos <- (site, pin, m) :: env.run.memos;
    m

(* Run [f], which expands the body of view [k] while the views on [stack]
   are expanded. A view met again while its own body is still being
   expanded reads itself through a view cycle (a view dropped and re-created
   over its dependents): the expansion would never end, so it is refused. *)
let within_view k stack set f =
  if List.mem k stack then error "view %s depends on itself" k;
  set (k :: stack);
  match f () with
  | r ->
    set stack;
    r
  | exception e ->
    set stack;
    raise e

(* The guard while compiling a view body, and while evaluating one. *)
let expand_view ctx k f =
  within_view k ctx.expanding (fun s -> ctx.expanding <- s) f

let evaluate_view run k f =
  within_view k run.evaluating (fun s -> run.evaluating <- s) f

(* Run the compile step [f] and return its result together with the plans
   of the expression subqueries it compiled, in compile order. *)
let collecting ctx f =
  let saved = ctx.subplans in
  ctx.subplans <- [];
  let r = f () in
  let subs = List.rev ctx.subplans in
  ctx.subplans <- saved;
  (r, subs)

(* --- value operations --------------------------------------------------- *)

let bool3 = function
  | Value.Null -> None
  | Value.Bool b -> Some b
  | v -> error "expected BOOLEAN, got %s" (Value.describe v)

let of_bool3 = function None -> Value.Null | Some b -> Value.Bool b

let numeric_binop op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> (
    match op with
    | Add -> Value.Int (x + y)
    | Sub -> Value.Int (x - y)
    | Mul -> Value.Int (x * y)
    | Div -> if y = 0 then error "division by zero" else Value.Int (x / y)
    | Mod -> if y = 0 then error "division by zero" else Value.Int (x mod y)
    | op ->
      error "exec: operator %s dispatched to the numeric path"
        (Sql_printer.binop_name op))
  | _ ->
    let x = Value.as_float a and y = Value.as_float b in
    (match op with
    | Add -> Value.Real (x +. y)
    | Sub -> Value.Real (x -. y)
    | Mul -> Value.Real (x *. y)
    | Div -> if y = 0.0 then error "division by zero" else Value.Real (x /. y)
    | Mod ->
      if y = 0.0 then error "division by zero" else Value.Real (Float.rem x y)
    | op ->
      error "exec: operator %s dispatched to the numeric path"
        (Sql_printer.binop_name op))

let comparison_binop op a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else
    let c = Value.compare_exn a b in
    let r =
      match op with
      | Eq -> c = 0
      | Neq -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0
      | op ->
        error "exec: operator %s dispatched to the comparison path"
          (Sql_printer.binop_name op)
    in
    Value.Bool r

let concat_values a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ -> Value.Text (Value.to_string a ^ Value.to_string b)

let aggregate_names = [ "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" ]

let rec has_aggregate = function
  | Fun (name, _) when List.mem name aggregate_names -> true
  | Fun (_, args) -> List.exists has_aggregate args
  | Unop (_, e) | Is_null (e, _) -> has_aggregate e
  | Binop (_, a, b) -> has_aggregate a || has_aggregate b
  | Case (arms, default) ->
    List.exists (fun (c, v) -> has_aggregate c || has_aggregate v) arms
    || (match default with Some d -> has_aggregate d | None -> false)
  | In_list (e, items, _) -> has_aggregate e || List.exists has_aggregate items
  | In_query (e, _, _) -> has_aggregate e
  | Const _ | Col _ | Param _ | Exists _ | Scalar _ -> false

(* --- what a view reads and may call (view memos) ---------------------------- *)

(* Built-in scalar functions that are safe to serve from a cached result:
   deterministic in their arguments and free of observable side effects.
   NEXTVAL is deliberately absent (it increments a sequence). *)
let pure_builtins =
  [ "COALESCE"; "NULLIF"; "ABS"; "LENGTH"; "UPPER"; "LOWER"; "CONSTRAINT_ERROR" ]

(* Apply [on_object] to every object [q] names and [on_fun] to every
   function it calls, subqueries included. *)
let walk_query ~on_object ~on_fun q =
  let rec walk_query q =
    walk_set_op q.body;
    List.iter (fun (o : order_item) -> walk_expr o.key) q.order_by
  and walk_set_op = function
    | Select s -> walk_select s
    | Union (a, b, _) ->
      walk_set_op a;
      walk_set_op b
  and walk_select s =
    List.iter
      (function
        | Sel_expr (e, _) -> walk_expr e | Star | Qualified_star _ -> ())
      s.items;
    Option.iter walk_from s.from;
    Option.iter walk_expr s.where;
    List.iter walk_expr s.group_by;
    Option.iter walk_expr s.having
  and walk_from = function
    | From_table (name, _) -> on_object name
    | From_select (q, _) -> walk_query q
    | From_join (a, _, b, cond) ->
      walk_from a;
      walk_from b;
      Option.iter walk_expr cond
  and walk_expr = function
    | Const _ | Col _ | Param _ -> ()
    | Unop (_, e) | Is_null (e, _) -> walk_expr e
    | Binop (_, a, b) ->
      walk_expr a;
      walk_expr b
    | Fun (name, args) ->
      on_fun name;
      List.iter walk_expr args
    | Case (arms, default) ->
      List.iter
        (fun (c, v) ->
          walk_expr c;
          walk_expr v)
        arms;
      Option.iter walk_expr default
    | Exists (q, _) | Scalar q -> walk_query q
    | In_query (e, q, _) ->
      walk_expr e;
      walk_query q
    | In_list (e, items, _) ->
      walk_expr e;
      List.iter walk_expr items
  in
  walk_query q

(* What the query [q] reads and may call, folded over the memos of the views
   it names: the stored tables (unordered, possibly repeated), whether it
   can call an impure function (a missing object counts as one), and
   whether it can call any function but the pure built-ins. *)
let rec query_reads db q =
  let tables = ref [] and impure = ref false and calls = ref false in
  let on_object name =
    match Db.find_object db name with
    | Some (Db.Obj_table tbl) -> tables := tbl :: !tables
    | Some (Db.Obj_view v) ->
      let vm = view_memo db (Db.key name) v in
      tables := List.rev_append vm.Db.vm_tables !tables;
      impure := !impure || vm.Db.vm_impure;
      calls := !calls || vm.Db.vm_calls
    | None -> impure := true
  and on_fun name =
    if not (List.mem name pure_builtins) then begin
      calls := true;
      if not (Db.function_is_pure db name) then impure := true
    end
  in
  walk_query ~on_object ~on_fun q;
  (!tables, !impure, !calls)

(** The memo of view [v], whose catalog key is [k]: the stored tables it
    reads, whether it can call an impure function (then its result is never
    cached) and whether it can call any function but the pure built-ins
    (first-row mode's test). Its installed body is walked once per catalog
    state, and the walk memoizes every view it meets. A registered function
    counts as pure when registered so: an SMO's skolem is deterministic in
    its arguments, so the cache may re-serve its results, but its first
    call for a payload allocates the next identifier, so a row left unread
    in first-row mode would shift every identifier allocated after it. A
    view met again while its own body is walked reads itself through a view
    cycle, which no evaluation completes: it counts as impure and calling. *)
and view_memo db k (v : Db.view) : Db.view_memo =
  match Hashtbl.find_opt db.Db.view_memos k with
  | Some vm -> vm
  | None ->
    Hashtbl.replace db.Db.view_memos k
      { Db.vm_tables = []; vm_impure = true; vm_calls = true; vm_result = None;
        vm_plans = [] };
    let tables, impure, calls = query_reads db v.Db.query in
    let vm =
      {
        Db.vm_tables =
          List.sort_uniq
            (fun (a : Table.t) b -> compare a.Table.name b.Table.name)
            tables;
        vm_impure = impure;
        vm_calls = calls;
        vm_result = None;
        vm_plans = [];
      }
    in
    Hashtbl.replace db.Db.view_memos k vm;
    vm

(** First-row mode, one of the planner fast paths ({!Db.optimizations}): a
    query whose consumer needs one row (it sits under EXISTS, or says
    LIMIT 1) compiles knowing it, and its index probes, index nested-loop
    joins, filters, DISTINCTs and view pushdowns stop at the first row that
    survives. That row is the one full evaluation returns first, since the
    plan is the same and only its tail goes unread; so the query must take
    its order from the plan (no ORDER BY), and the rows it leaves unread
    must call no function but the pure built-ins ({!view_memo}). *)
let first_row_ok db q =
  db.Db.optimizations && q.order_by = []
  &&
  let _, _, calls = query_reads db q in
  not calls

(* --- column resolution --------------------------------------------------- *)

(** Find [qualifier.name] in the scope stack; returns (depth, position). *)
let resolve_column scopes qualifier name =
  let lname = String.lowercase_ascii name in
  let lqual = Option.map String.lowercase_ascii qualifier in
  let match_entry (alias, cname) =
    String.lowercase_ascii cname = lname
    &&
    match lqual with
    | None -> true
    | Some q -> (
      match alias with
      | Some a -> String.lowercase_ascii a = q
      | None -> false)
  in
  let rec go depth = function
    | [] ->
      error "unknown column %s%s"
        (match qualifier with Some q -> q ^ "." | None -> "")
        name
    | scope :: rest ->
      let hits = ref [] in
      Array.iteri
        (fun i entry -> if match_entry entry then hits := i :: !hits)
        scope.entries;
      (match !hits with
      | [ i ] -> (depth, i)
      | [] -> go (depth + 1) rest
      | _ ->
        error "ambiguous column reference %s%s"
          (match qualifier with Some q -> q ^ "." | None -> "")
          name)
  in
  go 0 scopes

let scope_of_cols ?alias cols =
  { entries = Array.of_list (List.map (fun c -> (alias, c)) cols) }

(* --- expression compilation ---------------------------------------------- *)

(* [expr_scope_deps scopes e] = does [e] reference a column resolving at
   depth 0 of [scopes]?  Used to classify subquery conjuncts. *)
let rec references_depth scopes depth e =
  match e with
  | Col (q, n) -> (
    match resolve_column scopes q n with
    | d, _ -> d = depth
    | exception _ -> false)
  | Const _ | Param _ -> false
  | Unop (_, a) | Is_null (a, _) -> references_depth scopes depth a
  | Binop (_, a, b) ->
    references_depth scopes depth a || references_depth scopes depth b
  | Fun (_, args) -> List.exists (references_depth scopes depth) args
  | Case (arms, default) ->
    List.exists
      (fun (c, v) ->
        references_depth scopes depth c || references_depth scopes depth v)
      arms
    || (match default with
       | Some d -> references_depth scopes depth d
       | None -> false)
  | In_list (a, items, _) ->
    references_depth scopes depth a
    || List.exists (references_depth scopes depth) items
  | Exists _ | In_query _ | Scalar _ ->
    (* conservative: nested subqueries disable decorrelation *)
    true

let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let rec subquery_free = function
  | Col _ | Const _ | Param _ -> true
  | Unop (_, a) | Is_null (a, _) -> subquery_free a
  | Binop (_, a, b) -> subquery_free a && subquery_free b
  | Fun (_, args) -> List.for_all subquery_free args
  | Case (arms, d) ->
    List.for_all (fun (c, v) -> subquery_free c && subquery_free v) arms
    && (match d with Some x -> subquery_free x | None -> true)
  | In_list (a, items, _) ->
    subquery_free a && List.for_all subquery_free items
  | Exists _ | In_query _ | Scalar _ -> false

(* Row-independent at every depth: no column reference, no subquery. *)
let rec column_free = function
  | Col _ -> false
  | Const _ | Param _ -> true
  | Unop (_, a) | Is_null (a, _) -> column_free a
  | Binop (_, a, b) -> column_free a && column_free b
  | Fun (_, args) -> List.for_all column_free args
  | Case (arms, d) ->
    List.for_all (fun (c, v) -> column_free c && column_free v) arms
    && (match d with Some x -> column_free x | None -> true)
  | In_list (a, items, _) -> column_free a && List.for_all column_free items
  | Exists _ | In_query _ | Scalar _ -> false

(* A key pin: an equality between a column and a column-free expression. *)
let pin_of = function
  | Binop (Eq, Col (q, n), e) when column_free e -> Some (q, n, e)
  | Binop (Eq, e, Col (q, n)) when column_free e -> Some (q, n, e)
  | _ -> None

(* An index pin of the WHERE clause [w] over table [tbl], read through the
   innermost scope [scope] of [scopes]: the first conjunct [col = e] whose
   [col] is an indexed column of [tbl] and whose [e] reads no column of that
   scope, with the index and [e]. *)
let index_pin tbl scope scopes w =
  List.find_map
    (fun c ->
      match c with
      | Binop (Eq, Col (q, n), e) | Binop (Eq, e, Col (q, n)) -> (
        match resolve_column scopes q n with
        | 0, pos when not (references_depth scopes 0 e) ->
          Option.map
            (fun idx -> (idx, e))
            (Table.indexed_column tbl (snd scope.entries.(pos)))
        | _ -> None
        | exception _ -> None)
      | _ -> None)
    (conjuncts w)

(* Inner joins all the way down: ON and WHERE filtering coincide, so a
   conjunct may move between them. *)
let rec all_inner = function
  | From_join (l, Inner, r, _) -> all_inner l && all_inner r
  | From_join _ -> false
  | From_table _ | From_select _ -> true

(* Push the pin [icol = key] onto the FROM leaf aliased [alias], wrapping it
   as a filtered subselect so the filter reduces that side before any join;
   on an inner join the reduced side moves left, so a stored right side
   stays probeable by its index. [None] when no leaf carries the alias. *)
let rec pin_side alias icol key = function
  | From_table (name, Some a)
    when String.lowercase_ascii a = String.lowercase_ascii alias ->
    Some
      (From_select
         ( select_query
             (simple_select
                ~from:(From_table (name, Some a))
                ~where:(Binop (Eq, Col (None, icol), key))
                [ Star ]),
           a ))
  | From_table _ | From_select _ -> None
  | From_join (l, k, r, c) -> (
    match pin_side alias icol key l with
    | Some l' -> Some (From_join (l', k, r, c))
    | None -> (
      match pin_side alias icol key r with
      | Some r' when k = Inner -> Some (From_join (r', k, l, c))
      | Some r' -> Some (From_join (l, k, r', c))
      | None -> None))

(* Row-direct mirror of {!compile_expr} for subquery-free expressions: the
   outer [env -> _] stage resolves everything row-independent (parameters,
   outer-scope columns) once per evaluation, and the inner stage reads the
   candidate row directly — no per-row environment allocation in filter and
   residual loops. Shares the value helpers with [compile_expr], so the
   three-valued semantics are identical. [None] when the expression needs
   per-row environments (subqueries, scalar functions). *)
let rec compile_row_expr scopes e : (env -> Value.t array -> Value.t) option =
  let open Option in
  match e with
  | Const v -> Some (fun _ _ -> v)
  | Col (q, n) -> (
    match resolve_column scopes q n with
    | 0, pos -> Some (fun _ row -> row.(pos))
    | depth, pos ->
      Some
        (fun env ->
          let outer = (List.nth env.rows (depth - 1)).(pos) in
          fun _ -> outer)
    | exception Exec_error _ -> None)
  | Param p when p = pin_param ->
    Some
      (fun env ->
        let v = env.args.pin in
        fun _ -> v)
  | Param p ->
    Some
      (fun env ->
        match Hashtbl.find_opt env.args.params p with
        | Some v -> fun _ -> v
        | None -> error "unbound trigger parameter %s" p)
  | Unop (Not, a) ->
    bind (compile_row_expr scopes a) (fun fa ->
        Some
          (fun env ->
            let fa = fa env in
            fun row -> of_bool3 (Option.map not (bool3 (fa row)))))
  | Unop (Neg, a) ->
    bind (compile_row_expr scopes a) (fun fa ->
        Some
          (fun env ->
            let fa = fa env in
            fun row ->
              match fa row with
              | Value.Null -> Value.Null
              | Value.Int i -> Value.Int (-i)
              | Value.Real f -> Value.Real (-.f)
              | v -> error "cannot negate %s" (Value.describe v)))
  | Is_null (a, negated) ->
    bind (compile_row_expr scopes a) (fun fa ->
        Some
          (fun env ->
            let fa = fa env in
            fun row ->
              let isnull = Value.is_null (fa row) in
              Value.Bool (if negated then not isnull else isnull)))
  | Binop (And, a, b) ->
    bind (compile_row_expr scopes a) (fun fa ->
        bind (compile_row_expr scopes b) (fun fb ->
            Some
              (fun env ->
                let fa = fa env and fb = fb env in
                fun row ->
                  match bool3 (fa row) with
                  | Some false -> Value.Bool false
                  | Some true -> of_bool3 (bool3 (fb row))
                  | None -> (
                    match bool3 (fb row) with
                    | Some false -> Value.Bool false
                    | _ -> Value.Null))))
  | Binop (Or, a, b) ->
    bind (compile_row_expr scopes a) (fun fa ->
        bind (compile_row_expr scopes b) (fun fb ->
            Some
              (fun env ->
                let fa = fa env and fb = fb env in
                fun row ->
                  match bool3 (fa row) with
                  | Some true -> Value.Bool true
                  | Some false -> of_bool3 (bool3 (fb row))
                  | None -> (
                    match bool3 (fb row) with
                    | Some true -> Value.Bool true
                    | _ -> Value.Null))))
  | Binop (((Add | Sub | Mul | Div | Mod) as op), a, b) ->
    bind (compile_row_expr scopes a) (fun fa ->
        bind (compile_row_expr scopes b) (fun fb ->
            Some
              (fun env ->
                let fa = fa env and fb = fb env in
                fun row -> numeric_binop op (fa row) (fb row))))
  | Binop (Concat, a, b) ->
    bind (compile_row_expr scopes a) (fun fa ->
        bind (compile_row_expr scopes b) (fun fb ->
            Some
              (fun env ->
                let fa = fa env and fb = fb env in
                fun row -> concat_values (fa row) (fb row))))
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
    bind (compile_row_expr scopes a) (fun fa ->
        bind (compile_row_expr scopes b) (fun fb ->
            Some
              (fun env ->
                let fa = fa env and fb = fb env in
                fun row -> comparison_binop op (fa row) (fb row))))
  | In_list (a, items, negated) ->
    bind (compile_row_expr scopes a) (fun fa ->
        let fitems = List.filter_map (compile_row_expr scopes) items in
        if List.length fitems <> List.length items then None
        else
          Some
            (fun env ->
              let fa = fa env in
              let fitems = List.map (fun f -> f env) fitems in
              fun row ->
                let v = fa row in
                if Value.is_null v then Value.Null
                else
                  let found = ref false and saw_null = ref false in
                  List.iter
                    (fun f ->
                      let w = f row in
                      if Value.is_null w then saw_null := true
                      else if Value.equal v w then found := true)
                    fitems;
                  if !found then Value.Bool (not negated)
                  else if !saw_null then Value.Null
                  else Value.Bool negated))
  | Fun _ | Case _ | Exists _ | In_query _ | Scalar _ -> None

(** Compile [e] as a row predicate when possible: a per-evaluation stage
    returning a direct [row -> keep?] test. *)
let compile_row_pred scopes e : (env -> Value.t array -> bool) option =
  Option.map
    (fun f env ->
      let f = f env in
      fun row -> bool3 (f row) = Some true)
    (compile_row_expr scopes e)

(* A compiled WHERE as a test of one row, instantiated per evaluation: a
   row-direct predicate needs no per-row environment. *)
let row_test w env =
  match w with
  | Either.Left p -> p env
  | Either.Right f ->
    fun row -> bool3 (f { env with rows = row :: env.rows }) = Some true

(* --- batch filtering ------------------------------------------------------ *)

(* Selection vectors: [None] = every row of the batch, [Some sel] = the row
   indices in [sel], in order. Narrowing returns the input vector unchanged
   when nothing was dropped, so steady-state unselective conjuncts allocate
   nothing new. *)
let filter_sel (b : Batch.t) sel keep =
  let n = Batch.sel_length b sel in
  if n = 0 then sel
  else begin
    let out = Array.make n 0 in
    let k = ref 0 in
    (match sel with
    | None ->
      for i = 0 to n - 1 do
        if keep i then begin
          out.(!k) <- i;
          incr k
        end
      done
    | Some s ->
      for j = 0 to n - 1 do
        let i = s.(j) in
        if keep i then begin
          out.(!k) <- i;
          incr k
        end
      done);
    if !k = n then sel else Some (Array.sub out 0 !k)
  end

let cmp_ok op c =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | _ -> error "exec: operator %s is not a comparison" (Sql_printer.binop_name op)

(* [col(pos) op v] (or [v op col(pos)] when [flipped]) over the candidates.
   Typed columns compare unboxed when the constant's runtime type matches the
   column's (including the Int/Real cross, mirroring {!Value.compare_exn});
   any other pairing falls back to the shared [comparison_binop] per
   candidate, so three-valued semantics and type errors stay identical to
   the row path. *)
let apply_cmp (b : Batch.t) sel op ~flipped pos v =
  if Value.is_null v then filter_sel b sel (fun _ -> false)
  else
    (* effective operator for a col-vs-const compare; [compare_exn] is
       antisymmetric, so flipping operands mirrors the comparison *)
    let eop =
      if not flipped then op
      else
        match op with
        | Lt -> Gt
        | Le -> Ge
        | Gt -> Lt
        | Ge -> Le
        | op -> op
    in
    let generic () =
      filter_sel b sel (fun i ->
          let c = Batch.get b pos i in
          let r = if flipped then comparison_binop op v c
            else comparison_binop op c v
          in
          match r with Value.Bool r -> r | _ -> false)
    in
    let masked m keep =
      match m with
      | None -> filter_sel b sel keep
      | Some m ->
        filter_sel b sel (fun i -> (not (Batch.null_at m i)) && keep i)
    in
    match b.Batch.cols.(pos), v with
    | Batch.C_int (a, m), Value.Int k ->
      masked m (fun i -> cmp_ok eop (Int.compare a.(i) k))
    | Batch.C_int (a, m), Value.Real r ->
      masked m (fun i -> cmp_ok eop (Float.compare (float_of_int a.(i)) r))
    | Batch.C_real (a, m), Value.Real r ->
      masked m (fun i -> cmp_ok eop (Float.compare a.(i) r))
    | Batch.C_real (a, m), Value.Int k ->
      let r = float_of_int k in
      masked m (fun i -> cmp_ok eop (Float.compare a.(i) r))
    | Batch.C_text (a, m), Value.Text s ->
      masked m (fun i -> cmp_ok eop (String.compare a.(i) s))
    | Batch.C_bool (a, m), Value.Bool x ->
      masked m (fun i -> cmp_ok eop (Stdlib.compare a.(i) x))
    | _ -> generic ()

let apply_isnull (b : Batch.t) sel pos negated =
  filter_sel b sel (fun i ->
      let isnull = Batch.is_null b pos i in
      if negated then not isnull else isnull)

(* Positional projection: every select item reads a depth-0 column, so each
   output row is built by direct indexing with no per-row environment.
   [None] when any item needs expression evaluation. Shared by the row and
   batch pipelines, so both project exactly the same positions. *)
let positional_items (entries : (string option * string) array) scopes items =
  let pos_item = function
    | Star -> Some (List.init (Array.length entries) (fun i -> i))
    | Qualified_star q ->
      let la = String.lowercase_ascii q in
      let positions = ref [] in
      Array.iteri
        (fun i (alias, _) ->
          match alias with
          | Some a when String.lowercase_ascii a = la ->
            positions := i :: !positions
          | _ -> ())
        entries;
      Some (List.rev !positions)
    | Sel_expr (Col (q, n), _) -> (
      match resolve_column scopes q n with
      | 0, p -> Some [ p ]
      | _ -> None
      | exception Exec_error _ -> None)
    | Sel_expr _ -> None
  in
  let rec all = function
    | [] -> Some []
    | it :: rest -> (
      match pos_item it with
      | None -> None
      | Some ps -> (
        match all rest with None -> None | Some tail -> Some (ps @ tail)))
  in
  Option.map Array.of_list (all items)

(* The projection onto [positions]: hand-rolled constructors for the common
   small arities avoid the per-element closure call of [Array.init] in tight
   projection loops. *)
let project_positions positions : Value.t array -> Value.t array =
  let n = Array.length positions in
  match positions with
  | [| a |] -> fun row -> [| row.(a) |]
  | [| a; b |] -> fun row -> [| row.(a); row.(b) |]
  | [| a; b; c |] -> fun row -> [| row.(a); row.(b); row.(c) |]
  | [| a; b; c; d |] -> fun row -> [| row.(a); row.(b); row.(c); row.(d) |]
  | _ -> fun row -> Array.init n (fun j -> row.(positions.(j)))

(* Positions that re-emit all [width] input columns in order. *)
let identity_positions positions width =
  Array.length positions = width
  &&
  let ok = ref true in
  Array.iteri (fun j p -> if p <> j then ok := false) positions;
  !ok

(* A whole-table read serves ascending-rowid order off the table's columnar
   snapshot when batch mode is on; the row list is memoized on the batch, so
   repeated scans of an unchanged table cost an int compare. *)
let scan_path db = if db.Db.batch_enabled then "batch" else "row"

let object_columns ctx name =
  match Db.find_object ctx.db name with
  | Some (Db.Obj_table tbl) -> Schema.names tbl.Table.schema
  | Some (Db.Obj_view v) -> v.Db.view_cols
  | None -> error "no such table or view %s" name

(* The columns of a named object and the node of a read of it through
   [object_relation]: the table scan it records, or the view it evaluates
   ({!plan} expands the body). *)
let object_read ctx name =
  let detail = Db.key name in
  match Db.find_key ctx.db detail with
  | Some (Db.Obj_table tbl) ->
    ( Schema.names tbl.Table.schema,
      { kind = "scan"; detail; path = scan_path ctx.db; inputs = [];
        first_row = false } )
  | Some (Db.Obj_view v) ->
    ( v.Db.view_cols,
      { kind = "view"; detail; path = "computed"; inputs = [];
        first_row = false } )
  | None -> error "no such table or view %s" name

(* Scope entries of the FROM leaf [name AS alias] with columns [cols]. *)
let leaf_entries name alias cols =
  let a = Some (Option.value alias ~default:name) in
  Array.of_list (List.map (fun c -> (a, c)) cols)

let rec compile_expr ctx scopes e : env -> Value.t =
  match e with
  | Const v -> fun _ -> v
  | Col (q, n) ->
    let depth, pos = resolve_column scopes q n in
    fun env -> (List.nth env.rows depth).(pos)
  | Param p when p = pin_param -> fun env -> env.args.pin
  | Param p -> (
    fun env ->
      match Hashtbl.find_opt env.args.params p with
      | Some v -> v
      | None -> error "unbound trigger parameter %s" p)
  | Unop (Not, a) ->
    let fa = compile_expr ctx scopes a in
    fun env -> of_bool3 (Option.map not (bool3 (fa env)))
  | Unop (Neg, a) ->
    let fa = compile_expr ctx scopes a in
    fun env -> (
      match fa env with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (-i)
      | Value.Real f -> Value.Real (-.f)
      | v -> error "cannot negate %s" (Value.describe v))
  | Is_null (a, negated) ->
    let fa = compile_expr ctx scopes a in
    fun env ->
      let isnull = Value.is_null (fa env) in
      Value.Bool (if negated then not isnull else isnull)
  | Binop (And, a, b) ->
    let fa = compile_expr ctx scopes a and fb = compile_expr ctx scopes b in
    fun env -> (
      match bool3 (fa env) with
      | Some false -> Value.Bool false
      | Some true -> of_bool3 (bool3 (fb env))
      | None -> (
        match bool3 (fb env) with
        | Some false -> Value.Bool false
        | _ -> Value.Null))
  | Binop (Or, a, b) ->
    let fa = compile_expr ctx scopes a and fb = compile_expr ctx scopes b in
    fun env -> (
      match bool3 (fa env) with
      | Some true -> Value.Bool true
      | Some false -> of_bool3 (bool3 (fb env))
      | None -> (
        match bool3 (fb env) with
        | Some true -> Value.Bool true
        | _ -> Value.Null))
  | Binop (((Add | Sub | Mul | Div | Mod) as op), a, b) ->
    let fa = compile_expr ctx scopes a and fb = compile_expr ctx scopes b in
    fun env -> numeric_binop op (fa env) (fb env)
  | Binop (Concat, a, b) ->
    let fa = compile_expr ctx scopes a and fb = compile_expr ctx scopes b in
    fun env -> concat_values (fa env) (fb env)
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
    let fa = compile_expr ctx scopes a and fb = compile_expr ctx scopes b in
    fun env -> comparison_binop op (fa env) (fb env)
  | Fun (name, _) when List.mem name aggregate_names ->
    error "aggregate %s used outside of an aggregating select" name
  | Fun (name, args) -> compile_function ctx scopes name args
  | Case (arms, default) ->
    let arms =
      List.map
        (fun (c, v) -> (compile_expr ctx scopes c, compile_expr ctx scopes v))
        arms
    in
    let fdefault = Option.map (compile_expr ctx scopes) default in
    fun env -> (
      let rec go = function
        | [] -> (
          match fdefault with Some f -> f env | None -> Value.Null)
        | (fc, fv) :: rest -> (
          match bool3 (fc env) with Some true -> fv env | _ -> go rest)
      in
      go arms)
  | Exists (q, negated) -> compile_exists ctx scopes q negated
  | In_query (e, q, negated) -> compile_in_query ctx scopes e q negated
  | In_list (e, items, negated) ->
    let fe = compile_expr ctx scopes e in
    let fitems = List.map (compile_expr ctx scopes) items in
    fun env -> (
      let v = fe env in
      if Value.is_null v then Value.Null
      else
        let found = ref false and saw_null = ref false in
        List.iter
          (fun f ->
            let w = f env in
            if Value.is_null w then saw_null := true
            else if Value.equal v w then found := true)
          fitems;
        if !found then Value.Bool (not negated)
        else if !saw_null then Value.Null
        else Value.Bool negated)
  | Scalar q -> (
    let rows =
      compile_subquery ctx scopes q (fun scopes ->
          let p, fq = compile_query ctx scopes q in
          (p, fun env -> (fq env).rel_rows))
    in
    fun env ->
      match rows env with
      | [] -> Value.Null
      | [ row ] ->
        if Array.length row <> 1 then
          error "scalar subquery returned %d columns" (Array.length row)
        else row.(0)
      | _ -> error "scalar subquery returned more than one row")

and compile_function ctx scopes name args =
  let fargs = List.map (compile_expr ctx scopes) args in
  match name, fargs with
  | "COALESCE", _ ->
    fun env -> (
      let rec go = function
        | [] -> Value.Null
        | f :: rest ->
          let v = f env in
          if Value.is_null v then go rest else v
      in
      go fargs)
  | "NULLIF", [ fa; fb ] ->
    fun env -> (
      let a = fa env and b = fb env in
      match Value.sql_eq a b with Some true -> Value.Null | _ -> a)
  | "ABS", [ fa ] ->
    fun env -> (
      match fa env with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (abs i)
      | Value.Real f -> Value.Real (Float.abs f)
      | v -> error "ABS expects a number, got %s" (Value.describe v))
  | "LENGTH", [ fa ] ->
    fun env -> (
      match fa env with
      | Value.Null -> Value.Null
      | v -> Value.Int (String.length (Value.to_string v)))
  | "UPPER", [ fa ] ->
    fun env -> (
      match fa env with
      | Value.Null -> Value.Null
      | v -> Value.Text (String.uppercase_ascii (Value.to_string v)))
  | "LOWER", [ fa ] ->
    fun env -> (
      match fa env with
      | Value.Null -> Value.Null
      | v -> Value.Text (String.lowercase_ascii (Value.to_string v)))
  | "NEXTVAL", [ fa ] ->
    let db = ctx.db in
    fun env -> (
      match fa env with
      | Value.Text seq -> Value.Int (Db.nextval db seq)
      | v -> error "NEXTVAL expects a sequence name, got %s" (Value.describe v))
  | "CONSTRAINT_ERROR", [ fa ] ->
    (* trigger-body guard: abort the statement with a constraint violation
       carrying the evaluated message *)
    fun env -> Table.violation "%s" (Value.to_string (fa env))
  | _, _ -> (
    match Db.find_function ctx.db name with
    | Some f ->
      let db = ctx.db in
      fun env -> f db (List.map (fun g -> g env) fargs)
    | None -> error "unknown function %s" name)

(* Decorrelation of EXISTS: recognise a single-select subquery over one named
   object whose correlated conjuncts are all equalities [inner_col = outer_e];
   evaluate the inner relation once per statement and probe a hash of the
   inner key columns. Otherwise one row answers the EXISTS, so the subquery
   runs in first-row mode where it may ({!first_row_ok}), and is naively
   re-evaluated where it may not. *)
and compile_exists ctx scopes q negated =
  match decorrelate ctx scopes q with
  | Some (p, probe) ->
    ctx.subplans <- p :: ctx.subplans;
    fun env -> Value.Bool (if negated then probe env = [] else probe env <> [])
  | None ->
    let first =
      first_row_ok ctx.db q
      && match q.limit with Some n -> n > 0 | None -> true
    in
    (* the rows that answer it: its first row, in first-row mode *)
    let rows =
      compile_subquery ctx scopes q (fun scopes ->
          if first then
            let p, it = compile_first ctx scopes { q with limit = None } in
            (p, fun env -> Option.to_list (it env (fun _ -> true)))
          else
            let p, fq = compile_query ctx scopes q in
            (p, fun env -> (fq env).rel_rows))
    in
    fun env -> Value.Bool ((rows env <> []) <> negated)

(* An expression subquery's rows, compiled by [compile] against [scopes],
   its plan handed to the enclosing operator. One that reads no column of an
   enclosing scope (it compiles without them, putting off no error) and
   calls no function but the pure built-ins has the same rows for every row
   of a statement run (and pin): with the fast paths on, it runs once, and
   its rows are kept in the run's memos, never in the closure. *)
and compile_subquery ctx scopes q compile =
  let closed =
    if
      not
        (ctx.db.Db.optimizations
        && List.exists (fun s -> Array.length s.entries > 0) scopes
        &&
        let _, _, calls = query_reads ctx.db q in
        not calls)
    then None
    else
      let saved = ctx.subplans and deferred = ctx.deferred in
      match compile [] with
      | r when ctx.deferred = deferred -> Some r
      | _ | (exception Exec_error _) ->
        ctx.subplans <- saved;
        None
  in
  let p, f =
    match closed with
    | Some (p, f) ->
      let site = ref () in
      let build env = Once (f env) in
      ( p,
        fun env ->
          match run_memo env site build with
          | Once rows -> rows
          | Hash _ -> assert false )
    | None -> compile scopes
  in
  ctx.subplans <- p :: ctx.subplans;
  f

and compile_in_query ctx scopes e q negated =
  let fe = compile_expr ctx scopes e in
  let fq =
    compile_subquery ctx scopes q (fun scopes ->
        let p, fq = compile_query ctx scopes q in
        (p, fun env -> (fq env).rel_rows))
  in
  fun env ->
    let v = fe env in
    if Value.is_null v then Value.Null
    else begin
      let found = ref false and saw_null = ref false in
      List.iter
        (fun row ->
          if Array.length row <> 1 then error "IN subquery must return one column";
          if Value.is_null row.(0) then saw_null := true
          else if Value.equal v row.(0) then found := true)
        (fq env);
      if !found then Value.Bool (not negated)
      else if !saw_null then Value.Null
      else Value.Bool negated
    end

(** Attempt to compile the subquery into [env -> matching inner rows], with
    the plan node of the read that serves it. An index probe returns the
    first matching row only, read off the bucket in first-row mode: the
    EXISTS it serves asks no more, and the probe calls nothing per row. *)
and decorrelate ctx scopes q =
  match q with
  | { body = Select sel; order_by = []; limit = None } -> (
    match sel with
    | { from = Some (From_table (tname, alias)); group_by = []; having = None;
        distinct = false; _ } ->
      let inner_scope =
        { entries = from_entries ctx (From_table (tname, alias)) }
      in
      let sub_scopes = inner_scope :: scopes in
      let conj = match sel.where with None -> [] | Some w -> conjuncts w in
      (* Split into inner-only conjuncts and correlated equalities. *)
      let classify e =
        if not (references_depth sub_scopes 0 e) then `Outer_only e
        else
          let inner_only x =
            references_depth sub_scopes 0 x
            && not (List.exists (fun d -> references_depth sub_scopes d x)
                      (List.init (List.length scopes) (fun i -> i + 1)))
          in
          let outer_only x = not (references_depth sub_scopes 0 x) in
          if inner_only e then `Inner e
          else
            match e with
            | Binop (Eq, a, b) when inner_only a && outer_only b -> `Key (a, b)
            | Binop (Eq, a, b) when inner_only b && outer_only a -> `Key (b, a)
            | _ -> `Bad
      in
      let classified = List.map classify conj in
      if List.exists (function `Bad -> true | _ -> false) classified then None
      else begin
        let keys =
          List.filter_map (function `Key k -> Some k | _ -> None) classified
        in
        let inner_preds =
          List.filter_map (function `Inner e -> Some e | _ -> None) classified
        in
        let outer_preds =
          List.filter_map (function `Outer_only e -> Some e | _ -> None) classified
        in
        (* the hash is keyed by inner columns *)
        if
          keys = []
          || List.exists
               (function Col _, _ -> false | _ -> true)
               keys
        then None
        else begin
          let fouter =
            List.map (fun e -> compile_expr ctx scopes e) outer_preds
          in
          let fkeys_outer =
            List.map (fun (_, outer_e) -> compile_expr ctx scopes outer_e) keys
          in
          (* index-probe fast path: a stored table probed on one indexed
             column needs no hash memo at all *)
          let index_probe =
            if not ctx.db.Db.optimizations then None
            else
            match keys, inner_preds, Db.find_table_opt ctx.db tname with
            | [ (Col (q', n'), _) ], [], Some tbl -> (
              let pos = snd (resolve_column [ inner_scope ] q' n') in
              let name = snd inner_scope.entries.(pos) in
              match Table.indexed_column tbl name with
              | Some idx -> Some (tbl, idx)
              | None -> None)
            | _ -> None
          in
          match index_probe with
          | Some (tbl, idx) ->
            Some
              ( { kind = "scan"; detail = Db.key tname; path = "index";
                  inputs = []; first_row = true },
                fun env ->
                if Table.cardinality tbl = 0 then []
                else
                  let outer_ok =
                    List.for_all (fun f -> bool3 (f env) = Some true) fouter
                  in
                  if not outer_ok then []
                  else
                    match fkeys_outer with
                    | [ f ] -> (
                      let v = f env in
                      if Value.is_null v then []
                      else
                        match Table.index_rows tbl idx v () with
                        | Seq.Cons (row, _) -> [ row ]
                        | Seq.Nil -> [])
                    | _ -> [] )
          | None ->
          (* The hash of the inner rows is built lazily, once per statement
             run (and pin), and kept in the run's memos. *)
          let site = ref () in
          let read = snd (object_read ctx tname) in
          let key_positions =
            List.filter_map
              (function
                | Col (q', n'), _ ->
                  Some (snd (resolve_column [ inner_scope ] q' n'))
                | _ -> None)
              keys
          in
          let fpred =
            List.map (fun e -> compile_expr ctx [ inner_scope ] e) inner_preds
          in
          let build env =
            let rel = object_relation env.run read.detail in
            let tbl = Hashtbl.create (List.length rel.rel_rows) in
            List.iter
              (fun row ->
                let inner_env = { env with rows = [ row ] } in
                let ok =
                  List.for_all
                    (fun f -> bool3 (f inner_env) = Some true)
                    fpred
                in
                if ok then begin
                  let key = List.map (fun pos -> row.(pos)) key_positions in
                  if not (List.exists Value.is_null key) then
                    Hashtbl.replace tbl key
                      (row
                      :: (Option.value (Hashtbl.find_opt tbl key) ~default:[]))
                end)
              rel.rel_rows;
            Hash tbl
          in
          Some
            ( read,
              fun env ->
                let outer_ok =
                  List.for_all (fun f -> bool3 (f env) = Some true) fouter
                in
                if not outer_ok then []
                else begin
                  let tbl =
                    match run_memo env site build with
                    | Hash t -> t
                    | Once _ -> assert false
                  in
                  let key = List.map (fun f -> f env) fkeys_outer in
                  if List.exists Value.is_null key then []
                  else Option.value (Hashtbl.find_opt tbl key) ~default:[]
                end )
        end
      end
    | _ -> None)
  | _ -> None

(* --- relations of named objects ------------------------------------------ *)

(* Record a table scan once per statement, whichever executor serves it. *)
and record_scan_once run k (tbl : Table.t) =
  if not (Hashtbl.mem run.scans k) then begin
    Hashtbl.replace run.scans k ();
    let m = run.rdb.Db.metrics in
    if Metrics.collecting m then Metrics.record_scan m k (Table.cardinality tbl)
  end

(* The table's columnar snapshot, with the scan recorded for telemetry.
   Callers hold the batch for at most one statement, so a concurrent write
   (which bumps the epoch and re-extracts on next access) cannot be observed
   mid-plan any more than the row path's per-statement snapshot could. *)
and table_batch run k (tbl : Table.t) =
  record_scan_once run k tbl;
  Table.batch tbl

(* The relation of the object whose catalog key (lowercase name) is [k]. *)
and object_relation run k : relation =
  match Hashtbl.find_opt run.cache k with
  | Some rel -> rel
  | None ->
    let db = run.rdb in
    let rel =
      match Db.find_key db k with
      | Some (Db.Obj_table tbl) ->
        record_scan_once run k tbl;
        let m = db.Db.metrics in
        let tr = Metrics.child_active m in
        let ts = if tr then Metrics.now_ns () else 0 in
        let path = scan_path db in
        let rows =
          if path = "batch" then Batch.rows_of (Table.batch tbl)
          else Hashtbl.fold (fun _ row acc -> row :: acc) tbl.Table.rows []
        in
        let n = Table.cardinality tbl in
        if tr then
          Metrics.record_child m ~kind:"scan" ~detail:k ~path ~start_ns:ts
            ~ns:(Metrics.now_ns () - ts) ~rows_in:n ~rows:n;
        {
          rel_cols = Schema.names tbl.Table.schema;
          rel_rows = rows;
          rel_count = n;
        }
      | Some (Db.Obj_view v) -> view_relation run k v
      | None -> error "no such table or view %s" k
    in
    Hashtbl.replace run.cache k rel;
    rel

(* Evaluate a view, going through the cross-statement result cache kept in
   its memo ({!view_memo}): a hit is served as long as every table the view
   reads is at the epoch recorded when the result was computed; a miss
   recomputes and re-stores. A view that can call an impure function is
   evaluated afresh every statement. *)
and view_relation run k (v : Db.view) : relation =
  let db = run.rdb in
  let m = db.Db.metrics in
  let fr = if Metrics.child_active m then Some (Metrics.open_span m) else None in
  let finish path rel =
    (match fr with
    | Some fr ->
      let rows =
        if rel.rel_count >= 0 then rel.rel_count
        else if m.Metrics.detail then List.length rel.rel_rows
        else -1
      in
      Metrics.close_span m fr ~kind:"view" ~detail:k ~path ~rows_in:(-1) ~rows
    | None -> ());
    rel
  in
  let compute () =
    (* expansion-depth bookkeeping for spans; the statement prologue resets
       the depth, so an exception unwinding through here cannot skew later
       statements *)
    let d = m.Metrics.cur_view_depth + 1 in
    m.Metrics.cur_view_depth <- d;
    if d > m.Metrics.max_view_depth then m.Metrics.max_view_depth <- d;
    (* a body compiled now sees the views being evaluated as being
       expanded, so a cycle through a pushdown is refused by name *)
    let ctx = { (fresh_ctx db) with expanding = run.evaluating } in
    let rel =
      evaluate_view run k (fun () ->
          let _, f = view_body ctx k v in
          f { run; rows = []; args = no_args })
    in
    m.Metrics.cur_view_depth <- d - 1;
    { rel with rel_cols = v.Db.view_cols }
  in
  if not db.Db.view_cache_enabled then finish "computed" (compute ())
  else
    let vm = view_memo db k v in
    match Db.cache_lookup db vm with
    | Some rel -> finish "cache-hit" rel
    | None ->
      (* epochs are pinned before evaluation; view bodies cannot write *)
      let epochs = List.map (fun tbl -> tbl.Table.epoch) vm.Db.vm_tables in
      let rel = compute () in
      Db.cache_store db vm rel epochs;
      finish "computed" rel

(* The compiled body of view [k] for full evaluation, with the plans of its
   operators. With the planner fast paths on it is prepared once per catalog
   state, in the view's memo; with them off every statement compiles it
   afresh, which is what the coherence reference compares against. *)
and view_body ctx k (v : Db.view) : plan list * (env -> relation) =
  let compile () =
    expand_view ctx k (fun () ->
        let (p, f), subs =
          collecting ctx (fun () -> compile_query ctx [] v.Db.query)
        in
        (p :: subs, f))
  in
  if not ctx.db.Db.optimizations then compile ()
  else
    let vm = view_memo ctx.db k v in
    match
      List.find_map
        (function Body (ps, f) -> Some (ps, f) | _ -> None)
        vm.Db.vm_plans
    with
    | Some body -> body
    | None ->
      let ((ps, f) as body) = compile () in
      vm.Db.vm_plans <- Body (ps, f) :: vm.Db.vm_plans;
      count_prepared ctx.db;
      body

(* --- batch pipeline ------------------------------------------------------- *)

(* One WHERE conjunct compiled for batch evaluation: a typed column-vs-
   constant comparison, an IS NULL test on a column, or a generic per-row
   fallback over materialized candidate rows ([compile_row_pred], so the
   three-valued semantics are the row path's by construction). [None] when
   the conjunct needs machinery the batch path does not carry (subqueries).

   The "constant" side may reference outer scopes or parameters — anything
   row-independent — and is compiled against the outer scopes, where depth
   [d] of the full scope stack resolves at depth [d-1]: exactly how the row
   path's per-evaluation staging sees it. *)
and batch_conjunct ctx scopes e =
  let outer = List.tl scopes in
  let pos_of q n =
    match resolve_column scopes q n with
    | 0, p -> Some p
    | _ -> None
    | exception Exec_error _ -> None
  in
  let const_ok rhs = subquery_free rhs && not (references_depth scopes 0 rhs) in
  let generic () =
    Option.map (fun p -> `Generic p) (compile_row_pred scopes e)
  in
  match e with
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), Col (q, n), rhs)
    when const_ok rhs -> (
    match pos_of q n with
    | Some p -> Some (`Cmp (op, false, p, compile_expr ctx outer rhs))
    | None -> generic ())
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), lhs, Col (q, n))
    when const_ok lhs -> (
    match pos_of q n with
    | Some p -> Some (`Cmp (op, true, p, compile_expr ctx outer lhs))
    | None -> generic ())
  | Is_null (Col (q, n), negated) -> (
    match pos_of q n with
    | Some p -> Some (`Is_null (p, negated))
    | None -> generic ())
  | _ -> generic ()

(* The full WHERE as a selection-vector filter, or [None] when any conjunct
   declines. Conjuncts narrow the vector in syntactic order; AND's
   three-valued truth table keeps exactly the rows whose full predicate is
   TRUE either way, so the keep-set matches the row path's. *)
and compile_batch_where ctx scopes w =
  let compiled = List.map (batch_conjunct ctx scopes) (conjuncts w) in
  if List.exists Option.is_none compiled then None
  else
    let compiled = List.filter_map Fun.id compiled in
    Some
      (fun env (b : Batch.t) sel ->
        List.fold_left
          (fun sel c ->
            match c with
            | `Cmp (op, flipped, pos, f) ->
              apply_cmp b sel op ~flipped pos (f env)
            | `Is_null (pos, neg) -> apply_isnull b sel pos neg
            | `Generic p ->
              let p = p env in
              filter_sel b sel (fun i -> p (Batch.row b i)))
          sel compiled)

(* A FROM subtree the columnar pipeline can produce directly: a stored table,
   or a pushdown wrapper (a simple positional subquery-free select over one —
   the shape the pin-pushdown pre-passes and view pushdown emit). Returns the
   scope entries (identical to {!compile_from}'s), the plan node and a
   producer of (batch, selection vector). Views and joins decline: view
   reads flow through {!object_relation} (their own bodies get batch
   treatment when compiled — converting the evaluated relation here would
   bypass view pushdown, which is worth far more than a columnar top-level),
   joins through {!compile_from}. *)
and batch_from ctx outer_scopes from :
    ((string option * string) array
    * plan
    * (env -> Batch.t * int array option))
    option =
  if not (ctx.db.Db.batch_enabled && ctx.db.Db.optimizations) then None
  else
    match from with
    | From_table (name, alias) -> (
      match Db.find_object ctx.db name with
      | Some (Db.Obj_table tbl) ->
        let node =
          { kind = "scan"; detail = Db.key name; path = "batch"; inputs = [];
            first_row = false }
        in
        Some
          ( leaf_entries name alias (Schema.names tbl.Table.schema),
            node,
            fun env -> (table_batch env.run node.detail tbl, None) )
      | _ -> None)
    | From_select ({ body = Select s; order_by = []; limit = None }, alias)
      when s.group_by = [] && s.having = None && (not s.distinct)
           && not
                (List.exists
                   (function
                     | Sel_expr (e, _) -> has_aggregate e | _ -> false)
                   s.items) -> (
      match Option.bind s.from (batch_from ctx outer_scopes) with
      | None -> None
      | Some (ientries, iplan, isrc) -> (
        let iscopes = { entries = ientries } :: outer_scopes in
        match positional_items ientries iscopes s.items with
        | None -> None
        | Some positions -> (
          let fwhere =
            match s.where with
            | None -> Some (fun _ _ sel -> sel)
            | Some w -> compile_batch_where ctx iscopes w
          in
          match fwhere with
          | None -> None
          | Some fwhere ->
            let names = select_columns ctx s in
            let entries =
              Array.of_list (List.map (fun c -> (Some alias, c)) names)
            in
            let identity =
              identity_positions positions (Array.length ientries)
            in
            Some
              ( entries,
                { kind = "filter"; detail = alias; path = "batch";
                  inputs = [ iplan ]; first_row = false },
                fun env ->
                  let b, sel = isrc env in
                  let sel = fwhere env b sel in
                  let b =
                    if identity then b
                    else
                      (* column permutation shares the underlying vectors *)
                      {
                        Batch.cols =
                          Array.map (fun p -> b.Batch.cols.(p)) positions;
                        nrows = b.Batch.nrows;
                        rows_memo = None;
                      }
                  in
                  (b, sel) ))))
    | _ -> None

(* --- FROM clause ---------------------------------------------------------- *)

(* A compiled FROM produces the combined scope entries, its plan and, per
   outer env, the list of concatenated rows. Compiled [~first], it also
   returns an iterator over them where the subtree can stop early: an index
   nested-loop join, and a derived table, which runs in first-row mode
   itself. *)
and compile_from ctx ~first outer_scopes from :
    (string option * string) array
    * plan
    * (env -> Value.t array list)
    * rows_iter option =
  match from with
  | From_table (name, alias) ->
    let cols, node = object_read ctx name in
    ( leaf_entries name alias cols,
      node,
      (fun env -> (object_relation env.run node.detail).rel_rows),
      None )
  | From_select (q, _) when first ->
    let p, it = compile_first ctx outer_scopes q in
    (from_entries ctx from, p, drain it, Some it)
  | From_select (q, _) ->
    let p, fq = compile_query ctx outer_scopes q in
    (from_entries ctx from, p, (fun env -> (fq env).rel_rows), None)
  | From_join (left, kind, right, cond) ->
    (* in first-row mode the strategy is chosen before the left side
       compiles: only an index nested-loop join drives it row by row *)
    let compiled_left =
      if first then None else Some (compile_from ctx ~first outer_scopes left)
    in
    let lentries =
      match compiled_left with
      | Some (entries, _, _, _) -> entries
      | None -> from_entries ctx left
    in
    let rentries, rplan, rproduce, _ =
      compile_from ctx ~first:false outer_scopes right
    in
    let entries = Array.append lentries rentries in
    let joined = { entries } in
    let scopes = joined :: outer_scopes in
    let lscope = { entries = lentries } and rscope = { entries = rentries } in
    (* classify conjuncts of the join condition *)
    let conj = match cond with None -> [] | Some c -> conjuncts c in
    let nl = Array.length lentries in
    let lscopes = lscope :: outer_scopes in
    let rscopes = rscope :: outer_scopes in
    let refs_left e = references_depth lscopes 0 e in
    let refs_right e =
      (* re-resolve against right scope only *)
      references_depth rscopes 0 e
    in
    let keys, residual =
      List.partition_map
        (fun e ->
          match e with
          | Binop (Eq, a, b)
            when refs_left a && (not (refs_right a)) && refs_right b
                 && not (refs_left b) ->
            Left (a, b)
          | Binop (Eq, a, b)
            when refs_left b && (not (refs_right b)) && refs_right a
                 && not (refs_left a) ->
            Left (b, a)
          | e -> Right e)
        conj
    in
    (* index nested-loop fast path: the right side is a stored table and one
       join key is an indexed plain column of it — probe per left row instead
       of scanning and hashing the whole table *)
    let right_index_probe =
      if not ctx.db.Db.optimizations then None
      else
      match right with
      | From_table (rname, _) -> (
        match Db.find_table_opt ctx.db rname with
        | None -> None
        | Some tbl ->
          List.find_map
            (fun (lexpr, rexpr) ->
              match rexpr with
              | Col (q, n) -> (
                match resolve_column rscopes q n with
                | 0, pos -> (
                  let cname = snd rentries.(pos) in
                  match Table.indexed_column tbl cname with
                  | Some idx -> Some (tbl, idx, lexpr)
                  | None -> None)
                | _ -> None
                | exception _ -> None)
              | _ -> None)
            keys)
      | From_select _ | From_join _ -> None
    in
    (* in first-row mode an index nested-loop join stops at the first
       combined row its consumer keeps, and drives its left side in
       first-row mode too when its residual runs no subquery (the test it
       hands down must not) *)
    let first_join = first && Option.is_some right_index_probe in
    let first_left = first_join && List.for_all subquery_free residual in
    let _, lplan, lproduce, lfirst =
      match compiled_left with
      | Some compiled -> compiled
      | None -> compile_from ctx ~first:first_left outer_scopes left
    in
    let fresidual, residual_plans =
      collecting ctx (fun () ->
          List.map
            (fun e ->
              match compile_row_pred scopes e with
              | Some p -> Either.Left p
              | None -> Either.Right (compile_expr ctx scopes e))
            residual)
    in
    let combine lrow rrow =
      let out = Array.make (Array.length entries) Value.Null in
      Array.blit lrow 0 out 0 nl;
      Array.blit rrow 0 out nl (Array.length rrow);
      out
    in
    let null_right = Array.make (Array.length rentries) Value.Null in
    (* instantiated once per evaluation (env), then applied per row *)
    let residual_pred env =
      let fs =
        List.map
          (function
            | Either.Left p -> p env
            | Either.Right f ->
              fun row -> bool3 (f { env with rows = row :: env.rows }) = Some true)
          fresidual
      in
      match fs with
      | [] -> fun _ -> true
      | [ p ] -> p
      | fs -> fun row -> List.for_all (fun p -> p row) fs
    in
    (* a key expression that is a plain depth-0 column reads by position,
       with no per-row environment allocation *)
    let key_reader scopes_side expr : Value.t array -> env -> Value.t =
      let fallback () =
        let f = compile_expr ctx scopes_side expr in
        fun row env -> f { env with rows = row :: env.rows }
      in
      match expr with
      | Col (q, n) -> (
        match resolve_column scopes_side q n with
        | 0, p -> fun row _ -> row.(p)
        | _ -> fallback ()
        | exception Exec_error _ -> fallback ())
      | _ -> fallback ()
    in
    let no_residual = fresidual = [] in
    (* cons [lrow]'s output onto [acc], newest first: its pairing with each
       key-matching right row the residual keeps or, on a left outer join
       with none kept, the NULL-extended row. [rev_append] then the caller's
       final [rev] preserves candidate order within the group. *)
    let emit residual_ok acc lrow rrows =
      match rrows with
      | [ rrow ] when no_residual -> combine lrow rrow :: acc
      | _ -> (
        let combined =
          if no_residual then List.map (combine lrow) rrows
          else
            List.filter_map
              (fun rrow ->
                let row = combine lrow rrow in
                if residual_ok row then Some row else None)
              rrows
        in
        match kind, combined with
        | Left_outer, [] -> combine lrow null_right :: acc
        | _ -> List.rev_append combined acc)
    in
    (* batch hash join: both sides extractable as column batches and the
       single equi-join key is a plain column of each side — build and probe
       over the typed vectors, materializing rows only on emission. Bucket
       lists are built by prepending in right scan order, so within a probe
       group candidates appear in reversed right order: the same order the
       row-path hash join emits. *)
    let batch_join =
      match right_index_probe, keys with
      | None, [ (Col (lq, ln), Col (rq, rn)) ] -> (
        match
          ( resolve_column lscopes lq ln,
            resolve_column rscopes rq rn,
            batch_from ctx outer_scopes left,
            batch_from ctx outer_scopes right )
        with
        | (0, lp), (0, rp), Some (_, lbplan, lbsrc), Some (_, rbplan, rbsrc) ->
          Some
            ( [ lbplan; rbplan ],
              fun env ->
              let lb, lsel = lbsrc env in
              let rb, rsel = rbsrc env in
              let residual_ok = residual_pred env in
              let probe : int -> int list =
                match lb.Batch.cols.(lp), rb.Batch.cols.(rp) with
                | Batch.C_int (la, lm), Batch.C_int (ra, rm) ->
                  (* both key columns are unboxed ints: hash on the raw int *)
                  let h : (int, int list) Hashtbl.t =
                    Hashtbl.create (Batch.sel_length rb rsel)
                  in
                  Batch.fold_sel rb rsel
                    (fun () j ->
                      if
                        not
                          (match rm with
                          | Some m -> Batch.null_at m j
                          | None -> false)
                      then
                        Hashtbl.replace h ra.(j)
                          (j
                          :: Option.value (Hashtbl.find_opt h ra.(j)) ~default:[]))
                    ();
                  fun i ->
                    if
                      match lm with
                      | Some m -> Batch.null_at m i
                      | None -> false
                    then []
                    else Option.value (Hashtbl.find_opt h la.(i)) ~default:[]
                | _ ->
                  (* boxed fallback: same structural hashing as the row path *)
                  let h : (Value.t, int list) Hashtbl.t =
                    Hashtbl.create (Batch.sel_length rb rsel)
                  in
                  Batch.fold_sel rb rsel
                    (fun () j ->
                      let key = Batch.get rb rp j in
                      if not (Value.is_null key) then
                        Hashtbl.replace h key
                          (j :: Option.value (Hashtbl.find_opt h key) ~default:[]))
                    ();
                  fun i ->
                    let key = Batch.get lb lp i in
                    if Value.is_null key then []
                    else Option.value (Hashtbl.find_opt h key) ~default:[]
              in
              List.rev
                (Batch.fold_sel lb lsel
                   (fun acc i ->
                     match probe i, kind with
                     | [], Inner -> acc
                     | js, _ ->
                       emit residual_ok acc (Batch.row lb i)
                         (List.map (Batch.row rb) js))
                   []) )
        | _ -> None
        | exception Exec_error _ -> None)
      | _ -> None
    in
    let produce, first_produce =
      match right_index_probe with
    | Some (tbl, idx, lkey_expr) ->
      let flkey = key_reader lscopes lkey_expr in
      (* the index buckets by structural value equality, so with a single
         join key the probed candidates need no re-verification (matching
         the other index plans); extra keys are verified per candidate *)
      let verify =
        match keys with
        | [ _ ] -> None
        | _ ->
          let flkeys = List.map (fun (a, _) -> key_reader lscopes a) keys in
          let frkeys = List.map (fun (_, b) -> key_reader rscopes b) keys in
          Some
            (fun env lrow ->
              let lkeyvals = List.map (fun f -> f lrow env) flkeys in
              fun rrow ->
                let rkeyvals = List.map (fun f -> f rrow env) frkeys in
                List.for_all2
                  (fun a b ->
                    (not (Value.is_null a))
                    && (not (Value.is_null b))
                    && Value.equal a b)
                  lkeyvals rkeyvals)
      in
      ( (fun env ->
          (* accumulator loop instead of [concat_map]: the common case of a
             unique-key probe yields one candidate per left row, which conses
             straight onto the accumulator with no per-row closure *)
          let lrows = lproduce env in
          let residual_ok = residual_pred env in
          List.rev
            (List.fold_left
               (fun acc lrow ->
                 let v = flkey lrow env in
                 let candidates =
                   if Value.is_null v then [] else Table.index_probe tbl idx v
                 in
                 emit residual_ok acc lrow
                   (match verify with
                   | None -> candidates
                   | Some verify -> List.filter (verify env lrow) candidates))
               [] lrows)),
        (* first-row mode: the same pairings in the same order, each handed
           to [keep] as it is made; the right bucket is read row by row *)
        if not first_join then None
        else
        Some (fun env keep ->
          let residual_ok = residual_pred env in
          let found = ref None in
          let offer row =
            keep row
            && begin
                 found := Some row;
                 true
               end
          in
          let pair lrow =
            let v = flkey lrow env in
            let candidates =
              if Value.is_null v then Seq.empty else Table.index_rows tbl idx v
            in
            let candidates =
              match verify with
              | None -> candidates
              | Some verify -> Seq.filter (verify env lrow) candidates
            in
            let matched = ref false in
            Seq.exists
              (fun rrow ->
                let row = combine lrow rrow in
                (no_residual || residual_ok row)
                && begin
                     matched := true;
                     offer row
                   end)
              candidates
            || (kind = Left_outer && (not !matched)
               && offer (combine lrow null_right))
          in
          (match lfirst with
          | Some lfirst when first_left -> ignore (lfirst env pair)
          | _ -> ignore (List.exists pair (lproduce env)));
          !found) )
    | None -> (
    let produce =
    match batch_join with
    | Some (_, produce) -> produce
    | None -> (
    match keys with
    | [ (la, rb) ] ->
      (* single-key hash join: the hash keys are the values themselves, and
         plain-column keys read by position *)
      let flkey = key_reader lscopes la and frkey = key_reader rscopes rb in
      fun env ->
        let lrows = lproduce env and rrows = rproduce env in
        let residual_ok = residual_pred env in
        let h : (Value.t, Value.t array list) Hashtbl.t =
          Hashtbl.create (List.length rrows)
        in
        List.iter
          (fun rrow ->
            let key = frkey rrow env in
            if not (Value.is_null key) then
              Hashtbl.replace h key
                (rrow :: Option.value (Hashtbl.find_opt h key) ~default:[]))
          rrows;
        List.rev
          (List.fold_left
             (fun acc lrow ->
               let key = flkey lrow env in
               emit residual_ok acc lrow
                 (if Value.is_null key then []
                  else Option.value (Hashtbl.find_opt h key) ~default:[]))
             [] lrows)
    | _ :: _ ->
      let flkeys = List.map (fun (a, _) -> compile_expr ctx lscopes a) keys in
      let frkeys = List.map (fun (_, b) -> compile_expr ctx rscopes b) keys in
      fun env ->
        let lrows = lproduce env and rrows = rproduce env in
        let residual_ok = residual_pred env in
        let h = Hashtbl.create (List.length rrows) in
        List.iter
          (fun rrow ->
            let renv = { env with rows = rrow :: env.rows } in
            let key = List.map (fun f -> f renv) frkeys in
            if not (List.exists Value.is_null key) then
              Hashtbl.replace h key
                (rrow :: (Option.value (Hashtbl.find_opt h key) ~default:[])))
          rrows;
        List.rev
          (List.fold_left
             (fun acc lrow ->
               let lenv = { env with rows = lrow :: env.rows } in
               let key = List.map (fun f -> f lenv) flkeys in
               emit residual_ok acc lrow
                 (if List.exists Value.is_null key then []
                  else Option.value (Hashtbl.find_opt h key) ~default:[]))
             [] lrows)
    | [] ->
      fun env ->
        let lrows = lproduce env and rrows = rproduce env in
        let residual_ok = residual_pred env in
        List.rev
          (List.fold_left
             (fun acc lrow -> emit residual_ok acc lrow rrows)
             [] lrows))
    in
    (produce, None))
    in
    (* one span per evaluation, labelled with the strategy chosen above;
       an index-probed right side is read through its index, and a batch
       join reads both sides off their columnar sources *)
    let jpath, jinputs =
      match right_index_probe, batch_join with
      | Some _, _ ->
        ("index", [ lplan; { rplan with path = "index"; first_row = first_join } ])
      | _, Some (bplans, _) -> ("batch", bplans)
      | _ -> ((if keys <> [] then "hash" else "loop"), [ lplan; rplan ])
    in
    let jdetail =
      let rec leaf = function
        | From_table (n, _) -> Db.key n
        | From_select (_, a) -> a
        | From_join (l, _, _, _) -> leaf l
      in
      leaf left ^ "*" ^ leaf right
    in
    let node =
      { kind = "join"; detail = jdetail; path = jpath;
        inputs = jinputs @ residual_plans; first_row = first_join }
    in
    let m = ctx.db.Db.metrics in
    let run_rows env =
      if Metrics.child_active m then (
        let fr = Metrics.open_span m in
        let rows = produce env in
        let n = if m.Metrics.detail then List.length rows else -1 in
        Metrics.close_span m fr ~kind:node.kind ~detail:node.detail
          ~path:node.path ~rows_in:(-1) ~rows:n;
        rows)
      else produce env
    in
    match first_produce with
    | Some first_produce ->
      let run_first env keep =
        if Metrics.child_active m then (
          let fr = Metrics.open_span m in
          let n = ref 0 in
          let r =
            first_produce env (fun row ->
                incr n;
                keep row)
          in
          Metrics.close_span m fr ~kind:node.kind ~detail:node.detail
            ~path:node.path ~rows_in:(-1)
            ~rows:(if m.Metrics.detail then !n else -1);
          r)
        else first_produce env keep
      in
      (entries, node, drain run_first, Some run_first)
    | _ -> (entries, node, run_rows, None)

(* --- output column naming ------------------------------------------------- *)

(* The scope entries of a FROM subtree — the columns {!compile_from}'s rows
   carry — without compiling it. *)
and from_entries ctx = function
  | From_table (name, alias) ->
    leaf_entries name alias (object_columns ctx name)
  | From_select (q, alias) ->
    Array.of_list (List.map (fun c -> (Some alias, c)) (query_columns ctx q))
  | From_join (l, _, r, _) ->
    Array.append (from_entries ctx l) (from_entries ctx r)

and select_columns ctx sel =
  let from_entries () =
    match sel.from with None -> [||] | Some f -> from_entries ctx f
  in
  List.concat_map
    (function
      | Star -> Array.to_list (Array.map snd (from_entries ()))
      | Qualified_star q ->
        Array.to_list (from_entries ())
        |> List.filter_map (fun (alias, n) ->
               match alias with
               | Some a when String.lowercase_ascii a = String.lowercase_ascii q
                 ->
                 Some n
               | _ -> None)
      | Sel_expr (_, Some a) -> [ a ]
      | Sel_expr (Col (_, n), None) -> [ n ]
      | Sel_expr (Fun (name, _), None) -> [ String.lowercase_ascii name ]
      | Sel_expr (_, None) -> [ "column" ])
    sel.items

and query_columns ctx q =
  let rec of_set_op = function
    | Select sel -> select_columns ctx sel
    | Union (a, _, _) -> of_set_op a
  in
  of_set_op q.body

(* --- SELECT ---------------------------------------------------------------- *)

and compile_select ctx ?(first = false) outer_scopes sel :
    plan * (env -> relation) * rows_iter option =
  (* pre-pass: an equality conjunct pinning an alias-qualified column to a
     column-free expression is pushed onto that join side ({!pin_side}). The
     original WHERE is kept, so this is purely an evaluation-order rewrite. *)
  let sel =
    match sel.from with
    | Some (From_join _ as f0) when ctx.db.Db.optimizations ->
      let qualified_pins cond =
        List.filter_map
          (fun c ->
            match pin_of c with
            | Some (Some a, n, e) -> Some (a, n, e)
            | _ -> None)
          (conjuncts cond)
      in
      let where_pins =
        match sel.where with Some w -> qualified_pins w | None -> []
      in
      (* constant pins written in ON conditions push down too: for an
         all-inner join tree ON and WHERE filtering coincide, so the wrap is
         the same evaluation-order rewrite. Outer joins give ON conditions
         different semantics (they gate null-extension, not row survival), so
         any outer join in the tree disables this source of pins. *)
      let on_pins =
        if not (all_inner f0) then []
        else
          let rec collect = function
            | From_table _ | From_select _ -> []
            | From_join (l, _, r, c) ->
              (match c with None -> [] | Some c -> qualified_pins c)
              @ collect l @ collect r
          in
          collect f0
      in
      let wrap from (alias, icol, key) =
        Option.value (pin_side alias icol key from) ~default:from
      in
      (match where_pins @ on_pins with
      | [] -> sel
      | pins -> { sel with from = Some (List.fold_left wrap f0 pins) })
    | _ -> sel
  in
  (* second pre-pass: lift subquery-free equality conjuncts of the WHERE
     into the ON condition of the join node where their column references
     split sides. compile_from only hash-joins on ON-condition equalities,
     so linking equalities written in the WHERE (view-over-view joins)
     would otherwise degrade to nested loops. Inner joins only — ON and
     WHERE filtering coincide there — and the original WHERE is kept, so
     this too is purely an evaluation-order rewrite. *)
  let sel =
    match sel.from, sel.where with
    | Some (From_join _ as f0), Some w when ctx.db.Db.optimizations ->
      if not (all_inner f0) then sel
      else begin
        (* AND [e] into the deepest join node whose sides it straddles; a
           conjunct resolving on one side only descends there (name
           resolution is preserved: the other side has no match, so first-
           match lookup lands on the same column as in the full scope) *)
        let place f0 e =
          let rec go f =
            match f with
            | From_table _ | From_select _ -> None
            | From_join (l, k, r, c) ->
              let lsc = { entries = from_entries ctx l } :: outer_scopes in
              let rsc = { entries = from_entries ctx r } :: outer_scopes in
              let in_l = references_depth lsc 0 e in
              let in_r = references_depth rsc 0 e in
              if in_l && in_r then
                Some
                  (From_join
                     ( l,
                       k,
                       r,
                       Some
                         (match c with
                         | None -> e
                         | Some c -> Binop (And, c, e)) ))
              else if in_l then
                Option.map (fun l' -> From_join (l', k, r, c)) (go l)
              else if in_r then
                Option.map (fun r' -> From_join (l, k, r', c)) (go r)
              else None
          in
          Option.value (go f0) ~default:f0
        in
        let liftable =
          List.filter
            (function
              | Binop (Eq, a, b) -> subquery_free a && subquery_free b
              | _ -> false)
            (conjuncts w)
        in
        match List.fold_left place f0 liftable with
        | f -> { sel with from = Some f }
        | exception Exec_error _ -> sel
      end
    | _ -> sel
  in
  let aggregating =
    sel.group_by <> []
    || List.exists
         (function Sel_expr (e, _) -> has_aggregate e | _ -> false)
         sel.items
    || match sel.having with Some h -> has_aggregate h | None -> false
  in
  (* first-row mode ({!first_row_ok}): a non-aggregating select stops its
     filter at the first row that survives it, its DISTINCT and its
     consumer's test. When its WHERE and items run no subquery, it hands
     that test down to its source, which then stops early too; a view
     pushdown carries it into the view body beside the pushed pin. *)
  let first = first && not aggregating in
  let pass_down =
    first
    && (match sel.where with Some w -> subquery_free w | None -> true)
    && List.for_all
         (function Sel_expr (e, _) -> subquery_free e | Star | Qualified_star _ -> true)
         sel.items
  in
  let entries, from_plans, produce, from_first =
    match sel.from with
    | None -> ([||], [], (fun _ -> [ [||] ]), None)
    | Some f ->
      let entries, p, produce, it =
        compile_from ctx ~first:pass_down outer_scopes f
      in
      (entries, [ p ], produce, it)
  in
  let scope = { entries } in
  let scopes = scope :: outer_scopes in
  let cols = select_columns ctx sel in
  (* plan choice: view pushdown, then the index equality probe, then the
     columnar batch pipeline, then plain row-at-a-time interpretation *)
  let vpd = view_pushdown ctx ~first:pass_down sel in
  let ifp = index_fast_path ctx ~first:pass_down sel scope scopes in
  (* batch pipeline: FROM is batch-producible and the whole WHERE compiles
     to selection-vector conjuncts — then filtering runs typed over the
     columnar snapshot and the WHERE is consumed here *)
  let batch_pipe =
    match vpd, ifp, sel.from with
    | None, None, Some f -> (
      match batch_from ctx outer_scopes f with
      | None -> None
      | Some (_, bplan, bsrc) -> (
        match sel.where with
        | None -> Some (bplan, bsrc)
        | Some w -> (
          match compile_batch_where ctx scopes w with
          | None -> None
          | Some fw ->
            Some
              ( bplan,
                fun env ->
                  let b, s = bsrc env in
                  (b, fw env b s) ))))
    | _ -> None
  in
  (* the batch pipeline filters the whole snapshot at once: first-row mode
     does not reach it *)
  let first = first && Option.is_none batch_pipe in
  let path, source, produce, source_first =
    match vpd, ifp, batch_pipe with
    | Some (p, produce, it), _, _ -> ("pushdown", [ p ], produce, it)
    | None, Some (p, produce, it), _ -> ("index", [ p ], produce, it)
    | None, None, Some (p, bp) ->
      ( "batch",
        [ p ],
        (fun env ->
          let b, s = bp env in
          Batch.rows_for_sel b s),
        None )
    | None, None, None -> ("row", from_plans, produce, from_first)
  in
  (* the WHERE, the items and GROUP BY compile their expression subqueries
     here, and those run under this select's span: collect their plans (by
     hand rather than through [collecting], which would allocate a closure
     on every compile of a point read) *)
  let saved = ctx.subplans in
  ctx.subplans <- [];
  (* cheap-first WHERE: subquery-free conjuncts run before conjuncts with
     subqueries, so EXISTS probes only see rows that survive the plain
     predicates. AND's three-valued truth table is symmetric, so this is a
     pure evaluation-order rewrite. *)
  let fwhere =
    match sel.where with
    | _ when Option.is_some batch_pipe -> None (* consumed by the pipeline *)
    | None -> None
    | Some w ->
      let cheap, costly = List.partition subquery_free (conjuncts w) in
      let w =
        match cheap @ costly with
        | [] -> w
        | e :: rest ->
          List.fold_left (fun a b -> Binop (And, a, b)) e rest
      in
      (match compile_row_pred scopes w with
      | Some p -> Some (Either.Left p)
      | None -> Some (Either.Right (compile_expr ctx scopes w)))
  in
  let filter env rows =
    match fwhere with None -> rows | Some w -> List.filter (row_test w env) rows
  in
  let eval, first_eval =
    if not aggregating then begin
    let direct_positions = positional_items entries scopes sel.items in
    let identity_projection =
      (* SELECT * re-emits produced rows unchanged: the passthrough layers of
         the generated delta code (version views, @-alias views) then cost
         nothing per row. Rows are immutable by convention, so sharing is
         safe. *)
      match direct_positions with
      | Some ps -> identity_positions ps (Array.length entries)
      | None -> false
    in
    let item_fns =
      match direct_positions with
      | Some _ -> []
      | None ->
        List.concat_map
          (function
            | Star ->
              List.init (Array.length entries) (fun i ->
                  fun (env : env) -> (List.hd env.rows).(i))
            | Qualified_star q ->
              let positions = ref [] in
              Array.iteri
                (fun i (alias, _) ->
                  match alias with
                  | Some a
                    when String.lowercase_ascii a = String.lowercase_ascii q ->
                    positions := i :: !positions
                  | _ -> ())
                entries;
              List.rev_map
                (fun i -> fun (env : env) -> (List.hd env.rows).(i))
                !positions
            | Sel_expr (e, _) ->
              let f = compile_expr ctx scopes e in
              [ f ])
          sel.items
    in
    let eval =
    match direct_positions with
    | Some _ when identity_projection -> (
      match batch_pipe with
      | Some (_, bp) ->
        (* identity off the batch: the memoized row list when unfiltered,
           materialized survivors otherwise; exact counts either way *)
        fun env ->
          let b, s = bp env in
          let rows = Batch.rows_for_sel b s in
          if sel.distinct then
            let rows, n = dedupe rows in
            { rel_cols = cols; rel_rows = rows; rel_count = n }
          else
            { rel_cols = cols; rel_rows = rows;
              rel_count = Batch.sel_length b s }
      | None ->
        fun env ->
          let rows = filter env (produce env) in
          if sel.distinct then
            let rows, n = dedupe rows in
            { rel_cols = cols; rel_rows = rows; rel_count = n }
          else { rel_cols = cols; rel_rows = rows; rel_count = -1 })
    | Some positions when Option.is_some batch_pipe ->
      (* fused batch projection: gather only the projected columns of the
         surviving rows, straight off the column vectors *)
      let _, bp = Option.get batch_pipe in
      let n = Array.length positions in
      let project_from b i : Value.t array =
        match positions with
        | [| a |] -> [| Batch.get b a i |]
        | [| a; b2 |] -> [| Batch.get b a i; Batch.get b b2 i |]
        | [| a; b2; c |] ->
          [| Batch.get b a i; Batch.get b b2 i; Batch.get b c i |]
        | [| a; b2; c; d |] ->
          [| Batch.get b a i; Batch.get b b2 i; Batch.get b c i;
             Batch.get b d i |]
        | _ -> Array.init n (fun j -> Batch.get b positions.(j) i)
      in
      fun env ->
        let b, s = bp env in
        let rows =
          List.rev
            (Batch.fold_sel b s (fun acc i -> project_from b i :: acc) [])
        in
        if sel.distinct then
          let rows, n = dedupe rows in
          { rel_cols = cols; rel_rows = rows; rel_count = n }
        else
          { rel_cols = cols; rel_rows = rows;
            rel_count = Batch.sel_length b s }
    | Some positions ->
      let project = project_positions positions in
      if sel.distinct then
        (* fused project-and-dedupe: one pass, no intermediate row list. The
           seen-set is bucketed by the first output column (cheap to hash —
           typically the InVerDa key) with full structural comparison inside
           a bucket, matching what a whole-row hash table would keep. *)
        fun env ->
          let rows = filter env (produce env) in
          let seen : (Value.t, Value.t array list) Hashtbl.t =
            Hashtbl.create 64
          in
          let n = ref 0 in
          let out =
            List.filter_map
              (fun row ->
                let p = project row in
                let k = if Array.length p = 0 then Value.Null else p.(0) in
                let prior =
                  match Hashtbl.find_opt seen k with Some l -> l | None -> []
                in
                if List.exists (fun q -> q = p) prior then None
                else begin
                  Hashtbl.replace seen k (p :: prior);
                  incr n;
                  Some p
                end)
              rows
          in
          { rel_cols = cols; rel_rows = out; rel_count = !n }
      else
        fun env ->
          let rows = filter env (produce env) in
          let n = ref 0 in
          let out =
            List.map
              (fun row ->
                incr n;
                project row)
              rows
          in
          { rel_cols = cols; rel_rows = out; rel_count = !n }
    | None ->
    fun env ->
      let rows = filter env (produce env) in
      let n = ref 0 in
      let out =
        List.map
          (fun row ->
            incr n;
            let env' = { env with rows = row :: env.rows } in
            Array.of_list (List.map (fun f -> f env') item_fns))
          rows
      in
      if sel.distinct then
        let out, n = dedupe out in
        { rel_cols = cols; rel_rows = out; rel_count = n }
      else { rel_cols = cols; rel_rows = out; rel_count = !n }
    in
    (* first-row mode: the rows [eval] returns, in its order, each handed to
       [keep] as it survives; a source that cannot stop early is read in
       full *)
    let first_eval =
      if not first then None
      else
      let source_first =
        match source_first with Some it when pass_down -> Some it | _ -> None
      in
      let project : env -> Value.t array -> Value.t array =
        match direct_positions with
        | Some _ when identity_projection -> fun _ row -> row
        | Some positions ->
          let project = project_positions positions in
          fun _ -> project
        | None ->
          fun env row ->
            let env' = { env with rows = row :: env.rows } in
            Array.of_list (List.map (fun f -> f env') item_fns)
      in
      Some (fun env keep ->
      let test =
        match fwhere with Some w -> row_test w env | None -> fun _ -> true
      in
      let project = project env in
      let seen = if sel.distinct then Some (Hashtbl.create 8) else None in
      let found = ref None in
      let offer row =
        test row
        &&
        let out = project row in
        (match seen with
        | None -> true
        | Some h ->
          (not (Hashtbl.mem h out))
          && begin
               Hashtbl.replace h out ();
               true
             end)
        && keep out
        && begin
             found := Some out;
             true
           end
      in
      (match source_first with
      | Some source_first -> ignore (source_first env offer)
      | None -> ignore (List.exists offer (produce env)));
      !found)
    in
    (eval, first_eval)
    end
    else (compile_aggregate ctx scopes sel cols produce filter, None)
  in
  let subplans = List.rev ctx.subplans in
  ctx.subplans <- saved;
  let node =
    { kind = "select"; detail = ""; path; inputs = source @ subplans;
      first_row = first }
  in
  (* profile mode records one [select] node per plan with its exact output
     cardinality (in first-row mode, the rows handed to the consumer); off
     the hot path otherwise *)
  let m = ctx.db.Db.metrics in
  match first_eval with
  | None ->
    ( node,
      (fun env ->
        if m.Metrics.detail && Metrics.child_active m then (
          let fr = Metrics.open_span m in
          let rel = eval env in
          let rows =
            if rel.rel_count >= 0 then rel.rel_count
            else List.length rel.rel_rows
          in
          Metrics.close_span m fr ~kind:node.kind ~detail:node.detail
            ~path:node.path ~rows_in:(-1) ~rows;
          rel)
        else eval env),
      None )
  | Some first_eval ->
    let run_first env keep =
      if m.Metrics.detail && Metrics.child_active m then (
        let fr = Metrics.open_span m in
        let n = ref 0 in
        let r =
          first_eval env (fun row ->
              incr n;
              keep row)
        in
        Metrics.close_span m fr ~kind:node.kind ~detail:node.detail
          ~path:node.path ~rows_in:(-1) ~rows:!n;
        r)
      else first_eval env keep
    in
    ( node,
      (fun env ->
        let rows = drain run_first env in
        { rel_cols = cols; rel_rows = rows; rel_count = List.length rows }),
      Some run_first )

and dedupe rows =
  (* rows are immutable by convention; the generic hash/equality on arrays is
     structural, so they key directly. Also returns the distinct count (the
     size of the seen-set), so callers get the row count for free. *)
  let seen : (Value.t array, unit) Hashtbl.t =
    Hashtbl.create (max 64 (List.length rows))
  in
  let out =
    List.filter
      (fun row ->
        if Hashtbl.mem seen row then false
        else begin
          Hashtbl.replace seen row ();
          true
        end)
      rows
  in
  (out, Hashtbl.length seen)

and index_fast_path ctx ~first sel scope scopes =
  if not ctx.db.Db.optimizations then None
  else
  match sel.from, sel.where with
  | Some (From_table (tname, _)), Some w -> (
    match Db.find_table_opt ctx.db tname with
    | None -> None
    | Some tbl -> (
      match index_pin tbl scope scopes w with
      | None -> None
      | Some (idx, key_expr) ->
        let fkey = compile_expr ctx (List.tl scopes) key_expr in
        let node =
          { kind = "scan"; detail = Db.key tname; path = "index"; inputs = [];
            first_row = first }
        in
        let m = ctx.db.Db.metrics in
        let record t0 n =
          Metrics.record_child m ~kind:node.kind ~detail:node.detail
            ~path:node.path ~start_ns:t0 ~ns:(Metrics.now_ns () - t0)
            ~rows_in:(Table.cardinality tbl) ~rows:n
        in
        if first then
          (* the bucket read in rowid order, up to the first row kept *)
          let first_produce env keep =
            let v = fkey env in
            let rows =
              if Value.is_null v then Seq.empty else Table.index_rows tbl idx v
            in
            if Metrics.child_active m then (
              let t0 = Metrics.now_ns () in
              let n = ref 0 in
              let r =
                Seq.find
                  (fun row ->
                    incr n;
                    keep row)
                  rows
              in
              record t0 !n;
              r)
            else Seq.find keep rows
          in
          Some (node, drain first_produce, Some first_produce)
        else
          let produce env =
            if Metrics.child_active m then (
              let t0 = Metrics.now_ns () in
              let v = fkey env in
              let rows =
                if Value.is_null v then [] else Table.index_probe tbl idx v
              in
              record t0 (List.length rows);
              rows)
            else
              let v = fkey env in
              if Value.is_null v then [] else Table.index_probe tbl idx v
          in
          Some (node, produce, None)))
  | _ -> None

(* Key-filter pushdown into views: a select over a single *view* whose WHERE
   pins a view column to a row-independent, column-free expression that
   calls no function but the pure built-ins is rewritten by pushing the
   equality into every branch of the view body. Applied recursively through
   view chains, this turns point lookups along InVerDa's generated delta
   code into O(depth) instead of O(depth x N). The body is prepared once per
   (view, pinned column, first-row mode) in the view's memo with the pin as
   its key; each run evaluates the key once and hands it over as the pin.
   Returns None when the view shape does not allow it. *)
and view_pushdown ctx ~first sel =
  if not ctx.db.Db.optimizations then None
  else
  match sel.from, sel.where with
  | _, None | None, _ | Some (From_select _ | From_join _), _ -> None
  | Some (From_table (vname, _)), Some w -> (
    match Db.find_view_opt ctx.db vname with
    | None -> None
    | Some view -> (
      (* evaluated once, a key of pure built-ins is what every row reads *)
      let pure_pin c =
        match pin_of c with
        | Some (_, _, key) as pin ->
          let _, _, calls =
            query_reads ctx.db
              (select_query (simple_select [ Sel_expr (key, None) ]))
          in
          if calls then None else pin
        | None -> None
      in
      match List.find_map pure_pin (conjuncts w) with
      | None -> None
      | Some (_, col, key_expr) -> (
        let lcol = String.lowercase_ascii col in
        match
          List.find_index
            (fun c -> String.lowercase_ascii c = lcol)
            view.Db.view_cols
        with
        | None -> None
        | Some pos -> (
          let k = Db.key vname in
          match prepared_pushdown ctx k view pos first with
          | None -> None
          | Some (p, body) -> (
            let fkey = compile_expr ctx [] key_expr in
            let node =
              { kind = "view"; detail = k; path = "pushdown"; inputs = [ p ];
                first_row = first }
            in
            let m = ctx.db.Db.metrics in
            (* the body runs in a scope of its own, with the key as its pin *)
            let body_env (env : env) =
              { env with rows = []; args = { env.args with pin = fkey env } }
            in
            match body with
            | All fq ->
              let produce env =
                let env = body_env env in
                if Metrics.child_active m then (
                  let fr = Metrics.open_span m in
                  let rows = (fq env).rel_rows in
                  Metrics.close_span m fr ~kind:node.kind ~detail:node.detail
                    ~path:node.path ~rows_in:(-1) ~rows:(List.length rows);
                  rows)
                else (fq env).rel_rows
              in
              Some (node, produce, None)
            | First it ->
              let first_produce env keep =
                let env = body_env env in
                if Metrics.child_active m then (
                  let fr = Metrics.open_span m in
                  let n = ref 0 in
                  let r =
                    it env (fun row ->
                        incr n;
                        keep row)
                  in
                  Metrics.close_span m fr ~kind:node.kind ~detail:node.detail
                    ~path:node.path ~rows_in:(-1) ~rows:!n;
                  r)
                else it env keep
              in
              Some (node, drain first_produce, Some first_produce))))))

(* The body of view [k] (record [view]) with the pin pushed into every
   branch as the value of the column at [pos], compiled in first-row mode
   when [first] (handed the consumer's test: its first row is one the
   consumer keeps). [None] when the body's shape does not allow it. *)
and compile_pushdown ctx k (view : Db.view) pos first =
  let key = Param pin_param in
  let rec rewrite_set_op = function
    | Select s -> (
      if s.group_by <> [] || s.having <> None then None
      else
        let item_exprs =
          List.concat_map
            (function
              | Star -> (
                match s.from with
                | Some (From_table (base, _)) ->
                  List.map (fun c -> Col (None, c)) (object_columns ctx base)
                | _ -> [])
              | Qualified_star _ -> []
              | Sel_expr (e, _) -> [ e ])
            s.items
        in
        match List.nth_opt item_exprs pos with
        | Some item when item <> Const Value.Null ->
          let extra = Binop (Eq, item, key) in
          let s =
            {
              s with
              where =
                (match s.where with
                | Some old -> Some (Binop (And, old, extra))
                | None -> Some extra);
            }
          in
          (* additionally wrap the join side the pinned column comes from,
             so the filter reduces that side before the join *)
          let s =
            match item, s.from with
            | Col (Some alias, icol), Some f -> (
              match pin_side alias icol key f with
              | Some f' -> { s with from = Some f' }
              | None -> s)
            | _ -> s
          in
          Some (Select s)
        | _ ->
          (* a NULL constant in this position can never equal the pinned
             key (point lookups never pin to NULL) *)
          Some (Select { s with where = Some (Const (Value.Bool false)) }))
    | Union (a, b, all) -> (
      match rewrite_set_op a, rewrite_set_op b with
      | Some a', Some b' -> Some (Union (a', b', all))
      | _ -> None)
  in
  let q = view.Db.query in
  if q.order_by <> [] || q.limit <> None then None
  else
    match rewrite_set_op q.body with
    | None -> None
    | Some body ->
      let q = { body; order_by = []; limit = None } in
      Some
        (expand_view ctx k (fun () ->
             if first then
               let p, it = compile_first ctx [] q in
               (p, First it)
             else
               let p, fq = compile_query ctx [] q in
               (p, All fq)))

(* {!compile_pushdown}, prepared in the view's memo on first use. *)
and prepared_pushdown ctx k view pos first =
  let vm = view_memo ctx.db k view in
  match
    List.find_map
      (function
        | Pushdown (pos', first', p, body) when pos' = pos && first' = first ->
          Some (p, body)
        | _ -> None)
      vm.Db.vm_plans
  with
  | Some pushed -> Some pushed
  | None -> (
    match compile_pushdown ctx k view pos first with
    | None -> None
    | Some (p, body) as pushed ->
      vm.Db.vm_plans <- Pushdown (pos, first, p, body) :: vm.Db.vm_plans;
      count_prepared ctx.db;
      pushed)

and compile_aggregate ctx scopes sel cols produce filter =
  (* a bare integer is a 1-based position in the select list, as in
     PostgreSQL: the group key is that item's expression *)
  let group_key = function
    | Const (Value.Int n) -> (
      match if n < 1 then None else List.nth_opt sel.items (n - 1) with
      | Some (Sel_expr (e, _)) when not (has_aggregate e) -> e
      | Some (Sel_expr _) ->
        error "GROUP BY position %d refers to an aggregate" n
      | Some (Star | Qualified_star _) -> error "star select with aggregation"
      | None -> error "GROUP BY position %d is not in select list" n)
    | e -> e
  in
  let group_fns =
    List.map (fun e -> compile_expr ctx scopes (group_key e)) sel.group_by
  in
  (* the only empty group is the one an ungrouped aggregate forms over an
     empty input; its bare columns read an all-NULL row *)
  let width = match scopes with s :: _ -> Array.length s.entries | [] -> 0 in
  let rep_env env group_rows =
    match group_rows with
    | row :: _ -> { env with rows = row :: env.rows }
    | [] -> { env with rows = Array.make width Value.Null :: env.rows }
  in
  (* [e] against a group: aggregate calls consume the group, other column
     refs read the group's first row. A part that does not compile fails
     when a group evaluates it, as an unsupported shape does. *)
  let compile_part e =
    match compile_expr ctx scopes e with
    | f -> f
    | exception (Exec_error _ as exn) ->
      ctx.deferred <- ctx.deferred + 1;
      fun _ -> raise exn
  in
  let rec compile_aggregate_expr e : env -> Value.t array list -> Value.t =
    match e with
    | Fun ("COUNT", [ Const (Value.Text "*") ]) ->
      fun _ group_rows -> Value.Int (List.length group_rows)
    | Fun ("COUNT", [ arg ]) ->
      let f = compile_part arg in
      fun env group_rows ->
        Value.Int
          (List.fold_left
             (fun acc row ->
               let v = f { env with rows = row :: env.rows } in
               if Value.is_null v then acc else acc + 1)
             0 group_rows)
    | Fun (("SUM" | "AVG" | "MIN" | "MAX") as name, [ arg ]) -> (
      let f = compile_part arg in
      let vals env group_rows =
        List.filter_map
          (fun row ->
            let v = f { env with rows = row :: env.rows } in
            if Value.is_null v then None else Some v)
          group_rows
      in
      match name with
      | "SUM" ->
        fun env group_rows ->
          (match vals env group_rows with
          | [] -> Value.Null
          | vals ->
            List.fold_left (fun acc v -> numeric_binop Add acc v) (Value.Int 0)
              vals)
      | "AVG" ->
        fun env group_rows ->
          (match vals env group_rows with
          | [] -> Value.Null
          | vals ->
            let sum =
              List.fold_left (fun acc v -> acc +. Value.as_float v) 0.0 vals
            in
            Value.Real (sum /. float_of_int (List.length vals)))
      | _ ->
        let replaces =
          if name = "MIN" then fun c -> c < 0 else fun c -> c > 0
        in
        fun env group_rows ->
          (match vals env group_rows with
          | [] -> Value.Null
          | v0 :: rest ->
            List.fold_left
              (fun acc v -> if replaces (Value.compare_exn v acc) then v else acc)
              v0 rest))
    | Binop ((And | Or), _, _) ->
      (* no aggregates below *)
      let f = compile_part e in
      fun env group_rows -> f (rep_env env group_rows)
    | Binop (op, a, b) -> (
      let fa = compile_aggregate_expr a and fb = compile_aggregate_expr b in
      match op with
      | Concat ->
        fun env group_rows -> concat_values (fa env group_rows) (fb env group_rows)
      | Eq | Neq | Lt | Le | Gt | Ge ->
        fun env group_rows ->
          comparison_binop op (fa env group_rows) (fb env group_rows)
      | _ ->
        fun env group_rows -> numeric_binop op (fa env group_rows) (fb env group_rows))
    | Unop (Neg, a) ->
      let fa = compile_aggregate_expr a in
      fun env group_rows -> numeric_binop Sub (Value.Int 0) (fa env group_rows)
    | _ when has_aggregate e ->
      ctx.deferred <- ctx.deferred + 1;
      fun _ _ ->
        error "unsupported aggregate expression shape in %s"
          (Sql_printer.expr_to_string e)
    | _ ->
      let f = compile_part e in
      fun env group_rows -> f (rep_env env group_rows)
  in
  let fitems =
    List.map
      (function
        | Sel_expr (e, _) -> compile_aggregate_expr e
        | Star | Qualified_star _ -> error "star select with aggregation")
      sel.items
  in
  let fhaving = Option.map compile_aggregate_expr sel.having in
  fun env ->
    let rows = filter env (produce env) in
    let groups : (Value.t list, Value.t array list) Hashtbl.t =
      Hashtbl.create 16
    in
    let order = ref [] in
    if group_fns = [] then begin
      Hashtbl.replace groups [] (List.rev rows);
      order := [ [] ]
    end
    else
      List.iter
        (fun row ->
          let env' = { env with rows = row :: env.rows } in
          let key = List.map (fun f -> f env') group_fns in
          if not (Hashtbl.mem groups key) then order := key :: !order;
          Hashtbl.replace groups key
            (row :: Option.value (Hashtbl.find_opt groups key) ~default:[]))
        rows;
    let n = ref 0 in
    let out =
      List.rev !order
      |> List.filter_map (fun key ->
             let group_rows = List.rev (Hashtbl.find groups key) in
             let keep =
               match fhaving with
               | None -> true
               | Some h -> (
                 match h env group_rows with
                 | Value.Bool true -> true
                 | _ -> false)
             in
             if not keep then None
             else begin
               incr n;
               Some
                 (Array.of_list (List.map (fun f -> f env group_rows) fitems))
             end)
    in
    { rel_cols = cols; rel_rows = out; rel_count = !n }

(* --- queries ---------------------------------------------------------------- *)

and compile_query ctx outer_scopes q : plan * (env -> relation) =
  if q.limit = Some 1 && first_row_ok ctx.db q then begin
    (* LIMIT 1 without ORDER BY: the first row of the plan, in first-row
       mode *)
    let p, first = compile_first ctx outer_scopes { q with limit = None } in
    let cols = query_columns ctx q in
    ( p,
      fun env ->
        match first env (fun _ -> true) with
        | Some row -> { rel_cols = cols; rel_rows = [ row ]; rel_count = 1 }
        | None -> { rel_cols = cols; rel_rows = []; rel_count = 0 } )
  end
  else
  let rec of_set_op = function
    | Select sel -> compile_select ctx outer_scopes sel
    | Union (a, b, all) ->
      let pa, fa, _ = of_set_op a in
      let pb, fb, _ = of_set_op b in
      ( { kind = "union"; detail = (if all then "all" else ""); path = "";
          inputs = [ pa; pb ]; first_row = false },
        (fun env ->
        let ra = fa env and rb = fb env in
        let rows = ra.rel_rows @ rb.rel_rows in
        if all then
          let n =
            if ra.rel_count >= 0 && rb.rel_count >= 0 then
              ra.rel_count + rb.rel_count
            else -1
          in
          { rel_cols = ra.rel_cols; rel_rows = rows; rel_count = n }
        else
          let rows, n = dedupe rows in
          { rel_cols = ra.rel_cols; rel_rows = rows; rel_count = n }),
        None )
  in
  let body, fbody, _ = of_set_op q.body in
  let cols = query_columns ctx q in
  let forder, order_plans =
    if q.order_by = [] then ([], [])
    else
      collecting ctx (fun () ->
          List.map
            (fun { key; descending } ->
              match key with
              | Const (Value.Int n) ->
                (* a 1-based position in the select list, as in PostgreSQL *)
                if n < 1 || n > List.length cols then
                  error "ORDER BY position %d is not in select list" n;
                ((fun env -> (List.hd env.rows).(n - 1)), descending)
              | _ ->
                let scope = scope_of_cols cols in
                (compile_expr ctx (scope :: outer_scopes) key, descending))
            q.order_by)
  in
  (* ORDER BY keys evaluate after the body, beside it *)
  ( (if order_plans = [] then body
     else
       { kind = "order"; detail = ""; path = ""; inputs = body :: order_plans;
         first_row = false }),
    fun env ->
    let rel = fbody env in
    let rows =
      if forder = [] then rel.rel_rows
      else begin
        let cmp r1 r2 =
          let rec go = function
            | [] -> 0
            | (f, desc) :: rest ->
              let v1 = f { env with rows = r1 :: env.rows } in
              let v2 = f { env with rows = r2 :: env.rows } in
              let c =
                match Value.is_null v1, Value.is_null v2 with
                | true, true -> 0
                | true, false -> -1
                | false, true -> 1
                | false, false -> Value.compare_exn v1 v2
              in
              if c <> 0 then if desc then -c else c else go rest
          in
          go forder
        in
        List.stable_sort cmp rel.rel_rows
      end
    in
    match q.limit with
    | None ->
      (* sorting preserves the cardinality tracked by the set-op body *)
      { rel_cols = rel.rel_cols; rel_rows = rows; rel_count = rel.rel_count }
    | Some n ->
      let taken = ref 0 in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: rest ->
          incr taken;
          x :: take (k - 1) rest
      in
      let rows = take n rows in
      { rel_cols = rel.rel_cols; rel_rows = rows; rel_count = !taken } )

(* A query compiled in first-row mode: its plan and an iterator over the
   rows [compile_query] would return, in the same order. A query that sorts
   or limits is evaluated in full and then iterated. *)
and compile_first ctx outer_scopes q : plan * rows_iter =
  if q.order_by <> [] || q.limit <> None then
    let p, fq = compile_query ctx outer_scopes q in
    (p, iter_of (fun env -> (fq env).rel_rows))
  else
    let rec of_set_op = function
      | Select sel -> (
        match compile_select ctx ~first:true outer_scopes sel with
        | p, _, Some first -> (p, first)
        | p, f, None -> (p, iter_of (fun env -> (f env).rel_rows)))
      | Union (a, b, all) ->
        let pa, fa = of_set_op a in
        let pb, fb = of_set_op b in
        ( { kind = "union"; detail = (if all then "all" else ""); path = "";
            inputs = [ pa; pb ]; first_row = true },
          fun env keep ->
            (* UNION keeps the first occurrence of each row *)
            let keep =
              if all then keep
              else
                let seen = Hashtbl.create 8 in
                fun row ->
                  (not (Hashtbl.mem seen row))
                  && begin
                       Hashtbl.replace seen row ();
                       keep row
                     end
            in
            match fa env keep with Some r -> Some r | None -> fb env keep )
    in
    of_set_op q.body

(* --- statements --------------------------------------------------------------- *)

let max_trigger_depth = 128

(* --- telemetry ------------------------------------------------------------ *)

(* Objects named directly in a query's FROM clauses (set-ops and derived
   tables included), lowercase and deduped. Reads are attributed to what the
   statement *named* — a version view counts as traffic for that version, not
   for the physical tables its delta code reaches. *)
let query_targets q =
  let acc = ref [] in
  let add name =
    let k = Db.key name in
    if not (List.mem k !acc) then acc := k :: !acc
  in
  let rec walk_query (q : query) = walk_set_op q.body
  and walk_set_op = function
    | Select s -> Option.iter walk_from s.from
    | Union (a, b, _) ->
      walk_set_op a;
      walk_set_op b
  and walk_from = function
    | From_table (name, _) -> add name
    | From_select (sub, _) -> walk_query sub
    | From_join (a, _, b, _) ->
      walk_from a;
      walk_from b
  in
  walk_query q;
  List.rev !acc

(** The plan {!eval_query} compiles for [q], without running it, under a
    [query] root. View leaves are expanded into the body {!view_relation}
    evaluates — the prepared one, with the planner fast paths on — once per
    view, as the statement snapshot serves any repeated read. Raises
    [Exec_error] when [q], or a view body it reads, does not compile. *)
let plan db q =
  let ctx = fresh_ctx db in
  let expanded = Hashtbl.create 8 in
  let rec expand p =
    let inputs =
      match p.kind, p.path, Db.find_view_opt db p.detail with
      | "view", "computed", Some v when not (Hashtbl.mem expanded p.detail) ->
        Hashtbl.replace expanded p.detail ();
        fst (view_body ctx p.detail v)
      | _ -> p.inputs
    in
    { p with inputs = List.map expand inputs }
  in
  let (body, _), subs = collecting ctx (fun () -> compile_query ctx [] q) in
  expand
    { kind = "query"; detail = ""; path = ""; inputs = body :: subs;
      first_row = false }

let span_shape stmt =
  match stmt with
  | Query q -> ("query", query_targets q)
  | Insert { table; _ } -> ("insert", [ Db.key table ])
  | Update { table; _ } -> ("update", [ Db.key table ])
  | Delete { table; _ } -> ("delete", [ Db.key table ])
  | Create_table { name; _ }
  | Drop_table { name; _ }
  | Create_view { name; _ }
  | Drop_view { name; _ }
  | Create_trigger { name; _ }
  | Drop_trigger { name; _ } ->
    ("ddl", [ Db.key name ])
  | Create_index { table; _ } -> ("ddl", [ Db.key table ])
  | Set_new _ | Begin_txn | Commit | Rollback -> ("txn", [])

(* Close the span for an observed top-level statement: fold the result into
   the per-object counters and histograms and push the span into the ring.
   [t0/hits0/misses0/hops0] were sampled before execution. *)
let finish_span db (m : Metrics.t) stmt result ~t0 ~hits0 ~misses0 ~hops0 =
  let ns = Metrics.now_ns () - t0 in
  let kind, targets = span_shape stmt in
  let rows =
    match result with
    | Rows rel ->
      if rel.rel_count >= 0 then rel.rel_count else List.length rel.rel_rows
    | Affected n -> n
    | Done -> 0
  in
  let quals =
    List.filter_map Metrics.schema_of targets |> List.sort_uniq compare
  in
  (match kind with
  | "query" ->
    List.iter (fun name -> Metrics.record_read m name ~rows) targets;
    List.iter (fun q -> Metrics.record_schema_read m q ~rows) quals;
    Metrics.observe_read_ns m ns
  | "insert" | "update" | "delete" ->
    List.iter (fun name -> Metrics.record_write m name) targets;
    List.iter (fun q -> Metrics.record_schema_write m q) quals;
    Metrics.observe_write_ns m ns
  | _ -> ());
  m.Metrics.statements <- m.Metrics.statements + 1;
  let parse_ns = m.Metrics.pending_parse_ns in
  m.Metrics.pending_parse_ns <- 0;
  ignore
    (Metrics.end_trace m ~kind ~targets ~start_ns:t0 ~ns ~parse_ns
       ~compile_ns:m.Metrics.last_compile_ns ~rows
       ~cache_hits:(db.Db.view_cache_hits - hits0)
       ~cache_misses:(db.Db.view_cache_misses - misses0)
       ~trigger_hops:(m.Metrics.trigger_hops_total - hops0)
       ~view_depth:m.Metrics.max_view_depth ())

let view_columns ctx (q : query) explicit =
  match explicit with Some cols -> cols | None -> query_columns ctx q

let eval_query db ?(params = no_params) q =
  let ctx = fresh_ctx db in
  let _, f = compile_query ctx [] q in
  f (start_env ~params db)

(* [q] compiled, to run with a statement's parameters. At the top level,
   with telemetry collecting, the compile time is the statement's [plan]
   span. *)
let compile_statement_query db q =
  let m = db.Db.metrics in
  let timed = db.Db.trigger_depth = 0 && Metrics.collecting m in
  let c0 = if timed then Metrics.now_ns () else 0 in
  let _, f = compile_query (fresh_ctx db) [] q in
  if timed then m.Metrics.last_compile_ns <- Metrics.now_ns () - c0;
  fun params -> f (start_env ~params db)

(* The parameter names a trigger binds the columns [cols] of a row to. *)
let param_names prefix cols =
  Array.of_list
    (List.map (fun col -> prefix ^ "." ^ String.lowercase_ascii col) cols)

(** Execute [stmt]. A trigger's statement runs off its [slot] in the
    trigger's plan: compiled on its first run there, with the planner fast
    paths on, and reused until the catalog changes. *)
let rec exec_statement db ?(params = no_params) ?slot stmt : result =
  let top_level = db.Db.trigger_depth = 0 in
  let mark = db.Db.undo in
  db.Db.statements_executed <- db.Db.statements_executed + 1;
  Db.tick_failpoint db;
  let m = db.Db.metrics in
  let observe = top_level && Metrics.collecting m in
  let t0 =
    if not observe then begin
      (* drop any staged timestamp so it cannot leak to a later statement *)
      if m.Metrics.pending_t0 > 0 then m.Metrics.pending_t0 <- 0;
      0
    end
    else if m.Metrics.pending_t0 > 0 then begin
      (* {!Engine} already read the clock right after parsing *)
      let t = m.Metrics.pending_t0 in
      m.Metrics.pending_t0 <- 0;
      t
    end
    else Metrics.now_ns ()
  in
  let hits0 = db.Db.view_cache_hits and misses0 = db.Db.view_cache_misses in
  let hops0 = m.Metrics.trigger_hops_total in
  if observe then begin
    m.Metrics.cur_view_depth <- 0;
    m.Metrics.max_view_depth <- 0;
    m.Metrics.last_compile_ns <- 0;
    Metrics.begin_trace m
  end;
  let run () =
    let compiled =
      match slot with
      | Some (plan, i) when db.Db.optimizations -> (
        match plan.statements.(i) with
        | Some f -> f
        | None ->
          let f = compile_statement db stmt in
          plan.statements.(i) <- Some f;
          count_prepared db;
          f)
      | _ -> compile_statement db stmt
    in
    compiled params
  in
  match run () with
  | result ->
    if top_level && not db.Db.in_txn then db.Db.undo <- [];
    if observe then finish_span db m stmt result ~t0 ~hits0 ~misses0 ~hops0;
    result
  | exception exn ->
    if top_level then Db.rollback_to db mark;
    if observe then begin
      m.Metrics.pending_parse_ns <- 0;
      (* a rolled-back statement leaves no spans: erase anything the trace
         recorded and rewind the ring *)
      Metrics.abort_trace m
    end;
    raise exn

(* [stmt] compiled, to run with the statement's parameters: a query, a
   write or SET NEW compiles its expressions and resolves its target (and
   through a view the trigger it fires); DDL and transaction control do all
   their work when run. *)
and compile_statement db stmt : (string, Value.t) Hashtbl.t -> result =
  match stmt with
  | Query q ->
    let f = compile_statement_query db q in
    fun params -> Rows (f params)
  | Create_table { name; if_not_exists; cols } ->
    fun _ ->
      let schema =
        Schema.make
          (List.map (fun c -> Schema.column c.col_name c.col_ty) cols)
      in
      let pk =
        let rec find i = function
          | [] -> None
          | c :: _ when c.primary_key -> Some i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 cols
      in
      Db.create_table db ~name ~schema ~pk ~if_not_exists;
      Done
  | Drop_table { name; if_exists } ->
    fun _ ->
      Db.drop_table db ~name ~if_exists;
      Done
  | Create_view { name; or_replace; query } ->
    fun _ ->
      let cols = view_columns (fresh_ctx db) query None in
      Db.create_view db ~name ~query ~cols ~or_replace;
      Done
  | Drop_view { name; if_exists } ->
    fun _ ->
      Db.drop_view db ~name ~if_exists;
      Done
  | Create_index { name = _; table; column } ->
    fun _ ->
      Db.logged_add_index db (Db.find_table db table) column;
      Done
  | Create_trigger { name; event; table; instead_of; body } ->
    fun _ ->
      Db.create_trigger db ~name ~event ~target:table ~instead_of ~body;
      Done
  | Drop_trigger { name; if_exists } ->
    fun _ ->
      Db.drop_trigger db ~name ~if_exists;
      Done
  | Insert { table; columns; source } -> compile_insert db table columns source
  | Update { table; sets; where } -> compile_update db table sets where
  | Delete { table; where } -> compile_delete db table where
  | Set_new (col, e) ->
    let f = compile_expr (fresh_ctx db) [] e and name = "NEW." ^ col in
    fun params ->
      Hashtbl.replace params name (f (start_env ~params db));
      Done
  | Begin_txn ->
    fun _ ->
      if db.Db.in_txn then error "nested transactions are not supported";
      db.Db.in_txn <- true;
      db.Db.undo <- [];
      Done
  | Commit ->
    fun _ ->
      db.Db.in_txn <- false;
      db.Db.undo <- [];
      Done
  | Rollback ->
    fun _ ->
      Db.rollback_to db [];
      db.Db.in_txn <- false;
      Done

(* The trigger's plan: the slots its statements are prepared in (with the
   fast paths on, see {!exec_statement}) and the parameter names its rows
   bind, kept in the trigger's memo. *)
and trigger_plan db trig cols =
  let k = Db.key trig.Db.trig_name in
  match Hashtbl.find_opt db.Db.trigger_memos k with
  | Some (Trigger_plan plan) -> plan
  | _ ->
    let plan =
      {
        statements = Array.make (List.length trig.Db.body) None;
        new_params = param_names "NEW" cols;
        old_params = param_names "OLD" cols;
      }
    in
    Hashtbl.replace db.Db.trigger_memos k (Trigger_plan plan);
    plan

and run_trigger db trig ~new_row ~old_row cols =
  (let m = db.Db.metrics in
   if Metrics.collecting m then Metrics.record_trigger_hop m trig.Db.target);
  db.Db.trigger_depth <- db.Db.trigger_depth + 1;
  if db.Db.trigger_depth > max_trigger_depth then begin
    db.Db.trigger_depth <- db.Db.trigger_depth - 1;
    error "trigger cascade exceeded depth %d (cycle in delta code?)"
      max_trigger_depth
  end;
  let plan = trigger_plan db trig cols in
  let params = Hashtbl.create 16 in
  let bind names row =
    match row with
    | None -> ()
    | Some values ->
      Array.iteri (fun i name -> Hashtbl.replace params name values.(i)) names
  in
  bind plan.new_params new_row;
  bind plan.old_params old_row;
  let m = db.Db.metrics in
  let fr = if Metrics.child_active m then Some (Metrics.open_span m) else None in
  Fun.protect
    ~finally:(fun () -> db.Db.trigger_depth <- db.Db.trigger_depth - 1)
    (fun () ->
      List.iteri
        (fun i stmt -> ignore (exec_statement db ~params ~slot:(plan, i) stmt))
        trig.Db.body);
  match fr with
  | Some fr ->
    (* only reached on success; an exception unwinds to the statement's
       abort_trace, which erases the half-open span wholesale *)
    Metrics.close_span m fr ~kind:"trigger" ~detail:(Db.key trig.Db.trig_name)
      ~path:(Db.key trig.Db.target) ~rows_in:(-1) ~rows:(-1)
  | None -> ()

and compile_insert db table columns source =
  (* the source's rows, each of [cols_expected] values *)
  let source_rows cols_expected =
    match source with
    | Values rows ->
      let ctx = fresh_ctx db in
      let rows =
        List.map
          (fun exprs ->
            if List.length exprs <> cols_expected then
              error "INSERT expects %d values per row" cols_expected;
            List.map (compile_expr ctx []) exprs)
          rows
      in
      fun params ->
        let env = start_env ~params db in
        List.map (fun fs -> Array.of_list (List.map (fun f -> f env) fs)) rows
    | Insert_query q ->
      let f = compile_statement_query db q in
      fun params ->
        let rel = f params in
        List.iter
          (fun row ->
            if Array.length row <> cols_expected then
              error "INSERT query returns %d columns, expected %d"
                (Array.length row) cols_expected)
          rel.rel_rows;
        rel.rel_rows
  in
  match Db.find_object db table with
  | Some (Db.Obj_table tbl) ->
    let schema_cols = Schema.names tbl.Table.schema in
    let positions =
      match columns with
      | None -> List.mapi (fun i _ -> i) schema_cols
      | Some cols -> List.map (Schema.index tbl.Table.schema) cols
    in
    let incoming = source_rows (List.length positions) in
    let n = Schema.arity tbl.Table.schema in
    fun params ->
      let incoming = incoming params in
      List.iter
        (fun src ->
          let row = Array.make n Value.Null in
          List.iteri (fun i pos -> row.(pos) <- src.(i)) positions;
          ignore (Db.logged_insert db tbl row))
        incoming;
      Affected (List.length incoming)
  | Some (Db.Obj_view v) -> (
    match Db.trigger_for db ~target:table ~event:On_insert with
    | None -> error "cannot insert into view %s (no INSTEAD OF trigger)" table
    | Some trig ->
      let view_cols = v.Db.view_cols in
      let positions =
        match columns with
        | None -> List.mapi (fun i _ -> i) view_cols
        | Some cols ->
          List.map
            (fun c ->
              let lc = String.lowercase_ascii c in
              match
                List.find_index
                  (fun vc -> String.lowercase_ascii vc = lc)
                  view_cols
              with
              | Some i -> i
              | None -> error "view %s has no column %s" table c)
            cols
      in
      let incoming = source_rows (List.length positions) in
      let n = List.length view_cols in
      fun params ->
        let incoming = incoming params in
        List.iter
          (fun src ->
            let row = Array.make n Value.Null in
            List.iteri (fun i pos -> row.(pos) <- src.(i)) positions;
            run_trigger db trig ~new_row:(Some row) ~old_row:None view_cols)
          incoming;
        Affected (List.length incoming))
  | None -> error "no such table or view %s" table

(* (rowid, row) pairs of [tbl] satisfying [where], using the pk/secondary
   index when the predicate pins an indexed column to a row-independent
   value *)
and compile_affected_table_rows db tbl where =
  let ctx = fresh_ctx db in
  let scope = scope_of_cols ~alias:tbl.Table.name (Schema.names tbl.Table.schema) in
  let scopes = [ scope ] in
  match where with
  | None -> fun _ -> Table.to_rows tbl
  | Some w ->
    let candidates =
      match index_pin tbl scope scopes w with
      | Some (idx, key_expr) ->
        let f = compile_expr ctx [] key_expr in
        fun env ->
          let v = f env in
          if Value.is_null v then []
          else
            List.filter_map
              (fun rowid ->
                Option.map (fun row -> (rowid, row)) (Table.find tbl rowid))
              (Table.index_lookup idx v)
      | None -> fun _ -> Table.to_rows tbl
    in
    let f = compile_expr ctx scopes w in
    fun params ->
      let env = start_env ~params db in
      List.filter
        (fun (_, row) -> bool3 (f { env with rows = [ row ] }) = Some true)
        (candidates env)

(* The rows of view [view] satisfying [where], evaluated as a real select so
   the view pushdown applies: point updates and deletes through deep view
   chains stay keyed lookups. *)
and compile_affected_view_rows db view where =
  let ctx = fresh_ctx db in
  let sel =
    {
      distinct = false;
      items = [ Star ];
      from = Some (From_table (view, None));
      where;
      group_by = [];
      having = None;
    }
  in
  let _, f, _ = compile_select ctx [] sel in
  fun params -> (f (start_env ~params db)).rel_rows

and compile_update db table sets where =
  match Db.find_object db table with
  | Some (Db.Obj_table tbl) ->
    let ctx = fresh_ctx db in
    let scope =
      scope_of_cols ~alias:tbl.Table.name (Schema.names tbl.Table.schema)
    in
    let affected = compile_affected_table_rows db tbl where in
    let fsets =
      List.map
        (fun (col, e) ->
          (Schema.index tbl.Table.schema col, compile_expr ctx [ scope ] e))
        sets
    in
    fun params ->
      let affected = affected params in
      let env = start_env ~params db in
      List.iter
        (fun (rowid, old_row) ->
          let new_row = Array.copy old_row in
          List.iter
            (fun (pos, f) -> new_row.(pos) <- f { env with rows = [ old_row ] })
            fsets;
          ignore (Db.logged_update db tbl rowid new_row))
        affected;
      Affected (List.length affected)
  | Some (Db.Obj_view v) -> (
    match Db.trigger_for db ~target:table ~event:On_update with
    | None -> error "cannot update view %s (no INSTEAD OF trigger)" table
    | Some trig ->
      let cols = v.Db.view_cols in
      let affected = compile_affected_view_rows db table where in
      let ctx = fresh_ctx db in
      let scope = scope_of_cols ~alias:table cols in
      let fsets =
        List.map
          (fun (col, e) ->
            let lc = String.lowercase_ascii col in
            let pos =
              match
                List.find_index (fun c -> String.lowercase_ascii c = lc) cols
              with
              | Some i -> i
              | None -> error "view %s has no column %s" table col
            in
            (pos, compile_expr ctx [ scope ] e))
          sets
      in
      fun params ->
        let affected = affected params in
        let env = start_env ~params db in
        List.iter
          (fun old_row ->
            let new_row = Array.copy old_row in
            List.iter
              (fun (pos, f) -> new_row.(pos) <- f { env with rows = [ old_row ] })
              fsets;
            run_trigger db trig ~new_row:(Some new_row) ~old_row:(Some old_row)
              cols)
          affected;
        Affected (List.length affected))
  | None -> error "no such table or view %s" table

and compile_delete db table where =
  match Db.find_object db table with
  | Some (Db.Obj_table tbl) ->
    let affected = compile_affected_table_rows db tbl where in
    fun params ->
      let affected = affected params in
      List.iter (fun (rowid, _) -> ignore (Db.logged_delete db tbl rowid)) affected;
      Affected (List.length affected)
  | Some (Db.Obj_view v) -> (
    match Db.trigger_for db ~target:table ~event:On_delete with
    | None -> error "cannot delete from view %s (no INSTEAD OF trigger)" table
    | Some trig ->
      let cols = v.Db.view_cols in
      let affected = compile_affected_view_rows db table where in
      fun params ->
        let affected = affected params in
        List.iter
          (fun old_row ->
            run_trigger db trig ~new_row:None ~old_row:(Some old_row) cols)
          affected;
        Affected (List.length affected))
  | None -> error "no such table or view %s" table
