(** Database catalog: tables, views, triggers, sequences and registered
    scalar functions, plus the statement-level undo log. Execution lives in
    {!Exec}; this module only manages state. *)

type view = { view_name : string; query : Sql_ast.query; view_cols : string list }

(** Result of a query: column names and rows. Defined here (rather than in
    {!Exec}) so the catalog can hold cached view results; {!Exec} re-exports
    it under the same name. [rel_count] is the row count when the producer
    could track it without an extra traversal, [-1] otherwise — telemetry
    falls back to [List.length] only in that case. *)
type relation = {
  rel_cols : string list;
  rel_rows : Value.t array list;
  rel_count : int;
}

(** A cached view result is valid as long as every physical base table it
    was computed from is still at the epoch recorded at compute time. *)
type cached_view = {
  cv_rel : relation;
  cv_deps : (Table.t * int) list;  (** base table, epoch when computed *)
}

(** A view's physical-base closure. The table handles are resolved from the
    names once, on first use, so the per-evaluation cache bookkeeping is a
    few integer reads instead of catalog lookups; any catalog change resets
    the whole registry ({!flush_view_metadata}), so a resolved handle can
    never go stale. *)
type base_closure = {
  bc_names : string list;  (** lowercase physical base names *)
  mutable bc_tables : Table.t list option;  (** lazily resolved handles *)
}

type trigger = {
  trig_name : string;
  event : Sql_ast.trigger_event;
  target : string;  (** lowercase object name *)
  instead_of : bool;
  body : Sql_ast.statement list;
}

type obj = Obj_table of Table.t | Obj_view of view

(** The statement/transaction undo log covers DML {e and} DDL: every catalog
    mutation (object, trigger, index and sequence creation or removal) is
    logged alongside row-level changes, so {!rollback_to} restores dropped
    tables with their rows and indexes, recreated views, and triggers. This
    is what makes a failing statement — or an aborted migration — leave the
    database exactly as it was. *)
type undo_entry =
  | U_insert of Table.t * int
  | U_delete of Table.t * int * Value.t array
  | U_update of Table.t * int * Value.t array
  | U_sequence of int ref * int
  | U_create_obj of string  (** undo: remove the object again *)
  | U_drop_obj of string * obj
      (** undo: put the object back (a dropped table keeps its rows and
          indexes inside the [Table.t] value, so this restores data too) *)
  | U_create_trigger of string  (** undo: remove the trigger again *)
  | U_drop_trigger of trigger  (** undo: re-install the trigger *)
  | U_create_index of Table.t * string  (** undo: drop the secondary index *)
  | U_create_seq of string  (** undo: remove the on-demand sequence *)
  | U_hook of (unit -> unit)
      (** undo: run the closure. For host-level state the engine cannot see
          (e.g. skolem memo entries paired with a [U_sequence] counter
          rollback, so identifier generation stays deterministic over the
          {e committed} statement history — what log replay reproduces). *)

type t = {
  objects : (string, obj) Hashtbl.t;  (** lowercase name -> object *)
  triggers : (string, trigger) Hashtbl.t;  (** lowercase trigger name *)
  by_target : (string * Sql_ast.trigger_event, trigger) Hashtbl.t;
  functions : (string, t -> Value.t list -> Value.t) Hashtbl.t;
  sequences : (string, int ref) Hashtbl.t;
  mutable undo : undo_entry list;  (** current statement/transaction log *)
  mutable in_txn : bool;
  mutable trigger_depth : int;
  mutable statements_executed : int;  (** lifetime statement counter *)
  mutable optimizations : bool;
      (** planner fast paths (index probes, view pushdown, index
          nested-loop joins); disabling them is used by the coherence
          harness (its reference configuration and fast-paths-off point)
          and the ablation benchmarks *)
  mutable batch_enabled : bool;
      (** columnar batch execution: table scans served from epoch-memoized
          {!Batch} snapshots and eligible select pipelines compiled to
          selection-vector filters. Disabling it restores the row-at-a-time
          interpreter everywhere (coherence harness, ablation benchmarks). *)
  view_cache : (string, cached_view) Hashtbl.t;
      (** cross-statement view results, keyed by lowercase view name *)
  view_bases : (string, base_closure option) Hashtbl.t;
      (** physical-base closure per view; [None] marks a view as uncacheable
          (e.g. an impure function in its body). Registered by the
          delta-code generator or memoized on demand. *)
  calls_functions : (string, bool) Hashtbl.t;
      (** per view: can evaluating it call a function other than the pure
          built-ins? First-row mode's test ({!Exec.calls_functions}),
          memoized until the catalog changes *)
  pure_functions : (string, unit) Hashtbl.t;
      (** registered functions that are safe to re-evaluate from a cache
          (deterministic, no observable side effects) *)
  mutable view_cache_enabled : bool;
  mutable view_cache_hits : int;
  mutable view_cache_misses : int;
  mutable failpoint : int option;
      (** fault injection: [Some k] makes the k-th subsequently executed
          statement raise {!Injected_fault} before doing anything *)
  metrics : Metrics.t;
      (** execution telemetry: per-object counters, latency histograms and
          the statement-span ring buffer. Populated by {!Exec}/{!Engine}
          when [metrics.enabled] (the default); host code suspends it
          around internal statements via {!Metrics.suspend}. *)
  mutable statement_sink : (Sql_ast.statement -> string -> unit) option;
      (** Fired by {!Engine} after every {e successfully} executed top-level
          user statement — [(ast, sql text)] — under the same gating the
          telemetry uses: never inside a trigger cascade and never while
          metrics are suspended for internal work (migration data movement,
          delta-code regeneration). Used by the write-ahead log; a failing
          statement never reaches the sink. *)
}

exception Engine_error of string

exception Injected_fault of int
(** Raised by an armed failpoint; carries the lifetime statement number at
    which the fault fired. Deliberately not an {!Engine_error} so harnesses
    can tell injected faults from genuine failures. *)

let error fmt = Fmt.kstr (fun s -> raise (Engine_error s)) fmt

let key name = String.lowercase_ascii name

let create () =
  {
    objects = Hashtbl.create 64;
    triggers = Hashtbl.create 64;
    by_target = Hashtbl.create 64;
    functions = Hashtbl.create 8;
    sequences = Hashtbl.create 8;
    undo = [];
    in_txn = false;
    trigger_depth = 0;
    statements_executed = 0;
    optimizations = true;
    batch_enabled = true;
    view_cache = Hashtbl.create 64;
    view_bases = Hashtbl.create 64;
    calls_functions = Hashtbl.create 64;
    pure_functions = Hashtbl.create 8;
    view_cache_enabled = true;
    view_cache_hits = 0;
    view_cache_misses = 0;
    failpoint = None;
    metrics = Metrics.create ();
    statement_sink = None;
  }

(** Install (or clear) the committed-statement sink (the WAL hook). *)
let set_statement_sink t sink = t.statement_sink <- sink

(* --- fault injection ----------------------------------------------------- *)

(** Arm the failpoint: the [k]-th statement executed from now on (counting
    every statement, including trigger cascades) fails with
    {!Injected_fault} before taking effect. The failpoint disarms itself
    when it fires, so recovery code runs unimpeded. *)
let set_failpoint t k = t.failpoint <- if k <= 0 then None else Some k

let clear_failpoint t = t.failpoint <- None

(** Called by the executor once per statement. *)
let tick_failpoint t =
  match t.failpoint with
  | None -> ()
  | Some k when k <= 1 ->
    t.failpoint <- None;
    raise (Injected_fault t.statements_executed)
  | Some k -> t.failpoint <- Some (k - 1)

(* --- the cross-statement view-result cache ------------------------------ *)

(** Drop every cached view result (cheap; closures stay registered). *)
let flush_view_cache t = Hashtbl.reset t.view_cache

(* Any DDL can change what a view name means, so the cached results, the
   registered base closures and the memoized function tests are stale.
   Regeneration of the delta code re-registers closures afterwards; generic
   views are re-memoized on demand. *)
let flush_view_metadata t =
  Hashtbl.reset t.view_cache;
  Hashtbl.reset t.view_bases;
  Hashtbl.reset t.calls_functions

let set_view_cache t enabled =
  t.view_cache_enabled <- enabled;
  if not enabled then flush_view_cache t

(** Toggle the columnar batch executor. Cached view results are dropped on
    every toggle — row content is identical either way, but physical row
    order can differ between the executors, so one mode never serves rows
    materialized under the other. Disabling also drops the memoized column
    snapshots so a later re-enable starts cold. *)
let set_batch t enabled =
  if t.batch_enabled <> enabled then begin
    t.batch_enabled <- enabled;
    flush_view_cache t;
    if not enabled then Batch.reset_cache ()
  end

(** Declare the stored tables a view's result depends on (transitively).
    A registration overrides the generic query-walk memoization. *)
let register_view_bases t name bases =
  Hashtbl.replace t.view_bases (key name)
    (Some { bc_names = List.map key bases; bc_tables = None })

(** Declare a view never safe to serve from the cache. *)
let mark_view_uncacheable t name = Hashtbl.replace t.view_bases (key name) None

let view_bases_opt t name =
  Option.map
    (Option.map (fun bc -> bc.bc_names))
    (Hashtbl.find_opt t.view_bases (key name))

(** Cached result for [name], provided every base table is unchanged. *)
let cache_lookup t name =
  if not t.view_cache_enabled then None
  else
    let k = key name in
    match Hashtbl.find_opt t.view_cache k with
    | Some cv
      when List.for_all (fun (tbl, e) -> tbl.Table.epoch = e) cv.cv_deps ->
      t.view_cache_hits <- t.view_cache_hits + 1;
      Some cv.cv_rel
    | Some _ ->
      Hashtbl.remove t.view_cache k;
      None
    | None -> None

let cache_store t name rel deps =
  if t.view_cache_enabled then begin
    t.view_cache_misses <- t.view_cache_misses + 1;
    Hashtbl.replace t.view_cache (key name) { cv_rel = rel; cv_deps = deps }
  end

let cache_stats t = (t.view_cache_hits, t.view_cache_misses)

(** The object whose catalog key ({!key}: lowercase name) is [k]. *)
let find_key t k = Hashtbl.find_opt t.objects k

let find_object t name = find_key t (key name)

let find_table t name =
  match find_object t name with
  | Some (Obj_table tbl) -> tbl
  | Some (Obj_view _) -> error "%s is a view, not a table" name
  | None -> error "no such table %s" name

let find_table_opt t name =
  match find_object t name with Some (Obj_table tbl) -> Some tbl | _ -> None

let find_view_opt t name =
  match find_object t name with Some (Obj_view v) -> Some v | _ -> None

(** Epoch-pinned dependencies of a registered view: [None] = no closure
    registered yet, [Some None] = uncacheable, [Some (Some deps)] = every
    base table with its current epoch. Table handles are resolved once per
    registration and reused, so the steady-state cost per evaluation is one
    integer read per base. *)
let view_deps t name =
  match Hashtbl.find_opt t.view_bases (key name) with
  | None -> None
  | Some None -> Some None
  | Some (Some bc) ->
    let tables =
      match bc.bc_tables with
      | Some tbls -> Some tbls
      | None ->
        let rec resolve acc = function
          | [] -> Some (List.rev acc)
          | n :: rest -> (
            match find_table_opt t n with
            | Some tbl -> resolve (tbl :: acc) rest
            | None -> None)
        in
        let r = resolve [] bc.bc_names in
        (match r with Some _ -> bc.bc_tables <- r | None -> ());
        r
    in
    (match tables with
    | None -> Some None  (* dangling base: treat as uncacheable this time *)
    | Some tbls ->
      Some (Some (List.map (fun tbl -> (tbl, tbl.Table.epoch)) tbls)))

let object_exists t name = Hashtbl.mem t.objects (key name)

(* DDL goes through the undo log like DML does (the log is discarded at the
   end of every successful top-level statement outside a transaction, so
   this costs nothing on the common path). *)
let log_ddl t entry = t.undo <- entry :: t.undo

let create_table t ~name ~schema ~pk ~if_not_exists =
  if object_exists t name then begin
    if not if_not_exists then error "object %s already exists" name
  end
  else begin
    flush_view_metadata t;
    Hashtbl.replace t.objects (key name)
      (Obj_table (Table.create ~name ~schema ~pk));
    log_ddl t (U_create_obj (key name))
  end

let drop_triggers_of_target t target_key =
  let stale =
    Hashtbl.fold
      (fun name trig acc -> if trig.target = target_key then name :: acc else acc)
      t.triggers []
  in
  List.iter
    (fun name ->
      let trig = Hashtbl.find t.triggers name in
      Hashtbl.remove t.triggers name;
      Hashtbl.remove t.by_target (trig.target, trig.event);
      log_ddl t (U_drop_trigger trig))
    stale

let drop_table t ~name ~if_exists =
  match find_object t name with
  | Some (Obj_table _ as obj) ->
    flush_view_metadata t;
    Hashtbl.remove t.objects (key name);
    log_ddl t (U_drop_obj (key name, obj));
    drop_triggers_of_target t (key name)
  | Some (Obj_view _) -> error "%s is a view; use DROP VIEW" name
  | None -> if not if_exists then error "no such table %s" name

let create_view t ~name ~query ~cols ~or_replace =
  let replaced =
    match find_object t name with
    | Some (Obj_table _) -> error "object %s already exists as a table" name
    | Some (Obj_view _) when not or_replace ->
      error "view %s already exists" name
    | replaced -> replaced
  in
  flush_view_metadata t;
  Hashtbl.replace t.objects (key name)
    (Obj_view { view_name = name; query; view_cols = cols });
  (match replaced with
  | Some old -> log_ddl t (U_drop_obj (key name, old))
  | None -> log_ddl t (U_create_obj (key name)))

let drop_view t ~name ~if_exists =
  match find_object t name with
  | Some (Obj_view _ as obj) ->
    flush_view_metadata t;
    Hashtbl.remove t.objects (key name);
    log_ddl t (U_drop_obj (key name, obj));
    drop_triggers_of_target t (key name)
  | Some (Obj_table _) -> error "%s is a table; use DROP TABLE" name
  | None -> if not if_exists then error "no such view %s" name

let create_trigger t ~name ~event ~target ~instead_of ~body =
  if Hashtbl.mem t.triggers (key name) then error "trigger %s already exists" name;
  if not (object_exists t target) then
    error "trigger %s references unknown object %s" name target;
  let trig =
    { trig_name = name; event; target = key target; instead_of; body }
  in
  if Hashtbl.mem t.by_target (key target, event) then
    error "object %s already has a trigger for this event" target;
  Hashtbl.replace t.triggers (key name) trig;
  Hashtbl.replace t.by_target (key target, event) trig;
  log_ddl t (U_create_trigger (key name))

let drop_trigger t ~name ~if_exists =
  match Hashtbl.find_opt t.triggers (key name) with
  | Some trig ->
    Hashtbl.remove t.triggers (key name);
    Hashtbl.remove t.by_target (trig.target, trig.event);
    log_ddl t (U_drop_trigger trig)
  | None -> if not if_exists then error "no such trigger %s" name

(** Index creation through the undo log (only actual creations are logged,
    so rollback never removes a pre-existing — in particular a primary-key —
    index). *)
let logged_add_index t tbl column =
  let k = String.lowercase_ascii column in
  if not (Hashtbl.mem tbl.Table.indexes k) then begin
    Table.add_index tbl column;
    log_ddl t (U_create_index (tbl, k))
  end

let trigger_for t ~target ~event = Hashtbl.find_opt t.by_target (key target, event)

let register_function ?(pure = false) t name f =
  Hashtbl.replace t.functions (key name) f;
  if pure then Hashtbl.replace t.pure_functions (key name) ()

let unregister_function t name =
  Hashtbl.remove t.functions (key name);
  Hashtbl.remove t.pure_functions (key name)

let find_function t name = Hashtbl.find_opt t.functions (key name)

(** Is [name] registered as safe to re-evaluate from a cached result? *)
let function_is_pure t name = Hashtbl.mem t.pure_functions (key name)

let sequence t name =
  match Hashtbl.find_opt t.sequences (key name) with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace t.sequences (key name) r;
    log_ddl t (U_create_seq (key name));
    r

let nextval t name =
  let r = sequence t name in
  t.undo <- U_sequence (r, !r) :: t.undo;
  incr r;
  !r

(* --- undo log ---------------------------------------------------------- *)

let log t entry = t.undo <- entry :: t.undo

let logged_insert t tbl row =
  let rowid = Table.insert tbl row in
  log t (U_insert (tbl, rowid));
  rowid

let logged_delete t tbl rowid =
  match Table.delete tbl rowid with
  | Some row ->
    log t (U_delete (tbl, rowid, row));
    true
  | None -> false

let logged_update t tbl rowid new_row =
  match Table.update tbl rowid new_row with
  | Some old_row ->
    log t (U_update (tbl, rowid, old_row));
    true
  | None -> false

let rollback_to t mark =
  (* whether any catalog-shaped entry was unwound: views may then mean
     something else, so cached results and base closures must go *)
  let catalog_changed = ref false in
  let rec go entries =
    if entries != mark then
      match entries with
      | [] -> ()
      | entry :: rest ->
        (match entry with
        | U_insert (tbl, rowid) -> ignore (Table.delete tbl rowid)
        | U_delete (tbl, rowid, row) -> Table.restore tbl rowid row
        | U_update (tbl, rowid, old_row) ->
          ignore (Table.update tbl rowid old_row)
        | U_sequence (r, v) -> r := v
        | U_create_obj name ->
          catalog_changed := true;
          Hashtbl.remove t.objects name
        | U_drop_obj (name, obj) ->
          catalog_changed := true;
          Hashtbl.replace t.objects name obj
        | U_create_trigger name -> (
          match Hashtbl.find_opt t.triggers name with
          | Some trig ->
            Hashtbl.remove t.triggers name;
            Hashtbl.remove t.by_target (trig.target, trig.event)
          | None -> ())
        | U_drop_trigger trig ->
          Hashtbl.replace t.triggers (key trig.trig_name) trig;
          Hashtbl.replace t.by_target (trig.target, trig.event) trig
        | U_create_index (tbl, col) -> Table.remove_index tbl col
        | U_create_seq name -> Hashtbl.remove t.sequences name
        | U_hook f -> f ());
        go rest
  in
  go t.undo;
  t.undo <- mark;
  if !catalog_changed then flush_view_metadata t

(* --- internal transactions ---------------------------------------------- *)

(** Is a transaction (user-issued BEGIN or an internal one) open? *)
let in_transaction t = t.in_txn

(** Open a transaction from host code (the migration engine) rather than via
    a BEGIN statement; pairs with {!commit_internal_txn} /
    {!abort_internal_txn}. *)
let begin_internal_txn t =
  if t.in_txn then error "already inside a transaction";
  t.in_txn <- true;
  t.undo <- []

let commit_internal_txn t =
  t.in_txn <- false;
  t.undo <- []

(** Undo everything since {!begin_internal_txn} — rows, tables, views,
    triggers, indexes and sequences — and close the transaction. *)
let abort_internal_txn t =
  rollback_to t [];
  t.in_txn <- false

let list_objects t =
  Hashtbl.fold (fun _ obj acc -> obj :: acc) t.objects []
  |> List.sort (fun a b ->
         let name = function
           | Obj_table tbl -> tbl.Table.name
           | Obj_view v -> v.view_name
         in
         compare (name a) (name b))

(* --- deterministic dump --------------------------------------------------- *)

(** Canonical textual dump of the whole database — every table with its
    schema, indexes and rows (sorted), every view body, every trigger and
    every sequence — independent of hash-table iteration order and internal
    rowids. Two databases holding the same logical state dump to the same
    bytes; the fault-injection harness compares dumps before a migration and
    after its rollback. *)
let dump t =
  let buf = Buffer.create 4096 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  List.iter
    (fun obj ->
      match obj with
      | Obj_table tbl ->
        add "TABLE %s (%s)%s\n" tbl.Table.name
          (String.concat ", " (Schema.names tbl.Table.schema))
          (match tbl.Table.pk with
          | Some i -> Fmt.str " PK=%d" i
          | None -> "");
        let idxs =
          Hashtbl.fold (fun c _ acc -> c :: acc) tbl.Table.indexes []
          |> List.sort compare
        in
        if idxs <> [] then add "  INDEX %s\n" (String.concat ", " idxs);
        let rows =
          Hashtbl.fold
            (fun _ row acc -> Array.to_list row :: acc)
            tbl.Table.rows []
          |> List.sort compare
        in
        List.iter
          (fun row ->
            add "  ROW %s\n"
              (String.concat " | " (List.map Value.to_literal row)))
          rows
      | Obj_view v ->
        add "VIEW %s (%s) AS %s\n" v.view_name
          (String.concat ", " v.view_cols)
          (Sql_printer.query_to_string v.query))
    (list_objects t);
  let triggers =
    Hashtbl.fold (fun k trig acc -> (k, trig) :: acc) t.triggers []
    |> List.sort compare
  in
  List.iter
    (fun (_, trig) ->
      add "TRIGGER %s%s %s ON %s: %s\n" trig.trig_name
        (if trig.instead_of then " INSTEAD OF" else "")
        (match trig.event with
        | Sql_ast.On_insert -> "INSERT"
        | Sql_ast.On_update -> "UPDATE"
        | Sql_ast.On_delete -> "DELETE")
        trig.target
        (String.concat "; " (List.map Sql_printer.statement_to_string trig.body)))
    triggers;
  let seqs =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.sequences []
    |> List.sort compare
  in
  List.iter (fun (name, v) -> add "SEQUENCE %s = %d\n" name v) seqs;
  Buffer.contents buf
