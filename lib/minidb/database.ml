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

(** A plan compiled from delta code: a view body, a key-pinned pushdown
    into one, or a trigger's statements. {!Exec} defines the cases. A plan
    holds catalog handles only (tables, functions, other plans), never rows
    or anything one statement's run builds, so it stays valid until the
    catalog changes. *)
type prepared = ..

(** What evaluating a view reads and may call, derived once per catalog
    state from its installed body ({!Exec.view_memo}), with its cached
    result and the plans prepared from its body beside it. *)
type view_memo = {
  vm_tables : Table.t list;
      (** the stored tables it reads, transitively, ordered by installed name *)
  vm_impure : bool;
      (** it can call an impure function (or reads a missing object, or
          itself through a view cycle): its result is never cached *)
  vm_calls : bool;
      (** it can call a function other than the pure built-ins: first-row
          mode's test ({!Exec.first_row_ok}) *)
  mutable vm_result : (relation * int list) option;
      (** the cached result, with the epochs of [vm_tables] it was computed
          at *)
  mutable vm_plans : prepared list;
      (** its body prepared for full evaluation and for each key-pinned
          pushdown into it, each on first use ({!Exec.view_body}) *)
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
  view_memos : (string, view_memo) Hashtbl.t;
      (** per view (lowercase name), filled on first use and reset by any
          catalog change ({!reset_view_memos}) *)
  trigger_memos : (string, prepared) Hashtbl.t;
      (** per trigger (lowercase name): its statements, each prepared on
          its first firing, reset with the view memos *)
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
    view_memos = Hashtbl.create 64;
    trigger_memos = Hashtbl.create 64;
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

(* Forget every view and trigger memo, with the results cached and the
   plans prepared in them: on any change to what a plan depends on (objects,
   triggers, indexes, registered functions, the planner fast paths, the
   executor), on the undo of any such change, and on a cache flush. Memos
   are re-derived on demand. Sequences are not among them: a plan reads a
   sequence only when it runs. *)
let reset_view_memos t =
  Hashtbl.reset t.view_memos;
  Hashtbl.reset t.trigger_memos

let set_view_cache t enabled =
  t.view_cache_enabled <- enabled;
  if not enabled then reset_view_memos t

(** Toggle the columnar batch executor. Cached view results are dropped on
    every toggle — row content is identical either way, but physical row
    order can differ between the executors, so one mode never serves rows
    materialized under the other. Disabling also drops the column snapshots
    of this database's tables, so a later re-enable starts cold. *)
let set_batch t enabled =
  if t.batch_enabled <> enabled then begin
    t.batch_enabled <- enabled;
    reset_view_memos t;
    if not enabled then
      Hashtbl.iter
        (fun _ -> function
          | Obj_table tbl -> tbl.Table.batch <- None
          | Obj_view _ -> ())
        t.objects
  end

(** Toggle the planner fast paths. Plans are prepared with them on only,
    but a toggle drops every plan all the same, as any change to what a plan
    depends on does. *)
let set_optimizations t enabled =
  if t.optimizations <> enabled then begin
    t.optimizations <- enabled;
    reset_view_memos t
  end

(** The cached result of the view with memo [vm], provided the cache is on
    and every table it reads is still at the epoch it was computed at. *)
let cache_lookup t vm =
  match vm.vm_result with
  | Some (rel, epochs) when t.view_cache_enabled ->
    if List.for_all2 (fun tbl e -> tbl.Table.epoch = e) vm.vm_tables epochs
    then begin
      t.view_cache_hits <- t.view_cache_hits + 1;
      Some rel
    end
    else begin
      vm.vm_result <- None;
      None
    end
  | _ -> None

(** Keep [rel], computed when [vm]'s tables were at [epochs], unless the
    cache is off or the view can call an impure function. *)
let cache_store t vm rel epochs =
  if t.view_cache_enabled && not vm.vm_impure then begin
    t.view_cache_misses <- t.view_cache_misses + 1;
    vm.vm_result <- Some (rel, epochs)
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
    reset_view_memos t;
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
  if stale <> [] then reset_view_memos t;
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
    reset_view_memos t;
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
  reset_view_memos t;
  Hashtbl.replace t.objects (key name)
    (Obj_view { view_name = name; query; view_cols = cols });
  (match replaced with
  | Some old -> log_ddl t (U_drop_obj (key name, old))
  | None -> log_ddl t (U_create_obj (key name)))

let drop_view t ~name ~if_exists =
  match find_object t name with
  | Some (Obj_view _ as obj) ->
    reset_view_memos t;
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
  reset_view_memos t;
  Hashtbl.replace t.triggers (key name) trig;
  Hashtbl.replace t.by_target (key target, event) trig;
  log_ddl t (U_create_trigger (key name))

let drop_trigger t ~name ~if_exists =
  match Hashtbl.find_opt t.triggers (key name) with
  | Some trig ->
    reset_view_memos t;
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
    reset_view_memos t;
    Table.add_index tbl column;
    log_ddl t (U_create_index (tbl, k))
  end

let trigger_for t ~target ~event = Hashtbl.find_opt t.by_target (key target, event)

let register_function ?(pure = false) t name f =
  reset_view_memos t;
  Hashtbl.replace t.functions (key name) f;
  if pure then Hashtbl.replace t.pure_functions (key name) ()

let unregister_function t name =
  reset_view_memos t;
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
     something else and plans read other objects, so the memos must go *)
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
          catalog_changed := true;
          match Hashtbl.find_opt t.triggers name with
          | Some trig ->
            Hashtbl.remove t.triggers name;
            Hashtbl.remove t.by_target (trig.target, trig.event)
          | None -> ())
        | U_drop_trigger trig ->
          catalog_changed := true;
          Hashtbl.replace t.triggers (key trig.trig_name) trig;
          Hashtbl.replace t.by_target (trig.target, trig.event) trig
        | U_create_index (tbl, col) ->
          catalog_changed := true;
          Table.remove_index tbl col
        | U_create_seq name -> Hashtbl.remove t.sequences name
        | U_hook f -> f ());
        go rest
  in
  go t.undo;
  t.undo <- mark;
  if !catalog_changed then reset_view_memos t

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
