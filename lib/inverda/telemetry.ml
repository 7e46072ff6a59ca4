(** Workload telemetry over the genealogy: aggregates the engine's raw
    per-object counters ({!Minidb.Metrics}) into per-schema-version and
    per-table-version figures, derives the {!Advisor.profile} the Section 8.2
    advisor needs from observed traffic, renders unified stats (text and
    JSON), serializes statement spans as JSON lines, and implements EXPLAIN —
    the plan the executor compiles for a query, plus the delta-code path a
    statement traverses, reconstructed from the genealogy and the installed
    catalog. *)

module G = Genealogy
module Db = Minidb.Database
module E = Minidb.Exec
module M = Minidb.Metrics
module Sql = Minidb.Sql_ast

let key = String.lowercase_ascii

(* --- switches ------------------------------------------------------------- *)

let enabled (db : Db.t) = db.Db.metrics.M.enabled
let set_enabled (db : Db.t) on = M.set_enabled db.Db.metrics on
let reset (db : Db.t) = M.reset db.Db.metrics

(* --- aggregation ----------------------------------------------------------- *)

type totals = {
  mutable t_reads : int;
  mutable t_writes : int;
  mutable t_rows_returned : int;
  mutable t_rows_scanned : int;
  mutable t_trigger_hops : int;
}

let zero_totals () =
  {
    t_reads = 0;
    t_writes = 0;
    t_rows_returned = 0;
    t_rows_scanned = 0;
    t_trigger_hops = 0;
  }

let add_stats tot (s : M.object_stats) =
  tot.t_reads <- tot.t_reads + s.M.reads;
  tot.t_writes <- tot.t_writes + s.M.writes;
  tot.t_rows_returned <- tot.t_rows_returned + s.M.rows_returned;
  tot.t_rows_scanned <- tot.t_rows_scanned + s.M.rows_scanned;
  tot.t_trigger_hops <- tot.t_trigger_hops + s.M.trigger_hops

let merge_into m tot name =
  match M.find_stats m (key name) with
  | Some s -> add_stats tot s
  | None -> ()

(** Per-schema-version traffic, in catalog order. Reads, writes and rows
    returned are statement-level (a join over two views of one version
    counts once, via the engine's per-schema counters); trigger hops are
    summed over the version's views. *)
let version_counters (db : Db.t) (gen : G.t) =
  let m = db.Db.metrics in
  List.map
    (fun (sv : G.schema_version) ->
      let tot = zero_totals () in
      (match M.find_schema_stats m (key sv.G.sv_name) with
      | Some s ->
        tot.t_reads <- s.M.reads;
        tot.t_writes <- s.M.writes;
        tot.t_rows_returned <- s.M.rows_returned
      | None -> ());
      List.iter
        (fun (table, _) ->
          match
            M.find_stats m (key (Naming.version_view ~version:sv.G.sv_name ~table))
          with
          | Some s ->
            tot.t_trigger_hops <- tot.t_trigger_hops + s.M.trigger_hops;
            tot.t_rows_scanned <- tot.t_rows_scanned + s.M.rows_scanned
          | None -> ())
        sv.G.sv_tables;
      (sv.G.sv_name, tot))
    gen.G.versions

(** Per-table-version traffic: counters against the canonical
    table-version view plus scans of its data table (when physical). *)
let table_version_counters (db : Db.t) (gen : G.t) =
  let m = db.Db.metrics in
  List.map
    (fun (v : G.table_version) ->
      let tot = zero_totals () in
      merge_into m tot (G.tv_name v);
      merge_into m tot (Naming.data_table ~id:v.G.tv_id ~table:v.G.tv_table);
      (v, tot))
    (G.all_table_versions gen)
  |> List.sort (fun ((a : G.table_version), _) (b, _) ->
         compare a.G.tv_id b.G.tv_id)

(** The observed workload profile: each schema version weighted by the share
    of statements (reads + writes) that addressed its views. Empty when no
    traffic was observed — callers should treat that as "no recommendation
    possible", not as a uniform workload. *)
let observed_profile (db : Db.t) (gen : G.t) : Advisor.profile =
  let per_version = version_counters db gen in
  let total =
    List.fold_left
      (fun acc (_, t) -> acc + t.t_reads + t.t_writes)
      0 per_version
  in
  if total = 0 then []
  else
    List.map
      (fun (name, t) ->
        (name, float_of_int (t.t_reads + t.t_writes) /. float_of_int total))
      per_version

(* --- JSON helpers ---------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = "\"" ^ json_escape s ^ "\""

(* --- spans ------------------------------------------------------------------ *)

(** One span as a single JSON object (one line; no trailing newline). *)
let span_json (sp : M.span) =
  Fmt.str
    "{\"seq\":%d,\"id\":%d,\"trace\":%d,\"parent\":%d,\"kind\":%s,\"detail\":%s,\"path\":%s,\"targets\":[%s],\"start_ns\":%d,\"ns\":%d,\"parse_ns\":%d,\"compile_ns\":%d,\"rows_in\":%d,\"rows\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\"trigger_hops\":%d,\"view_depth\":%d}"
    sp.M.sp_seq sp.M.sp_id sp.M.sp_trace sp.M.sp_parent (jstr sp.M.sp_kind)
    (jstr sp.M.sp_detail) (jstr sp.M.sp_path)
    (String.concat "," (List.map jstr sp.M.sp_targets))
    sp.M.sp_start_ns sp.M.sp_ns sp.M.sp_parse_ns sp.M.sp_compile_ns
    sp.M.sp_rows_in sp.M.sp_rows sp.M.sp_cache_hits sp.M.sp_cache_misses
    sp.M.sp_trigger_hops sp.M.sp_view_depth

let recent_spans ?limit (db : Db.t) = M.recent_spans ?limit db.Db.metrics

(* --- traces ----------------------------------------------------------------- *)

let recent_traces ?limit (db : Db.t) = M.recent_traces ?limit db.Db.metrics

let pp_dur ns =
  if ns >= 1_000_000 then Fmt.str "%.2fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Fmt.str "%.1fus" (float_of_int ns /. 1e3)
  else Fmt.str "%dns" ns

(* "kind detail via path", each part only when present: how spans and plan
   nodes name an operator. *)
let op_label kind details path =
  String.concat " "
    (kind :: List.filter (( <> ) "") details
    @ if path = "" then [] else [ "via"; path ])

let span_label (sp : M.span) =
  op_label sp.M.sp_kind
    [ sp.M.sp_detail;
      (if sp.M.sp_targets = [] then ""
       else "[" ^ String.concat "," sp.M.sp_targets ^ "]") ]
    sp.M.sp_path

(* The children of span [id] in open order. *)
let span_children (tr : M.trace) id =
  List.filter (fun (sp : M.span) -> sp.M.sp_parent = id) tr.M.tr_spans
  |> List.sort (fun (a : M.span) (b : M.span) -> compare a.M.sp_id b.M.sp_id)

(** One trace as an indented tree, root first, children in open order. *)
let trace_tree_text (tr : M.trace) =
  let buf = Buffer.create 256 in
  let children = span_children tr in
  let rec go indent (sp : M.span) =
    Buffer.add_string buf (String.make (2 * indent) ' ');
    Buffer.add_string buf (span_label sp);
    Buffer.add_string buf ("  " ^ pp_dur sp.M.sp_ns);
    if sp.M.sp_rows >= 0 then begin
      Buffer.add_string buf (Fmt.str "  rows=%d" sp.M.sp_rows);
      if sp.M.sp_rows_in >= 0 && sp.M.sp_rows_in <> sp.M.sp_rows then
        Buffer.add_string buf (Fmt.str " (in=%d)" sp.M.sp_rows_in)
    end;
    if sp.M.sp_parent < 0 then begin
      if sp.M.sp_cache_hits + sp.M.sp_cache_misses > 0 then
        Buffer.add_string buf
          (Fmt.str "  cache=%d/%d" sp.M.sp_cache_hits
             (sp.M.sp_cache_hits + sp.M.sp_cache_misses));
      if sp.M.sp_trigger_hops > 0 then
        Buffer.add_string buf (Fmt.str "  hops=%d" sp.M.sp_trigger_hops);
      if sp.M.sp_view_depth > 0 then
        Buffer.add_string buf (Fmt.str "  view-depth=%d" sp.M.sp_view_depth)
    end;
    Buffer.add_char buf '\n';
    List.iter (go (indent + 1)) (children sp.M.sp_id)
  in
  go 0 tr.M.tr_root;
  Buffer.contents buf

(* --- unified stats ---------------------------------------------------------- *)

let histogram_json h =
  "["
  ^ String.concat ","
      (List.map (fun (lower, count) -> Fmt.str "[%d,%d]" lower count) h)
  ^ "]"

(** The unified stats document: telemetry switch, statement counts,
    prepared delta-code plans, view-cache hits/misses, per-version and
    per-table-version counters, the observed profile and both latency
    histograms. This is the [inverda_cli stats --json] payload; its field
    set is checked by [check.sh]. *)
let stats_json (db : Db.t) (gen : G.t) =
  let m = db.Db.metrics in
  let hits, misses = Db.cache_stats db in
  let buf = Buffer.create 1024 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  add "{";
  add "\"enabled\":%b," m.M.enabled;
  add "\"observed_statements\":%d," m.M.statements;
  add "\"engine_statements\":%d," db.Db.statements_executed;
  add "\"trigger_hops\":%d," m.M.trigger_hops_total;
  add "\"prepared_plans\":%d," m.M.plans_prepared;
  add "\"cache\":{\"hits\":%d,\"misses\":%d}," hits misses;
  add "\"versions\":[%s],"
    (String.concat ","
       (List.map
          (fun (name, t) ->
            Fmt.str
              "{\"version\":%s,\"reads\":%d,\"writes\":%d,\"rows_returned\":%d,\"trigger_hops\":%d}"
              (jstr name) t.t_reads t.t_writes t.t_rows_returned
              t.t_trigger_hops)
          (version_counters db gen)));
  add "\"table_versions\":[%s],"
    (String.concat ","
       (List.map
          (fun ((v : G.table_version), t) ->
            Fmt.str
              "{\"tv\":%d,\"table\":%s,\"physical\":%b,\"reads\":%d,\"writes\":%d,\"rows_scanned\":%d,\"trigger_hops\":%d}"
              v.G.tv_id (jstr v.G.tv_table)
              (G.is_physical gen v)
              t.t_reads t.t_writes t.t_rows_scanned t.t_trigger_hops)
          (table_version_counters db gen)));
  add "\"observed_profile\":[%s],"
    (String.concat ","
       (List.map
          (fun (name, w) -> Fmt.str "{\"version\":%s,\"weight\":%.4f}" (jstr name) w)
          (observed_profile db gen)));
  add "\"read_latency_ns\":%s," (histogram_json (M.read_histogram m));
  add "\"write_latency_ns\":%s," (histogram_json (M.write_histogram m));
  let qj arr =
    Fmt.str "{\"p50\":%d,\"p95\":%d,\"p99\":%d}" (M.quantile_ns arr 0.50)
      (M.quantile_ns arr 0.95) (M.quantile_ns arr 0.99)
  in
  add "\"latency_quantiles_ns\":{\"read\":%s,\"write\":%s},"
    (qj m.M.read_latency) (qj m.M.write_latency);
  add "\"spans\":{\"recorded\":%d,\"held\":%d,\"capacity\":%d,\"traces_held\":%d}"
    (M.total_spans m)
    (List.length (M.recent_spans m))
    M.span_capacity
    (List.length (M.recent_traces m));
  add "}";
  Buffer.contents buf

let pct part total =
  if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

(** Human-readable stats summary (the default [inverda_cli stats] output). *)
let stats_text (db : Db.t) (gen : G.t) =
  let m = db.Db.metrics in
  let hits, misses = Db.cache_stats db in
  let buf = Buffer.create 1024 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  add "telemetry: %s@." (if m.M.enabled then "enabled" else "disabled");
  add "statements: %d observed (%d engine-total, incl. cascades/internal)@."
    m.M.statements db.Db.statements_executed;
  add "trigger hops: %d@." m.M.trigger_hops_total;
  add "prepared plans: %d (trigger statements and view bodies)@."
    m.M.plans_prepared;
  add "view cache: %d hits / %d misses (%.1f%% hit rate)@." hits misses
    (pct hits (hits + misses));
  add "per-version traffic:@.";
  let profile = observed_profile db gen in
  List.iter
    (fun (name, t) ->
      let share =
        match List.assoc_opt name profile with
        | Some w -> Fmt.str " (%.1f%%)" (100.0 *. w)
        | None -> ""
      in
      add "  %-16s %6d reads  %6d writes  %8d rows  %5d hops%s@." name
        t.t_reads t.t_writes t.t_rows_returned t.t_trigger_hops share)
    (version_counters db gen);
  add "per-table-version traffic:@.";
  List.iter
    (fun ((v : G.table_version), t) ->
      if t.t_reads + t.t_writes + t.t_rows_scanned + t.t_trigger_hops > 0 then
        add "  tv%-3d %-12s %s  %5d reads  %5d writes  %8d scanned@."
          v.G.tv_id v.G.tv_table
          (if G.is_physical gen v then "physical" else "derived ")
          t.t_reads t.t_writes t.t_rows_scanned)
    (table_version_counters db gen);
  let histo label h arr =
    if h <> [] then begin
      add "%s latency (log2 ns buckets):@." label;
      List.iter (fun (lower, count) -> add "  >=%9dns  %d@." lower count) h;
      add "  p50 %s  p95 %s  p99 %s@."
        (pp_dur (M.quantile_ns arr 0.50))
        (pp_dur (M.quantile_ns arr 0.95))
        (pp_dur (M.quantile_ns arr 0.99))
    end
  in
  histo "read" (M.read_histogram m) m.M.read_latency;
  histo "write" (M.write_histogram m) m.M.write_latency;
  add "spans: %d recorded, %d held (capacity %d), %d complete traces@."
    (M.total_spans m)
    (List.length (M.recent_spans m))
    M.span_capacity
    (List.length (M.recent_traces m));
  Buffer.contents buf

(* --- EXPLAIN ---------------------------------------------------------------- *)

(* Reverse lookups from object names into the genealogy. *)
let version_view_of (gen : G.t) k =
  List.find_map
    (fun (sv : G.schema_version) ->
      List.find_map
        (fun (table, tvid) ->
          if key (Naming.version_view ~version:sv.G.sv_name ~table) = k then
            Some (sv.G.sv_name, table, tvid)
          else None)
        sv.G.sv_tables)
    gen.G.versions

let canonical_of (gen : G.t) k =
  List.find_opt (fun v -> key (G.tv_name v) = k) (G.all_table_versions gen)

let data_table_of (gen : G.t) k =
  List.find_opt
    (fun (v : G.table_version) ->
      key (Naming.data_table ~id:v.G.tv_id ~table:v.G.tv_table) = k)
    (G.all_table_versions gen)

(* The role object [k] plays in the genealogy, and its table version when
   it has one. *)
let role_of (db : Db.t) (gen : G.t) k =
  match version_view_of gen k, canonical_of gen k, data_table_of gen k with
  | Some (version, table, tvid), _, _ ->
    ( Fmt.str "version view (%s of version %s, tv%d)" table version tvid,
      Some (G.tv gen tvid) )
  | None, Some v, _ ->
    ( Fmt.str "canonical table-version view (tv%d of %s)" v.G.tv_id
        v.G.tv_table,
      Some v )
  | None, None, Some v ->
    (Fmt.str "physical data table of tv%d(%s)" v.G.tv_id v.G.tv_table, Some v)
  | None, None, None ->
    ( (match Db.find_object db k with
      | Some (Db.Obj_table _) -> "plain table (outside the genealogy)"
      | Some (Db.Obj_view _) -> "plain view (outside the genealogy)"
      | None -> "unknown object"),
      None )

let smo_label (si : G.smo_instance) =
  Fmt.str "SMO #%d %s (%s)" si.G.si_id
    (Bidel.Ast.smo_name si.G.si_smo)
    (if si.G.si_materialized then "materialized" else "virtualized")

(* The genealogy access path from a table version to the data, following
   Section 6's case analysis hop by hop. [emit] receives finished lines. *)
let rec genealogy_path (gen : G.t) visited (v : G.table_version) emit indent =
  let pad = String.make (2 * indent) ' ' in
  if List.mem v.G.tv_id visited then
    emit (Fmt.str "%s... tv%d revisited (shared ancestor)" pad v.G.tv_id)
  else begin
    let visited = v.G.tv_id :: visited in
    match G.access_case gen v with
    | G.Local ->
      emit
        (Fmt.str "%stv%d(%s): local - data table %s" pad v.G.tv_id v.G.tv_table
           (Naming.data_table ~id:v.G.tv_id ~table:v.G.tv_table))
    | G.Forwards o ->
      let si = G.smo gen o in
      emit
        (Fmt.str "%stv%d(%s): forwards through %s" pad v.G.tv_id v.G.tv_table
           (smo_label si));
      List.iter
        (fun t -> genealogy_path gen visited (G.tv gen t) emit (indent + 1))
        si.G.si_target_tvs
    | G.Backwards i ->
      let si = G.smo gen i in
      emit
        (Fmt.str "%stv%d(%s): backwards through %s" pad v.G.tv_id v.G.tv_table
           (smo_label si));
      List.iter
        (fun s -> genealogy_path gen visited (G.tv gen s) emit (indent + 1))
        si.G.si_source_tvs
  end

(* The installed view stack under a name: what the executor actually expands,
   view by view, down to stored tables. *)
let view_stack (db : Db.t) emit name =
  let visited = Hashtbl.create 16 in
  let rec go indent name =
    let k = key name in
    let pad = String.make (2 * indent) ' ' in
    if indent > 16 then emit (pad ^ "...")
    else if Hashtbl.mem visited k then emit (Fmt.str "%s%s (shared)" pad k)
    else begin
      Hashtbl.replace visited k ();
      match Db.find_object db k with
      | Some (Db.Obj_view v) ->
        emit (Fmt.str "%sview %s" pad k);
        List.iter (go (indent + 1)) (Minidb.Exec.query_targets v.Db.query)
      | Some (Db.Obj_table _) -> emit (Fmt.str "%stable %s" pad k)
      | None -> emit (Fmt.str "%s%s (missing)" pad k)
    end
  in
  go 1 name

(* Trigger cascade a write on [target] would fire, following the statically
   known targets of each trigger body. *)
let trigger_cascade (db : Db.t) emit target event =
  let visited = Hashtbl.create 16 in
  let event_name = function
    | Sql.On_insert -> "INSERT"
    | Sql.On_update -> "UPDATE"
    | Sql.On_delete -> "DELETE"
  in
  let stmt_write = function
    | Sql.Insert { table; _ } -> Some (table, Sql.On_insert)
    | Sql.Update { table; _ } -> Some (table, Sql.On_update)
    | Sql.Delete { table; _ } -> Some (table, Sql.On_delete)
    | _ -> None
  in
  let rec go indent target event =
    let pad = String.make (2 * indent) ' ' in
    let k = (key target, event) in
    if Hashtbl.mem visited k then
      emit (Fmt.str "%s%s %s (already shown)" pad (event_name event) (key target))
    else begin
      Hashtbl.replace visited k ();
      match Db.trigger_for db ~target ~event with
      | None -> (
        match Db.find_object db target with
        | Some (Db.Obj_table _) ->
          emit
            (Fmt.str "%s%s %s: direct table write" pad (event_name event)
               (key target))
        | _ ->
          emit
            (Fmt.str "%s%s %s: no trigger (write would fail or be a no-op)" pad
               (event_name event) (key target)))
      | Some trig ->
        emit
          (Fmt.str "%s%s %s fires %s%s" pad (event_name event) (key target)
             trig.Db.trig_name
             (if trig.Db.instead_of then " (INSTEAD OF)" else ""));
        List.iter
          (fun stmt ->
            match stmt_write stmt with
            | Some (t, e) -> go (indent + 1) t e
            | None -> ())
          trig.Db.body
    end
  in
  go 1 target event

(** Physical stored tables whose contents the named object depends on: a
    view's are those its memo records ({!Minidb.Exec.view_memo}). *)
let physical_bases (db : Db.t) k =
  match Db.find_key db k with
  | Some (Db.Obj_view v) ->
    List.map (fun tbl -> tbl.Minidb.Table.name) (E.view_memo db k v).Db.vm_tables
  | Some (Db.Obj_table _) -> [ k ]
  | None -> []

(* --- plans -------------------------------------------------------------------- *)

(* Operators that record a span of their own when they run; the other plan
   nodes are transparent to the trace. *)
let operator_kind = function
  | "select" | "scan" | "view" | "join" -> true
  | _ -> false

(* One plan node as a line: what the compiler chose, [first-row] when it
   stops at the first row its consumer keeps, and, once it ran, the rows and
   time its [spans] measured — one span per evaluation — and any other path
   they report (a computed view the cache served reads [cache-hit]). *)
let node_line indent (p : E.plan) spans =
  let sum f = List.fold_left (fun n sp -> n + f sp) 0 spans in
  let runs = List.length spans in
  String.concat "  "
    ((String.make (2 * indent) ' ' ^ op_label p.E.kind [ p.E.detail ] p.E.path)
    :: (if p.E.first_row then [ "first-row" ] else [])
    @ (if runs = 0 then []
        else
          [ Fmt.str "rows=%d" (sum (fun sp -> sp.M.sp_rows));
            pp_dur (sum (fun sp -> sp.M.sp_ns)) ])
    @ (if runs > 1 then [ Fmt.str "runs=%d" runs ] else [])
    @ List.sort_uniq compare
        (List.filter_map
           (fun (sp : M.span) ->
             if sp.M.sp_path = p.E.path then None
             else Some ("ran via " ^ sp.M.sp_path))
           spans))

(* The operator nodes among [ps], seen through transparent ones. *)
let rec frontier ps =
  List.concat_map
    (fun (p : E.plan) ->
      if operator_kind p.E.kind then [ p ] else frontier p.E.inputs)
    ps

(* Render [node] and its inputs, indented by depth. [spans] are the ones
   [node] recorded while the statement ran; their operator children (among
   [children sp]) are paired, in open order, with the first unpaired input
   of the same kind and detail, seen through transparent nodes, and a
   repeated evaluation pairs again. A child no input accounts for is printed
   as an unplanned span: a disagreement between the plan and what ran. *)
let rec plan_lines emit children indent (node : E.plan) spans =
  emit (node_line indent node spans);
  let slots = List.map (fun p -> (p, ref [])) (frontier node.E.inputs) in
  List.iter
    (fun (sp : M.span) ->
      let same ((p : E.plan), _) =
        p.E.kind = sp.M.sp_kind && p.E.detail = sp.M.sp_detail
      in
      let unpaired ((_, got) as s) = same s && !got = [] in
      match
        match List.find_opt unpaired slots with
        | None -> List.find_opt same slots
        | fresh -> fresh
      with
      | Some (_, got) -> got := sp :: !got
      | None ->
        emit
          (Fmt.str "%sunplanned span: %s"
             (String.make (2 * (indent + 1)) ' ')
             (span_label sp)))
    (List.concat_map children spans
    |> List.filter (fun (sp : M.span) -> operator_kind sp.M.sp_kind));
  let rec input indent (p : E.plan) =
    if operator_kind p.E.kind then
      plan_lines emit children indent p (List.rev !(List.assq p slots))
    else begin
      emit (node_line indent p []);
      List.iter (input (indent + 1)) p.E.inputs
    end
  in
  List.iter (input (indent + 1)) node.E.inputs

(* The named objects a plan reads, with the path each read was compiled to. *)
let rec plan_reads (p : E.plan) =
  (if p.E.kind = "scan" || p.E.kind = "view" then [ (p.E.detail, p.E.path) ]
   else [])
  @ List.concat_map plan_reads p.E.inputs

(* The compiled plan of a query statement; raises the executor's own error
   when the query does not compile. *)
let query_plan (db : Db.t) = function
  | Sql.Query q -> Some (E.plan db q)
  | _ -> None

(* EXPLAIN of a parsed statement and, for a query, its compiled [plan];
   EXPLAIN ANALYZE passes the [trace] of the run, whose spans annotate the
   plan's nodes. *)
let explain_stmt ?trace (db : Db.t) (gen : G.t) stmt plan =
  let buf = Buffer.create 1024 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  let emit line = Buffer.add_string buf (line ^ "\n") in
  let explain_object ?write_event name =
    let k = key name in
    let role, tv_info = role_of db gen k in
    add "%s: %s@." k role;
    (match tv_info with
    | Some v ->
      add " genealogy access path:@.";
      genealogy_path gen [] v emit 1
    | None -> ());
    (match Db.find_object db k with
    | Some (Db.Obj_view _) ->
      add " installed view stack:@.";
      view_stack db emit k
    | _ -> ());
    (match physical_bases db k with
    | [] -> ()
    | bases -> add " physical tables touched: %s@." (String.concat ", " bases));
    match write_event with
    | Some event ->
      add " trigger cascade:@.";
      trigger_cascade db emit k event
    | None -> ()
  in
  (match stmt with
  | Sql.Query q ->
    add "SELECT reading %s@."
      (match Minidb.Exec.query_targets q with
      | [] -> "(no stored objects)"
      | ts -> String.concat ", " ts);
    Option.iter
      (fun p ->
        add "plan:@.";
        match trace with
        | None -> plan_lines emit (fun _ -> []) 1 p []
        | Some tr ->
          plan_lines emit
            (fun (sp : M.span) -> span_children tr sp.M.sp_id)
            1 p [ tr.M.tr_root ])
      plan;
    List.iter explain_object (Minidb.Exec.query_targets q)
  | Sql.Insert { table; _ } ->
    add "INSERT into %s@." (key table);
    explain_object ~write_event:Sql.On_insert table
  | Sql.Update { table; _ } ->
    add "UPDATE of %s@." (key table);
    explain_object ~write_event:Sql.On_update table
  | Sql.Delete { table; _ } ->
    add "DELETE from %s@." (key table);
    explain_object ~write_event:Sql.On_delete table
  | _ -> add "EXPLAIN supports SELECT, INSERT, UPDATE and DELETE statements@.");
  Buffer.contents buf

(** EXPLAIN one SQL statement: for a query, the plan the executor compiles
    for it; for every object it names, the role of that object in the
    genealogy, the access path to the data, the installed view stack, the physical tables touched and — for writes —
    the trigger cascade. Returns human-readable text; raises the executor's
    error when a query does not compile. *)
let explain (db : Db.t) (gen : G.t) sql =
  let stmt = Minidb.Sql_parser.statement_of_string sql in
  explain_stmt db gen stmt (query_plan db stmt)

(** EXPLAIN as a JSON object: statement kind, named targets, the objects the
    compiled plan reads with their access paths, per-target role /
    physical bases, and the rendered text for everything
    path-shaped. *)
let explain_json (db : Db.t) (gen : G.t) sql =
  let stmt = Minidb.Sql_parser.statement_of_string sql in
  let plan = query_plan db stmt in
  let kind, targets =
    match stmt with
    | Sql.Query q -> ("query", Minidb.Exec.query_targets q)
    | Sql.Insert { table; _ } -> ("insert", [ key table ])
    | Sql.Update { table; _ } -> ("update", [ key table ])
    | Sql.Delete { table; _ } -> ("delete", [ key table ])
    | _ -> ("unsupported", [])
  in
  let target_json name =
    let k = key name in
    let role, tv = role_of db gen k in
    let tv_id = match tv with Some v -> string_of_int v.G.tv_id | None -> "null" in
    Fmt.str
      "{\"object\":%s,\"role\":%s,\"tv\":%s,\"physical_tables\":[%s]}"
      (jstr k) (jstr role) tv_id
      (String.concat "," (List.map jstr (physical_bases db k)))
  in
  let access_paths =
    match plan with
    | Some p ->
      plan_reads p
      |> List.map (fun (obj, path) ->
             Fmt.str "{\"object\":%s,\"path\":%s}" (jstr obj) (jstr path))
      |> String.concat ","
    | None -> ""
  in
  Fmt.str
    "{\"kind\":%s,\"targets\":[%s],\"access_paths\":[%s],\"objects\":[%s],\"text\":%s}"
    (jstr kind)
    (String.concat "," (List.map jstr targets))
    access_paths
    (String.concat "," (List.map target_json targets))
    (jstr (explain_stmt db gen stmt plan))

(* --- OpenMetrics exposition -------------------------------------------------- *)

(** The whole engine's counters, per-schema-version traffic and latency
    histograms in OpenMetrics/Prometheus text exposition format — the
    [inverda_cli stats --openmetrics] / [Api.metrics_text] payload, ready
    for a scrape endpoint to serve verbatim. *)
let metrics_text (db : Db.t) (gen : G.t) =
  let m = db.Db.metrics in
  let hits, misses = Db.cache_stats db in
  let buf = Buffer.create 4096 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  let counter name help v =
    add "# HELP %s %s\n" name help;
    add "# TYPE %s counter\n" name;
    add "%s %d\n" name v
  in
  counter "inverda_statements_total"
    "Top-level statements observed by telemetry" m.M.statements;
  counter "inverda_engine_statements_total"
    "Engine statements including trigger cascades and internal work"
    db.Db.statements_executed;
  counter "inverda_trigger_hops_total" "Delta-code trigger cascade hops"
    m.M.trigger_hops_total;
  counter "inverda_prepared_plans_total"
    "Delta-code plans prepared (trigger statements and view bodies)"
    m.M.plans_prepared;
  add "# HELP inverda_view_cache_total View cache lookups by outcome\n";
  add "# TYPE inverda_view_cache_total counter\n";
  add "inverda_view_cache_total{outcome=\"hit\"} %d\n" hits;
  add "inverda_view_cache_total{outcome=\"miss\"} %d\n" misses;
  let vcs = version_counters db gen in
  let per_version name help field =
    add "# HELP %s %s\n" name help;
    add "# TYPE %s counter\n" name;
    List.iter
      (fun (version, t) ->
        add "%s{version=%s} %d\n" name (jstr version) (field t))
      vcs
  in
  if vcs <> [] then begin
    per_version "inverda_version_reads_total"
      "Statement-level reads per schema version" (fun t -> t.t_reads);
    per_version "inverda_version_writes_total"
      "Statement-level writes per schema version" (fun t -> t.t_writes);
    per_version "inverda_version_rows_returned_total"
      "Rows returned to each schema version" (fun t -> t.t_rows_returned);
    per_version "inverda_version_trigger_hops_total"
      "Trigger cascade hops per schema version" (fun t -> t.t_trigger_hops)
  end;
  let histo name help arr total_ns =
    add "# HELP %s %s\n" name help;
    add "# TYPE %s histogram\n" name;
    let cum = ref 0 in
    for i = 0 to M.buckets - 1 do
      if arr.(i) > 0 then begin
        cum := !cum + arr.(i);
        add "%s_bucket{le=\"%g\"} %d\n" name
          (float_of_int (M.bucket_lower_ns (i + 1)) /. 1e9)
          !cum
      end
    done;
    add "%s_bucket{le=\"+Inf\"} %d\n" name !cum;
    add "%s_sum %g\n" name (float_of_int total_ns /. 1e9);
    add "%s_count %d\n" name !cum
  in
  histo "inverda_read_latency_seconds" "Observed top-level read latency"
    m.M.read_latency m.M.read_ns_total;
  histo "inverda_write_latency_seconds" "Observed top-level write latency"
    m.M.write_latency m.M.write_ns_total;
  counter "inverda_spans_recorded_total"
    "Trace spans ever recorded (ring holds the newest)" (M.total_spans m);
  add "# EOF\n";
  Buffer.contents buf

(* --- EXPLAIN ANALYZE / profile ----------------------------------------------- *)

let result_rows (result : Minidb.Exec.result) =
  match result with
  | Minidb.Exec.Rows rel ->
    if rel.Minidb.Exec.rel_count >= 0 then rel.Minidb.Exec.rel_count
    else List.length rel.Minidb.Exec.rel_rows
  | Minidb.Exec.Affected n -> n
  | Minidb.Exec.Done -> 0

(** Execute [sql] with profile-mode tracing forced on (exact per-operator
    row counts, per-plan select nodes) and hand back the result plus the
    statement's trace. Restores the telemetry switches afterwards. *)
let run_traced (db : Db.t) sql =
  let m = db.Db.metrics in
  let was_enabled = m.M.enabled and was_detail = m.M.detail in
  M.set_enabled m true;
  M.set_detail m true;
  let restore () =
    M.set_enabled m was_enabled;
    M.set_detail m was_detail
  in
  let result =
    try Minidb.Engine.exec db sql
    with exn ->
      restore ();
      raise exn
  in
  restore ();
  (* newest complete trace whose root is the statement itself (a WAL sink,
     when attached, records its own [wal] trace right after) *)
  let trace =
    List.rev (M.recent_traces m)
    |> List.find_opt (fun (tr : M.trace) -> tr.M.tr_root.M.sp_kind <> "wal")
  in
  (result, trace)

(** EXPLAIN ANALYZE: execute the statement with tracing on, annotate the
    compiled plan with the rows and timings each node's spans measured, list
    any span the plan does not account for, and cross-check the trace
    root's row count against the executed result's own row attribution.
    Note the statement really runs — a write writes. *)
let explain_analyze (db : Db.t) (gen : G.t) sql =
  let stmt = Minidb.Sql_parser.statement_of_string sql in
  let plan = query_plan db stmt in
  (* a write changes the state EXPLAIN describes, so its text is rendered
     before it runs; a query's text waits for the spans of its plan *)
  let static =
    if Option.is_none plan then explain_stmt db gen stmt None else ""
  in
  let result, trace = run_traced db sql in
  let buf = Buffer.create 1024 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  add "%s"
    (if Option.is_none plan then static
     else explain_stmt ?trace db gen stmt plan);
  (match trace with
  | None -> add "actual execution: no trace recorded@."
  | Some tr ->
    let root = tr.M.tr_root in
    add "actual execution (trace %d, %s total):@." root.M.sp_trace
      (pp_dur root.M.sp_ns);
    add "%s" (trace_tree_text tr);
    let executed = result_rows result in
    add "cross-check: trace root rows=%d, executed rows=%d -> %s@."
      root.M.sp_rows executed
      (if root.M.sp_rows = executed then "exact match" else "MISMATCH"));
  Buffer.contents buf

(** [inverda_cli profile <stmt>]: execute with tracing and render the trace
    tree plus a one-line summary. *)
let profile (db : Db.t) sql =
  let result, trace = run_traced db sql in
  match trace with
  | None -> "no trace recorded (statement not observable?)\n"
  | Some tr ->
    let root = tr.M.tr_root in
    Fmt.str "%s%s: %s, %d spans, rows=%d\n" (trace_tree_text tr)
      root.M.sp_kind (pp_dur root.M.sp_ns)
      (List.length tr.M.tr_spans)
      (result_rows result)
