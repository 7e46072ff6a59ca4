(** The ledger's traced run: its own spans around each call into the
    engine, with the engine's span trees drained after every operation and
    hung underneath, and the per-layer numbers computed from both.

    Nothing here reaches into the engine: it reads the span ring through
    [Api.recent_spans] / [Api.recent_traces], as an operator would. The
    engine records its spans whether or not the ledger traces (telemetry is
    on by default), so tracing adds only the draining, which happens
    between operations, outside their timed intervals. *)

module M = Minidb.Metrics
module I = Inverda.Api

type t = {
  keep_ops : int;  (** operations whose spans are kept for the JSONL file *)
  mutable kept : string list;  (** JSONL lines, newest first *)
  mutable kept_ops : int;
  mutable next_id : int;
  mutable cursor : int;  (** engine span sequence number drained so far *)
  mutable dropped : int;  (** traces lost to ring eviction before draining *)
  (* traffic statements: wall-clock nanoseconds summed over traced ones *)
  mutable stmts : int;
  mutable writes : int;
  mutable op_ns : int;
  mutable unattributed_ns : int;
  layer_ns : (string, int) Hashtbl.t;  (** self time by engine span kind *)
  paths : (string, int) Hashtbl.t;  (** data-access spans by executor path *)
  mutable trigger_ns : int;  (** inclusive time of outermost trigger spans *)
  mutable hops : int;
  (* administrative operations *)
  mutable migrations : int;
  mutable flips : int;
  mutable flip_ns : int;
  mutable bidel_stmts : int;
  mutable bidel_parse_ns : int;
  mutable evolve_ns : int;
  mutable recoveries : int;
  mutable checkpoint_load_ns : int;
  mutable replay_ns : int;
  mutable records : int;
}

let create ~keep_ops =
  {
    keep_ops;
    kept = [];
    kept_ops = 0;
    next_id = 1;
    cursor = 0;
    dropped = 0;
    stmts = 0;
    writes = 0;
    op_ns = 0;
    unattributed_ns = 0;
    layer_ns = Hashtbl.create 16;
    paths = Hashtbl.create 8;
    trigger_ns = 0;
    hops = 0;
    migrations = 0;
    flips = 0;
    flip_ns = 0;
    bidel_stmts = 0;
    bidel_parse_ns = 0;
    evolve_ns = 0;
    recoveries = 0;
    checkpoint_load_ns = 0;
    replay_ns = 0;
    records = 0;
  }

let bump tbl k n =
  Hashtbl.replace tbl k (n + Option.value (Hashtbl.find_opt tbl k) ~default:0)

let metrics api = (I.database api).Minidb.Database.metrics

(** Forget everything the ring holds now: only spans recorded after this
    call are drained. *)
let skip_to_now t api = t.cursor <- M.total_spans (metrics api)

(* Every complete engine trace recorded since the last drain. A trace whose
   earliest spans the 256-span ring evicted first is counted as dropped. *)
let drain t api =
  let total = M.total_spans (metrics api) in
  (* a rolled-back statement erases its spans and rewinds the sequence *)
  if total < t.cursor then t.cursor <- total;
  let fresh = total - t.cursor in
  if fresh = 0 then []
  else begin
    let roots =
      I.recent_spans ~limit:fresh api
      |> List.filter (fun sp -> sp.M.sp_parent = -1)
      |> List.length
    in
    let traces =
      List.filter
        (fun tr -> tr.M.tr_root.M.sp_seq >= t.cursor)
        (I.recent_traces api)
    in
    t.dropped <-
      t.dropped + roots - List.length traces
      + if fresh > M.span_capacity then 1 else 0;
    t.cursor <- total;
    traces
  end

(* --- the JSONL file --------------------------------------------------- *)

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let keep t ~trace ~id ~parent ~name ~start ~dur extra =
  let open Meter in
  t.kept <-
    json_object
      ([
         ("trace", string_of_int trace);
         ("id", string_of_int id);
         ("parent", string_of_int parent);
         ("name", json_string name);
         ("start_ns", string_of_int start);
         ("dur_ns", string_of_int dur);
       ]
      @ extra)
    :: t.kept

(* Engine span ids are local to one engine instance; renumber them into the
   ledger's id space and hang each trace root under the operation's span. *)
let keep_engine t ~trace ~op (tr : M.trace) =
  let ids = Hashtbl.create 16 in
  let id_of sp_id =
    match Hashtbl.find_opt ids sp_id with
    | Some i -> i
    | None ->
      let i = fresh_id t in
      Hashtbl.replace ids sp_id i;
      i
  in
  List.iter
    (fun (sp : M.span) ->
      let parent = if sp.M.sp_parent = -1 then op else id_of sp.M.sp_parent in
      keep t ~trace ~id:(id_of sp.M.sp_id) ~parent ~name:("engine." ^ sp.M.sp_kind)
        ~start:sp.M.sp_start_ns ~dur:sp.M.sp_ns
        [
          ("detail", Meter.json_string sp.M.sp_detail);
          ("path", Meter.json_string sp.M.sp_path);
          ("rows", string_of_int sp.M.sp_rows);
        ])
    tr.M.tr_spans

(** Record one ledger operation [name] over [start, start + dur] (wall-clock
    nanoseconds, the engine's clock) with its own child spans [children]
    ([(name, start, dur)]), drain the engine traces it caused and hang them
    underneath. Returns those traces. Of the traffic, only the first
    [keep_ops] operations are kept for the file, so a long run stays bounded
    in memory; [always] operations (the administrative ones) are all kept. *)
let operation t api ~name ~start ~dur ?(children = []) ?(always = false) () =
  let traces = drain t api in
  if always || t.kept_ops < t.keep_ops then begin
    if not always then t.kept_ops <- t.kept_ops + 1;
    let op = fresh_id t in
    List.iter
      (fun (cname, cstart, cdur) ->
        keep t ~trace:op ~id:(fresh_id t) ~parent:op ~name:cname ~start:cstart
          ~dur:cdur [])
      children;
    List.iter (keep_engine t ~trace:op ~op) traces;
    keep t ~trace:op ~id:op ~parent:(-1) ~name ~start ~dur []
  end;
  traces

(* --- per-layer accounting --------------------------------------------- *)

(* Length of the union of [(start, stop)] intervals. *)
let union_ns intervals =
  let sorted = List.sort compare intervals in
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc + (b - a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if a <= cb then go acc (Some (ca, max cb b)) rest
        else go (acc + (cb - ca)) (Some (a, b)) rest)
  in
  go 0 None sorted

(* A span's self time: its duration minus the part of it that its children
   cover. *)
let self_times (tr : M.trace) f =
  let children = Hashtbl.create 16 in
  List.iter
    (fun (sp : M.span) ->
      if sp.M.sp_parent <> -1 then Hashtbl.add children sp.M.sp_parent sp)
    tr.M.tr_spans;
  let kind_of = Hashtbl.create 16 in
  List.iter (fun (sp : M.span) -> Hashtbl.replace kind_of sp.M.sp_id sp.M.sp_kind) tr.M.tr_spans;
  List.iter
    (fun (sp : M.span) ->
      let lo = sp.M.sp_start_ns and hi = sp.M.sp_start_ns + sp.M.sp_ns in
      let covered =
        Hashtbl.find_all children sp.M.sp_id
        |> List.filter_map (fun (c : M.span) ->
               let a = max lo c.M.sp_start_ns
               and b = min hi (c.M.sp_start_ns + c.M.sp_ns) in
               if b > a then Some (a, b) else None)
        |> union_ns
      in
      let parent_kind = Hashtbl.find_opt kind_of sp.M.sp_parent in
      f sp ~parent_kind (sp.M.sp_ns - covered))
    tr.M.tr_spans

(** Account one traced traffic statement of [dur] wall-clock nanoseconds and
    the engine traces it caused. A statement root's self time is executor
    work outside any recorded operator; the [wal] trace holds the log
    append; whatever the roots do not cover is unattributed. *)
let statement t traces ~dur ~write =
  t.stmts <- t.stmts + 1;
  if write then t.writes <- t.writes + 1;
  t.op_ns <- t.op_ns + dur;
  let covered = ref 0 in
  List.iter
    (fun (tr : M.trace) ->
      let root = tr.M.tr_root in
      covered := !covered + root.M.sp_ns;
      if root.M.sp_kind = "wal" then bump t.layer_ns "wal" root.M.sp_ns
      else begin
        t.hops <- t.hops + root.M.sp_trigger_hops;
        self_times tr (fun sp ~parent_kind self ->
            let kind = if sp.M.sp_parent = -1 then "statement" else sp.M.sp_kind in
            bump t.layer_ns kind self;
            (match sp.M.sp_kind, sp.M.sp_path with
            | "scan", path | "view", (("cache-hit" | "pushdown") as path) ->
              bump t.paths path 1
            | _ -> ());
            if sp.M.sp_kind = "trigger" && parent_kind <> Some "trigger" then
              t.trigger_ns <- t.trigger_ns + sp.M.sp_ns)
      end)
    traces;
  t.unattributed_ns <- t.unattributed_ns + dur - !covered

(** Account a migration from its [migrate] trace: one phase span per SMO
    flipped. *)
let migration t traces =
  List.iter
    (fun (tr : M.trace) ->
      if tr.M.tr_root.M.sp_kind = "migrate" then begin
        t.migrations <- t.migrations + 1;
        List.iter
          (fun (sp : M.span) ->
            let d = sp.M.sp_detail in
            if sp.M.sp_kind = "phase"
               && (String.starts_with ~prefix:"virtualize" d
                  || String.starts_with ~prefix:"materialize" d)
            then begin
              t.flips <- t.flips + 1;
              t.flip_ns <- t.flip_ns + sp.M.sp_ns
            end)
          tr.M.tr_spans
      end)
    traces

let bidel t ~parse_ns ~exec_ns =
  t.bidel_stmts <- t.bidel_stmts + 1;
  t.bidel_parse_ns <- t.bidel_parse_ns + parse_ns;
  t.evolve_ns <- t.evolve_ns + exec_ns

(** Account a recovery from the [recover] trace the recovered instance
    records about itself. *)
let recovery t recovered =
  match
    List.rev (I.recent_traces recovered)
    |> List.find_opt (fun tr -> tr.M.tr_root.M.sp_kind = "recover")
  with
  | None -> t.dropped <- t.dropped + 1
  | Some tr ->
    t.recoveries <- t.recoveries + 1;
    List.iter
      (fun (sp : M.span) ->
        match sp.M.sp_detail with
        | "load checkpoint" ->
          t.checkpoint_load_ns <- t.checkpoint_load_ns + sp.M.sp_ns
        | "replay tail" | "replay from genesis" ->
          t.replay_ns <- t.replay_ns + sp.M.sp_ns;
          t.records <- t.records + sp.M.sp_rows
        | _ -> ())
      tr.M.tr_spans

(* --- results ---------------------------------------------------------- *)

let per ns n = if n = 0 then 0.0 else float_of_int ns /. 1e6 /. float_of_int n

let layer t k = Option.value (Hashtbl.find_opt t.layer_ns k) ~default:0

let path_share t p =
  let all = Hashtbl.fold (fun _ n acc -> acc + n) t.paths 0 in
  if all = 0 then 0.0
  else
    float_of_int (Option.value (Hashtbl.find_opt t.paths p) ~default:0)
    /. float_of_int all

(** The per-layer metrics the traces give, as [(name, value, unit)]. *)
let metrics_of t =
  let stmt k = per (layer t k) t.stmts in
  [
    ("sql_parser.ms_per_stmt", stmt "parse", "ms");
    ("exec.plan_ms", stmt "plan", "ms");
    ("exec.scan_ms", stmt "scan", "ms");
    ("exec.view_ms", stmt "view", "ms");
    ("exec.join_ms", stmt "join", "ms");
    ("exec.stmt_self_ms", stmt "statement", "ms");
    ("exec.path_batch", path_share t "batch", "frac");
    ("exec.path_row", path_share t "row", "frac");
    ("exec.path_index", path_share t "index", "frac");
    ("exec.path_pushdown", path_share t "pushdown", "frac");
    ("exec.path_cache_hit", path_share t "cache-hit", "frac");
    ( "triggers.hops_per_write",
      (if t.writes = 0 then 0.0 else float_of_int t.hops /. float_of_int t.writes),
      "count" );
    ("triggers.ms_per_write", per t.trigger_ns t.writes, "ms");
    ("wal.ms_per_write", per (layer t "wal") t.writes, "ms");
    ("recovery.checkpoint_load_ms", per t.checkpoint_load_ns t.recoveries, "ms");
    ("recovery.replay_ms", per t.replay_ns t.recoveries, "ms");
    ( "recovery.records",
      (if t.recoveries = 0 then 0.0
       else float_of_int t.records /. float_of_int t.recoveries),
      "count" );
    ( "migration.flips",
      (if t.migrations = 0 then 0.0
       else float_of_int t.flips /. float_of_int t.migrations),
      "count" );
    ("migration.ms_per_flip", per t.flip_ns t.flips, "ms");
    ("bidel.parse_ms", per t.bidel_parse_ns t.bidel_stmts, "ms");
    ("evolve.exec_ms", per t.evolve_ns t.bidel_stmts, "ms");
    ( "unattributed_frac",
      (if t.op_ns = 0 then 0.0
       else float_of_int t.unattributed_ns /. float_of_int t.op_ns),
      "frac" );
    ("trace.dropped", float_of_int t.dropped, "count");
  ]

(** The statement-time breakdown: each layer's self time per traced
    statement and its share of the statement's wall time, the remainder
    last. *)
let print_layers t =
  let rows =
    [
      ("parse", layer t "parse");
      ("plan", layer t "plan");
      ("scan", layer t "scan");
      ("view", layer t "view");
      ("join", layer t "join");
      ("trigger", layer t "trigger");
      ("comat", layer t "comat");
      ("statement (self)", layer t "statement");
      ("wal", layer t "wal");
      ("unattributed", t.unattributed_ns);
    ]
  in
  Printf.printf "  %-18s %12s %8s   (%d traced statements)\n" "layer" "ms/stmt"
    "share" t.stmts;
  List.iter
    (fun (name, ns) ->
      Printf.printf "  %-18s %12.5f %7.2f%%\n" name (per ns t.stmts)
        (if t.op_ns = 0 then 0.0
         else 100.0 *. float_of_int ns /. float_of_int t.op_ns))
    rows

let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (List.rev t.kept);
  close_out oc
