(** Execution telemetry: per-object access counters, log2-bucketed latency
    histograms and a bounded ring buffer of hierarchical statement traces.

    The module is engine-agnostic bookkeeping only — {!Exec} and {!Engine}
    decide *what* to attribute to *which* object; this module just stores
    it. Everything is designed to cost a few integer operations per event so
    the executor can leave collection on by default:

    - counters live in mutable records found once per statement via a
      hashtable keyed by lowercase object name;
    - latencies go into fixed 64-slot arrays indexed by [log2 ns];
    - spans overwrite a fixed-capacity array, so memory is bounded no matter
      how long the process runs.

    Spans are hierarchical: every observed top-level statement opens a
    {e trace} ({!begin_trace}); the executor records child spans (scans,
    view expansions, joins, trigger hops) under it, and
    the statement root closes the trace ({!end_trace}). Children are
    recorded when they {e finish}, so within a trace every child precedes
    its parent in the ring and the root is always the newest span of its
    trace. Ring eviction is oldest-first, which makes orphaned children
    (a child whose parent was evicted) structurally impossible — eviction
    can only take children {e before} their root. What eviction can leave
    is an {e incomplete} trace (root held, earliest children gone); the
    root carries the ring position of its trace's first span
    ([sp_first_seq]) so {!recent_traces} detects and drops those whole.

    [internal_depth] gates collection: the migration engine and the
    delta-code generator bump it around their internal statements so that a
    MATERIALIZE (moving every row through INSERT/DELETE statements) does not
    inflate the per-version traffic counters the advisor later reads. *)

type object_stats = {
  mutable reads : int;  (** statements that read from the object *)
  mutable writes : int;  (** DML statements targeting the object *)
  mutable rows_scanned : int;  (** stored rows materialized while serving it *)
  mutable rows_returned : int;  (** result rows produced by reads *)
  mutable trigger_hops : int;  (** trigger invocations fired on the object *)
}

(** One recorded span. Roots (top-level statements, WAL sink flushes,
    MATERIALIZE / recovery phases) have [sp_parent = -1] and carry the
    statement-level aggregates; children carry the operator-level facts
    (which object, which execution path, rows in / out). Durations are
    nanoseconds; [sp_seq] is a monotone sequence number that survives
    ring-buffer wrap-around (so consumers can detect dropped spans). *)
type span = {
  sp_seq : int;
  sp_id : int;  (** unique span id (process-local, monotone) *)
  sp_trace : int;  (** id of the trace's root span *)
  sp_parent : int;  (** parent span id; [-1] for trace roots *)
  sp_kind : string;
      (** roots: [query]/[insert]/[update]/[delete]/[ddl]/[txn]/[wal]/
          [migrate]/[recover]; children: [parse]/[plan]/[scan]/[view]/
          [join]/[select]/[trigger]/[append]/[fsync]/... *)
  sp_detail : string;  (** object or phase the span is about ("" for roots) *)
  sp_path : string;
      (** which executor path served it: [batch]/[row]/[index]/[pushdown]/
          [cache-hit]/[computed]; "" when not applicable *)
  sp_targets : string list;  (** objects the statement touched, lowercase *)
  sp_start_ns : int;  (** absolute wall-clock start *)
  sp_ns : int;  (** wall-clock duration *)
  sp_parse_ns : int;  (** SQL text -> AST (0 for pre-built ASTs) *)
  sp_compile_ns : int;  (** query -> relation plan/eval setup *)
  sp_rows_in : int;  (** rows entering the operator; [-1] unknown *)
  sp_rows : int;  (** rows returned (queries) or affected (DML) *)
  sp_cache_hits : int;  (** view-cache hits during this statement *)
  sp_cache_misses : int;
  sp_trigger_hops : int;  (** trigger invocations cascaded from it *)
  sp_view_depth : int;  (** deepest view-expansion nesting reached *)
  sp_first_seq : int;
      (** roots: ring seq of the trace's first span (completeness check);
          [-1] on children *)
}

(** A complete trace held by the ring: the root plus every descendant, in
    recording (= completion) order, root last. *)
type trace = { tr_root : span; tr_spans : span list }

let buckets = 64

type t = {
  mutable enabled : bool;
  mutable internal_depth : int;
      (** > 0 while executing engine-internal statements (migration data
          movement, delta-code installation, backfills): collection is off *)
  objects : (string, object_stats) Hashtbl.t;
  schemas : (string, object_stats) Hashtbl.t;
      (** per-qualifier counters: a statement naming several objects of the
          same schema ("tasky2.task" joined with "tasky2.author") counts
          once here — the statement-level traffic share a workload profile
          is built from *)
  mutable statements : int;  (** observed top-level statements *)
  mutable trigger_hops_total : int;
  mutable plans_prepared : int;
      (** delta-code plans prepared (a trigger statement, a view body for
          full evaluation or for a key-pinned pushdown), counted whether or
          not collection is on *)
  read_latency : int array;  (** bucket [i] counts reads in [2^i, 2^i+1) ns *)
  write_latency : int array;
  mutable read_ns_total : int;  (** sum of observed read latencies *)
  mutable write_ns_total : int;
  mutable pending_parse_ns : int;
      (** parse time staged by {!Engine} for the statement about to run *)
  mutable pending_t0 : int;
      (** timestamp taken by {!Engine} when the parse finished; the executor
          reuses it as the statement start instead of reading the clock
          again (0 = none staged) *)
  mutable last_compile_ns : int;
  mutable cur_view_depth : int;
  mutable max_view_depth : int;
  spans : span option array;
  mutable span_seq : int;  (** next sequence number == total spans recorded *)
  mutable next_span_id : int;
  mutable cur_trace : int;  (** root span id of the open trace; [-1] none *)
  mutable cur_parent : int;  (** span id new children attach to *)
  mutable trace_first_seq : int;
      (** ring seq at {!begin_trace} — the rewind point for {!abort_trace}
          and the completeness stamp the root will carry *)
  mutable detail : bool;
      (** profile mode: operator spans count rows exactly (walking row
          lists) instead of the O(1)-or-[-1] default, and per-plan [select]
          nodes are recorded *)
  mutable slow_ns : int;  (** slow-trace threshold; 0 = sink disabled *)
  mutable slow_sample : int;  (** record every Nth trace over threshold *)
  mutable slow_seen : int;
  mutable slow_sink : (span -> unit) option;
}

let span_capacity = 256

let create () =
  {
    enabled = true;
    internal_depth = 0;
    objects = Hashtbl.create 64;
    schemas = Hashtbl.create 16;
    statements = 0;
    trigger_hops_total = 0;
    plans_prepared = 0;
    read_latency = Array.make buckets 0;
    write_latency = Array.make buckets 0;
    read_ns_total = 0;
    write_ns_total = 0;
    pending_parse_ns = 0;
    pending_t0 = 0;
    last_compile_ns = 0;
    cur_view_depth = 0;
    max_view_depth = 0;
    spans = Array.make span_capacity None;
    span_seq = 0;
    next_span_id = 0;
    cur_trace = -1;
    cur_parent = -1;
    trace_first_seq = 0;
    detail = false;
    slow_ns = 0;
    slow_sample = 1;
    slow_seen = 0;
    slow_sink = None;
  }

let set_enabled t on = t.enabled <- on

(** Is collection live right now? The executor checks this once per
    statement; the per-event helpers below assume the caller did. *)
let collecting t = t.enabled && t.internal_depth = 0

(** Bracket engine-internal work: statements executed between [suspend] and
    [resume] are invisible to every counter and the span buffer. Nests. *)
let suspend t = t.internal_depth <- t.internal_depth + 1

let resume t = if t.internal_depth > 0 then t.internal_depth <- t.internal_depth - 1

let set_detail t on = t.detail <- on

(** Route every trace root at least [threshold_ns] long into [sink]
    (sampled: every [sample]th matching root). One sink at a time. *)
let set_slow_sink t ~threshold_ns ~sample sink =
  t.slow_ns <- max 0 threshold_ns;
  t.slow_sample <- max 1 sample;
  t.slow_seen <- 0;
  t.slow_sink <- sink

let reset t =
  Hashtbl.reset t.objects;
  Hashtbl.reset t.schemas;
  t.statements <- 0;
  t.trigger_hops_total <- 0;
  t.plans_prepared <- 0;
  Array.fill t.read_latency 0 buckets 0;
  Array.fill t.write_latency 0 buckets 0;
  t.read_ns_total <- 0;
  t.write_ns_total <- 0;
  t.pending_parse_ns <- 0;
  t.pending_t0 <- 0;
  t.last_compile_ns <- 0;
  t.cur_view_depth <- 0;
  t.max_view_depth <- 0;
  Array.fill t.spans 0 span_capacity None;
  t.span_seq <- 0;
  t.next_span_id <- 0;
  t.cur_trace <- -1;
  t.cur_parent <- -1;
  t.trace_first_seq <- 0;
  t.slow_seen <- 0

(* --- clock --------------------------------------------------------------- *)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* --- per-object counters ------------------------------------------------- *)

let stats_for t name =
  match Hashtbl.find_opt t.objects name with
  | Some s -> s
  | None ->
    let s =
      { reads = 0; writes = 0; rows_scanned = 0; rows_returned = 0; trigger_hops = 0 }
    in
    Hashtbl.replace t.objects name s;
    s

let record_read t name ~rows =
  let s = stats_for t name in
  s.reads <- s.reads + 1;
  s.rows_returned <- s.rows_returned + rows

let record_write t name =
  let s = stats_for t name in
  s.writes <- s.writes + 1

let record_scan t name n =
  let s = stats_for t name in
  s.rows_scanned <- s.rows_scanned + n

let record_trigger_hop t name =
  t.trigger_hops_total <- t.trigger_hops_total + 1;
  let s = stats_for t name in
  s.trigger_hops <- s.trigger_hops + 1

(* --- per-schema counters -------------------------------------------------- *)

(** The schema qualifier of an object name ("tasky2.task" -> "tasky2"), by
    its last dot; [None] for unqualified names. *)
let schema_of name =
  match String.rindex_opt name '.' with
  | Some i when i > 0 -> Some (String.sub name 0 i)
  | _ -> None

let schema_stats_for t qual =
  match Hashtbl.find_opt t.schemas qual with
  | Some s -> s
  | None ->
    let s =
      { reads = 0; writes = 0; rows_scanned = 0; rows_returned = 0; trigger_hops = 0 }
    in
    Hashtbl.replace t.schemas qual s;
    s

let record_schema_read t qual ~rows =
  let s = schema_stats_for t qual in
  s.reads <- s.reads + 1;
  s.rows_returned <- s.rows_returned + rows

let record_schema_write t qual =
  let s = schema_stats_for t qual in
  s.writes <- s.writes + 1

let find_schema_stats t qual = Hashtbl.find_opt t.schemas qual

(** All per-object counters, sorted by name for deterministic output. *)
let object_stats t =
  Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.objects []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find_stats t name = Hashtbl.find_opt t.objects name

(* --- latency histograms -------------------------------------------------- *)

(** log2 bucket index of a nanosecond duration: 0ns -> 0, otherwise
    [floor (log2 ns)], capped at the last bucket. *)
let bucket_of_ns ns =
  if ns <= 0 then 0
  else begin
    let b = ref 0 and v = ref ns in
    while !v > 1 do
      incr b;
      v := !v lsr 1
    done;
    if !b >= buckets then buckets - 1 else !b
  end

(** Inclusive lower bound of bucket [i] in nanoseconds. *)
let bucket_lower_ns i = if i <= 0 then 0 else 1 lsl i

let observe_read_ns t ns =
  let b = bucket_of_ns ns in
  t.read_latency.(b) <- t.read_latency.(b) + 1;
  t.read_ns_total <- t.read_ns_total + max 0 ns

let observe_write_ns t ns =
  let b = bucket_of_ns ns in
  t.write_latency.(b) <- t.write_latency.(b) + 1;
  t.write_ns_total <- t.write_ns_total + max 0 ns

(** Non-empty buckets of a histogram as [(bucket_lower_ns, count)] pairs. *)
let histogram arr =
  let acc = ref [] in
  for i = buckets - 1 downto 0 do
    if arr.(i) > 0 then acc := (bucket_lower_ns i, arr.(i)) :: !acc
  done;
  !acc

let read_histogram t = histogram t.read_latency
let write_histogram t = histogram t.write_latency

(** Quantile estimate (q in [0,1]) from a log2 latency histogram: the
    bucket where the cumulative count crosses [q * total], linearly
    interpolated inside the bucket's [2^i, 2^(i+1)) range. 0 with no
    observations. *)
let quantile_ns arr q =
  let total = Array.fold_left ( + ) 0 arr in
  if total = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let rec walk i cum =
      if i >= buckets then bucket_lower_ns (buckets - 1)
      else if cum + arr.(i) >= rank then begin
        let lower = bucket_lower_ns i in
        let width = if i = 0 then 2 else lower in
        let frac =
          float_of_int (rank - cum) /. float_of_int arr.(i)
        in
        lower + int_of_float (frac *. float_of_int width)
      end
      else walk (i + 1) (cum + arr.(i))
    in
    walk 0 0
  end

(* --- span ring + traces --------------------------------------------------- *)

let push_span t sp =
  t.spans.(t.span_seq mod span_capacity) <- Some sp;
  t.span_seq <- t.span_seq + 1

let fresh_id t =
  let id = t.next_span_id in
  t.next_span_id <- id + 1;
  id

(** Open a trace: spans recorded until the matching {!end_trace} (or
    {!abort_trace}) belong to it. Called by the executor for every observed
    top-level statement, and by the engine around phase work (WAL sink). *)
let begin_trace t =
  let id = fresh_id t in
  t.cur_trace <- id;
  t.cur_parent <- id;
  t.trace_first_seq <- t.span_seq

let trace_active t = t.cur_trace >= 0

(** May an operator-level child span be recorded right now? Same gate as
    {!collecting} plus an open trace — children never appear outside one. *)
let child_active t = t.enabled && t.internal_depth = 0 && t.cur_trace >= 0

(* Children are recorded at completion (leafs directly, nested spans via
   open/close), so a parent's ring seq is always greater than all of its
   children's: the ring evicts children strictly before their parent. *)
let record_child t ~kind ~detail ~path ~start_ns ~ns ~rows_in ~rows =
  push_span t
    {
      sp_seq = t.span_seq;
      sp_id = fresh_id t;
      sp_trace = t.cur_trace;
      sp_parent = t.cur_parent;
      sp_kind = kind;
      sp_detail = detail;
      sp_path = path;
      sp_targets = [];
      sp_start_ns = start_ns;
      sp_ns = ns;
      sp_parse_ns = 0;
      sp_compile_ns = 0;
      sp_rows_in = rows_in;
      sp_rows = rows;
      sp_cache_hits = 0;
      sp_cache_misses = 0;
      sp_trigger_hops = 0;
      sp_view_depth = 0;
      sp_first_seq = -1;
    }

(** A span that will itself have children: allocate its id up front so
    nested spans attach to it, record it on {!close_span}. *)
type frame = { fr_id : int; fr_parent : int; fr_start : int }

let open_span t =
  let id = fresh_id t in
  let fr = { fr_id = id; fr_parent = t.cur_parent; fr_start = now_ns () } in
  t.cur_parent <- id;
  fr

let close_span t fr ~kind ~detail ~path ~rows_in ~rows =
  t.cur_parent <- fr.fr_parent;
  push_span t
    {
      sp_seq = t.span_seq;
      sp_id = fr.fr_id;
      sp_trace = t.cur_trace;
      sp_parent = fr.fr_parent;
      sp_kind = kind;
      sp_detail = detail;
      sp_path = path;
      sp_targets = [];
      sp_start_ns = fr.fr_start;
      sp_ns = now_ns () - fr.fr_start;
      sp_parse_ns = 0;
      sp_compile_ns = 0;
      sp_rows_in = rows_in;
      sp_rows = rows;
      sp_cache_hits = 0;
      sp_cache_misses = 0;
      sp_trigger_hops = 0;
      sp_view_depth = 0;
      sp_first_seq = -1;
    }

(** Close the open trace by recording its root span. [start_ns] is the
    execute-phase start; a non-zero [parse_ns] backdates the root (and adds
    a synthesized [parse] child ending at [start_ns]), a non-zero
    [compile_ns] adds a synthesized [plan] child starting there — so the
    root's interval contains every child's. Works without {!begin_trace}
    too (the root becomes a single-span trace). *)
let end_trace t ~kind ?(detail = "") ?(path = "") ?(targets = []) ~start_ns
    ~ns ?(parse_ns = 0) ?(compile_ns = 0) ?(rows_in = -1) ~rows
    ?(cache_hits = 0) ?(cache_misses = 0) ?(trigger_hops = 0)
    ?(view_depth = 0) () =
  let id, first_seq =
    if t.cur_trace >= 0 then (t.cur_trace, t.trace_first_seq)
    else (fresh_id t, t.span_seq)
  in
  t.cur_trace <- id;
  t.cur_parent <- id;
  if parse_ns > 0 then
    record_child t ~kind:"parse" ~detail ~path:"" ~start_ns:(start_ns - parse_ns)
      ~ns:parse_ns ~rows_in:(-1) ~rows:(-1);
  if compile_ns > 0 then
    record_child t ~kind:"plan" ~detail ~path:"" ~start_ns ~ns:compile_ns
      ~rows_in:(-1) ~rows:(-1);
  let root =
    {
      sp_seq = t.span_seq;
      sp_id = id;
      sp_trace = id;
      sp_parent = -1;
      sp_kind = kind;
      sp_detail = detail;
      sp_path = path;
      sp_targets = targets;
      sp_start_ns = start_ns - parse_ns;
      sp_ns = ns + parse_ns;
      sp_parse_ns = parse_ns;
      sp_compile_ns = compile_ns;
      sp_rows_in = rows_in;
      sp_rows = rows;
      sp_cache_hits = cache_hits;
      sp_cache_misses = cache_misses;
      sp_trigger_hops = trigger_hops;
      sp_view_depth = view_depth;
      sp_first_seq = first_seq;
    }
  in
  push_span t root;
  t.cur_trace <- -1;
  t.cur_parent <- -1;
  (match t.slow_sink with
  | Some sink when t.slow_ns > 0 && root.sp_ns >= t.slow_ns ->
    t.slow_seen <- t.slow_seen + 1;
    if (t.slow_seen - 1) mod t.slow_sample = 0 then sink root
  | _ -> ());
  root

(** Abort the open trace: every span it already recorded is erased and the
    sequence counter rewinds to where {!begin_trace} found it — a rolled-
    back statement leaves no spans, exactly as it leaves no counters. *)
let abort_trace t =
  if t.cur_trace >= 0 then begin
    let first = max t.trace_first_seq (t.span_seq - span_capacity) in
    for seq = first to t.span_seq - 1 do
      t.spans.(seq mod span_capacity) <- None
    done;
    t.span_seq <- t.trace_first_seq;
    t.cur_trace <- -1;
    t.cur_parent <- -1
  end

(** Emit an already-timed multi-phase trace in one shot: a root of [kind]
    with one child per [(detail, start_ns, ns, rows)] phase. Used for
    MATERIALIZE and recovery, whose phases run inside suspended internal
    sections — timings are gathered locally and recorded only on success,
    so a fault-injected run leaves the ring bit-identical to untouched. *)
let record_phase_trace t ~kind ~detail ~targets ~start_ns ~ns ~rows ~phases =
  if collecting t && not (trace_active t) then begin
    begin_trace t;
    List.iter
      (fun (pdetail, pstart, pns, prows) ->
        record_child t ~kind:"phase" ~detail:pdetail ~path:"" ~start_ns:pstart
          ~ns:pns ~rows_in:(-1) ~rows:prows)
      phases;
    ignore
      (end_trace t ~kind ~detail ~targets ~start_ns ~ns ~rows ())
  end

(** The most recent spans, oldest first, at most [limit] (default: all the
    buffer holds). Total spans ever recorded is [t.span_seq]; comparing it to
    [List.length (recent_spans t)] tells a consumer how many were dropped. *)
let recent_spans ?limit t =
  let held = min t.span_seq span_capacity in
  let wanted = match limit with Some l -> min l held | None -> held in
  let acc = ref [] in
  for i = 0 to wanted - 1 do
    (* newest span is at seq-1; walk back [wanted] slots *)
    let seq = t.span_seq - 1 - i in
    match t.spans.(seq mod span_capacity) with
    | Some sp -> acc := sp :: !acc
    | None -> ()
  done;
  !acc

(** The complete traces the ring still holds, oldest root first, at most
    [limit] (newest kept). A trace whose earliest spans were evicted by
    ring wrap-around is dropped whole — consumers never see a child
    without its ancestors, and never an orphaned subtree. *)
let recent_traces ?limit t =
  let spans = recent_spans t in
  let oldest_held = t.span_seq - min t.span_seq span_capacity in
  let groups : (int, span list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let prior =
        match Hashtbl.find_opt groups sp.sp_trace with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace groups sp.sp_trace (sp :: prior))
    spans;
  let complete =
    List.filter_map
      (fun sp ->
        if sp.sp_parent = -1 && sp.sp_first_seq >= oldest_held then
          match Hashtbl.find_opt groups sp.sp_trace with
          | Some members -> Some { tr_root = sp; tr_spans = List.rev members }
          | None -> None
        else None)
      spans
  in
  match limit with
  | Some l when List.length complete > l ->
    (* keep the newest [l] *)
    let drop = List.length complete - l in
    List.filteri (fun i _ -> i >= drop) complete
  | _ -> complete

let total_spans t = t.span_seq
