(** Execution telemetry: per-object access counters, log2-bucketed latency
    histograms and a bounded ring buffer of hierarchical statement traces.
    Collection happens in {!Exec}/{!Engine}; this module owns the storage
    and keeps every event down to a few integer operations.

    Spans form trees: {!begin_trace} opens a trace for a top-level
    statement, operator spans attach as children (recorded at completion,
    so children always precede their parent in the ring), and
    {!end_trace} records the root. Ring eviction is oldest-first and can
    therefore never orphan a child; {!recent_traces} drops incompletely
    held traces whole. *)

type object_stats = {
  mutable reads : int;
  mutable writes : int;
  mutable rows_scanned : int;
  mutable rows_returned : int;
  mutable trigger_hops : int;
}

type span = {
  sp_seq : int;  (** monotone; survives ring wrap-around *)
  sp_id : int;  (** unique span id *)
  sp_trace : int;  (** id of the trace's root span *)
  sp_parent : int;  (** parent span id; [-1] for trace roots *)
  sp_kind : string;
      (** roots: [query]/[insert]/[update]/[delete]/[ddl]/[txn]/[wal]/
          [migrate]/[recover]; children: [parse]/[plan]/[scan]/[view]/
          [join]/[select]/[trigger]/[append]/[fsync]/[phase] *)
  sp_detail : string;  (** object or phase the span is about *)
  sp_path : string;
      (** [batch]/[row]/[index]/[pushdown]/[cache-hit]/[computed]/"" *)
  sp_targets : string list;  (** objects touched, lowercase *)
  sp_start_ns : int;
  sp_ns : int;
  sp_parse_ns : int;
  sp_compile_ns : int;
  sp_rows_in : int;  (** [-1] unknown *)
  sp_rows : int;
  sp_cache_hits : int;
  sp_cache_misses : int;
  sp_trigger_hops : int;
  sp_view_depth : int;
  sp_first_seq : int;  (** roots: ring seq of the trace's first span; [-1] on children *)
}

type trace = { tr_root : span; tr_spans : span list }
(** A complete trace: root plus every descendant, completion order, root
    last. *)

type t = {
  mutable enabled : bool;
  mutable internal_depth : int;
  objects : (string, object_stats) Hashtbl.t;
  schemas : (string, object_stats) Hashtbl.t;
  mutable statements : int;
  mutable trigger_hops_total : int;
  mutable plans_prepared : int;
  read_latency : int array;
  write_latency : int array;
  mutable read_ns_total : int;
  mutable write_ns_total : int;
  mutable pending_parse_ns : int;
  mutable pending_t0 : int;
  mutable last_compile_ns : int;
  mutable cur_view_depth : int;
  mutable max_view_depth : int;
  spans : span option array;
  mutable span_seq : int;
  mutable next_span_id : int;
  mutable cur_trace : int;
  mutable cur_parent : int;
  mutable trace_first_seq : int;
  mutable detail : bool;
  mutable slow_ns : int;
  mutable slow_sample : int;
  mutable slow_seen : int;
  mutable slow_sink : (span -> unit) option;
}

val span_capacity : int
(** Fixed size of the span ring buffer. *)

val buckets : int
(** Number of log2 latency buckets. *)

val create : unit -> t

val set_enabled : t -> bool -> unit

val collecting : t -> bool
(** [enabled] and not inside a {!suspend}ed internal section. *)

val suspend : t -> unit
(** Enter an engine-internal section (migration data movement, delta-code
    installation): nothing is collected until the matching {!resume}. *)

val resume : t -> unit

val set_detail : t -> bool -> unit
(** Profile mode: operator spans count rows exactly and per-plan [select]
    nodes are recorded. Costs row-list walks; off by default. *)

val set_slow_sink :
  t -> threshold_ns:int -> sample:int -> (span -> unit) option -> unit
(** Route every trace root at least [threshold_ns] long into the sink,
    sampled every [sample]th match. [None] (or [threshold_ns = 0])
    disables. *)

val reset : t -> unit
(** Zero every counter, histogram and the span buffer (configuration —
    enabled / detail / slow sink — survives). *)

val now_ns : unit -> int
(** Wall clock in nanoseconds. *)

val record_read : t -> string -> rows:int -> unit
val record_write : t -> string -> unit
val record_scan : t -> string -> int -> unit
val record_trigger_hop : t -> string -> unit

val object_stats : t -> (string * object_stats) list
(** Sorted by object name. *)

val find_stats : t -> string -> object_stats option

val schema_of : string -> string option
(** Schema qualifier of an object name ("tasky2.task" -> "tasky2"); [None]
    for unqualified names. *)

val record_schema_read : t -> string -> rows:int -> unit
(** Statement-level counters per schema qualifier: a statement touching
    several objects of the same schema counts once. *)

val record_schema_write : t -> string -> unit

val find_schema_stats : t -> string -> object_stats option

val bucket_of_ns : int -> int
val bucket_lower_ns : int -> int
val observe_read_ns : t -> int -> unit
val observe_write_ns : t -> int -> unit

val read_histogram : t -> (int * int) list
(** Non-empty buckets as [(bucket_lower_bound_ns, count)], ascending. *)

val write_histogram : t -> (int * int) list

val quantile_ns : int array -> float -> int
(** Quantile estimate from a log2 latency histogram, interpolated inside
    the crossing bucket; 0 with no observations. *)

(* --- traces ---------------------------------------------------------------- *)

val begin_trace : t -> unit
(** Open a trace for the statement (or engine phase) about to run. *)

val trace_active : t -> bool

val child_active : t -> bool
(** {!collecting} and a trace is open: operator child spans may record. *)

val record_child :
  t ->
  kind:string ->
  detail:string ->
  path:string ->
  start_ns:int ->
  ns:int ->
  rows_in:int ->
  rows:int ->
  unit
(** Record a finished leaf child under the open trace's current parent.
    Callers gate on {!child_active}. *)

type frame

val open_span : t -> frame
(** Open a nested span (it becomes the parent of spans recorded until the
    matching {!close_span}); stamps the start time. *)

val close_span :
  t ->
  frame ->
  kind:string ->
  detail:string ->
  path:string ->
  rows_in:int ->
  rows:int ->
  unit

val end_trace :
  t ->
  kind:string ->
  ?detail:string ->
  ?path:string ->
  ?targets:string list ->
  start_ns:int ->
  ns:int ->
  ?parse_ns:int ->
  ?compile_ns:int ->
  ?rows_in:int ->
  rows:int ->
  ?cache_hits:int ->
  ?cache_misses:int ->
  ?trigger_hops:int ->
  ?view_depth:int ->
  unit ->
  span
(** Record the trace root and close the trace. Non-zero [parse_ns]
    backdates the root and synthesizes a [parse] child; non-zero
    [compile_ns] synthesizes a [plan] child — so every child interval is
    contained in the root's. Returns the root (also fed to the slow sink
    when over threshold). *)

val abort_trace : t -> unit
(** Erase every span the open trace recorded and rewind the sequence
    counter: a rolled-back statement leaves no spans. *)

val record_phase_trace :
  t ->
  kind:string ->
  detail:string ->
  targets:string list ->
  start_ns:int ->
  ns:int ->
  rows:int ->
  phases:(string * int * int * int) list ->
  unit
(** Emit an already-timed multi-phase trace (root of [kind], one [phase]
    child per [(detail, start_ns, ns, rows)]) — for MATERIALIZE / recovery,
    whose phases run suspended and must only appear on success. *)

val recent_spans : ?limit:int -> t -> span list
(** Most recent spans, oldest first; never more than {!span_capacity}. *)

val recent_traces : ?limit:int -> t -> trace list
(** Complete traces still held, oldest root first; traces with evicted
    spans are dropped whole. *)

val total_spans : t -> int
(** Spans ever recorded (including overwritten ones). *)
