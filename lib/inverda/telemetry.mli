(** Workload telemetry over the genealogy: aggregates the engine's raw
    per-object counters into per-version figures, derives the observed
    {!Advisor.profile}, renders unified stats and statement spans, and
    implements EXPLAIN for the delta-code path of a statement. *)

val enabled : Minidb.Database.t -> bool
val set_enabled : Minidb.Database.t -> bool -> unit

val reset : Minidb.Database.t -> unit
(** Zero all counters, histograms and spans. *)

(** Aggregated counters for a schema version or table version. *)
type totals = {
  mutable t_reads : int;
  mutable t_writes : int;
  mutable t_rows_returned : int;
  mutable t_rows_scanned : int;
  mutable t_trigger_hops : int;
}

val version_counters :
  Minidb.Database.t -> Genealogy.t -> (string * totals) list
(** Traffic per schema version (summed over its ["version.table"] views), in
    catalog order. *)

val table_version_counters :
  Minidb.Database.t -> Genealogy.t -> (Genealogy.table_version * totals) list
(** Traffic per table version (canonical view + data-table scans), by id. *)

val observed_profile : Minidb.Database.t -> Genealogy.t -> Advisor.profile
(** Share of observed statements (reads + writes) per schema version,
    normalized to sum 1; empty when nothing was observed. *)

val span_json : Minidb.Metrics.span -> string
(** One span as a single-line JSON object. *)

val recent_spans :
  ?limit:int -> Minidb.Database.t -> Minidb.Metrics.span list

val recent_traces :
  ?limit:int -> Minidb.Database.t -> Minidb.Metrics.trace list
(** Complete hierarchical traces still held in the span ring, oldest first;
    traces with evicted spans are dropped whole. *)

val trace_tree_text : Minidb.Metrics.trace -> string
(** One trace as an indented tree (root first, children in open order):
    kind, object, path, duration, row counts. *)

val stats_json : Minidb.Database.t -> Genealogy.t -> string
(** The unified stats document ([inverda_cli stats --json]): switch state,
    statement counts, cache hits/misses, per-version and
    per-table-version counters, observed profile, latency histograms, span
    ring occupancy. *)

val stats_text : Minidb.Database.t -> Genealogy.t -> string

val explain : Minidb.Database.t -> Genealogy.t -> string -> string
(** [explain db gen sql]: for a query, the plan the executor compiles for it
    ({!Minidb.Exec.plan}); for every object the statement names — its role
    in the genealogy, the Section 6 access path to the data, the installed
    view stack (one view per SMO), the physical tables touched, and for DML
    the trigger cascade. Raises on unparsable SQL, and with the
    executor's own [Exec_error] on a query that does not compile. *)

val explain_json : Minidb.Database.t -> Genealogy.t -> string -> string
(** {!explain} as a JSON object; its [access_paths] are the objects the
    compiled plan reads, each with the path it was compiled to. *)

val metrics_text : Minidb.Database.t -> Genealogy.t -> string
(** OpenMetrics/Prometheus text exposition: engine counters, per-schema-
    version traffic, view-cache outcomes and the latency histograms
    (cumulative [le] buckets, [_sum]/[_count]), terminated by [# EOF]. *)

val explain_analyze : Minidb.Database.t -> Genealogy.t -> string -> string
(** Execute the statement with profile-mode tracing and annotate each node
    of the compiled plan with the rows and time its spans measured (and the
    path they report where it differs: a computed view the cache served
    reads [cache-hit]), list any span the plan does not account for, and
    cross-check the trace root's rows against the executed result's row
    attribution. The statement really runs. *)

val profile : Minidb.Database.t -> string -> string
(** Execute with tracing forced on and render the statement's trace tree
    plus a one-line summary. *)
