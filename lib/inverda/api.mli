(** InVerDa's public facade — end-to-end support for co-existing schema
    versions within one database (the system of the paper).

    One value of type {!t} bundles a relational engine, the schema version
    catalog and the two operations the paper introduces:

    - the {e Database Evolution Operation}: {!evolve} executes a BiDEL
      script, creating a new schema version with all delta code generated
      automatically — the version is immediately readable and writable, and
      writes in any version are visible in all others;
    - the {e Database Migration Operation}: {!materialize} moves the physical
      tables under any schema version with a single command, regenerating all
      delta code, with every version staying available throughout.

    Applications access data with plain SQL against the ["version.table"]
    views via {!exec_sql} / {!query}. *)

type t
(** An InVerDa-managed database. *)

exception Inverda_error of string

val create : ?strict:bool -> unit -> t
(** A fresh database with an empty schema version catalog. With
    [strict] (the default), every evolution and migration runs the static
    analyzer: the mapping rule sets of new SMOs are safety-checked and the
    regenerated delta code is typechecked against the catalog {e before}
    installation; errors raise {!Analysis.Diagnostic.Rejected} and leave the
    delta code untouched. *)

val set_strict : t -> bool -> unit
(** Toggle strict mode on a live instance. *)

val set_cache : t -> bool -> unit
(** Toggle the engine's cross-statement view-result cache (enabled by
    default). Disabling it drops all cached results, so reads fall back to
    re-evaluating the delta-view stack on every statement. *)

val cache_stats : t -> int * int
(** [(hits, misses)] of the view-result cache since creation. *)

val set_batch : t -> bool -> unit
(** Toggle the columnar batch executor (enabled by default): table scans are
    served from epoch-memoized column snapshots and eligible select pipelines
    compile to selection-vector filters over typed vectors. Disabling it
    restores the row-at-a-time interpreter everywhere — the batch-vs-row
    coherence harness and the ablation benchmarks run both modes against the
    same instance. Each toggle drops cached view results (physical row order
    can differ between the executors). *)

val batch_enabled : t -> bool

val database : t -> Minidb.Database.t
(** The underlying relational engine (for direct SQL access). *)

val genealogy : t -> Genealogy.t
(** The schema version catalog. *)

val fresh_id : t -> int
(** Allocate an InVerDa-managed row identifier (for loaders that insert
    explicit keys; normal inserts get keys assigned automatically). *)

(** {1 The Database Evolution Operation} *)

val evolve : t -> string -> unit
(** Execute a BiDEL script: any sequence of
    [CREATE SCHEMA VERSION ... WITH smo; ...], [DROP SCHEMA VERSION ...] and
    [MATERIALIZE ...] statements. Creating a version instantiates the SMOs,
    backfills identifier auxiliaries for pre-existing data, and regenerates
    the delta code of every version. *)

val exec_bidel : t -> Bidel.Ast.statement -> unit
(** As {!evolve}, for a pre-parsed statement. *)

(** {1 The Database Migration Operation} *)

val materialize : t -> string list -> unit
(** [materialize t targets] — the paper's one-line migration command. Each
    target is a schema version name (materialize all its table versions) or
    ["version.table"]. Moves the data stepwise along the genealogy and
    regenerates all delta code; no version becomes unavailable.

    Atomic: on any failure the database — rows, tables, views, triggers,
    materialization flags — is rolled back to its pre-command state and a
    {!Migration.Migration_error} carrying the original failure is raised.
    Raises {!Inverda_error} without touching anything if called inside an
    open user transaction. *)

val set_materialization : t -> int list -> unit
(** Low-level variant: materialize exactly the given SMO instances. Raises
    {!Migration.Migration_error} if the set violates the validity conditions
    (55)/(56) of the paper. Atomic, as {!materialize}. *)

val migration_plan : t -> string list -> int list * int list
(** The flip plan of [MATERIALIZE targets] — [(to_virtualize,
    to_materialize)] SMO ids in execution order — without touching any
    data. *)

val dump : t -> string
(** Deterministic dump of the full engine state (tables with sorted rows and
    indexes, views, triggers, sequences), for byte-equality checks in tests
    and the fault-injection harness. *)

(** {1 Data access} *)

val exec_sql : t -> string -> Minidb.Exec.result
(** Execute one SQL statement (reads and writes version views like ordinary
    tables). *)

val query : t -> string -> Minidb.Exec.relation

val query_rows : t -> string -> Minidb.Value.t list list

val query_int : t -> string -> int

(** {1 Telemetry} *)

val set_telemetry : t -> bool -> unit
(** Toggle workload telemetry (enabled by default). While on, the engine
    keeps per-object access counters, latency histograms and a bounded ring
    buffer of statement spans; engine-internal statements (migrations,
    delta-code installation, backfills) are never counted. *)

val telemetry_enabled : t -> bool

val reset_telemetry : t -> unit
(** Zero every counter, histogram and the span ring buffer. *)

val recent_spans : ?limit:int -> t -> Minidb.Metrics.span list
(** The most recent statement spans, oldest first (bounded by the ring
    capacity). *)

val recent_traces : ?limit:int -> t -> Minidb.Metrics.trace list
(** Complete hierarchical traces still held in the span ring, oldest first;
    traces partially evicted by ring wrap-around are dropped whole. *)

val observed_profile : t -> Advisor.profile
(** Share of observed statements per schema version; empty when no traffic
    has been observed. *)

val stats_json : t -> string
(** Unified stats document (cache, per-version counters, histograms, spans)
    as one JSON object. *)

val stats_text : t -> string

val metrics_text : t -> string
(** OpenMetrics/Prometheus text exposition of the engine's telemetry
    (counters, per-schema-version traffic, latency histograms), terminated
    by [# EOF] — ready for a scrape endpoint to serve verbatim. *)

val explain : t -> string -> string
(** The delta-code path a statement would traverse: object roles, the
    Section 6 access path, installed view stack (one view per SMO),
    physical tables touched and (for DML) the trigger cascade. *)

val explain_json : t -> string -> string

val explain_analyze : t -> string -> string
(** EXPLAIN ANALYZE: execute the statement with profile-mode tracing and
    annotate the static plan with actual per-node rows and timings,
    cross-checked against the executed result. The statement really runs —
    a write writes. *)

val profile : t -> string -> string
(** Execute a statement with tracing forced on and render its trace tree
    plus a one-line summary ([inverda_cli profile <stmt>]). *)

val set_slow_log : t -> (string * int * int) option -> unit
(** [set_slow_log t (Some (path, threshold_ns, sample))]: append every
    [sample]th statement trace root whose total latency reaches
    [threshold_ns] to [path] as one JSON line. [None] disables and closes
    the file. *)

val advise : t -> Advisor.profile -> Advisor.recommendation option
(** Score every valid materialization schema for a hand-written profile. *)

val advise_observed : t -> Advisor.recommendation option
(** As {!advise}, on the {!observed_profile}; [None] when nothing was
    observed. *)

(** {1 Static analysis} *)

val lint_env : t -> Analysis.Sql_check.env
(** Catalog snapshot (object -> columns, registered functions) for
    {!Analysis.check_delta}. *)

val script_env : t -> Analysis.Script_check.env
(** The live catalog's schema versions as a seed environment for
    {!Analysis.check_script}, so scripts evolving an existing database lint
    against its versions. *)

val delta_diagnostics : t -> Analysis.Diagnostic.t list
(** Regenerate (without installing) the complete delta code for the current
    state and typecheck it. *)

val rule_diagnostics : ?unused:bool -> t -> Analysis.Diagnostic.t list
(** Safety diagnostics for the mapping rule sets (γ_src, γ_tgt, backfill) of
    every SMO instance in the catalog, including the DLG009 dead-rule check,
    and — for an instance whose rule sets are safe — its lens-law
    diagnostics ([VRF001]/[VRF004]): exactly what strict mode rejects an
    evolution for. [unused] additionally enables the pedantic DLG006
    singleton-variable lint. *)

(** {1 Bidirectionality verification} *)

type smo_verification = {
  vr_id : int;  (** SMO instance id *)
  vr_smo : string;  (** SMO name, e.g. [SPLIT TABLE] *)
  vr_laws : Analysis.Verify.law_report;  (** GetPut / PutGet verdicts *)
}

val verify_report : t -> smo_verification list
(** Prove GetPut and PutGet for every SMO instance in the catalog with the
    symbolic chase evaluator ({!Analysis.Verify.check_laws}). Memoized per
    rule set, so repeated calls are cheap. *)

val verify_diagnostics : t -> Analysis.Diagnostic.t list
(** All verification diagnostics: [VRF001] (law refuted, error) / [VRF004]
    (law unprovable, warning) per SMO, [VRF003] (trigger cascades with
    overlapping write sets, warning) per SMO pair. *)

val verify_ok : t -> bool
(** Do both lens laws prove for every SMO instance? *)

val verify_mutations : t -> (int * string * Analysis.Verify.mutation_report) list
(** Single-atom mutation harness over every SMO instance's rule sets:
    [(id, smo_name, report)]. Expensive; meant for the CLI and CI smoke,
    not the evolution path. *)

val verify_json : t -> string
(** The verification report as one JSON document:
    [{"ok":bool,"smos":[{"id","smo","getput","putget"}...],
    "diagnostics":[...]}]. *)

(** {1 Durability and time travel}

    With a changeset log attached, every committed statement — DML and DDL
    through the engine, evolutions and migrations — appends one logical record (a {e changeset}: monotone id, kind, target,
    statement) to a write-ahead log on disk. {!checkpoint} persists the
    current state in the deterministic dump format; {!recover} rebuilds an
    instance as checkpoint + log-tail replay, with torn-tail detection via
    per-record checksums. The log is never truncated, which is what makes
    {!as_of} exact: any schema version can be read as of any past changeset
    by reconstituting the base tables at that changeset and answering
    through the regular delta-code read path. *)

val attach_wal : ?sync:Minidb.Wal.sync_mode -> t -> string -> unit
(** Attach (create or re-open) the changeset log in a directory. The
    instance's state must correspond to the log: a fresh instance with a
    fresh directory, or the result of {!recover}. An instance that already
    holds a schema version or a table is refused with {!Inverda_error},
    naming the directory and what the instance holds, when the log holds
    no record and no checkpoint; nothing is attached or created then. A
    torn log tail is repaired on attach. [sync] defaults to
    {!Minidb.Wal.Flush}. *)

val detach_wal : t -> unit
(** Close the log; subsequent statements are no longer recorded. *)

val wal_dir : t -> string option
(** The attached log directory, if any. *)

val current_changeset : t -> int
(** Id of the newest durable changeset ([0] before the first). Raises
    {!Inverda_error} without an attached log. *)

val history : t -> Minidb.Wal.record list
(** The full changeset history (oldest first), including records replayed
    from disk on attach. Raises {!Inverda_error} without an attached log. *)

val set_author : t -> who:string -> why:string -> unit
(** Stamp an audit annotation (author and reason) on every changeset this
    session appends from now on; [~who:"" ~why:""] clears it. The annotation
    rides inside the WAL frame tag and never affects replay. Raises
    {!Inverda_error} without an attached log. *)

val record_audit : Minidb.Wal.record -> (string * string) option
(** [Some (who, why)] when a history record carries an audit annotation. *)

val record_tag : Minidb.Wal.record -> string
(** A history record's tag with any audit annotation stripped — what
    [history] displays as the target. *)

val checkpoint : t -> unit
(** Write a checkpoint: schema-shaped record prefix, skolem memos and id
    counter, plus the deterministic dump of the current state — atomically
    (tmp + rename). Recovery replays only the log tail past it. Raises
    {!Inverda_error} without an attached log or inside an open
    transaction. *)

val recover : ?sync:Minidb.Wal.sync_mode -> string -> t
(** Rebuild an instance from a log directory: repair the torn tail, load
    the checkpoint when present (schema replay + raw dump load + memo and
    counter restore), replay the log tail through the full API path, and
    re-attach the log. Recovering twice yields byte-identical dumps. *)

val replay_to : dir:string -> int -> t
(** Ground truth for {!as_of}: replay the log from genesis up to a
    changeset, ignoring any checkpoint. The returned instance has no log
    attached. *)

val as_of : t -> changeset:int -> string -> Minidb.Exec.relation
(** [as_of t ~changeset sql] — answer a query at any live schema version as
    of a past changeset: base tables are reconstituted at that changeset
    (checkpoint-accelerated when possible) and the query runs through the
    reconstituted instance's regular genealogy / codegen read
    path. A version created after [changeset] errors like any unknown
    object. *)

(** {1 Introspection} *)

val versions : t -> string list
(** Schema version names, in creation order. *)

val version_tables : t -> string -> string list
(** Logical table names of a schema version. *)

val current_materialization : t -> int list
(** The SMO instances whose target side currently holds the data. *)

val describe : t -> string
(** Human-readable catalog summary: versions, SMO instances with their
    materialization states, and the physical table schema. *)
