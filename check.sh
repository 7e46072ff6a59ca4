#!/bin/sh
# Full verification: build, test suite (unit tests + examples), and the
# static-analysis gate (@lint: example scripts lint clean, every seeded bad
# script triggers its diagnostic).
set -e
cd "$(dirname "$0")"
dune build
dune runtest
dune build @lint
# bench smoke: the harness itself must run end to end at tiny scale
dune exec bench/main.exe -- --only table2 --smoke
# writes end to end: TasKy2 writes under all five materializations (Fig. 8
# and Fig. 11 at tiny scale)
dune exec bench/main.exe -- --only fig8,fig11 --smoke
# migration atomicity: strided fault-injection sweep at small scale
dune exec bin/inverda_cli.exe -- faults --smoke
# coherence: each of the three optimization layers (batch executor, view
# cache, planner fast paths) answers like the layered row-interpreter
# reference under every TasKy materialization, a migrating Wikimedia
# genealogy and every injected-fault rollback state
dune exec bin/inverda_cli.exe -- coherence --smoke
# bidirectionality: both lens laws prove for every demo SMO, the mutation
# harness kills every single-atom mutant, and verify --json carries every
# field of its schema
dune exec bin/inverda_cli.exe -- verify --demo --mutate > /dev/null
verify_json=$(dune exec bin/inverda_cli.exe -- verify --demo --json)
for field in ok smos id smo getput putget status diagnostics; do
  echo "$verify_json" | grep -q "\"$field\"" \
    || { echo "check.sh: verify --json is missing \"$field\"" >&2; exit 1; }
done
echo "$verify_json" | grep -q '"ok":true' \
  || { echo "check.sh: verify --json reports ok=false on the demo" >&2; exit 1; }
# bidirectionality: every SMO template round-trips executably and both lens
# laws are proved, DECOMPOSE ON FOREIGN KEY and ON a condition included
dune exec bench/main.exe -- --only formal > /dev/null
# telemetry: the stats --json document must carry every field of its schema
stats_json=$(dune exec bin/inverda_cli.exe -- stats --demo --json)
for field in enabled observed_statements engine_statements trigger_hops \
             prepared_plans cache versions table_versions \
             observed_profile read_latency_ns write_latency_ns \
             latency_quantiles_ns spans; do
  echo "$stats_json" | grep -q "\"$field\"" \
    || { echo "check.sh: stats --json is missing \"$field\"" >&2; exit 1; }
done
# EXPLAIN: the --json document carries every field of its per-object schema
explain_json=$(dune exec bin/inverda_cli.exe -- explain --demo --json 'SELECT * FROM TasKy2.Task')
for field in object role tv physical_tables; do
  echo "$explain_json" | grep -q "\"$field\"" \
    || { echo "check.sh: explain --json is missing \"$field\"" >&2; exit 1; }
done
# telemetry: span ring fills, stays bounded, and every span renders as JSON
dune exec bin/inverda_cli.exe -- trace --smoke
# telemetry: measured read overhead must stay within the gate at smoke scale
dune exec bench/main.exe -- --only telemetry --smoke
# durability: build-kill-recover round trip (dump byte-identity, AS OF vs
# genesis replay), then a strided crash-recovery sweep over a logged workload
dune exec bin/inverda_cli.exe -- recover --verify
dune exec bin/inverda_cli.exe -- faults --recover --smoke
# durability: WAL write overhead must stay within the gate at smoke scale
dune exec bench/main.exe -- --only wal --smoke
# batch executor: the bench experiment re-checks batch/row agreement at every
# measured version (the >= 2x speedup gate arms at full scale only)
dune exec bench/main.exe -- --only batch --smoke
# observability: the OpenMetrics exposition must be well-formed (typed
# families, terminated by # EOF) and carry per-version traffic
openmetrics=$(dune exec bin/inverda_cli.exe -- stats --demo --openmetrics)
echo "$openmetrics" | grep -q '^# TYPE inverda_statements_total counter' \
  || { echo "check.sh: openmetrics is missing a typed counter family" >&2; exit 1; }
echo "$openmetrics" | grep -q '^# TYPE inverda_read_latency_seconds histogram' \
  || { echo "check.sh: openmetrics is missing the latency histogram" >&2; exit 1; }
echo "$openmetrics" | grep -q 'inverda_version_reads_total{version=' \
  || { echo "check.sh: openmetrics is missing per-version traffic" >&2; exit 1; }
echo "$openmetrics" | tail -1 | grep -q '^# EOF$' \
  || { echo "check.sh: openmetrics is not terminated by # EOF" >&2; exit 1; }
# observability: profiled statements must show their full trace trees
# (parse, delta-code views, trigger cascades) with exact row counts
dune exec bin/inverda_cli.exe -- profile --smoke > /dev/null
# observability: hierarchical tracing stays within its read-overhead gate at
# full scale; at smoke scale the experiment runs end to end, reporting only
dune exec bench/main.exe -- --only obs --smoke
echo "check.sh: all green"
