#!/bin/sh
# check.sh — the full local verification gate:
#   build, vet, race-enabled tests, the write path's buffer ownership
#   (pooled bodies and event slices never aliased under four concurrent
#   senders, a declared length checked before it is read and never
#   trusted for memory, the retained log not regrowing after a
#   compaction, /nodes/{cname} held to its pre-dense-table bytes, the
#   stage stopwatches; the allocation-per-line bound runs without -race,
#   under plain go test), the columnar segment round-trip
#   digests, the query-engine equivalences (live rollup/top/code-history
#   vs the batch kernels, the block kernels vs the map-kernel oracle,
#   fold allocations independent of rows, a 2^40 rank bound answered
#   not died of, snapshot consistency under compaction, every document's
#   AppendJSON vs encoding/json, render allocations independent of cells,
#   the render-pool cap, ?limit= pushdown), the
#   titanql equivalences (compiled bitmap-intersected segment-parallel
#   plans vs the naive event fold, /query soaked during live
#   compaction), the crash-recovery soak (kill at every failpoint),
#   the titanfleet cluster soak (4-replica byte-identical merge, router
#   fan-out during a replica drain/restart, per-source QoS isolation and
#   the source-name cap, alert-evidence superset replay, /stats-/metrics
#   parity — all race mode), short fuzz smokes
#   of the console parser, the batch splitter, the titanql parser
#   (grammar round-trip + plan equivalence) and the JSON writer (vs
#   encoding/json), and the benchmark budgets
#   (fast-path decode allocs, columnar load bytes/allocs, store heap per
#   event, journal overhead, mapped scan throughput, rollup allocations,
#   parallel query speedup and cluster ingest scaling on multi-core
#   machines).
# Run from the repository root: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== go test -race"
go test -race ./...

echo "== determinism under contention (GOMAXPROCS=2, race mode)"
GOMAXPROCS=2 go test -race ./internal/sim -run TestRunIdenticalAcrossGOMAXPROCS
GOMAXPROCS=2 go test -race ./internal/core -run 'TestDigestsAcrossGOMAXPROCS|TestReportGolden'

echo "== stream-vs-batch equivalence soak + write-path buffer ownership (titand pipeline, race mode)"
go test -race ./internal/serve -run 'TestStreamMatchesBatchHTTP|TestShutdown|TestAppliedIsVisible|TestIngestAllocsPerLine|TestPooledBuffersDoNotAlias|TestIngestBodyLengths|TestIngestStageCounters|TestRetainedLogDoesNotRegrow|TestNodeViewGolden' -count=2
go test -race ./internal/alert -run TestStreamMatchesBatch -count=2
go test -race ./internal/predict -run TestWarnerMatchesBatch -count=2

echo "== columnar segment round-trip digests (seal -> scan, race mode)"
go test -race ./internal/store -run 'TestRoundTripDigest|TestEventsExact' -count=2
go test -race ./internal/dataset -run 'TestColumnarLoadIdentical|TestColumnarReportIdentical' -count=1
go test -race ./internal/serve -run 'TestCompactionBoundsRetained|TestWarmRestart' -count=1

echo "== query engine: rollup-vs-batch equivalence + snapshot consistency (race mode)"
go test -race ./internal/store -run 'TestRollupMatchesEventKernel|TestTopMatchesEventKernel|TestMappedMatchesHeap|TestPreparePublish|TestRollupMatchesMapOracle|TestTopMatchesMapOracle|TestFoldAllocsIndependentOfRows|TestRollupAppendJSONMatchesEncodingJSON|TestTopAppendJSONMatchesEncodingJSON|TestRankedDocMatchesStableSort|TestRenderAllocsIndependentOfCells' -count=1
go test -race ./internal/jsonw -count=1
go test -race ./internal/stats -run 'TestTopOffenders' -count=1
go test -race ./internal/serve -run 'TestRollupMatchesBatch|TestCodeHistoryFleetWide|TestTopOffenders|TestTopHugeK|TestFoldCounters|TestHistoryArrivalOrder|TestQueryConsistencyUnderCompaction|TestHistoryAppendJSONMatchesEncodingJSON|TestCodeHistoryLimitAllocs|TestBadRequestBodies' -count=1

echo "== titanql: compiled plans vs naive fold, /query under live compaction (race mode)"
go test -race ./internal/titanql -count=1
go test -race ./internal/store -run 'TestBitmapOps|TestSegmentBitsMatchEvent|TestParallelByteIdentical|TestRollupWhereMatchesEventFold' -count=1
go test -race ./internal/serve -run 'TestQueryEndpointMatchesNaive|TestRollupWhereParams|TestQueryExprConsistencyUnderCompaction' -count=1
go test -race ./internal/dataset -run 'TestColumnarQueryIdentical' -count=1
go test -race ./internal/core -run 'TestStudyQueryStoreBacked' -count=1

echo "== crash-recovery equivalence (journal + quarantine, race mode)"
go test -race ./internal/serve -run 'TestCrashRestart|TestKillMidCompactionRecovery|TestQuarantineDegradedStart' -count=1
go test -race ./internal/store -run 'TestOpenRecover|TestOpenRemovesOrphans' -count=1

echo "== crash-recovery soak (kill at every failpoint, scripts/crash.sh)"
./scripts/crash.sh

echo "== titanfleet cluster soak (merge byte-identity, drain/restart, QoS isolation, race mode)"
go test -race ./internal/router -count=1
go test -race ./internal/serve -run 'TestFeedSupersetReplay|TestAlertFeedRestart|TestPerSourceAccountingExact|TestSourceCapBoundsBooks|TestStatsMetricsParity' -count=1

echo "== benchmark smoke (full-period simulation, one iteration)"
go test . -run '^$' -bench 'BenchmarkSimulationFullPeriod$' -benchtime 1x

echo "== fuzz smoke (FuzzParseRawLine, 5s)"
go test ./internal/console -run '^$' -fuzz FuzzParseRawLine -fuzztime 5s

echo "== differential fuzz smoke (FuzzDecodeEquivalence, 5s)"
go test ./internal/console -run '^$' -fuzz FuzzDecodeEquivalence -fuzztime 5s

echo "== batch splitter fuzz smoke (FuzzSplitBatch, 5s)"
go test ./internal/console -run '^$' -fuzz FuzzSplitBatch -fuzztime 5s

echo "== titanql fuzz smoke (parser round-trip, 5s)"
go test ./internal/titanql -run '^$' -fuzz FuzzTitanQLParse -fuzztime 5s

echo "== titanql differential fuzz smoke (plan equivalence, 5s)"
go test ./internal/titanql -run '^$' -fuzz FuzzTitanQLEquivalence -fuzztime 5s

echo "== JSON writer differential fuzz smoke (AppendJSON vs encoding/json, 5s)"
go test ./internal/jsonw -run '^$' -fuzz FuzzAppendJSONMatchesEncodingJSON -fuzztime 5s

echo "== fast-path I/O + columnar store benchmarks and budgets (bench.sh, 1 iteration)"
BENCHTIME=1x BENCH_OUT="$(mktemp)" BENCH_SERVE_OUT="$(mktemp)" BENCH_STORE_OUT="$(mktemp)" ./scripts/bench.sh

echo "ok"
