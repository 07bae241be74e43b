#!/bin/sh
# check.sh — the full local verification gate:
#   build, gofmt, vet, the no-caller audit (scripts/unused.sh against
#   scripts/unused.allow), every test under -race once, one package at a
#   time so two packages' race heaps never share the host (the byte-identity
#   gates — stream == batch, cluster == single daemon, compiled plan ==
#   naive fold, restart == never died — the write path's buffer
#   ownership and admission bound, the read path's pooled fold scratch
#   under eight concurrent readers, /stats-/metrics parity and the pinned
#   /metrics goldens on titand and titanrouter, the fleet schedule
#   runner — the fault-free month, the drain/restart, one fixed row per
#   fault, the drawn seeds and the crash rows at the named journal and
#   seal boundaries (router/fleet_test.go) — the power-cut enumerator
#   (serve/powercut_test.go: every file-system boundary of one short run
#   and of each restart, kill and power-cut images, all three fsync
#   policies, on durable.Mem) and one real SIGKILL of a re-exec'd
#   daemon, the replica's applied-once window under racing copies, the
#   QoS books, the per-job sampler's sums against the per-node reference
#   on a swap-heavy walk (sim/sampler_oracle_test.go, the only row that
#   reaches the swap clamp) and bench/'s -quick suite are all in there;
#   the exact allocation and heap budgets skip under -race and run under
#   plain go test ./...), then only what adds a run to that: the GOMAXPROCS=2
#   determinism runs, the -count=2 soaks of the concurrent pipelines
#   (the read path's among them: eight readers racing to first use of
#   each segment's node index, TestPooledFoldScratchDoesNotAlias, and
#   TestNodeIndexMatchesColumns's eight concurrent first builds),
#   a full-horizon simulation with its bytes and allocations, one
#   iteration of each in-process instrument (the eight read shapes and
#   the 13-request round on one
#   daemon, the write path, the warm start by replay and by checkpoint,
#   the router's merged reads over three replicas), one warm start from
#   the checkpoint in a fresh process (a re-exec of the test binary, so
#   the restore is timed with the collector marking), and short fuzz smokes
#   of the console parser, the batch splitter, the titanql parser (grammar
#   round-trip + plan equivalence), the JSON writer (vs encoding/json),
#   the rollup kernel (drawn folds, sorted and not, and their merged
#   partials vs the map oracle),
#   the /metrics exposition under client-chosen source names (a strict
#   in-test parser), the restart checkpoint's decoder and the sealed
#   segment parser (reject or round-trip, each) and the fleet fault
#   schedules.
# Run from the repository root: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== gofmt"
test -z "$(gofmt -l .)"

echo "== go vet"
go vet ./...

echo "== exported names nothing calls (scripts/unused.sh vs scripts/unused.allow)"
./scripts/unused.sh

echo "== go test -race (one package at a time)"
go test -race -p 1 ./...

echo "== determinism under contention (GOMAXPROCS=2, race mode)"
GOMAXPROCS=2 go test -race ./internal/sim -run TestRunIdenticalAcrossGOMAXPROCS
GOMAXPROCS=2 go test -race ./internal/core -run 'TestDigestsAcrossGOMAXPROCS|TestReportGolden'

echo "== stream-vs-batch equivalence soak + write-path buffer ownership (titand pipeline, race mode)"
go test -race ./internal/serve -run 'TestStreamMatchesBatchHTTP|TestShutdown|TestAppliedIsVisible|TestIngestAllocsPerLine|TestPooledBuffersDoNotAlias|TestIngestBodyLengths|TestIngestStageCounters|TestRetainedLogDoesNotRegrow|TestNodeViewGolden|TestSequentialConnectionsKeepOrder' -count=2
go test -race ./internal/alert -run TestStreamMatchesBatch -count=2
go test -race ./internal/predict -run TestWarnerMatchesBatch -count=2

echo "== read-path soak: pooled fold scratch and node-index first use under eight concurrent readers (race mode)"
go test -race ./internal/serve -run 'TestPooledFoldScratchDoesNotAlias' -count=2
go test -race ./internal/store -run 'TestNodeIndexMatchesColumns' -count=2

echo "== columnar segment round-trip digests (seal -> scan, race mode)"
go test -race ./internal/store -run 'TestRoundTripDigest|TestEventsExact' -count=2

echo "== benchmark smoke (full-period simulation, one iteration, with its allocation)"
go test . -run '^$' -bench 'BenchmarkSimulationFullPeriod$' -benchtime 1x -benchmem

echo "== read-path benchmark smoke (query_sealed's eight shapes and its round in process, one iteration)"
go test ./internal/serve -run '^$' -bench 'BenchmarkReadShapes$' -benchtime 1x -cpu 1

echo "== merged-read benchmark smoke (router + 3 replicas in process, one iteration)"
go test ./internal/router -run '^$' -bench 'BenchmarkMergedReads$' -benchtime 1x -cpu 1

echo "== write-path benchmark smoke (64 batches to applied on a fresh journaled daemon, one iteration)"
go test ./internal/serve -run '^$' -bench 'BenchmarkWritePath$' -benchtime 1x -cpu 1

echo "== warm-start benchmark smoke (replay vs checkpoint restart, 1x and 4x history, and one fresh process; one iteration)"
go test ./internal/serve -run '^$' -bench 'BenchmarkWarmStart$' -benchtime 1x -cpu 1

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

echo "== /metrics exposition fuzz smoke (FuzzMetricsExposition, 5s)"
go test ./internal/serve -run '^$' -fuzz FuzzMetricsExposition -fuzztime 5s

echo "== restart checkpoint decode fuzz smoke (FuzzCheckpointDecode, 5s)"
go test ./internal/serve -run '^$' -fuzz FuzzCheckpointDecode -fuzztime 5s

echo "== sealed segment decode fuzz smoke (FuzzSegmentDecode, 5s)"
go test ./internal/store -run '^$' -fuzz FuzzSegmentDecode -fuzztime 5s

echo "== rollup kernel differential fuzz smoke (FuzzRollupMatchesMapOracle: folds and merged partials vs the map oracle, 5s)"
go test ./internal/store -run '^$' -fuzz FuzzRollupMatchesMapOracle -fuzztime 5s

echo "== fleet fault-schedule fuzz smoke (FuzzFleetSchedule, 5s)"
go test ./internal/router -run '^$' -fuzz FuzzFleetSchedule -fuzztime 5s

echo "ok"
