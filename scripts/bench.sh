#!/bin/sh
# bench.sh — the fast-path I/O and titand ingest benchmark suite.
#
# Runs the codec and loader benchmarks (parse, decode, encode, dataset
# load; serial vs parallel), records them in BENCH_io.json at the repo
# root (ns/op, MB/s, B/op, allocs/op per benchmark), and enforces the
# fast-path allocation budget: BenchmarkDecodeFast must stay at or under
# 2 allocs/op, or the script exits non-zero.
#
# Then runs the titand ingest benchmark (internal/serve harness): a
# lossless capacity replay over loopback HTTP, an overload replay at
# 2x a metered drain rate that must shed with 429s rather than stall,
# and the same replay with the write-ahead journal active under each
# fsync policy (always / interval / off). The result lands in
# BENCH_serve.json (capacity lines/s, p99 ingest latency, shed fraction
# under overload, journaled lines/s per policy); the harness enforces
# the 100k lines/s capacity floor and this script holds the default
# interval policy to the same floor.
#
# The cluster phase (internal/router harness) replays the same corpus
# through titanrouter into a 4-replica titand fleet and records
# cluster_lines_per_sec and cluster_scaling (cluster over single-daemon
# throughput) into BENCH_serve.json. On machines with >= 4 cores the
# scaling must clear 2.5x; on smaller boxes the replicas timeshare one
# core, so the figure is recorded informationally. Every BENCH_*.json
# carries gomaxprocs/num_cpu so figures are read against the hardware
# that produced them.
#
# Finally runs the columnar store benchmarks (BenchmarkLoadColumnar,
# BenchmarkScanCode) plus the store memory harness, records them in
# BENCH_store.json (load ns/op, bytes/op, allocs/op; scan MB/s;
# heap-bytes-per-retained-event), and enforces the columnar budgets
# against the frozen BenchmarkLoadSerial flat baseline
# (309,617,456 B/op, 650,176 allocs/op): the columnar load must stay
# at or under 1/3 the bytes and 1/5 the allocs, and the sealed store
# must hold a retained event in at most 64 resident bytes.
#
# The query-engine phase (internal/store harness) measures fleet-wide
# scan throughput — BenchmarkStoreScanHeap (cold per-query open + full
# rollup scan, the bounded-memory heap path) against
# BenchmarkStoreScanMapped (the same scan over the long-lived read-only
# mapping) — plus the steady-state rollup kernel (ns/event, allocs per
# query) and the titanql segment-parallel executor: one composed
# predicate query (bitmap intersection + grouped bucketed rollup) at one
# worker versus GOMAXPROCS workers. The figures land in BENCH_store.json
# alongside the load numbers (with BenchmarkStoreTop's ns/event and
# allocs/op), and three gates hold: the mapped scan must clear 2x the
# heap-path MB/s, a rollup query may allocate at most 106 times (the
# accumulator and rendered doc — never per event or per cell), and on
# machines with >= 4 cores the parallel query must clear 2x the
# single-worker throughput (recorded informationally on smaller boxes).
#
#   BENCHTIME=1s ./scripts/bench.sh    # default 1s per benchmark
#   BENCHTIME=5x ./scripts/bench.sh    # iteration-count mode, e.g. in CI
#   BENCH_OUT=/tmp/b.json ...          # write elsewhere (check.sh smoke)
#   BENCH_SERVE_OUT=/tmp/s.json ...    # ditto for the ingest benchmark
#   BENCH_STORE_OUT=/tmp/c.json ...    # ditto for the store benchmarks
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
OUT="${BENCH_OUT:-BENCH_io.json}"
CORES=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
MAXPROCS="${GOMAXPROCS:-$CORES}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== console codec benchmarks (benchtime $BENCHTIME)"
go test ./internal/console -run '^$' \
    -bench '^(BenchmarkParseSerial|BenchmarkParseParallel|BenchmarkDecodeFast|BenchmarkEncodeSerial)$' \
    -benchmem -benchtime "$BENCHTIME" | tee -a "$RAW"

echo "== dataset load benchmarks (benchtime $BENCHTIME)"
go test ./internal/dataset -run '^$' \
    -bench '^(BenchmarkLoadSerial|BenchmarkLoadParallel)$' \
    -benchmem -benchtime "$BENCHTIME" | tee -a "$RAW"

awk -v gomaxprocs="$MAXPROCS" -v numcpu="$CORES" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix if present
    ns = mbs = bytes = allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "MB/s")      mbs = $(i - 1)
        if ($i == "B/op")      bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"mb_per_s\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, ns, (mbs == "" ? "null" : mbs), (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs)
}
BEGIN {
    printf "{\n"
    printf "  \"gomaxprocs\": %s,\n", gomaxprocs
    printf "  \"num_cpu\": %s,\n", numcpu
    printf "  \"benchmarks\": [\n"
}
END   { printf "\n  ]\n}\n" }
' "$RAW" > "$OUT"

echo "== wrote $OUT"

# Allocation budget: the zero-allocation decoder may spend at most
# 2 allocs per decoded line (in practice it spends none).
BUDGET=2
ALLOCS=$(awk -F'"allocs_per_op": ' '/BenchmarkDecodeFast/ { sub(/[},].*/, "", $2); print $2 }' "$OUT")
if [ -z "$ALLOCS" ]; then
    echo "bench.sh: BenchmarkDecodeFast missing from $OUT" >&2
    exit 1
fi
if [ "${ALLOCS%%.*}" -gt "$BUDGET" ]; then
    echo "bench.sh: fast-path decode allocates $ALLOCS/op, budget is $BUDGET" >&2
    exit 1
fi
echo "== fast-path decode allocs/op: $ALLOCS (budget $BUDGET)"

SERVE_OUT="${BENCH_SERVE_OUT:-BENCH_serve.json}"
# go test runs the harness with the package dir as its working directory,
# so a relative output path must be anchored to the repo root first.
case "$SERVE_OUT" in
    /*) ;;
    *) SERVE_OUT="$(pwd)/$SERVE_OUT" ;;
esac
echo "== titand ingest benchmark (capacity + overload shedding)"
SERVE_RAW="$(mktemp)"
if ! BENCH_SERVE_OUT="$SERVE_OUT" go test ./internal/serve \
        -run '^TestIngestBenchHarness$' -count=1 -v > "$SERVE_RAW" 2>&1; then
    cat "$SERVE_RAW" >&2
    rm -f "$SERVE_RAW"
    exit 1
fi
grep -E 'capacity:|overload|journal' "$SERVE_RAW" || true
rm -f "$SERVE_RAW"
echo "== wrote $SERVE_OUT"

# Journal budget: the default fsync policy (interval) must hold the
# same 100k lines/s floor the unjournaled capacity run is held to —
# crash safety is not allowed to cost the ingest headroom.
JOURNAL_FLOOR=100000
JRATE=$(awk -F'"journal_lines_per_sec_interval": ' 'NF > 1 { sub(/[,}].*/, "", $2); print $2 }' "$SERVE_OUT")
if [ -z "$JRATE" ]; then
    echo "bench.sh: journal_lines_per_sec_interval missing from $SERVE_OUT" >&2
    exit 1
fi
if [ "${JRATE%%.*}" -lt "$JOURNAL_FLOOR" ]; then
    echo "bench.sh: journaled ingest (fsync interval) at $JRATE lines/s, floor is $JOURNAL_FLOOR" >&2
    exit 1
fi
echo "== journaled ingest (fsync interval): $JRATE lines/s (floor $JOURNAL_FLOOR)"

echo "== titanfleet cluster benchmark (4 replicas behind titanrouter)"
CLUSTER_RAW="$(mktemp)"
if ! BENCH_SERVE_OUT="$SERVE_OUT" go test ./internal/router \
        -run '^TestClusterBenchHarness$' -count=1 -v > "$CLUSTER_RAW" 2>&1; then
    cat "$CLUSTER_RAW" >&2
    rm -f "$CLUSTER_RAW"
    exit 1
fi
grep -E 'single daemon:|cluster \(|scaling:' "$CLUSTER_RAW" || true
rm -f "$CLUSTER_RAW"
echo "== extended $SERVE_OUT"

# Cluster scaling gate: on >= 4 cores, four replicas behind the router
# must clear 2.5x the single-daemon ingest rate (the split/fan-out path
# must not eat the parallelism it buys). On smaller machines the
# replicas timeshare one core and the router only adds a hop, so the
# figure is recorded informationally.
SCALING=$(awk -F'"cluster_scaling": ' 'NF > 1 { sub(/[,}].*/, "", $2); print $2 }' "$SERVE_OUT")
CRATE=$(awk -F'"cluster_lines_per_sec": ' 'NF > 1 { sub(/[,}].*/, "", $2); print $2 }' "$SERVE_OUT")
if [ -z "$SCALING" ] || [ "$SCALING" = "null" ]; then
    echo "bench.sh: cluster_scaling missing from $SERVE_OUT" >&2
    exit 1
fi
if [ "$CORES" -ge 4 ]; then
    if ! awk -v s="$SCALING" 'BEGIN { exit !(s >= 2.5) }'; then
        echo "bench.sh: cluster scaling ${SCALING}x on $CORES cores, gate is 2.5x ($CRATE lines/s)" >&2
        exit 1
    fi
    echo "== cluster ingest: $CRATE lines/s, scaling ${SCALING}x on $CORES cores (gate >= 2.5x)"
else
    echo "== cluster ingest: $CRATE lines/s, scaling ${SCALING}x on $CORES cores (gate applies at >= 4 cores)"
fi

STORE_OUT="${BENCH_STORE_OUT:-BENCH_store.json}"
echo "== columnar store benchmarks (benchtime $BENCHTIME)"
STORE_RAW="$(mktemp)"
go test ./internal/dataset -run '^$' \
    -bench '^(BenchmarkLoadColumnar|BenchmarkScanCode)$' \
    -benchmem -benchtime "$BENCHTIME" | tee "$STORE_RAW"

echo "== query engine benchmarks (scan throughput + rollup kernel + parallel titanql query)"
go test ./internal/store -run '^$' \
    -bench '^(BenchmarkStoreScanHeap|BenchmarkStoreScanMapped|BenchmarkStoreRollup|BenchmarkStoreTop|BenchmarkStoreQuery1CPU|BenchmarkStoreQueryNCPU)$' \
    -benchmem -benchtime "$BENCHTIME" | tee -a "$STORE_RAW"

echo "== store memory harness (heap bytes per retained event)"
HEAP_RAW="$(mktemp)"
BENCH_STORE_MEM=1 go test ./internal/dataset \
    -run '^TestStoreMemHarness$' -count=1 -v | tee "$HEAP_RAW"
HEAP=$(awk '{ for (i = 1; i < NF; i++) if ($i == "store-heap-bytes-per-event:") print $(i + 1) }' "$HEAP_RAW")
rm -f "$HEAP_RAW"
if [ -z "$HEAP" ]; then
    echo "bench.sh: store memory harness produced no figure" >&2
    rm -f "$STORE_RAW"
    exit 1
fi

awk -v heap="$HEAP" -v gomaxprocs="$MAXPROCS" -v numcpu="$CORES" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = mbs = bytes = allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "MB/s")      mbs = $(i - 1)
        if ($i == "B/op")      bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    nsev = ""
    for (i = 2; i <= NF; i++) if ($i == "ns/event") nsev = $(i - 1)
    if (name == "BenchmarkLoadColumnar")    { lns = ns; lb = bytes; la = allocs }
    if (name == "BenchmarkScanCode")        { smbs = mbs }
    if (name == "BenchmarkStoreScanHeap")   { hmbs = mbs }
    if (name == "BenchmarkStoreScanMapped") { mmbs = mbs }
    if (name == "BenchmarkStoreRollup")     { rns = nsev; ra = allocs }
    if (name == "BenchmarkStoreTop")        { tns = nsev; ta = allocs }
    if (name == "BenchmarkStoreQuery1CPU")  { q1 = mbs }
    if (name == "BenchmarkStoreQueryNCPU")  { qn = mbs }
}
END {
    printf "{\n"
    printf "  \"gomaxprocs\": %s,\n", gomaxprocs
    printf "  \"num_cpu\": %s,\n", numcpu
    printf "  \"load_ns_per_op\": %s,\n",     (lns  == "" ? "null" : lns)
    printf "  \"load_bytes_per_op\": %s,\n",  (lb   == "" ? "null" : lb)
    printf "  \"load_allocs_per_op\": %s,\n", (la   == "" ? "null" : la)
    printf "  \"scan_mb_per_s\": %s,\n",      (smbs == "" ? "null" : smbs)
    printf "  \"scan_mb_per_s_heap\": %s,\n",   (hmbs == "" ? "null" : hmbs)
    printf "  \"scan_mb_per_s_mapped\": %s,\n", (mmbs == "" ? "null" : mmbs)
    printf "  \"rollup_ns_per_event\": %s,\n",  (rns  == "" ? "null" : rns)
    printf "  \"rollup_allocs_per_op\": %s,\n", (ra   == "" ? "null" : ra)
    printf "  \"top_ns_per_event\": %s,\n",     (tns  == "" ? "null" : tns)
    printf "  \"top_allocs_per_op\": %s,\n",    (ta   == "" ? "null" : ta)
    printf "  \"query_mb_per_s_1cpu\": %s,\n",  (q1   == "" ? "null" : q1)
    printf "  \"query_mb_per_s_ncpu\": %s,\n",  (qn   == "" ? "null" : qn)
    if (q1 == "" || qn == "" || q1 + 0 == 0)
        printf "  \"query_speedup\": null,\n"
    else
        printf "  \"query_speedup\": %.2f,\n", qn / q1
    printf "  \"heap_bytes_per_retained_event\": %s\n", heap
    printf "}\n"
}
' "$STORE_RAW" > "$STORE_OUT"
rm -f "$STORE_RAW"
echo "== wrote $STORE_OUT"

# Columnar budgets against the frozen flat baseline (BenchmarkLoadSerial
# at the same three-month dataset: 309,617,456 B/op, 650,176 allocs/op).
ALLOC_BUDGET=130035      # baseline / 5
BYTE_BUDGET=103205818    # baseline / 3
HEAP_BUDGET=64           # resident bytes per sealed event
LA=$(awk -F'"load_allocs_per_op": ' 'NF > 1 { sub(/[,}].*/, "", $2); print $2 }' "$STORE_OUT")
LB=$(awk -F'"load_bytes_per_op": ' 'NF > 1 { sub(/[,}].*/, "", $2); print $2 }' "$STORE_OUT")
if [ -z "$LA" ] || [ "$LA" = "null" ] || [ -z "$LB" ] || [ "$LB" = "null" ]; then
    echo "bench.sh: BenchmarkLoadColumnar missing from $STORE_OUT" >&2
    exit 1
fi
if [ "${LA%%.*}" -gt "$ALLOC_BUDGET" ]; then
    echo "bench.sh: columnar load allocates $LA/op, budget is $ALLOC_BUDGET (baseline/5)" >&2
    exit 1
fi
if [ "${LB%%.*}" -gt "$BYTE_BUDGET" ]; then
    echo "bench.sh: columnar load moves $LB B/op, budget is $BYTE_BUDGET (baseline/3)" >&2
    exit 1
fi
if [ "${HEAP%%.*}" -gt "$HEAP_BUDGET" ]; then
    echo "bench.sh: store holds $HEAP heap bytes/event, budget is $HEAP_BUDGET" >&2
    exit 1
fi
echo "== columnar load allocs/op: $LA (budget $ALLOC_BUDGET), B/op: $LB (budget $BYTE_BUDGET)"
echo "== store heap bytes/event: $HEAP (budget $HEAP_BUDGET)"

# Query-engine gates: the mapped scan must clear 2x the heap-path MB/s
# (the whole point of aliasing the page cache instead of re-decoding),
# and a rollup query is budgeted 106 allocations, twice the 53 measured
# when the block kernels landed — the accumulator's slot table, the
# sorted keys and the rendered document's three backing arrays, never a
# per-event or per-cell cost.
ROLLUP_ALLOC_BUDGET=106
HMBS=$(awk -F'"scan_mb_per_s_heap": ' 'NF > 1 { sub(/[,}].*/, "", $2); print $2 }' "$STORE_OUT")
MMBS=$(awk -F'"scan_mb_per_s_mapped": ' 'NF > 1 { sub(/[,}].*/, "", $2); print $2 }' "$STORE_OUT")
RA=$(awk -F'"rollup_allocs_per_op": ' 'NF > 1 { sub(/[,}].*/, "", $2); print $2 }' "$STORE_OUT")
if [ -z "$HMBS" ] || [ "$HMBS" = "null" ] || [ -z "$MMBS" ] || [ "$MMBS" = "null" ]; then
    echo "bench.sh: scan throughput figures missing from $STORE_OUT" >&2
    exit 1
fi
if ! awk -v h="$HMBS" -v m="$MMBS" 'BEGIN { exit !(m >= 2 * h) }'; then
    echo "bench.sh: mapped scan at $MMBS MB/s does not clear 2x the heap path ($HMBS MB/s)" >&2
    exit 1
fi
if [ -z "$RA" ] || [ "$RA" = "null" ]; then
    echo "bench.sh: rollup allocation figure missing from $STORE_OUT" >&2
    exit 1
fi
if [ "${RA%%.*}" -gt "$ROLLUP_ALLOC_BUDGET" ]; then
    echo "bench.sh: rollup query allocates $RA/op, budget is $ROLLUP_ALLOC_BUDGET" >&2
    exit 1
fi
echo "== scan throughput: heap $HMBS MB/s, mapped $MMBS MB/s (gate: mapped >= 2x heap)"
echo "== rollup query allocs/op: $RA (budget $ROLLUP_ALLOC_BUDGET)"

# titanql segment-parallel gate: on >= 4 cores the GOMAXPROCS-worker
# composed query must clear 2x the single-worker throughput (sealed
# segments are independent units of work; the merge is cheap). On
# smaller machines there is no parallelism to win, so the figures are
# recorded but the gate is informational.
Q1=$(awk -F'"query_mb_per_s_1cpu": ' 'NF > 1 { sub(/[,}].*/, "", $2); print $2 }' "$STORE_OUT")
QN=$(awk -F'"query_mb_per_s_ncpu": ' 'NF > 1 { sub(/[,}].*/, "", $2); print $2 }' "$STORE_OUT")
SPEEDUP=$(awk -F'"query_speedup": ' 'NF > 1 { sub(/[,}].*/, "", $2); print $2 }' "$STORE_OUT")
if [ -z "$Q1" ] || [ "$Q1" = "null" ] || [ -z "$QN" ] || [ "$QN" = "null" ]; then
    echo "bench.sh: parallel query figures missing from $STORE_OUT" >&2
    exit 1
fi
if [ "$CORES" -ge 4 ]; then
    if ! awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 2) }'; then
        echo "bench.sh: parallel query speedup ${SPEEDUP}x on $CORES cores, gate is 2x (1cpu $Q1 MB/s, ncpu $QN MB/s)" >&2
        exit 1
    fi
    echo "== parallel query: 1cpu $Q1 MB/s, ncpu $QN MB/s, speedup ${SPEEDUP}x on $CORES cores (gate >= 2x)"
else
    echo "== parallel query: 1cpu $Q1 MB/s, ncpu $QN MB/s, speedup ${SPEEDUP}x on $CORES cores (gate applies at >= 4 cores)"
fi
echo "ok"
