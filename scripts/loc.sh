#!/bin/sh
# loc.sh — non-test, non-comment, non-blank Go lines per package, so
# "net-negative LOC" in ROADMAP.md is a command, not an estimate.
#   ./scripts/loc.sh                 the serving set — the read path (PR 12), the write path (PR 14), the
#                                    JSON writer (PR 15) — then the whole module, the audit's
#                                    denominator (DESIGN §4j), then the docs on a budget, in
#                                    plain lines (ROADMAP 8(c))
#   ./scripts/loc.sh internal/sim    any directories (subtrees included)
# Run from anywhere; paths are relative to the repository root.
set -eu

cd "$(dirname "$0")/.."

# count prints the non-test Go lines under each path, then their sum.
count() {
	total=0
	for pkg in "$@"; do
		n=$(find "$pkg" -name '*.go' ! -name '*_test.go' | xargs cat | grep -Ecv '^\s*(//|$)' || true)
		printf '%6d  %s\n' "$n" "$pkg"
		total=$((total + n))
	done
	printf '%6d  total\n' "$total"
}

if [ $# -gt 0 ]; then
	count "$@"
else
	count internal/store internal/serve internal/router internal/titanql cmd/titanreport internal/console cmd/titand internal/jsonw
	echo "whole module (bench/ is counted by its own PRs):"
	count internal cmd examples titanre.go
	echo "docs (every line):"
	wc -l DESIGN.md EXPERIMENTS.md README.md | while read -r n doc; do printf '%6d  %s\n' "$n" "$doc"; done
fi
