#!/bin/sh
# unused.sh — report-only: exported funcs and methods that nothing
# outside _test.go files refers to, so DESIGN §4j's "no caller" is a
# command. bench/, cmd/ and examples/ count as callers; matching is by
# name, so a method shares its callers with every method of that name;
# methods of unexported types (interface implementations) are skipped.
# Run from anywhere: ./scripts/unused.sh
set -eu

cd "$(dirname "$0")/.."

files=$(git ls-files '*.go' | grep -v '_test\.go$')
anydef='^func (\([^)]*\) )?'
def='^func (\([a-z_]+ \*?[A-Z][^)]*\) )?'
# shellcheck disable=SC2086
grep -nE "$def[A-Z][A-Za-z0-9_]*[[(]" $(echo "$files" | grep -Ev '^(bench|cmd|examples)/') |
while IFS=: read -r file line decl; do
	name=$(echo "$decl" | sed -E "s/$def([A-Za-z0-9_]+).*/\2/")
	# shellcheck disable=SC2086
	uses=$(grep -hw -- "$name" $files | grep -Ev '^\s*//' | grep -cEv "$anydef$name[[(]" || true)
	[ "$uses" -gt 0 ] || echo "$file:$line: $name"
done
