#!/bin/sh
# unused.sh — the audit behind DESIGN §4j's "no caller": exported funcs
# and methods that nothing outside _test.go files refers to, each printed
# with the reason scripts/unused.allow gives for keeping it ("file:Name",
# a tab, the reason). A name with no caller and no line there exits 1, so
# a new export nobody calls is a decision, not an accident; check.sh runs
# this after go vet. bench/, cmd/ and examples/ count as callers;
# matching is by name, so a method shares its callers with every method
# of that name; methods of unexported types (interface implementations)
# are skipped. Run from anywhere: ./scripts/unused.sh
set -eu

cd "$(dirname "$0")/.."

files=$(git ls-files '*.go' | grep -v '_test\.go$')
anydef='^func (\([^)]*\) )?'
def='^func (\([a-z_]+ \*?[A-Z][^)]*\) )?'
# shellcheck disable=SC2086
out=$(grep -nE "$def[A-Z][A-Za-z0-9_]*[[(]" $(echo "$files" | grep -Ev '^(bench|cmd|examples)/') |
	while IFS=: read -r file line decl; do
		name=$(echo "$decl" | sed -E "s/$def([A-Za-z0-9_]+).*/\2/")
		# shellcheck disable=SC2086
		uses=$(grep -hw -- "$name" $files | grep -Ev '^\s*//' | grep -cEv "$anydef$name[[(]" || true)
		[ "$uses" -eq 0 ] || continue
		if reason=$(grep -m1 "^$file:$name	" scripts/unused.allow); then
			echo "$file:$line: $name — ${reason#*	}"
		else
			echo "$file:$line: $name — NO CALLER, and no line in scripts/unused.allow"
		fi
	done)
echo "$out"
case $out in *"NO CALLER"*) exit 1 ;; esac
