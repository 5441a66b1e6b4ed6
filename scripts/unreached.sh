#!/usr/bin/env bash
# Reachability report (`make unreached`): lists the non-test functions
# and methods declared outside package main that no binary of this
# module links, then their count. A report, not a gate: it always
# exits 0 when the build succeeds, and is not part of `make ci`.
#
# Method: build every main package with inlining off (so a function
# called only through an inlined caller still gets a symbol), collect
# the symbols `go tool nm` finds in any of them, and compare with the
# `func` declarations of every non-test, non-main .go file. Generic
# code links as instantiations (`pkg.Apply[go.shape.int64]`) and
# dictionaries (`pkg..dict.Apply[int64]`); both count as a use of
# `pkg.Apply`. Main packages are skipped: their names collide across
# binaries. Test-only helpers (lint/analysistest, engine/enginetest)
# show up by design.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
mod="$(go list -m)"

mkdir "$out/bin"
for p in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	go build -gcflags=all=-l -o "$out/bin/$(basename "$p")" "$p"
done

for b in "$out"/bin/*; do go tool nm "$b"; done |
	awk '{print $NF}' |
	sed -E -e ':a' -e 's/\[[^][]*\]//' -e 'ta' -e 's/\.\.dict\././' |
	sort -u >"$out/linked.txt"

for f in $(git ls-files '*.go' | grep -v -e _test.go -e /testdata/); do
	grep -q '^package main$' "$f" && continue
	sed -nE \
		-e 's/^func \((\w+ )?\*(\w+)(\[[^]]*\])?\) (\w+)[[(].*/(*\2).\4/p' \
		-e 's/^func \((\w+ )?(\w+)(\[[^]]*\])?\) (\w+)[[(].*/\2.\4/p' \
		-e 's/^func (\w+)[[(].*/\1/p' "$f" |
		grep -v -x -e init -e _ |
		sed "s|^|$mod/$(dirname "$f").|" || true
done | sort -u >"$out/declared.txt"

comm -13 "$out/linked.txt" "$out/declared.txt" | tee "$out/unreached.txt"
echo "unreached: $(wc -l <"$out/unreached.txt")"
