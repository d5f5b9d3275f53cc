#!/bin/sh
# Golden gate for cmd/reproduce: run the quick evaluation, strip the
# per-section wall-clock lines "(N.Ns)", and diff what is left against
# cmd/reproduce/testdata/quick.golden. Every simulated number is
# deterministic, so any diff is a behaviour change.
#
# After a change that is meant to move a regenerated number, refresh the
# golden with:
#
#   go run ./cmd/reproduce -quick | grep -vE '^\([0-9.]+s\)$' > cmd/reproduce/testdata/quick.golden
set -eu

cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT
go run ./cmd/reproduce -quick > "$out"
grep -vE '^\([0-9.]+s\)$' "$out" | diff -u cmd/reproduce/testdata/quick.golden -
echo "reproduce golden: identical"
