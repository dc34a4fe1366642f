#!/bin/sh
# Exact-miss guard: the paper-suite smoke run's per-row cache accesses
# and misses must equal the committed golden file, row for row.
# Usage: miss_golden_test.sh <tools-dir> <golden-file>
set -e

TOOLS_DIR="$1"
GOLDEN="$2"
[ -n "$TOOLS_DIR" ] && [ -f "$GOLDEN" ] || {
    echo "usage: $0 <tools-dir> <golden-file>"; exit 2; }
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$TOOLS_DIR/topo_sim" --benchmark=m88ksim,vortex --trace-scale=0.05 \
    --algorithms=default,ph,hkc,gbsc --bench-out="$WORK/bench.json" \
    > /dev/null 2> "$WORK/sim.log" || {
    cat "$WORK/sim.log"; echo "FAIL: topo_sim exited non-zero"; exit 1; }

# One "benchmark algorithm accesses misses" line per runs[] row.
awk '
    /"runs": \[/ { in_runs = 1; next }
    !in_runs { next }
    { gsub(/[",]/, "") }
    $1 == "benchmark:" { bench = $2 }
    $1 == "algorithm:" { algo = $2 }
    $1 == "accesses:" { acc = $2 }
    $1 == "misses:" { print bench, algo, acc, $2 }
' "$WORK/bench.json" > "$WORK/got.txt"
grep -v '^#' "$GOLDEN" > "$WORK/want.txt"

if ! cmp -s "$WORK/want.txt" "$WORK/got.txt"; then
    echo "FAIL: accesses/misses differ from $GOLDEN"
    diff "$WORK/want.txt" "$WORK/got.txt" || true
    exit 1
fi
echo "ok: $(wc -l < "$WORK/got.txt") rows match $GOLDEN"
