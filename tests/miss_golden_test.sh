#!/bin/sh
# Exact-miss guard: the paper-suite smoke run's per-row cache accesses
# and misses must equal the committed golden file, row for row. The
# run's --bench-out document must also pass topo_report --check-json,
# and its "runs" array must be byte-identical at --jobs=1 and --jobs=4.
# Usage: miss_golden_test.sh <tools-dir> <golden-file>
set -e

TOOLS_DIR="$1"
GOLDEN="$2"
[ -n "$TOOLS_DIR" ] && [ -f "$GOLDEN" ] || {
    echo "usage: $0 <tools-dir> <golden-file>"; exit 2; }
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for jobs in 1 4; do
    "$TOOLS_DIR/topo_sim" --benchmark=m88ksim,vortex --trace-scale=0.05 \
        --algorithms=default,ph,hkc,gbsc --jobs="$jobs" \
        --bench-out="$WORK/bench_j$jobs.json" \
        > /dev/null 2> "$WORK/sim.log" || {
        cat "$WORK/sim.log"
        echo "FAIL: topo_sim --jobs=$jobs exited non-zero"; exit 1; }
    "$TOOLS_DIR/topo_report" --check-json="$WORK/bench_j$jobs.json" \
        > "$WORK/check.log" 2>&1 || {
        cat "$WORK/check.log"
        echo "FAIL: bench_j$jobs.json fails schema validation"; exit 1; }
    # "runs" is the document's last key: keep it through the end.
    sed -n '/"runs": \[/,$p' "$WORK/bench_j$jobs.json" \
        > "$WORK/runs_j$jobs.json"
done
[ -s "$WORK/runs_j1.json" ] || {
    echo "FAIL: bench_j1.json has no runs array"; exit 1; }
cmp -s "$WORK/runs_j1.json" "$WORK/runs_j4.json" || {
    echo "FAIL: --bench-out runs differ between --jobs=1 and --jobs=4"
    diff "$WORK/runs_j1.json" "$WORK/runs_j4.json" || true
    exit 1; }

# One "benchmark algorithm accesses misses" line per runs[] row.
awk '
    { gsub(/[",]/, "") }
    $1 == "benchmark:" { bench = $2 }
    $1 == "algorithm:" { algo = $2 }
    $1 == "accesses:" { acc = $2 }
    $1 == "misses:" { print bench, algo, acc, $2 }
' "$WORK/runs_j1.json" > "$WORK/got.txt"
grep -v '^#' "$GOLDEN" > "$WORK/want.txt"

if ! cmp -s "$WORK/want.txt" "$WORK/got.txt"; then
    echo "FAIL: accesses/misses differ from $GOLDEN"
    diff "$WORK/want.txt" "$WORK/got.txt" || true
    exit 1
fi
echo "ok: $(wc -l < "$WORK/got.txt") rows match $GOLDEN at jobs 1 and 4"
