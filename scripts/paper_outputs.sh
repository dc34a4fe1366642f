#!/bin/sh
# Run every paper bench binary (tables, figures, sections, ablations,
# extensions, and the microsuite comparison) on a small m88ksim input
# and write each binary's stdout to OUTDIR/<binary>.txt. Exits non-zero
# if any binary fails. The outputs are deterministic, so two builds
# can be compared with `diff -r`.
# Usage: scripts/paper_outputs.sh BUILD OUTDIR
set -e

BUILD="$1"
OUT="$2"
[ -n "$BUILD" ] && [ -n "$OUT" ] || {
    echo "usage: $0 BUILD OUTDIR"; exit 2; }
mkdir -p "$OUT"

status=0
count=0
for bin in "$BUILD"/bench/table* "$BUILD"/bench/figure* \
    "$BUILD"/bench/section* "$BUILD"/bench/ablation* \
    "$BUILD"/bench/extension* "$BUILD"/bench/microsuite_comparison; do
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    name="$(basename "$bin")"
    count=$((count + 1))
    if ! "$bin" --trace-scale=0.05 --benchmark=m88ksim \
        > "$OUT/$name.txt" 2> "$OUT/$name.err"; then
        echo "FAIL: $name exited non-zero (stderr in $OUT/$name.err)"
        status=1
    fi
done
[ "$count" -gt 0 ] || {
    echo "FAIL: no bench binaries in $BUILD/bench"; exit 1; }
echo "ran $count paper bench binaries into $OUT"
exit $status
