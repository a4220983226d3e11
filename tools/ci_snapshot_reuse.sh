#!/usr/bin/env bash
# CI byte-identity drill for warmup-snapshot reuse:
#
#   1. run a small sweep cold (no snapshot cache) -> reference CSV;
#   2. run the identical sweep with --snapshot-dir on an empty
#      directory: every warmup misses, is produced once per key and
#      published (the cache must report >= 1 save);
#   3. run it a third time against the now-populated directory: every
#      warmup must be served from the cache (>= 1 hit, 0 misses);
#   4. fill a second, empty directory from a sweep with telemetry
#      armed (--telemetry-dir): its snapshot files must be
#      byte-identical to the disarmed run's, since the warmup key
#      ignores the telemetry gate and the directory may be shared;
#   5. all three snapshot runs' CSVs must be byte-identical to the
#      cold reference -- restoring a warmed machine may not perturb
#      the measured region by even one bit.
#
# Usage: ci_snapshot_reuse.sh <path-to-sweep_tool> [workdir]
set -u

SWEEP=${1:?usage: ci_snapshot_reuse.sh <sweep_tool> [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"

# 6 workloads x 3 schemes: 18 jobs over 6 warmup keys per scheme
# config, so the second snapshot run exercises both intra-run
# memoization and cross-run disk hits.
ARGS=(--workloads 6 --insts 100000 --warmup 100000
      --schemes discard,permit,dripper --jobs 4)

# Cache-report line printed to stderr by sweep_tool, e.g.
#   snapshot cache: 12 hits, 6 misses, 6 saves, 0 invalid
cache_stat() { # args: err-file, field name
    sed -n 's/^snapshot cache: .*/&/p' "$1" |
        grep -o "[0-9]* $2" | grep -o '[0-9]*'
}

echo "== cold reference sweep (no snapshot cache) =="
"$SWEEP" "${ARGS[@]}" > "$WORK/ref.csv" 2> "$WORK/ref.err" || {
    echo "cold sweep failed:" >&2
    cat "$WORK/ref.err" >&2
    exit 1
}

echo "== first snapshot sweep (empty cache: produce + publish) =="
"$SWEEP" "${ARGS[@]}" --snapshot-dir "$WORK/snaps" \
    > "$WORK/first.csv" 2> "$WORK/first.err" || {
    echo "first snapshot sweep failed:" >&2
    cat "$WORK/first.err" >&2
    exit 1
}
grep '^snapshot cache:' "$WORK/first.err"
saves=$(cache_stat "$WORK/first.err" saves)
if [ -z "$saves" ] || [ "$saves" -lt 1 ]; then
    echo "FAIL: first snapshot run published no snapshots" >&2
    exit 1
fi

echo "== second snapshot sweep (warm cache: restore only) =="
"$SWEEP" "${ARGS[@]}" --snapshot-dir "$WORK/snaps" \
    > "$WORK/second.csv" 2> "$WORK/second.err" || {
    echo "second snapshot sweep failed:" >&2
    cat "$WORK/second.err" >&2
    exit 1
}
grep '^snapshot cache:' "$WORK/second.err"
hits=$(cache_stat "$WORK/second.err" hits)
misses=$(cache_stat "$WORK/second.err" misses)
if [ -z "$hits" ] || [ "$hits" -lt 1 ]; then
    echo "FAIL: second snapshot run hit the cache zero times" >&2
    exit 1
fi
if [ -n "$misses" ] && [ "$misses" -ne 0 ]; then
    echo "FAIL: second snapshot run missed a warm cache ($misses)" >&2
    exit 1
fi

echo "== armed snapshot sweep (telemetry on, second empty cache) =="
"$SWEEP" "${ARGS[@]}" --snapshot-dir "$WORK/snaps-armed" \
    --telemetry-dir "$WORK/tele" \
    > "$WORK/armed.csv" 2> "$WORK/armed.err" || {
    echo "armed snapshot sweep failed:" >&2
    cat "$WORK/armed.err" >&2
    exit 1
}
grep '^snapshot cache:' "$WORK/armed.err"
if ! ls "$WORK/tele"/*.epochs.csv > /dev/null 2>&1; then
    echo "FAIL: armed run wrote no epoch timeseries (gate not armed?)" >&2
    exit 1
fi

echo "== verify (armed snapshots byte-identical to disarmed) =="
(cd "$WORK/snaps" && ls snap-*.bin) > "$WORK/snaps.list"
(cd "$WORK/snaps-armed" && ls snap-*.bin) > "$WORK/armed.list"
if [ ! -s "$WORK/snaps.list" ] ||
   ! diff -q "$WORK/snaps.list" "$WORK/armed.list" > /dev/null; then
    echo "FAIL: armed and disarmed runs published different key sets" >&2
    diff "$WORK/snaps.list" "$WORK/armed.list" | head -20 >&2
    exit 1
fi
while read -r f; do
    if ! cmp "$WORK/snaps/$f" "$WORK/snaps-armed/$f"; then
        echo "FAIL: $f differs between armed and disarmed warmups" >&2
        exit 1
    fi
done < "$WORK/snaps.list"

echo "== verify (byte-for-byte CSV identity) =="
for run in first second armed; do
    if ! diff -q "$WORK/ref.csv" "$WORK/$run.csv"; then
        echo "FAIL: $run snapshot CSV differs from the cold reference" >&2
        diff "$WORK/ref.csv" "$WORK/$run.csv" | head -20 >&2
        exit 1
    fi
done
echo "PASS: snapshot-reuse sweeps reproduced the cold CSV byte-for-byte" \
     "($saves snapshot(s) published, $hits warm hit(s)," \
     "$(wc -l < "$WORK/snaps.list") armed snapshot(s) identical)"
