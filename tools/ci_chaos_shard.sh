#!/usr/bin/env bash
# CI chaos drill for processes sharing one result directory
# (sim/jobs/results.h):
#
#   1. run a fig09-class sweep single-process -> reference CSV;
#   2. run the identical command as 4 processes on one --results-dir;
#      two of them carry seeded self-SIGKILL fault plans
#      (--inject-kill) and die between jobs, leaving claims behind;
#   3. each survivor must finish the whole matrix and print its own
#      CSV, byte-identical to the reference (there is no merge step);
#   4. a fifth invocation over the finished directory must run zero
#      job bodies and print the same CSV.
#
# Usage: ci_chaos_shard.sh <path-to-sweep_tool> [workdir]
set -u

SWEEP=${1:?usage: ci_chaos_shard.sh <sweep_tool> [workdir]}
WORK=${2:-$(mktemp -d)}
DIR="$WORK/results"
mkdir -p "$WORK"
rm -rf "$DIR"

# Fig. 9-class matrix: workloads x {discard, permit, dripper}. Large
# enough that the victims reliably take work before dying, small
# enough to stay fast.
ARGS=(--workloads 8 --insts 100000 --warmup 20000
      --schemes discard,permit,dripper)
# --jobs 2 per process exercises concurrent workers inside each one.
SHARED=(--jobs 2 --results-dir "$DIR")
total=$((8 * 3))

echo "== reference run (single process) =="
"$SWEEP" "${ARGS[@]}" > "$WORK/ref.csv" 2> "$WORK/ref.err"
status=$?
if [ "$status" -ne 0 ]; then
    echo "reference sweep exited with $status" >&2
    cat "$WORK/ref.err" >&2
    exit 1
fi

echo "== 4 processes, 2 seeded victims =="
# Victims start first so they hold claims when the kill fires; a high
# rate makes the seeded SIGKILL land within their first few jobs.
"$SWEEP" "${ARGS[@]}" "${SHARED[@]}" --inject-kill 0.9 --fault-seed 11 \
    > "$WORK/victim0.csv" 2> "$WORK/victim0.err" &
v0=$!
"$SWEEP" "${ARGS[@]}" "${SHARED[@]}" --inject-kill 0.9 --fault-seed 22 \
    > "$WORK/victim1.csv" 2> "$WORK/victim1.err" &
v1=$!
sleep 1
"$SWEEP" "${ARGS[@]}" "${SHARED[@]}" \
    > "$WORK/survivor0.csv" 2> "$WORK/survivor0.err" &
s0=$!
"$SWEEP" "${ARGS[@]}" "${SHARED[@]}" \
    > "$WORK/survivor1.csv" 2> "$WORK/survivor1.err" &
s1=$!

wait "$v0"; rv0=$?
wait "$v1"; rv1=$?
wait "$s0"; rs0=$?
wait "$s1"; rs1=$?
echo "exit codes: victim0=$rv0 victim1=$rv1" \
     "survivor0=$rs0 survivor1=$rs1"
cat "$WORK/survivor0.err" "$WORK/survivor1.err"

fail=0
for rc in "$rv0" "$rv1"; do
    if [ "$rc" -ne 137 ]; then
        echo "FAIL: a victim was expected to die of SIGKILL (137)," \
             "got $rc" >&2
        fail=1
    fi
done
for rc in "$rs0" "$rs1"; do
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: a survivor exited with $rc; it did not finish" \
             "the matrix" >&2
        fail=1
    fi
done
for name in survivor0 survivor1; do
    if ! diff -q "$WORK/ref.csv" "$WORK/$name.csv"; then
        echo "FAIL: $name's CSV differs from the single-process" \
             "reference" >&2
        diff "$WORK/ref.csv" "$WORK/$name.csv" | head -20 >&2
        fail=1
    fi
done
[ "$fail" -ne 0 ] && exit 1

echo "== fifth invocation over the finished directory =="
"$SWEEP" "${ARGS[@]}" "${SHARED[@]}" \
    > "$WORK/again.csv" 2> "$WORK/again.err"
status=$?
cat "$WORK/again.err"
if [ "$status" -ne 0 ]; then
    echo "FAIL: re-run exited with $status" >&2
    exit 1
fi
if ! grep -q "($total reused from the result directory)" \
        "$WORK/again.err"; then
    echo "FAIL: the re-run executed job bodies; expected all $total" \
         "jobs reused" >&2
    exit 1
fi
if ! diff -q "$WORK/ref.csv" "$WORK/again.csv"; then
    echo "FAIL: re-run CSV differs from the single-process reference" >&2
    exit 1
fi
echo "PASS: two processes died mid-sweep, both survivors printed the" \
     "reference CSV byte-for-byte, and a re-run reused all $total jobs"
