#!/usr/bin/env bash
# CI crash-recovery drill for the result directory
# (sim/jobs/results.h):
#
#   1. run a fault-injected sweep to completion -> reference CSV;
#   2. run the identical sweep over a fresh --results-dir and SIGKILL
#      it mid-run;
#   3. re-run the same command over the same directory;
#   4. its CSV must be byte-identical to the reference, and the
#      directory must hold exactly one record per completed job.
#
# Usage: ci_sweep_resume.sh <path-to-sweep_tool> [workdir]
set -u

SWEEP=${1:?usage: ci_sweep_resume.sh <sweep_tool> [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"
DIR="$WORK/results"
rm -rf "$DIR"

# Big enough that the mid-run KILL reliably lands before the sweep
# finishes, small enough to stay fast: 16 workloads x 3 schemes.
ARGS=(--workloads 16 --insts 200000 --warmup 50000
      --schemes discard,permit,dripper
      --inject-faults 0.15 --fault-seed 7)

echo "== reference run (uninterrupted) =="
"$SWEEP" "${ARGS[@]}" > "$WORK/ref.csv" 2> "$WORK/ref.err"
status=$?
# Injected faults make a partial-results exit (1) expected; anything
# else is a usage or crash bug.
if [ "$status" -ne 0 ] && [ "$status" -ne 1 ]; then
    echo "reference sweep exited with $status" >&2
    exit 1
fi
cat "$WORK/ref.err"
completed=$(($(wc -l < "$WORK/ref.csv") - 1))

echo "== interrupted run (SIGKILL mid-sweep) =="
"$SWEEP" "${ARGS[@]}" --results-dir "$DIR" \
    > "$WORK/crash.csv" 2> "$WORK/crash.err" &
pid=$!
# Let it store a few jobs, then kill it hard. Polling the directory
# instead of sleeping a fixed time keeps the kill mid-sweep on a host
# of any speed.
for _ in $(seq 1 600); do
    stored=$(find "$DIR" -name '*.jsonl' 2>/dev/null | wc -l)
    [ "$stored" -ge 5 ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.05
done
kill -KILL "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
survived=$(find "$DIR" -name '*.jsonl' | wc -l)
echo "result directory survived the kill with $survived/$completed record(s)"
if [ "$survived" -ge "$completed" ]; then
    echo "FAIL: the sweep finished before the kill; nothing to resume" >&2
    exit 1
fi

echo "== re-run over the same directory =="
"$SWEEP" "${ARGS[@]}" --results-dir "$DIR" \
    > "$WORK/resumed.csv" 2> "$WORK/resumed.err"
status=$?
if [ "$status" -ne 0 ] && [ "$status" -ne 1 ]; then
    echo "resumed sweep exited with $status" >&2
    exit 1
fi
cat "$WORK/resumed.err"

echo "== verify =="
if ! diff -q "$WORK/ref.csv" "$WORK/resumed.csv"; then
    echo "FAIL: resumed CSV differs from the uninterrupted reference" >&2
    diff "$WORK/ref.csv" "$WORK/resumed.csv" | head -20 >&2
    exit 1
fi
records=$(find "$DIR" -name '*.jsonl' | wc -l)
if [ "$records" -ne "$completed" ]; then
    echo "FAIL: $records record(s) for $completed completed job(s)" >&2
    exit 1
fi
echo "PASS: resume reproduced the reference CSV byte-for-byte" \
     "($survived job(s) reused; $records record(s) for $completed" \
     "completed job(s))"
