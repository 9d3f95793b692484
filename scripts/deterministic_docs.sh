#!/usr/bin/env bash
# Writes the deterministic output of a fixed set of runs into one directory,
# so two builds (or two thread counts) can be compared with `diff -r`.
#
# Every scenario `plurality_run --list` reports runs on the agent and census
# backends at the sizes of tests/test_support.h's `small_params`
# (plurality --n 512 --k 2, baselines --n 257 --k 3, majority --n 300
# --bias 10, leader --n 256, the rest --n 512) with --trials 3 --seed 7,
# plus the benchmark's workload plurality/ordered --n 350 --k 4 --trials 10
# --seed 1 on census.  For each run the directory keeps the --out
# document (NAME.json), the `deterministic` object of the --metrics
# sidecar (NAME.metrics.json; the sidecar's wall-clock `timing` object is
# dropped) and the --trace CSV (NAME.trace.csv: trial 0's metric series on
# the default cadence), so a diff covers the readouts in the middle of a run
# as well as the final ones.  The script fails when a trace stops sampling:
# its `#` comment block must be followed by the `parallel_time,<metric
# names>` header (the metric names of the --out document's trial 0, in
# order) and a first row at parallel time 0.  Extra flags (e.g. --threads 4)
# are passed to every run.
#
# Usage: scripts/deterministic_docs.sh PLURALITY_RUN OUT_DIR [flags...]
#   e.g. scripts/deterministic_docs.sh ./build/plurality_run docs-t1 --threads 1
#        scripts/deterministic_docs.sh ./build/plurality_run docs-t4 --threads 4
#        diff -r docs-t1 docs-t4
set -euo pipefail

run_binary=${1:?usage: deterministic_docs.sh PLURALITY_RUN OUT_DIR [flags...]}
out_dir=${2:?usage: deterministic_docs.sh PLURALITY_RUN OUT_DIR [flags...]}
shift 2
mkdir -p "$out_dir"

sidecar=$(mktemp)
trap 'rm -f "$sidecar"' EXIT

# run NAME plurality_run-arguments...
run() {
    local name=$1
    shift
    "$run_binary" "$@" "${extra[@]}" --out "$out_dir/$name.json" --metrics "$sidecar" \
        --trace "$out_dir/$name.trace.csv" >/dev/null
    python3 - "$sidecar" "$out_dir/$name.metrics.json" "$out_dir/$name.json" \
        "$out_dir/$name.trace.csv" <<'EOF'
import json, sys
sidecar, kept, document, trace = sys.argv[1:]
with open(sidecar) as f:
    deterministic = json.load(f)["deterministic"]
with open(kept, "w") as f:
    json.dump(deterministic, f, indent=2)
    f.write("\n")

# A trace that stops sampling fails the run: after its `#` block come the
# header naming trial 0's metrics and a first row at parallel time 0.
with open(document) as f:
    names = list(json.load(f)["trials"][0]["metrics"])
header = ",".join(["parallel_time", *names])
with open(trace) as f:
    rows = [line.rstrip("\n") for line in f]
while rows and rows[0].startswith("#"):
    rows.pop(0)
if not rows or rows[0] != header:
    sys.exit(f"deterministic_docs: {trace} has no '{header}' header after its # block")
if len(rows) < 2 or rows[1].split(",")[0] != "0":
    sys.exit(f"deterministic_docs: {trace} has no first row at parallel time 0")
EOF
}

extra=("$@")
runs=0
while read -r scenario family _; do
    [[ -z "$scenario" ]] && continue
    case "$family" in
        plurality) size=(--n 512 --k 2) ;;
        baselines) size=(--n 257 --k 3) ;;
        majority) size=(--n 300 --bias 10) ;;
        leader) size=(--n 256) ;;
        *) size=(--n 512) ;;
    esac
    for backend in agent census; do
        run "${scenario//\//_}.$backend" --scenario "$scenario" "${size[@]}" \
            --backend "$backend" --trials 3 --seed 7
        runs=$((runs + 1))
    done
done < <("$run_binary" --list)

run plurality_ordered_n350_k4.census --scenario plurality/ordered --n 350 --k 4 \
    --backend census --trials 10 --seed 1
runs=$((runs + 1))

echo "deterministic_docs: $runs runs written to $out_dir"
