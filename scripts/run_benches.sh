#!/usr/bin/env bash
# Reproducible BENCH_*.json recording.
#
# Builds the benchmarks in a dedicated Release tree (recorded numbers are
# only meaningful at -O3; the bench binaries themselves refuse to record
# from debug builds — see bench/bench_common.h) and writes one
# BENCH_E<NN>.json per requested experiment into the repository root.
#
# Usage:
#   scripts/run_benches.sh               # record every experiment (slow!)
#   scripts/run_benches.sh e14 e17       # record a subset
#   BENCH_FILTER='BM_LeapSpeedup' scripts/run_benches.sh e17   # row filter
#
# Environment:
#   PLURALITY_BENCH_BUILD_DIR  build tree (default: build-bench)
#   BENCH_FILTER               passed through as --benchmark_filter=...
set -euo pipefail

repo_root=$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)
build_dir=${PLURALITY_BENCH_BUILD_DIR:-"$repo_root/build-bench"}

cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=Release \
    -DPLURALITY_BUILD_TESTS=OFF \
    -DPLURALITY_BUILD_EXAMPLES=OFF \
    -DPLURALITY_NATIVE_ARCH=OFF
cmake --build "$build_dir" -j "$(nproc)"

# Resolve the requested experiments ("e17") to bench binaries.
requested=("$@")
if [[ ${#requested[@]} -eq 0 ]]; then
    mapfile -t binaries < <(find "$build_dir" -maxdepth 1 -name 'bench_e*' -type f | sort -V)
else
    binaries=()
    for exp in "${requested[@]}"; do
        match=$(find "$build_dir" -maxdepth 1 -name "bench_${exp}_*" -type f | head -n 1)
        if [[ -z "$match" ]]; then
            echo "run_benches: no benchmark binary matches '$exp'" >&2
            exit 1
        fi
        binaries+=("$match")
    done
fi

for bin in "${binaries[@]}"; do
    name=$(basename "$bin")                      # bench_e17_leap
    number=$(sed -E 's/^bench_e([0-9]+)_.*/\1/' <<<"$name")
    out="$repo_root/BENCH_E${number}.json"
    extra=()
    [[ -n "${BENCH_FILTER:-}" ]] && extra+=("--benchmark_filter=${BENCH_FILTER}")
    launcher=()
    # E19 measures a <= 2% A/B difference between two code paths in one
    # binary; the per-invocation code/stack placement lottery under ASLR
    # moves such a ratio by more than that.  Pin the address space layout
    # so the recorded ratio reflects the instruments, not the loader.
    if [[ "$number" == "19" ]] && command -v setarch >/dev/null; then
        launcher=(setarch "$(uname -m)" -R)
    fi
    echo "run_benches: $name -> ${out#"$repo_root"/}"
    "${launcher[@]}" "$bin" --benchmark_out="$out" --benchmark_out_format=json "${extra[@]}"
    # The google-benchmark *library* build type is outside our control (it
    # is whatever the system package shipped); tag loudly when it is a
    # debug build so readers know the timing overhead caveat.
    if grep -q '"library_build_type": "debug"' "$out"; then
        echo "run_benches: WARNING: system google-benchmark library reports a DEBUG build;" >&2
        echo "run_benches:          ${out#"$repo_root"/} timings carry library overhead" >&2
        echo "run_benches:          (our binaries are Release; see plurality_build_type)" >&2
    fi
    # E19 acceptance gate: the observability layer must cost <= 2% of the
    # leap hot loop (docs/OBSERVABILITY.md documents the methodology).  A
    # recorded BENCH_E19.json that fails the bar must not be checked in.
    if [[ "$number" == "19" ]]; then
        python3 - "$out" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = [b for b in doc["benchmarks"] if "ObsOverhead" in b["name"]]
assert rows, "no BM_ObsOverhead rows recorded"
for row in rows:
    ratio = row["throughput_ratio"]
    print(f'run_benches: {row["name"]}: throughput_ratio {ratio:.3f}, quartiles '
          f'{row["throughput_ratio_q1"]:.3f}-{row["throughput_ratio_q3"]:.3f} over '
          f'{row["iterations"]} iterations (gate >= 0.98 on the median)')
    assert ratio >= 0.98, f'{row["name"]}: throughput_ratio {ratio:.3f} < 0.98'
PYEOF
    fi
done
echo "run_benches: done"
