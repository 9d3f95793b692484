#!/usr/bin/env bash
# Prints docs/ARCHITECTURE.md's "Choosing a backend" table as markdown: one
# row per plurality/{ordered,unordered,improved} x {agent, census} run
# at --k 4 --seed 1 --trials 1 (the bias-1 workload), with the trial's wall
# seconds from the --metrics sidecar, its parallel time, the skipped share
# absorbed_fast_path_interactions_total / interactions_total, and the
# census's state space: the sidecar's reachable_states and
# occupied_states_hwm gauges (a dash where the run reports no such sample:
# the agent backend skips nothing and keeps no census, and a
# -DPLURALITY_OBS=OFF build reports neither counters nor gauges).
#
# Usage: scripts/backend_table.sh PLURALITY_RUN [N]      (N defaults to 10000)
#   e.g. scripts/backend_table.sh ./build/plurality_run
set -euo pipefail

run_binary=${1:?usage: backend_table.sh PLURALITY_RUN [N]}
n=${2:-10000}

doc=$(mktemp)
sidecar=$(mktemp)
trap 'rm -f "$doc" "$sidecar"' EXIT

echo "| mode | backend | trial wall s | parallel time | skipped share | reachable states | occupied high-water |"
echo "| --- | --- | --- | --- | --- | --- | --- |"
for mode in ordered unordered improved; do
    for backend in agent census; do
        "$run_binary" --scenario "plurality/$mode" --n "$n" --k 4 --seed 1 --trials 1 \
            --backend "$backend" --out "$doc" --metrics "$sidecar" >/dev/null 2>&1
        python3 - "$doc" "$sidecar" "$mode" "$backend" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
with open(sys.argv[2]) as f:
    sidecar = json.load(f)
counters = sidecar["deterministic"].get("counters", {})
gauges = sidecar["deterministic"].get("gauges", {})
absorbed = counters.get("absorbed_fast_path_interactions_total")
total = counters.get("interactions_total")
skipped = "—" if absorbed is None or not total else f"{absorbed / total:.3f}"
reachable, occupied = (gauges.get(name, "—") for name in ("reachable_states", "occupied_states_hwm"))
wall = sidecar["timing"]["trial_wall_seconds_total"]
parallel_time = doc["summary"]["parallel_time"]["mean"]
print(f"| {sys.argv[3]} | {sys.argv[4]} | {wall:.2f} | {parallel_time:g} | {skipped} | {reachable} | {occupied} |")
EOF
    done
done
