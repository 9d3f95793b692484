#!/usr/bin/env bash
# Docs-drift check, run by ctest (docs_drift_check) and CI.
#
#  1. Scenario coverage: every scenario `plurality_run --list` reports must
#     appear in docs/EXPERIMENTS.md's scenario table, so registering a
#     scenario without documenting it fails the build.
#  2. Metric coverage: every metric `plurality_run --list-metrics` reports
#     must appear in docs/OBSERVABILITY.md's catalogue table, so
#     registering a metric without documenting it fails the build too.
#  3. Link check: every relative markdown link in README.md and docs/*.md
#     must point at a file that exists (anchors and external URLs are not
#     checked).
#  4. Worked example: every ```cpp block of docs/ADDING_A_SCENARIO.md whose
#     first line is `// src/<path>` is written to <path> in a scratch tree,
#     and the guide's registration file src/scenario/builtin_rps.cpp is
#     compiled against the repository's src/ (-fsyntax-only, warnings as
#     errors).  The compile instantiates registry.add, so the guide's spec
#     is checked against the scenario_spec concept.  The compiler is $CXX
#     (default c++).
#
# Usage: [CXX=g++] scripts/check_docs.sh /path/to/plurality_run
set -euo pipefail

repo_root=$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)
run_binary=${1:?usage: check_docs.sh /path/to/plurality_run}
experiments_doc="$repo_root/docs/EXPERIMENTS.md"

failures=0

# -- 1. every registered scenario is documented ------------------------------
if [[ ! -f "$experiments_doc" ]]; then
    echo "check_docs: missing $experiments_doc" >&2
    exit 1
fi
while read -r scenario _; do
    [[ -z "$scenario" ]] && continue
    if ! grep -qF "$scenario" "$experiments_doc"; then
        echo "check_docs: scenario '$scenario' is registered but missing from docs/EXPERIMENTS.md" >&2
        failures=1
    fi
done < <("$run_binary" --list)

# -- 2. every registered metric is documented --------------------------------
observability_doc="$repo_root/docs/OBSERVABILITY.md"
if [[ ! -f "$observability_doc" ]]; then
    echo "check_docs: missing $observability_doc" >&2
    exit 1
fi
while read -r metric _; do
    [[ -z "$metric" ]] && continue
    if ! grep -qF "\`$metric\`" "$observability_doc"; then
        echo "check_docs: metric '$metric' is registered but missing from docs/OBSERVABILITY.md" >&2
        failures=1
    fi
done < <("$run_binary" --list-metrics)

# -- 3. relative markdown links resolve --------------------------------------
for doc in "$repo_root/README.md" "$repo_root"/docs/*.md; do
    [[ -f "$doc" ]] || continue
    doc_dir=$(dirname -- "$doc")
    # Extract the (target) part of [text](target) links, one per line.
    while read -r target; do
        [[ -z "$target" ]] && continue
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;  # external / in-page
        esac
        local_path=${target%%#*}  # strip an anchor suffix
        [[ -z "$local_path" ]] && continue
        if [[ ! -e "$doc_dir/$local_path" && ! -e "$repo_root/$local_path" ]]; then
            echo "check_docs: broken link '$target' in ${doc#"$repo_root"/}" >&2
            failures=1
        fi
    done < <(awk '/^```/ { fenced = !fenced; next } !fenced' "$doc" \
                 | grep -oE '\[[^][]+\]\([^()]+\)' | sed -E 's/.*\(([^()]+)\)$/\1/')
done

# -- 4. the scenario guide's worked example compiles -------------------------
example_root=$(mktemp -d)
trap 'rm -rf -- "$example_root"' EXIT
awk -v root="$example_root" '
    /^```/ { if (block) { block = 0; file = "" } else if ($0 == "```cpp") { block = first = 1 }; next }
    block && first && /^\/\/ src\/[^ ]+$/ {
        file = root "/" substr($0, 4)
        system("mkdir -p \"$(dirname \"" file "\")\"")
    }
    block { first = 0; if (file != "") print > file }
' "$repo_root/docs/ADDING_A_SCENARIO.md"
example="$example_root/src/scenario/builtin_rps.cpp"
if [[ ! -f "$example" ]]; then
    echo "check_docs: docs/ADDING_A_SCENARIO.md has no '// src/scenario/builtin_rps.cpp' block" >&2
    failures=1
elif ! "${CXX:-c++}" -std=c++20 -fsyntax-only -Wall -Wextra -Werror \
        -I "$example_root/src" -I "$repo_root/src" "$example"; then
    echo "check_docs: the worked example of docs/ADDING_A_SCENARIO.md does not compile" >&2
    failures=1
fi

if [[ "$failures" -ne 0 ]]; then
    echo "check_docs: FAILED" >&2
    exit 1
fi
echo "check_docs: OK (scenario table, metric catalogue, markdown links and worked example are in sync)"
