#!/usr/bin/env python3
"""Time-to-consensus benchmark for the paper's protocols.

Builds the repository's library and the consensus_bench program (Release,
into .bench_build/ at the repository root), then runs one workload:

    python3 consensus_bench/run.py --workload ordered-leap --seed 3 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(and writes one trial's spans as Chrome trace-event JSON under
.bench_build/).  The last stdout line is the JSON result object.  Workload
parameters, seed sets and baselines live in consensus_bench/workloads.json.

    python3 consensus_bench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and traced and fails on any violation.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "consensus_bench"
BINARY = BUILD / "consensus_bench"
# A run measures for --seconds and then finishes its current trial; a program
# still running after this long is killed and the run fails.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"consensus_bench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds incrementally; all output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT} (expected CMakeLists.txt and src/ beside consensus_bench/)")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", str(BUILD), "--target", "consensus_bench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def commit_id():
    """The git commit when the checkout is a repository, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=True).stdout.strip()
            return "git:" + head
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "consensus_bench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def bench_args(workload, spec, seed, seconds, trace, commit):
    args = [str(BINARY), "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--commit", commit,
            "--trials", str(spec["trace_trials"] if trace else spec["trials"])]
    for key, value in spec["params"].items():
        args += ["--" + key, str(value)]
    if trace:
        args += ["--spans-out", str(BUILD / f"spans-{workload}-seed{seed}.json")]
    return args


def run_bench(args):
    """Runs the benchmark program, echoing its stdout; returns (exit code, parsed last line)."""
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def run_all(workloads, seed, seconds, commit):
    """Every workload untraced then traced; a summary table; non-zero on any failure."""
    rows = []
    ok = True
    for name, spec in workloads.items():
        for trace in (False, True):
            code, result = run_bench(bench_args(name, spec, seed, seconds, trace, commit))
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print(f"FAILED: {name} trace={int(trace)} (exit {code})", file=sys.stderr)
                continue
            for metric, value in result["metrics"].items():
                rows.append((name, metric, value["value"], value["unit"]))
    print(f"\n{'workload':26} {'metric':32} {'value':>16} unit")
    for name, metric, value, unit in rows:
        print(f"{name:26} {metric:32} {value:16.6g} {unit}")
    return 0 if ok else 1


def main():
    config = json.loads((HERE / "workloads.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = config["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=config["seeds"]["default"][0])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload NAME and --all")

    build()
    commit = commit_id()
    if args.all:
        return run_all(workloads, args.seed, args.seconds, commit)
    code, result = run_bench(bench_args(args.workload, workloads[args.workload], args.seed,
                                          args.seconds, args.trace == 1, commit))
    if code == 0 and (result is None or not result.get("correct")):
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
