#!/usr/bin/env python3
"""Builds and runs the placement-daemon benchmark (see benchmark/README.md).

    python3 benchmark/run.py --workload churn-10k --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds benchmark/ (which compiles ../src) into
.bench_build/, runs one workload and prints, as the last line of stdout,

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). A traced run first repeats the untraced run
with the same seed, so the tracing overhead is the difference of the two.
Any failed build, correctness check or metric-set mismatch exits non-zero
without a result line.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 172  # every prvm_bench run of one invocation, together


def fail(message, code=3):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (Path.cwd() / base / "prvm_bench").resolve()


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/CMakeLists.txt next to the benchmark: nothing to build")
    out = build_dir()
    log = sys.stderr
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S).returncode:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S).returncode:
        fail("build failed")
    binary = out / "prvm_bench"
    if not binary.is_file():
        fail("build produced no prvm_bench binary")
    return binary


def run_binary(binary, args, deadline):
    """Runs prvm_bench, killing it at `deadline` (time.monotonic());
    returns (record, result, note lines)."""
    timeout = max(1.0, deadline - time.monotonic())
    # Own process group, so a timeout also stops the socket workload's
    # generator process.
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"prvm_bench {' '.join(args)} timed out after {timeout:.0f} s", 4)
    if proc.returncode != 0:
        fail(f"prvm_bench exited with code {proc.returncode}", proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("prvm_bench printed nothing")
    result = json.loads(lines[-1])
    record = None
    notes = []
    for line in lines[:-1]:
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
        else:
            notes.append(line)
    if record is None:
        fail("prvm_bench printed no RECORD line")
    return record, result, notes


def source_digest():
    """sha256 over src/ and benchmark/ sources: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_provenance():
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", str(ROOT)] + list(args), capture_output=True,
                                  text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": bool(status) if status is not None else None,
        "source_digest": source_digest(),
    }


def check_metrics(result, specs, require_positive):
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in specs}
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            fail(f"metric {name} has unit {metrics[name].get('unit')}, expected {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value!r}")
        if require_positive and value <= 0:
            print(f"# WARNING: end-to-end metric {name} is {value}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (self-test only)")
    parser.add_argument("--corrupt", default="",
                        help="corrupt one correctness check's expectation (self-test only)")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}", 2)

    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        base.append("--smoke")
    if args.corrupt:
        base += ["--corrupt", args.corrupt]

    record, result, notes = run_binary(binary, base + ["--trace", "0"], deadline)
    if args.trace:
        # Same workload and seed with spans on; the end-to-end numbers stay
        # those of the untraced run above.
        plain = record["overhead_basis"]
        record, result, notes = run_binary(binary, base + ["--trace", "1"], deadline)
        traced = record["overhead_basis"]
        overhead = 100.0 * (traced["value"] / plain["value"] - 1.0) if plain["value"] else 0.0
        result["metrics"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        notes.append(f"# tracing overhead: {traced['name']} untraced {plain['value']:.6g}, "
                     f"traced {traced['value']:.6g} ({overhead:+.2f}%)")
        check_metrics(result, spec["per_layer"], require_positive=False)
    else:
        check_metrics(result, spec["end_to_end"], require_positive=True)

    record["provenance"].update(git_provenance())
    record["provenance"]["nproc"] = os.cpu_count()
    if not record["provenance"].get("optimized", False):
        notes.append("# WARNING: non-optimised build; numbers are not comparable")
    for line in notes:
        print(line)
    print("RECORD " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
