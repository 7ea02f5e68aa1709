#!/usr/bin/env python3
"""Run one workload of the ftes benchmark and print its result.

    python3 perfbench/run.py --workload paper|scale|tables --seed N \
        --seconds S --trace 0|1 [--catalogue C] [--results-dir DIR]

Run from the root of a checkout of the repository.  The first run
configures and builds perfbench/ (which compiles the library from src/)
in Release mode into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only rebuild what changed.  The last line of standard
output is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  A full record of the run -- per-problem digests and checks,
sample counts, per-layer self times, build metadata -- is written to
DIR/<workload>-c<catalogue>-s<seed>-t<trace>.json (DIR defaults to
.bench_results), and the traced run's spans next to it.
perfbench/compare.py compares two such directories.

    python3 perfbench/run.py --record-reference

re-records perfbench/reference.txt: every workload's catalogues 0 and 1
solved with one evaluation thread.

Exit status: 0 when every design passed every check; non-zero, without a
result line, when the build or the run fails, and non-zero after the
result line when a check failed.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference.txt"
WORKLOADS = ("paper", "scale", "tables")
RECORDED_CATALOGUES = (0, 1)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no src/ under {ROOT}: not an ftes checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "ftes_perfbench"


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except OSError:
        return "unknown"
    commit = proc.stdout.strip()
    return commit if proc.returncode == 0 and commit else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: names the code
    version where no git metadata exists."""
    h = hashlib.sha256()
    files = [p for top in (ROOT / "src", BENCH) for p in top.rglob("*")
             if p.is_file() and p.suffix in (".h", ".cpp", ".txt", ".py")]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_binary(binary, argv):
    proc = subprocess.run([str(binary)] + argv, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    sys.stderr.write(proc.stderr)
    return proc


def measure(args, binary):
    results = Path(args.results_dir)
    if not results.is_absolute():
        results = ROOT / results
    results.mkdir(parents=True, exist_ok=True)
    stem = (f"{args.workload}-c{args.catalogue}-s{args.seed}"
            f"-t{args.trace}")
    out = results / f"{stem}.json"
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--catalogue", str(args.catalogue),
            "--reference", str(REFERENCE), "--out", str(out)]
    if args.trace:
        argv += ["--spans", str(results / f"{stem}.spans.jsonl")]
    out.unlink(missing_ok=True)
    proc = run_binary(binary, argv)
    lines = proc.stdout.strip().splitlines()
    if not lines or not out.exists():
        log(f"benchmark binary exited {proc.returncode} without a result")
        return proc.returncode or 1
    record = json.loads(out.read_text())
    record["env"].update({
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    })
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(lines[-1], flush=True)
    return proc.returncode


def record_reference(binary):
    """Re-records every workload's reference digests, serially."""
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        lines = Path(tmp) / "reference.txt"
        for workload in WORKLOADS:
            for catalogue in RECORDED_CATALOGUES:
                log(f"recording {workload} catalogue {catalogue}")
                proc = run_binary(binary, [
                    "--workload", workload, "--seed", "0", "--seconds", "0",
                    "--trace", "0", "--catalogue", str(catalogue),
                    "--record", str(lines)])
                if proc.returncode != 0:
                    log(f"recording {workload} failed")
                    return 1
        body = sorted(lines.read_text().splitlines())
    header = ("# ftes benchmark reference digests: workload catalogue "
              "problem digest.\n# Recorded with one evaluation thread by "
              "`python3 perfbench/run.py --record-reference`;\n# every "
              "run compares its designs against these.\n")
    REFERENCE.write_text(header + "\n".join(body) + "\n")
    log(f"wrote {len(body)} digests to {REFERENCE}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--catalogue", type=int, default=0)
    parser.add_argument("--results-dir", default=".bench_results")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.catalogue < 0:
        parser.error("--seed and --catalogue must be non-negative")
    try:
        binary = build()
        if args.record_reference:
            return record_reference(binary)
        return measure(args, binary)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        log(err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
