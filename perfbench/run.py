#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload
and prints its metrics, with one JSON result object as the last line.

  python3 perfbench/run.py --workload fig8_grid|launch_chain|serve_mix \\
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S]

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(a separate traced run). --all runs every workload untraced, then
traced, and prints every metric by name and unit. The exit code is 1
when an output check fails or the build or run does not complete.
METRICS.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory clean
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
RUN_TIMEOUT_S = 170  # per run, inside the 180 s a run may take
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns the binary's path."""
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no library sources at {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return BUILD / "perfbench"


def run_workload(exe, workload, seed, seconds, trace):
    """Runs perfbench once and returns its raw result."""
    out = BUILD / f"result-{workload}-{int(trace)}.json"
    out.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out", str(out)]
    if trace:
        cmd += ["--spans-out", str(BUILD / f"spans-{workload}.csv")]
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    return json.loads(out.read_text())


def report(workload, raw, reference):
    """Prints the human-readable lines; returns the result object."""
    result, notes, latency = benchlib.evaluate(workload, raw, reference)
    for note in notes[:20]:
        log(f"check failed: {note}")
    print(f"# {workload} seed={raw['seed']:.0f} trace={int(raw['trace'])} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"{workload:<13} {name:<30} {m['value']:>16.6g} {m['unit']}")
    if not raw["trace"]:
        for name, value, unit in benchlib.aliases(workload, result, latency):
            print(f"{workload:<13} {name:<30} {value:>16.6g} {unit}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload untraced, then traced")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")

    started = time.monotonic()
    try:
        exe = build()
        log(f"perfbench: built in {time.monotonic() - started:.1f} s")
        reference = json.loads((HERE / "fig8_reference.json").read_text())
        if args.all:
            runs = [(w, t) for t in (0, 1) for w in benchlib.WORKLOADS]
        else:
            runs = [(args.workload, args.trace)]
        results = []
        for workload, trace in runs:
            raw = run_workload(exe, workload, args.seed, args.seconds, trace)
            results.append(report(workload, raw, reference))
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(results[-1]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
