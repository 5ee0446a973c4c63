"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; genusfields is imported from its
``src`` directory, so nothing needs installing.  With ``--trace 0`` the run
measures the end-to-end metrics; with ``--trace 1`` it runs the same jobs
untraced and then traced, and reports the per-layer metrics.  Either way
every job's report is checked.

Standard output ends with two JSON lines: run facts (Python version, nproc,
seed, jobs, failed_ratio, src_lines, ...), then the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--record`` stores the
digests of this run's reports as the reference that later runs with the same
workload and seed must reproduce byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 8
DEADLINE_S = 175

# the yardstick is read just before and just after the import, and the
# import's wall time is turned into reference seconds with their mean
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from refclock import quiet_factor
before = quiet_factor()
sys.path.insert(0, sys.argv[2])
start = time.perf_counter()
import genusfields
elapsed = time.perf_counter() - start
print(elapsed, elapsed * (before + quiet_factor()) / 2)
"""


def import_times(n: int) -> list[tuple[float, float]]:
    """(wall, reference) seconds of ``import genusfields`` in ``n`` fresh
    interpreters."""
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE,
                               str(HERE), str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=60, cwd=ROOT)
        wall_s, ref_s = proc.stdout.split()
        out.append((float(wall_s), float(ref_s)))
    return out


def src_lines() -> int:
    """Non-blank, non-comment lines of the package source."""
    count = 0
    for path in sorted((SRC / "genusfields").rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            count += bool(stripped) and not stripped.startswith("#")
    return count


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(raw: dict, setup_s: float) -> dict:
    times = raw["times"]
    return {
        "jobs_per_s": {"value": raw["ok"] / raw["loop_s"], "unit": "1/s"},
        "job_s.p50": {"value": statistics.median(times), "unit": "s"},
        "job_s.p90": {"value": percentile(times, 90), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(raw: dict) -> dict:
    out = {}
    for name, value in raw["layer_metrics"].items():
        if name.endswith("_ratio"):
            unit = "ratio"
        elif name.endswith(".s"):
            unit = "s/job"
        else:
            unit = "count/job"
        out[name] = {"value": value, "unit": unit}
    return out


def record(workload: str, seed: int, digests: str) -> None:
    """Store a run's round digests, unless the stored ones already cover
    them."""
    path = HERE / "reference" / f"{workload}.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    if not refs.get(str(seed), "").startswith(digests):
        refs[str(seed)] = digests
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's report digests as the reference")
    args = parser.parse_args(argv)

    if not (SRC / "genusfields" / "__init__.py").is_file():
        print(f"no genusfields sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    # the first import may compile bytecode, so it is not counted; the
    # samples are split around the worker so that setup_s sees the same
    # stretch of machine time as the jobs
    setup = [] if args.trace else import_times(SETUP_SAMPLES + 1)[1:]
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), args.workload,
           str(args.seed), str(args.seconds), str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("worker did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.splitlines()[-1])
    if not args.trace:
        setup += import_times(SETUP_SAMPLES)
    if not Path(raw["genusfields"]).resolve().is_relative_to(SRC.resolve()):
        print(f"imported genusfields from {raw['genusfields']}, not {SRC}",
              file=sys.stderr)
        return 1

    attempted = raw["attempted"]
    failed = attempted - raw["ok"]
    for err in raw["errors"]:
        print(f"failed {err}", file=sys.stderr)
    if args.record and not failed and not args.trace:
        record(args.workload, args.seed, raw["rounds"])
    if raw["has_reference"] and raw["unreferenced"]:
        print(f"{raw['unreferenced']} jobs ran past the recorded reference and "
              "were checked by the invariants only", file=sys.stderr)
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "jobs": attempted,
        "failed_ratio": failed / attempted,
        "byte_checked_jobs": attempted - raw["unreferenced"],
        "src_lines": src_lines(),
        "slowdown": raw["slowdown"],
        "wall_jobs_per_s": raw["ok"] / raw["wall_loop_s"],
        "wall_job_s.p50": statistics.median(raw["wall_times"]),
    }
    if setup:
        facts["wall_setup_s"] = statistics.median(w for w, _ in setup)
    if args.trace:
        facts["spans"] = raw["spans"]
        facts["spans_file"] = raw["spans_file"]
    print(json.dumps(facts))
    metrics = (per_layer(raw) if args.trace else
               end_to_end(raw, statistics.median(r for _, r in setup)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
