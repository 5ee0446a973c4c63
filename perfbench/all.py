"""Run every workload of BENCHMARK.json and print every metric.

    python3 perfbench/all.py                      # seed 1, untraced + traced
    python3 perfbench/all.py --seeds 1 2 3 4 5 --no-trace

For each workload of BENCHMARK.json this runs ``run.py`` untraced for
``run_seconds`` once per seed and, unless ``--no-trace``, traced once with
the first seed.  ``--record`` instead records the reference: it runs
untraced only, for ``RECORD_SPAN`` times ``run_seconds``, so that the
stored report digests also cover the jobs a faster program fits into a
run.  It prints each metric by
name and unit with its median over the seeds, its quartiles and the spread
(q3 - q1) / median, plus ``failed_ratio``; ``--out`` also writes all of it,
with the run facts, as JSON.  Exits 1 if any job failed or a run broke.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD_SPAN = 4


def run_once(workload: str, seed: int, seconds: int, trace: int, record: bool):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if record:
        cmd.append("--record")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=200)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="record the report digests for these seeds")
    parser.add_argument("--out", type=Path, help="write the summary as JSON")
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"] * (RECORD_SPAN if args.record else 1)
    summary = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        plans = [(seed, 0) for seed in args.seeds]
        if not (args.no_trace or args.record):
            plans.append((args.seeds[0], 1))
        entry = {"runs": [], "end_to_end": {}, "per_layer": {}}
        values: dict[tuple, list] = {}
        for seed, trace in plans:
            got = run_once(workload, seed, seconds, trace, args.record)
            if got is None:
                print(f"{workload} seed {seed} trace {trace}: run failed")
                ok = False
                continue
            facts, result = got
            ok &= result["correct"]
            entry["runs"].append(facts | {k: result[k] for k in
                                          ("correct", "attempted", "failed")})
            print(f"{workload} seed {seed} trace {trace}: "
                  f"{result['attempted']} jobs, failed_ratio "
                  f"{facts['failed_ratio']:.4g}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault((trace, name, m["unit"]), []).append(m["value"])
        for (trace, name, unit), vals in values.items():
            s = summarize(vals) | {"unit": unit}
            entry["per_layer" if trace else "end_to_end"][name] = s
            print(f"  {workload:12s} {name:40s} {s['median']:12.6g} {unit:9s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}")
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
