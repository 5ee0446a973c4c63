"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/worker.py <root> <workload>
<seed> <seconds> <trace>``.  It imports genusfields from ``<root>/src``,
runs whole rounds of the workload's jobs in a closed loop (one caller, one
thread) until ``<seconds>`` of wall-clock job time have passed, checks every
report, and prints one JSON object with the raw results.  Times are
reported in reference seconds of a :class:`refclock.RefClock` that runs
through the loop, and also as plain wall time.  The reference of a
workload holds one digest per round, for the first rounds of each seed's
stream.

A job is what ``genusfields compare --infinite --format json`` does with
the job text: ``parse_input``, then ``run``, then ``Report.to_json``.  A
job's time covers only that; the loop's wall time also covers generating
the text and checking the report.

With trace 1 the same jobs run twice: untraced, then with the tracer
installed, so the per-layer figures and the tracing overhead come from one
job list.  Both passes start with an empty SNF cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
from math import prod
from pathlib import Path
from time import perf_counter

from refclock import RefClock
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
HASH_HEX = 8
RSS_ROUNDS = 1


def job_digest(text: str, rendered: str) -> str:
    """Short digest of one job's text and report bytes."""
    h = hashlib.sha256(text.encode() + b"\0" + rendered.encode())
    return h.hexdigest()[:HASH_HEX]


def round_digest(digests) -> str:
    """Digest of one round from its jobs' digests, in order; a failed job
    (digest None) makes it match no recorded reference."""
    h = hashlib.sha256("".join(d or "-" for d in digests).encode())
    return h.hexdigest()[:HASH_HEX]


def check_report(rendered: str):
    """Invariants every report must satisfy, read from the JSON alone.
    Returns None when they hold, else the reason."""
    rep = json.loads(rendered)
    ext, cl, ra, cmp_ = rep["extension"], rep["clement"], rep["rarzvi"], rep["comparison"]
    e_prod = prod(r["e"] for r in rep["ramification"]["finite"])
    if cl["degree"] != ext["exponent"] * e_prod:
        return "clement degree != exponent * prod(e_P)"
    if cmp_ is None or not (cmp_["k_in_rarzvi"] and cmp_["rarzvi_in_clement"]):
        return "containment chain K <= rarzvi <= clement not reported true"
    if cmp_["index_rarzvi_in_clement"] * ra["degree"] != cl["degree"]:
        return "index * rarzvi degree != clement degree"
    if cmp_["degrees"] != {"k": ext["degree"], "rarzvi": ra["degree"],
                           "clement": cl["degree"]}:
        return "comparison degrees disagree with the sections"
    return None


class Runner:
    """Runs jobs, checks their reports and keeps the first failures."""

    def __init__(self, report_mod):
        self.report = report_mod
        self.errors: list[str] = []

    def job(self, text: str) -> str:
        report = self.report
        config = report.parse_input(text)
        config = dataclasses.replace(config, fmt="json", include_infinite=True,
                                     include_comparison=True)
        return report.run(config).to_json()

    def timed(self, index: int, text: str, call=None):
        """((start, end), ok, digest) of one job, start and end being
        ``perf_counter`` readings; failures are recorded."""
        start = perf_counter()
        try:
            rendered = call(index, self.job, text) if call else self.job(text)
        except Exception as exc:  # a failing job is a result, not a crash
            end = perf_counter()
            self.fail(f"job {index}", f"{type(exc).__name__}: {exc}")
            return (start, end), False, None
        end = perf_counter()
        reason = check_report(rendered)
        if reason is not None:
            self.fail(f"job {index}", reason)
        return (start, end), reason is None, job_digest(text, rendered)

    def fail(self, where: str, reason: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"{where}: {reason}")


def run_pass(runner: Runner, texts, first: int = 0, call=None):
    """Wall-clock spans, check outcomes and digests of the jobs
    ``texts``, numbered from ``first``."""
    spans, oks, digests = [], [], []
    for i, text in enumerate(texts, first):
        s, ok, d = runner.timed(i, text, call)
        spans.append(s)
        oks.append(ok)
        digests.append(d)
    return spans, oks, digests


def wall(spans) -> list[float]:
    return [end - start for start, end in spans]


def ref_pass(runner: Runner, texts, call=None):
    """run_pass under a reference clock; the times are reference
    seconds."""
    clock = RefClock()
    clock.start()
    try:
        spans, oks, digests = run_pass(runner, texts, call=call)
    finally:
        clock.stop()
    return [clock.span(*s) for s in spans], oks, digests


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_rounds(runner: Runner, rounds, seconds: float, reference: str):
    """Run whole rounds until ``seconds`` of wall-clock job time have
    been spent.

    Each round's digest is compared with ``reference``, where one was
    recorded; a round that differs fails all its jobs.  ``loop_s`` is the
    time of the loop, generating and checking included.  Job times and
    ``loop_s`` are in reference seconds, ``wall_times`` and ``wall_loop_s``
    the same in wall-clock seconds.  The peak RSS
    is read once ``RSS_ROUNDS`` rounds are done: a fixed amount of work, so
    that a faster program, which fits more jobs into the time and fills the
    SNF cache further, is not charged for that."""
    out = {"texts": [], "spans": [], "oks": [], "digests": [], "rounds": "",
           "unreferenced": 0, "peak_rss_mb": None}
    spent = 0.0
    clock = RefClock()
    clock.start()
    start = perf_counter()
    for done, batch in enumerate(rounds):
        if done == RSS_ROUNDS:
            out["peak_rss_mb"] = rss_mb()
        if spent >= seconds:
            break
        s, o, d = run_pass(runner, batch, first=len(out["texts"]))
        got = round_digest(d)
        want = reference[done * HASH_HEX:(done + 1) * HASH_HEX]
        if not want:
            out["unreferenced"] += len(batch)
        elif want != got:
            runner.fail(f"round {done}",
                        "report bytes differ from the recorded reference")
            o = [False] * len(o)
        out["texts"] += batch
        out["spans"] += s
        out["oks"] += o
        out["digests"] += d
        out["rounds"] += got
        spent += sum(wall(s))
    end = perf_counter()
    clock.stop()
    out["times"] = [clock.span(*s) for s in out["spans"]]
    out["wall_times"] = wall(out.pop("spans"))
    out["loop_s"] = clock.span(start, end)
    out["wall_loop_s"] = end - start
    out["slowdown"] = clock.slowdown()
    out["peak_rss_mb"] = out["peak_rss_mb"] or rss_mb()
    return out


def main(argv) -> int:
    root, workload, seed, seconds, trace = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    sys.path.insert(0, str(Path(root) / "src"))
    import genusfields
    from genusfields import groups, report

    ref_file = HERE / "reference" / f"{workload}.json"
    reference = ""
    if ref_file.is_file():
        reference = json.loads(ref_file.read_text()).get(str(seed), "")
    runner = Runner(report)
    rounds = WORKLOADS[workload](seed)

    budget = seconds / 2 if trace else seconds
    done = timed_rounds(runner, rounds, budget, reference)
    texts, times, oks, digests = (done[k] for k in
                                  ("texts", "times", "oks", "digests"))
    result = {
        "genusfields": genusfields.__file__,
        "times": times,
        "loop_s": done["loop_s"],
        "wall_times": done["wall_times"],
        "wall_loop_s": done["wall_loop_s"],
        "slowdown": done["slowdown"],
        "ok": sum(oks),
        "attempted": len(texts),
        "rounds": done["rounds"],
        "has_reference": bool(reference),
        "unreferenced": done["unreferenced"],
        "peak_rss_mb": done["peak_rss_mb"],
    }
    if trace:
        groups._lattice_form.cache_clear()
        tracer = Tracer()
        tracer.install()
        try:
            t_times, t_oks, t_digests = ref_pass(runner, texts, call=tracer.run_job)
            snf = groups._lattice_form.cache_info()
        finally:
            tracer.uninstall()
        # a job counts once, as correct only if both passes gave the same
        # checked report
        result["ok"] = sum(a and b and d == e for a, b, d, e in
                           zip(oks, t_oks, digests, t_digests))
        spans_dir = Path(root) / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"spans-{workload}-seed{seed}.tsv.gz"
        result["spans"] = tracer.write_spans(spans_path)
        result["spans_file"] = str(spans_path.relative_to(root))
        metrics = tracer.per_job(len(texts), snf)
        metrics["trace_overhead_ratio"] = sum(t_times) / sum(times)
        result["layer_metrics"] = metrics
    result["errors"] = runner.errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
