"""The names the benchmark harness in ``perfbench/`` resolves in the package.

``perfbench/tracer.py`` wraps the functions its ``TIMED`` table names and
the ``FqElem`` operators, reading each from its owner's ``__dict__``, and
``perfbench/worker.py`` clears and reads the SNF cache of
``groups._lattice_form``; every form the cache builds goes through the
module-level ``groups.smith_normal_form`` that the tracer times.  A worker
job is ``Runner.job``: ``parse_input``, ``dataclasses.replace`` of the
``JobConfig`` fields it sets, ``run`` and ``Report.to_json``.  A refactor
that renames or moves any of them breaks the benchmark run; these tests
catch it in the suite.  One more test guards the traffic the benchmark's
jobs put on the ``FqElem`` operators: none.  Another replays the first
round of every recorded seed against ``perfbench/reference/``, and a
third the later rounds (every one of ``high_degree`` and ``large_field``,
the first ones of ``wide_basis`` and ``corpus`` at two seeds), so a
report that changes, or a job that fails or never ends, fails the suite
and not only a later benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import json
import signal
import sys
from pathlib import Path

import pytest

import genusfields
from genusfields import groups, report
from genusfields.ffield import FqElem

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
GOLDEN = ROOT / "tests" / "golden"


def load(monkeypatch, name):
    """``perfbench/<name>.py`` as a module, without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def worker(monkeypatch):
    """``perfbench/worker.py``, which imports its siblings by their plain
    names; those are dropped from ``sys.modules`` again afterwards."""
    siblings = [name for name in ("refclock", "tracer", "workloads")
                if name not in sys.modules]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield load(monkeypatch, "worker")
    finally:
        for name in siblings:
            sys.modules.pop(name, None)


def test_all_exports_resolve():
    for name in genusfields.__all__:
        assert hasattr(genusfields, name), name


def test_traced_names_resolve(monkeypatch):
    tracer = load(monkeypatch, "tracer")
    for span, (module, path, _) in tracer.TIMED.items():
        mod = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        owner, attr = tracer._resolve(mod, path)
        assert attr in vars(owner), span
    elem = importlib.import_module(f"{tracer.PACKAGE}.ffield").FqElem
    for op in tracer.ELEM_OP_NAMES:
        assert op in vars(elem), op


def test_job_path_runs_no_element_arithmetic(monkeypatch):
    """The first seed-1 round of every workload, each job run as the worker
    runs it, calls no ``FqElem`` sum, difference, negation, product or
    quotient: the job computes on codes in the kernel loops, so only those
    loops need a field's fastest arithmetic."""
    workloads = load(monkeypatch, "workloads")
    calls = []
    for op in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__"):
        def counted(*args, op=op, original=getattr(FqElem, op)):
            calls.append(op)
            return original(*args)
        monkeypatch.setattr(FqElem, op, counted)
    for name, rounds in workloads.WORKLOADS.items():
        for text in next(rounds(1)):
            config = dataclasses.replace(report.parse_input(text), fmt="json",
                                         include_infinite=True,
                                         include_comparison=True)
            report.run(config).to_json()
        assert calls == [], name


def test_snf_cache_is_inspectable():
    assert callable(groups._lattice_form.cache_info)
    assert callable(groups._lattice_form.cache_clear)


def test_traced_snf_sees_every_form(monkeypatch):
    """Every form the SNF cache misses is built through the module-level
    ``groups.smith_normal_form`` that the tracer rebinds, so its traced
    call count cannot read 0 while forms are built by a helper."""
    workloads = load(monkeypatch, "workloads")
    calls = []

    def counted(*args, original=groups.smith_normal_form):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(groups, "smith_normal_form", counted)
    groups._lattice_form.cache_clear()
    try:
        for name in ("wide_basis", "corpus"):
            for text in next(workloads.WORKLOADS[name](1)):
                config = dataclasses.replace(
                    report.parse_input(text), fmt="json",
                    include_infinite=True, include_comparison=True)
                report.run(config).to_json()
        assert 0 < len(calls) == groups._lattice_form.cache_info().misses
    finally:
        groups._lattice_form.cache_clear()


def test_worker_job_replays_the_cli(worker):
    text = (GOLDEN / "extension_field_q9_mod_gen.job").read_text(encoding="utf-8")
    rendered = worker.Runner(report).job(text)
    assert worker.check_report(rendered) is None
    # the bytes of `genusfields compare --infinite --format json`
    expected = (GOLDEN / "extension_field_q9_mod_gen.json").read_text(encoding="utf-8")
    assert rendered + "\n" == expected


# seconds one replayed job may take; each takes well under one
JOB_ALARM_S = 60


def test_recorded_seeds_replay(worker):
    """The first round of each seed recorded in ``perfbench/reference/``,
    run job by job as the worker runs it: every report passes
    ``check_report`` and the round's digest is the recorded one.  A job
    that runs past ``JOB_ALARM_S`` fails the test by its workload, seed
    and job."""
    where = []

    def timeout(signum, frame):
        raise TimeoutError(f"{where[-1]} ran past {JOB_ALARM_S} s")
    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        for name, rounds in sorted(worker.WORKLOADS.items()):
            recorded = json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())
            for seed in sorted(recorded, key=int):
                runner, digests = worker.Runner(report), []
                for i, text in enumerate(next(rounds(int(seed)))):
                    where.append(f"{name} seed {seed} job {i}")
                    signal.alarm(JOB_ALARM_S)
                    rendered = runner.job(text)
                    signal.alarm(0)
                    assert worker.check_report(rendered) is None, where[-1]
                    digests.append(worker.job_digest(text, rendered))
                assert worker.round_digest(digests) == \
                    recorded[seed][:worker.HASH_HEX], f"{name} seed {seed}"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# (seeds, rounds) of each workload that the later-round replay runs, None
# for every recorded one: about 12 s in all
LATER_ROUNDS = {"high_degree": (None, None), "large_field": (None, None),
                "wide_basis": (("1", "7"), 10), "corpus": (("1", "7"), 50)}


def test_recorded_later_rounds_replay(worker):
    """The recorded rounds after the first, up to ``LATER_ROUNDS``, run job
    by job as the worker runs them: every report passes ``check_report``
    and each round's digest is the recorded one.  The benchmark reaches
    these rounds in its runs of ``run_seconds``, where a job that fails or
    never ends refuses the run; here a job that runs past ``JOB_ALARM_S``
    fails the test by its workload, seed, round and job."""
    where = []

    def timeout(signum, frame):
        raise TimeoutError(f"{where[-1]} ran past {JOB_ALARM_S} s")
    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        for name, (seeds, limit) in LATER_ROUNDS.items():
            recorded = json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())
            for seed in seeds or sorted(recorded, key=int):
                runner, want = worker.Runner(report), recorded[seed]
                count = len(want) // worker.HASH_HEX
                rounds = worker.WORKLOADS[name](int(seed))
                next(rounds)   # the first round is test_recorded_seeds_replay's
                for r, texts in zip(range(1, min(count, limit or count)), rounds):
                    digests = []
                    for i, text in enumerate(texts):
                        where.append(f"{name} seed {seed} round {r} job {i}")
                        signal.alarm(JOB_ALARM_S)
                        rendered = runner.job(text)
                        signal.alarm(0)
                        assert worker.check_report(rendered) is None, where[-1]
                        digests.append(worker.job_digest(text, rendered))
                    assert worker.round_digest(digests) == \
                        want[r * worker.HASH_HEX:(r + 1) * worker.HASH_HEX], \
                        f"{name} seed {seed} round {r}"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
