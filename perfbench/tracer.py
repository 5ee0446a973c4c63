"""Spans and counters around genusfields' public entry functions, installed
from outside the program.

:meth:`Tracer.install` rebinds every module-level name (and class
attribute) in the imported ``genusfields`` modules that refers to a traced
function, so calls made inside the package, such as ``polyring.pow_mod``
from ``is_irreducible`` or ``kummer.factor`` from ``normalize``, pass
through the wrapper too.  :meth:`Tracer.uninstall` puts the originals back.

Each timed call records a span (name, start, end, parent span, job id) in
flat arrays kept in memory; :meth:`Tracer.write_spans` writes them out when
the run ends.  A span's self time is its duration minus the durations of
its direct child spans, and is summed per name as the call returns.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

PACKAGE = "genusfields"
# span name -> (module, attribute path, reported per-job figures);
# "calls" is the number of calls, "s" the self time
TIMED = {
    "report.parse_input": ("report", "parse_input", ("s",)),
    "report.audit": ("report", "_audit", ("s",)),
    "report.render": ("report", "Report.to_json", ("s",)),
    "ffield.build_field": ("ffield", "build_field", ("calls", "s")),
    "ffield.dlog": ("ffield", "FqField.dlog", ("calls", "s")),
    "polyring.factor": ("polyring", "factor", ("calls", "s")),
    "polyring.squarefree_decomposition":
        ("polyring", "squarefree_decomposition", ("s",)),
    "polyring.is_irreducible": ("polyring", "is_irreducible", ("calls", "s")),
    "polyring.pow_mod": ("polyring", "pow_mod", ("calls", "s")),
    "polyring.gcd": ("polyring", "gcd", ("calls", "s")),
    "polyring.valuation": ("polyring", "valuation", ("calls", "s")),
    "groups.smith_normal_form": ("groups", "smith_normal_form", ("calls", "s")),
    "groups.member": ("groups", "RadicandGroup.member", ("calls", "s")),
    "kummer.normalize": ("kummer", "normalize", ("s",)),
    "kummer.ramification_lcm_oracle":
        ("kummer", "ramification_lcm_oracle", ("s",)),
    "kummer.ramification_indices": ("kummer", "ramification_indices", ("calls",)),
    "genus.clement_genus_field": ("genus", "clement_genus_field", ("s",)),
    "genus.rarzvi_genus_field": ("genus", "rarzvi_genus_field", ("s",)),
    "genus.compare": ("genus", "compare", ("s",)),
    "genus.signed_closed_form_agrees":
        ("genus", "signed_closed_form_agrees", ("s",)),
}

# counted, not timed: F_q element arithmetic is too fine-grained for spans
ELEM_OPS = "ffield.elem_ops"
ELEM_OP_NAMES = ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__")

JOB = "job"


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        self.names: list[str] = [JOB]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []      # [span id, child time] per open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.elem_ops = [0]               # calls of the FqElem operators
        self.job = -1
        self.factored: set = set()       # (job, radicand) pairs seen by factor
        self._undo: list = []

    # -- spans ------------------------------------------------------------

    def _open(self, idx: int) -> list:
        sid = len(self.span_start)
        self.span_name.append(idx)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        frame = [sid, 0.0]
        self.stack.append(frame)
        self.span_start.append(perf_counter())
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = perf_counter()
        sid = frame[0]
        self.stack.pop()
        self.span_end[sid] = end
        dur = end - self.span_start[sid]
        self.self_s[name] += dur - frame[1]
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1] += dur

    def run_job(self, job: int, fn, *args):
        """Call ``fn(*args)`` inside the root span of job number ``job``."""
        self.job = job
        frame = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(JOB, frame)

    def _timed(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, frame)
        return wrapper

    def _factor_probe(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            tracer.factored.add((tracer.job, f))
            return fn(f, *args, **kwargs)
        return wrapper

    def _counted(self, fn):
        cell = self.elem_ops

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, (mod_name, path, _) in TIMED.items():
            owner, attr = _resolve(sys.modules[f"{PACKAGE}.{mod_name}"], path)
            original = owner.__dict__[attr]
            wrapper = self._timed(name, original)
            if name == "polyring.factor":
                wrapper = self._factor_probe(wrapper)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)
        elem = sys.modules[f"{PACKAGE}.ffield"].FqElem
        for op in ELEM_OP_NAMES:
            original = elem.__dict__[op]
            self._rebind(elem, op, original, self._counted(original))

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def per_job(self, jobs: int, snf) -> dict:
        """Per-layer figures per job of the traced pass; ``snf`` is the
        ``cache_info()`` of the SNF cache after the pass."""
        out = {}
        for name, (_, _, figures) in TIMED.items():
            if "calls" in figures:
                out[f"{name}.calls"] = self.calls[name] / jobs
            if "s" in figures:
                out[f"{name}.s"] = self.self_s[name] / jobs
        out[f"{ELEM_OPS}.calls"] = self.elem_ops[0] / jobs
        calls = self.calls["polyring.factor"]
        out["polyring.factor.distinct_ratio"] = (
            len(self.factored) / calls if calls else 1.0)
        out["groups.snf_cache.hits"] = snf.hits / jobs
        out["groups.snf_cache.misses"] = snf.misses / jobs
        looked = snf.hits + snf.misses
        out["groups.snf_cache.hit_ratio"] = snf.hits / looked if looked else 1.0
        return out

    def write_spans(self, path) -> int:
        """Write every span as a tab-separated line (gzip); returns the count."""
        n = len(self.span_start)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tjob\tname\tstart_s\tend_s\n")
            names, par, job = self.names, self.span_parent, self.span_job
            st, en, nm = self.span_start, self.span_end, self.span_name
            for i in range(n):
                out.write(f"{i}\t{par[i]}\t{job[i]}\t{names[nm[i]]}\t"
                          f"{st[i]:.9f}\t{en[i]:.9f}\n")
        return n
