"""The names the benchmark harness in ``perfbench/`` resolves in the package.

``perfbench/tracer.py`` wraps the functions its ``TIMED`` table names and
the ``FqElem`` operators, reading each from its owner's ``__dict__``, and
``perfbench/worker.py`` clears and reads the SNF cache of
``groups._lattice_form``.  A refactor that renames or moves any of them
breaks the traced benchmark run; these tests catch it in the suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import genusfields
from genusfields import groups

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_exports_resolve():
    for name in genusfields.__all__:
        assert hasattr(genusfields, name), name


def test_traced_names_resolve(monkeypatch):
    tracer = load_tracer(monkeypatch)
    for span, (module, path, _) in tracer.TIMED.items():
        mod = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        owner, attr = tracer._resolve(mod, path)
        assert attr in vars(owner), span
    elem = importlib.import_module(f"{tracer.PACKAGE}.ffield").FqElem
    for op in tracer.ELEM_OP_NAMES:
        assert op in vars(elem), op


def test_snf_cache_is_inspectable():
    assert callable(groups._lattice_form.cache_info)
    assert callable(groups._lattice_form.cache_clear)
