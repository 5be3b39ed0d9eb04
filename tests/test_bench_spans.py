"""The benchmark's span tracer finds every entry point it wraps.

``bench/spans.py`` replaces module bindings of fltzlab's layer entry
points (``conside.hom_complex``, ``conside.rational_rank``, ...) with
recording wrappers, and reports a binding it cannot find as missing.
Here both benchmark modules are loaded read-only, the wrappers are
installed over the fltzlab modules and the workloads, as a traced
bench run installs them, and nothing may be missing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fltzlab import conside

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    """``spans`` and ``workloads`` from ``bench/``, without bytecode files."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    loaded = []
    for name in ("spans", "workloads"):
        spec = importlib.util.spec_from_file_location(
            f"_bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        loaded.append(module)
    return loaded


def install(spans, workloads):
    namespaces = [module for name, module in sorted(sys.modules.items())
                  if name.startswith("fltzlab.")] + [workloads]
    return spans.Installation(spans.Recorder(), namespaces)


def test_every_entry_point_is_bound(bench_modules):
    spans, workloads = bench_modules
    original = conside.hom_complex
    installed = install(spans, workloads)
    try:
        assert installed.missing == []
        assert conside.hom_complex is not original
    finally:
        installed.remove()
    assert conside.hom_complex is original


def test_a_dropped_binding_is_missing(bench_modules, monkeypatch):
    spans, workloads = bench_modules
    monkeypatch.delattr(conside, "rational_rank")
    installed = install(spans, workloads)
    try:
        assert installed.missing == ["fltzlab.conside.rational_rank"]
    finally:
        installed.remove()
