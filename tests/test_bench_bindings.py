"""The library names the benchmark under ``perfbench/`` binds.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` of its ENTRIES,
and ``perfbench/workloads.py`` catches ``spectralham.ConvergenceError``,
runs ``harness.certifier_soundness_sweep`` and asks ``is_hamiltonian`` for
its "dp" and "backtracking" methods.  A change that deletes or renames one
of them breaks the benchmark, not the library's own tests, so this guard
checks them (it only reads ``perfbench/``).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import spectralham as sh
from spectralham.graphs import cycle_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attribute, span", _tracer().ENTRIES)
def test_every_traced_entry_point_resolves(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute)), span


def test_the_names_the_workloads_reach_resolve():
    assert issubclass(sh.ConvergenceError, Exception)
    assert callable(sh.harness.certifier_soundness_sweep)
    g = cycle_graph(6)
    assert sh.is_hamiltonian(g, method="dp").status == "yes"
    assert sh.is_hamiltonian(g, method="backtracking").status == "yes"
