"""Layer tracing from outside the library.

The tracer replaces the public entry points of each ``spectralham`` module
with timing wrappers while it is active.  Callers inside the package import
those functions by name (``from .oracle import is_hamiltonian``), so patching
the defining module alone would miss them: every ``spectralham.*`` module
binding that refers to the original function is patched, and restored on
exit.  ``numpy.linalg.eigvalsh`` is wrapped too, because the harness reaches
the batched eigensolver through it.

Each call records a span ``(id, parent, request, name, start_ns, end_ns,
outermost)`` in memory; ``outermost`` is false when the same entry point is
already on the stack (``construct`` recurses), so ``.s`` totals do not count
nested time twice.  Self time is a span's duration minus its children's.
Spans are written out as tab-separated lines by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

import spectralham as sh

# (module, attribute, span name) for every wrapped entry point; the layer is
# the span name's first component.
ENTRIES = (
    ("spectralham.harness", "verify_theorem", "harness.verify_theorem"),
    ("spectralham.harness", "certifier_soundness_sweep", "harness.certifier_soundness_sweep"),
    ("spectralham.spectral", "spectral_radius", "spectral.spectral_radius"),
    ("spectralham.spectral", "q_radius", "spectral.q_radius"),
    ("spectralham.spectral", "bound_report", "spectral.bound_report"),
    ("spectralham.spectral", "_power_iteration", "spectral.power_iteration"),
    ("spectralham.oracle", "is_hamiltonian", "oracle.is_hamiltonian"),
    ("spectralham.oracle", "is_traceable", "oracle.is_traceable"),
    ("spectralham.oracle", "_ham_subset_dp", "oracle.subset_dp"),
    ("spectralham.certifier", "certify_hamiltonicity", "certifier.certify_hamiltonicity"),
    ("spectralham.certifier", "certify_bipartite_hamiltonicity", "certifier.certify_bipartite_hamiltonicity"),
    ("spectralham.families", "construct", "families.construct"),
    ("spectralham.families", "recognize", "families.recognize"),
    ("spectralham.graphs", "graph6_decode", "graphs.graph6_decode"),
    ("spectralham.graphs", "graph6_encode", "graphs.graph6_encode"),
    ("spectralham.graphs", "complement", "graphs.complement"),
    ("spectralham.graphs", "quasi_complement", "graphs.quasi_complement"),
    ("spectralham.transforms", "bc_closure", "transforms.bc_closure"),
)
EIGVALSH = "spectral.batched_eigvalsh"
BATCH_ORDERS = (6, 7, 8)

# Entry points whose calls, total time and self time are reported.
TIMED = (
    "spectral.spectral_radius", "spectral.q_radius",
    "oracle.is_hamiltonian", "oracle.is_traceable",
    "certifier.certify_hamiltonicity", "certifier.certify_bipartite_hamiltonicity",
    "families.construct", "families.recognize",
    "graphs.graph6_decode", "graphs.graph6_encode", "graphs.complement", "graphs.quasi_complement",
    "transforms.bc_closure",
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder; use as a context manager around the traced work."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.counts = defaultdict(float)
        self.batch = defaultdict(lambda: [0, 0])  # order -> [matrices, ns]
        self.req = 0
        self._stack: list[int] = []
        self._depth = defaultdict(int)
        self._next = 1
        self._patched: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, depth, spans, clock = self._stack, self._depth, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else 0
            outer = depth[nid] == 0
            depth[nid] += 1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except sh.ConvergenceError:
                if name in ("spectral.spectral_radius", "spectral.q_radius"):
                    self.counts["spectral.convergence_errors"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                depth[nid] -= 1
                spans.append((sid, parent, self.req, nid, t0, t1, outer))
            if after is not None:
                after(result, args, t1 - t0)
            return result

        return traced

    def _after(self, name: str):
        c = self.counts
        if name == "harness.verify_theorem":
            def after(rep, args, ns):
                c["harness.processed"] += rep.processed
                c["harness.hypotheses"] += rep.hypothesis_count
        elif name == "harness.certifier_soundness_sweep":
            def after(summary, args, ns):
                c["harness.processed"] += summary["graphs"] + summary["bipartite_graphs"]
        elif name in ("spectral.spectral_radius", "spectral.q_radius"):
            def after(res, args, ns):
                c["spectral.iterations"] += res.iterations
        elif name == "oracle.is_hamiltonian":
            def after(res, args, ns):
                c["oracle.nodes"] += res.nodes
                c["oracle.aborted"] += res.status == "aborted"
        elif name.startswith("certifier."):
            def after(cert, args, ns):
                c["certifier.decided"] += cert.verdict in ("certified_positive", "exceptional")
                c["certifier.oracle_fallbacks"] += "oracle" in cert.evidence
        elif name == "families.recognize":
            def after(matched, args, ns):
                c["families.recognize.matches"] += bool(matched)
        elif name == "transforms.bc_closure":
            def after(res, args, ns):
                c["transforms.joins"] += res[1]
        else:
            after = None
        return after

    def _eigvalsh_after(self, result, args, ns):
        a = np.asarray(args[0])
        rec = self.batch[a.shape[-1]]
        rec[0] += a.shape[0] if a.ndim == 3 else 1
        rec[1] += ns

    def __enter__(self):
        for modname, attr, name in ENTRIES:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig, self._after(name))
            for mname, mod in list(sys.modules.items()):
                if mname == "spectralham" or mname.startswith("spectralham."):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, orig))
        orig = np.linalg.eigvalsh
        np.linalg.eigvalsh = self._wrap(EIGVALSH, orig, self._eigvalsh_after)
        self._patched.append((np.linalg, "eigvalsh", orig))
        return self

    def __exit__(self, *exc):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()
        return False

    # -- reduction ----------------------------------------------------------

    def metrics(self, wall_s: float, latencies: dict, kinds: dict) -> dict:
        """Per-layer metrics.

        ``latencies`` maps request id -> seconds for the traced requests that
        succeeded; ``kinds`` maps request id -> request kind where the
        workload has kinds.
        """
        child = defaultdict(int)
        name_of = {}
        for sid, parent, _req, nid, t0, t1, _outer in self.spans:
            child[parent] += t1 - t0
            name_of[sid] = nid
        calls = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        oracle_by_req = defaultdict(int)
        rho_by_req = defaultdict(int)
        rho_id = self.name_ids.get("spectral.spectral_radius")
        for sid, parent, req, nid, t0, t1, outer in self.spans:
            rho_by_req[req] += nid == rho_id
            dur = t1 - t0
            calls[nid] += 1
            if outer:
                total[nid] += dur
            self_ns[nid] += dur - child[sid]
            name = self.names[nid]
            if _layer(name) == "oracle" and (
                parent == 0 or _layer(self.names[name_of[parent]]) != "oracle"
            ):
                oracle_by_req[req] += dur

        def stat(name, kind):
            nid = self.name_ids.get(name)
            if nid is None:
                return 0
            return {"calls": calls[nid], "s": total[nid] / 1e9, "self_s": self_ns[nid] / 1e9}[kind]

        c = self.counts
        out = {}
        out["harness.verify_theorem.self_s"] = stat("harness.verify_theorem", "self_s")
        out["harness.certifier_soundness_sweep.self_s"] = stat("harness.certifier_soundness_sweep", "self_s")
        out["harness.processed"] = c["harness.processed"]
        out["harness.hypothesis_ratio"] = _ratio(c["harness.hypotheses"], c["harness.processed"])
        out[EIGVALSH + ".calls"] = stat(EIGVALSH, "calls")
        out[EIGVALSH + ".matrices"] = sum(m for m, _ in self.batch.values())
        out[EIGVALSH + ".s"] = stat(EIGVALSH, "s")
        out[EIGVALSH + ".share"] = _ratio(out[EIGVALSH + ".s"], wall_s)
        for order in BATCH_ORDERS:
            m, ns = self.batch.get(order, (0, 0))
            out[f"{EIGVALSH}.us_per_matrix.n{order}"] = _ratio(ns / 1e3, m)
        for name in TIMED:
            for kind in ("calls", "s", "self_s"):
                out[f"{name}.{kind}"] = stat(name, kind)
        out["spectral.bound_report.self_s"] = stat("spectral.bound_report", "self_s")
        out["spectral.power_iteration.calls"] = stat("spectral.power_iteration", "calls")
        spectral_reqs = [r for r in rho_by_req if kinds.get(r) == "spectral"]
        out["spectral.spectral_radius.per_spectral_request"] = _ratio(
            sum(rho_by_req[r] for r in spectral_reqs), len(spectral_reqs))
        out["spectral.iterations"] = c["spectral.iterations"]
        out["spectral.convergence_errors"] = c["spectral.convergence_errors"]
        out["oracle.nodes"] = c["oracle.nodes"]
        out["oracle.subset_dp.calls"] = stat("oracle.subset_dp", "calls")
        out["oracle.aborted"] = c["oracle.aborted"]
        certs = stat("certifier.certify_hamiltonicity", "calls") + stat(
            "certifier.certify_bipartite_hamiltonicity", "calls")
        out["certifier.decided_ratio"] = _ratio(c["certifier.decided"], certs)
        out["certifier.oracle_fallback_ratio"] = _ratio(c["certifier.oracle_fallbacks"], certs)
        out["families.recognize.match_ratio"] = _ratio(
            c["families.recognize.matches"], stat("families.recognize", "calls"))
        out["transforms.joins"] = c["transforms.joins"]

        # Slowest 1% of requests (at least one): share of their time in the oracle.
        ranked = sorted(latencies.items(), key=lambda kv: kv[1], reverse=True)
        tail = ranked[: max(1, math.ceil(len(ranked) / 100))]
        out["tail.oracle_share"] = _ratio(
            sum(oracle_by_req[r] for r, _ in tail) / 1e9, sum(s for _, s in tail))
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\trequest\tname\tstart_ns\tend_ns\n")
            names = self.names
            for sid, parent, req, nid, t0, t1, _outer in self.spans:
                fh.write(f"{sid}\t{parent}\t{req}\t{names[nid]}\t{t0}\t{t1}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
