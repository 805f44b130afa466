"""Theorem cascades certifying Hamiltonicity / traceability with evidence.

Each cascade is an ordered walk over statements of ``statements.STATEMENTS``:
cheap integer conditions first (dirac, ore, erdos; moon_moser for the
bipartite branch), then adjacency-rho conditions, then signless-Laplacian
conditions, then complement / quasi-complement conditions.  A statement whose
precondition fails is recorded as skipped.  Each inequality is encoded
exactly as stated (strict vs non-strict), with a +-tolerance guard band: a
strict comparison landing inside the band is reported as borderline rather
than certified, since the equality cases are precisely where the exceptional
graphs live.

The minimum-degree parameter is always instantiated as k = delta(G), the
strongest admissible choice.  When a theorem's hypotheses hold but the graph
matches the theorem's exceptional family, the verdict is "exceptional" with
the family identified; otherwise "certified_positive".  If nothing fires the
verdict is "inconclusive", optionally resolved by the exact oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .families import FamilySpec, recognize
from .graphs import BipartiteGraph, Graph, degree_profile
from .oracle import DEFAULT_BUDGET, is_hamiltonian, is_traceable
from .spectral import DEFAULT_TOL, _check_tol
from .statements import SPECTRAL, STATEMENTS, GraphValues, holds

__all__ = [
    "Certificate",
    "certify_hamiltonicity",
    "certify_traceability",
    "certify_bipartite_hamiltonicity",
    "THEOREM_IDS",
]


def _statements(*ids):
    """(certificate theorem name, statement) pairs in cascade order.

    A numbered part goes by its theorem (fn_rho.2 is fn_rho); moon_moser.delta
    is moon_moser_delta.
    """
    by_id = {st.id: st for st in STATEMENTS}
    return [(st.theorem if st.part.isdigit() else st.id.replace(".", "_"), st)
            for st in map(by_id.get, ids)]


_HAM = _statements("dirac", "ore", "erdos", "fn_rho.2", "main_rho.2", "yu_fan_q.2", "main_q.2",
                   "fn_rho_complement.2", "main_rho_complement.2")
_TRACE = _statements("fn_rho.1", "main_rho.1", "yu_fan_q.1", "main_q.1", "fn_rho_complement.1",
                     "main_rho_complement.1")
_BIPARTITE = _statements("moon_moser.delta", "moon_moser.edges", "bip_rho", "bip_q",
                         "bip_rho_qc", "bip_q_qc")
# evidence names of the integer checks; spectral checks are named by their quantity
_CHECK_NAMES = {"two_delta": "min_degree", "e": "edges"}

THEOREM_IDS = tuple(dict.fromkeys(name for name, _ in _HAM + _TRACE + _BIPARTITE))


@dataclass(frozen=True)
class Certificate:
    """Outcome of the certifier cascade.

    verdict: certified_positive | exceptional | inconclusive | oracle_resolved.
    evidence records every numeric value and slack used, plus the cascade
    trail, so a fired theorem can be re-checked without recomputation.
    """

    verdict: str
    theorem: Optional[str]
    evidence: dict
    exceptional: Optional[FamilySpec] = None
    witness: Optional[tuple[int, ...]] = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "theorem": self.theorem,
            "evidence": self.evidence,
            "exceptional": self.exceptional.text() if self.exceptional else None,
            "witness": list(self.witness) if self.witness else None,
        }


@dataclass
class _Cascade:
    evidence: dict
    tol: float
    trail: list = field(default_factory=list)
    borderline: list = field(default_factory=list)

    def check(self, theorem, quantity, value, relation, threshold) -> bool:
        """One statement's comparison; a strict spectral one inside the band is borderline."""
        spectral = quantity in SPECTRAL
        if spectral and relation == "gt" and abs(value - threshold) <= self.tol:
            self.borderline.append({"theorem": theorem, "check": quantity,
                                    "value": value, "threshold": threshold})
            return False
        fired = holds(value, relation, threshold, self.tol if spectral else 0)
        if fired:
            self._note(theorem, _CHECK_NAMES.get(quantity, quantity), value, threshold, relation)
        return fired

    def _note(self, theorem, name, value, threshold, relation):
        checks = self.evidence.setdefault("checks", {}).setdefault(theorem, {})
        slack = (threshold - value) if relation == "le" else (value - threshold)
        checks[name] = {
            "value": float(value),
            "threshold": float(threshold),
            "relation": relation,
            "slack": float(slack),
        }

    def record(self, theorem: str, status: str):
        self.trail.append([theorem, status])

    def finish(self, verdict, theorem=None, exceptional=None, witness=None) -> Certificate:
        self.evidence["cascade"] = self.trail
        if self.borderline:
            self.evidence["borderline"] = self.borderline
        return Certificate(verdict, theorem, self.evidence, exceptional, witness)


def _resolve(cascade, g, use_oracle, oracle, budget):
    """Shared inconclusive / oracle_resolved tail."""
    if not use_oracle:
        return cascade.finish("inconclusive")
    res = oracle(g, budget=budget)
    cascade.evidence["oracle"] = res.status
    if res.status == "aborted":
        return cascade.finish("inconclusive")
    return cascade.finish("oracle_resolved", witness=res.witness)


def _fire(cascade, theorem, g, exceptionals) -> Certificate:
    cascade.record(theorem, "fired")
    for spec in exceptionals:
        if recognize(g, spec.family, n=spec.n, k=spec.k):
            cascade.evidence["exceptional"] = spec.text()
            return cascade.finish("exceptional", theorem, exceptional=spec)
    return cascade.finish("certified_positive", theorem)


def _walk(walk, g, vals, ev, n, k, tol, use_oracle, oracle, budget) -> Certificate:
    """Walk one cascade of statements in order; the first that fires decides."""
    c = _Cascade(ev, tol)
    for theorem, st in walk:
        if not st.admits(n, k):
            c.record(theorem, "skipped")
            continue
        value = vals[st.quantity]
        if st.quantity in SPECTRAL:
            ev[st.quantity] = value
        if c.check(theorem, st.quantity, value, st.relation, st.threshold(n, k)):
            return _fire(c, theorem, g, st.families(n, k))
        c.record(theorem, "failed")
    return _resolve(c, g, use_oracle, oracle, budget)


def certify_hamiltonicity(
    g: Graph,
    use_oracle: bool = False,
    tol: float = DEFAULT_TOL,
    oracle_budget: int = DEFAULT_BUDGET,
    precomputed: Optional[dict] = None,
) -> Certificate:
    """Run the Hamiltonicity cascade on a graph of order >= 3."""
    if not isinstance(g, Graph):
        raise TypeError("certify_hamiltonicity expects a Graph")
    _check_tol(tol)
    n = g.n
    if n < 3:
        raise ValueError("Hamiltonicity certification needs n >= 3")
    _, delta, e = degree_profile(g)
    vals = GraphValues(g, {**(precomputed or {}), "e": e, "delta": delta})
    ev = {"mode": "hamiltonicity", "n": n, "e": e, "delta": delta, "k": delta, "tolerance": tol}
    return _walk(_HAM, g, vals, ev, n, delta, tol, use_oracle, is_hamiltonian, oracle_budget)


def certify_traceability(
    g: Graph,
    use_oracle: bool = False,
    tol: float = DEFAULT_TOL,
    oracle_budget: int = DEFAULT_BUDGET,
    precomputed: Optional[dict] = None,
) -> Certificate:
    """Run the traceability cascade (the part-(1) theorem clauses)."""
    if not isinstance(g, Graph):
        raise TypeError("certify_traceability expects a Graph")
    _check_tol(tol)
    n = g.n
    if n < 1:
        raise ValueError("traceability certification needs n >= 1")
    _, delta, e = degree_profile(g)
    vals = GraphValues(g, {**(precomputed or {}), "e": e, "delta": delta})
    ev = {"mode": "traceability", "part": 1, "n": n, "e": e, "delta": delta, "k": delta,
          "tolerance": tol}
    return _walk(_TRACE, g, vals, ev, n, delta, tol, use_oracle, is_traceable, oracle_budget)


def certify_bipartite_hamiltonicity(
    b: BipartiteGraph,
    use_oracle: bool = False,
    tol: float = DEFAULT_TOL,
    oracle_budget: int = DEFAULT_BUDGET,
    precomputed: Optional[dict] = None,
) -> Certificate:
    """Run the balanced-bipartite Hamiltonicity cascade (side size >= 2)."""
    if not isinstance(b, BipartiteGraph):
        raise TypeError("certify_bipartite_hamiltonicity expects a BipartiteGraph")
    _check_tol(tol)
    if not b.balanced:
        raise ValueError("bipartite certification needs a balanced bipartite graph")
    n = b.nx
    if n < 2:
        raise ValueError("bipartite certification needs side size >= 2")
    delta = b.min_degree()
    e = b.edge_count
    vals = GraphValues(b, {**(precomputed or {}), "e": e, "delta": delta})
    ev = {"mode": "bipartite_hamiltonicity", "side": n, "e": e, "delta": delta, "k": delta,
          "tolerance": tol}

    def oracle(bb, budget):
        return is_hamiltonian(bb.to_graph(), budget=budget)

    return _walk(_BIPARTITE, b, vals, ev, n, delta, tol, use_oracle, oracle, oracle_budget)
