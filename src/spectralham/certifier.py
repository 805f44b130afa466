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

from dataclasses import dataclass
from typing import Optional

from .families import FamilySpec
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


def _walk(walk, g, vals, ev, n, k, tol, use_oracle, oracle, budget) -> Certificate:
    """Walk one cascade of statements in order; the first that fires decides.

    A strict spectral comparison inside the tolerance band is borderline and
    fails.  A fired statement's exceptional family makes the verdict
    "exceptional"; when nothing fires the oracle, if asked, resolves the graph.
    """
    trail, borderline = [], []
    theorem = spec = witness = None
    for name, st in walk:
        if not st.admits(n, k):
            trail.append([name, "skipped"])
            continue
        value, threshold = vals[st.quantity], st.threshold(n, k)
        spectral = st.quantity in SPECTRAL
        if spectral:
            ev[st.quantity] = value
        if spectral and st.relation == "gt" and abs(value - threshold) <= tol:
            borderline.append({"theorem": name, "check": st.quantity,
                               "value": value, "threshold": threshold})
        elif holds(value, st.relation, threshold, tol if spectral else 0):
            slack = (threshold - value) if st.relation == "le" else (value - threshold)
            ev["checks"] = {name: {_CHECK_NAMES.get(st.quantity, st.quantity): {
                "value": float(value),
                "threshold": float(threshold),
                "relation": st.relation,
                "slack": float(slack),
            }}}
            trail.append([name, "fired"])
            theorem, spec = name, st.exception(g, n, k)
            if spec:
                ev["exceptional"] = spec.text()
            verdict = "exceptional" if spec else "certified_positive"
            break
        trail.append([name, "failed"])
    else:
        verdict = "inconclusive"
        if use_oracle:
            res = oracle(g, budget=budget)
            ev["oracle"] = res.status
            if res.status != "aborted":
                verdict, witness = "oracle_resolved", res.witness
    ev["cascade"] = trail
    if borderline:
        ev["borderline"] = borderline
    return Certificate(verdict, theorem, ev, spec, witness)


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
    return _walk(_BIPARTITE, b, vals, ev, n, delta, tol, use_oracle, is_hamiltonian,
                 oracle_budget)
