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
from .graphs import BipartiteGraph, Graph
from .oracle import DEFAULT_BUDGET, _check_budget, is_hamiltonian, is_traceable
from .spectral import DEFAULT_TOL, _check_tol
from .statements import SPECTRAL, STATEMENTS, GraphValues

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

    Each step compares with ``Statement.holds_at``.  A strict spectral value
    inside the tolerance band fails and is recorded as borderline.  A fired
    statement's exceptional family makes the verdict "exceptional"; when
    nothing fires the oracle, if asked, resolves the graph.
    """
    trail, borderline = [], []
    theorem = spec = witness = None
    for name, st in walk:
        if not st.admits(n, k):
            trail.append([name, "skipped"])
            continue
        if st.quantity in SPECTRAL:
            ev[st.quantity] = vals[st.quantity]
        if st.holds_at(vals, n, k, tol):
            value, threshold = vals[st.quantity], st.threshold(n, k)
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
        if st.relation == "gt" and st.quantity in SPECTRAL:
            value, threshold = vals[st.quantity], st.threshold(n, k)
            if abs(value - threshold) <= tol:
                borderline.append({"theorem": name, "check": st.quantity,
                                   "value": value, "threshold": threshold})
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


# Each certifier: input type, minimum order and its error text, evidence head,
# cascade and oracle.  The order is n, or the side size of a balanced graph.
_CERTIFIERS = {
    "hamiltonicity": (Graph, 3, "Hamiltonicity certification needs n >= 3",
                      {"mode": "hamiltonicity"}, _HAM, is_hamiltonian),
    "traceability": (Graph, 1, "traceability certification needs n >= 1",
                     {"mode": "traceability", "part": 1}, _TRACE, is_traceable),
    "bipartite_hamiltonicity": (BipartiteGraph, 2, "bipartite certification needs side size >= 2",
                                {"mode": "bipartite_hamiltonicity"}, _BIPARTITE, is_hamiltonian),
}


def _certify(mode, g, use_oracle, tol, oracle_budget) -> Certificate:
    """Check the input, take k = delta(G) and walk the mode's cascade."""
    kind, min_order, order_error, head, walk, oracle = _CERTIFIERS[mode]
    if not isinstance(g, kind):
        raise TypeError(f"certify_{mode} expects a {kind.__name__}")
    _check_tol(tol)
    _check_budget(oracle_budget)
    bip = kind is BipartiteGraph
    if bip and not g.balanced:
        raise ValueError("bipartite certification needs a balanced bipartite graph")
    n = g.nx if bip else g.n
    if n < min_order:
        raise ValueError(order_error)
    vals = GraphValues(g)
    delta, e = vals["delta"], vals["e"]
    ev = {**head, "side" if bip else "n": n, "e": e, "delta": delta, "k": delta, "tolerance": tol}
    return _walk(walk, g, vals, ev, n, delta, tol, use_oracle, oracle, oracle_budget)


def certify_hamiltonicity(
    g: Graph,
    use_oracle: bool = False,
    tol: float = DEFAULT_TOL,
    oracle_budget: int = DEFAULT_BUDGET,
) -> Certificate:
    """Run the Hamiltonicity cascade on a graph of order >= 3."""
    return _certify("hamiltonicity", g, use_oracle, tol, oracle_budget)


def certify_traceability(
    g: Graph,
    use_oracle: bool = False,
    tol: float = DEFAULT_TOL,
    oracle_budget: int = DEFAULT_BUDGET,
) -> Certificate:
    """Run the traceability cascade (the part-(1) theorem clauses)."""
    return _certify("traceability", g, use_oracle, tol, oracle_budget)


def certify_bipartite_hamiltonicity(
    b: BipartiteGraph,
    use_oracle: bool = False,
    tol: float = DEFAULT_TOL,
    oracle_budget: int = DEFAULT_BUDGET,
) -> Certificate:
    """Run the balanced-bipartite Hamiltonicity cascade (side size >= 2)."""
    return _certify("bipartite_hamiltonicity", b, use_oracle, tol, oracle_budget)
