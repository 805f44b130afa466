"""The theorems and lemmas the library checks, each written once.

Every statement has one shape: for graphs of order n (side n for balanced
bipartite graphs) and a parameter k that meet an order precondition, if a
quantity of the graph (edge count, minimum degree, a spectral radius, a
minimum degree sum) compares with a threshold in (n, k), and possibly
delta >= k, then the graph is Hamiltonian (traceable) or one of an
exceptional family.  ``STATEMENTS`` lists each atomic statement once, with
its threshold, order precondition and exceptional families; multi-part
theorems are split into parts ``.1`` (traceability) and ``.2``
(Hamiltonicity).

The certifier cascades walk this table with k = delta(G), on one graph's
``GraphValues``; ``harness.verify_theorem`` evaluates it with a campaign's k,
on the statistics columns of a block of rows of any space.
``Statement.hypothesis`` is written with plain operators so that both give
the same answer.  Tolerance applies to spectral quantities only.

Refusals.  A campaign refuses a space whose order can never meet a
statement's precondition (or a k below the statement's range) with the
statement's ``refusal`` text.  Statements without a ``refusal`` text, and
one part of a two-part theorem whose k is out of range, only make each
graph fail the hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .families import FamilySpec, construct, recognize, spanning_subgraph_of
from .graphs import BipartiteGraph, complement, quasi_complement
from .spectral import q_radius, spectral_radius

__all__ = ["Statement", "STATEMENTS", "VERIFY_TARGETS", "GraphValues", "holds", "statements_for"]

SPECTRAL = frozenset(["rho", "q", "rho_complement", "rho_qc", "q_qc"])


def holds(value, relation: str, threshold, tol):
    """``value relation threshold`` with the tolerance band; numpy columns or Python numbers.

    gt is value > threshold + tol, ge is value >= threshold - tol, le is
    value <= threshold + tol.  NaN fails all three.
    """
    if relation == "gt":
        return value > threshold + tol
    if relation == "ge":
        return value >= threshold - tol
    return value <= threshold + tol


@lru_cache(maxsize=None)
def family_radius(quantity: str, family: str, n: int, k: int) -> float:
    """rho (quantity "rho") or q of the family member with parameters (n, k)."""
    g = construct(FamilySpec(family, n=n, k=k))
    return (spectral_radius(g) if quantity == "rho" else q_radius(g)).value


@dataclass(frozen=True)
class Statement:
    """One atomic statement.

    id: "fn_rho.2", "moon_moser.edges", "ore", ...; domain: "graph" or
    "bipartite".  The hypothesis is ``quantity relation threshold(n, k)``,
    plus delta >= k when ``delta_ge_k``, plus the graph check ``graph_check``
    ("closed", "b_closed" or "not_ham") that needs the graph itself.  The
    precondition is k >= k_min and n >= order(k).

    conclusion: "ham" / "trace" (Hamiltonian / traceable, or one of
    ``families(n, k)``, recognized up to isomorphism or, when ``spanning``,
    as a spanning supergraph), or a named structural check ("clique",
    "biclique").  ``any_k``: a campaign given no k checks the hypothesis for
    every admissible k.
    """

    id: str
    domain: str
    quantity: str
    relation: str
    threshold: Callable[[int, Optional[int]], float]
    conclusion: str = "ham"
    families: Callable[[int, Optional[int]], list] = lambda n, k: []
    spanning: bool = False
    order: Callable[[Optional[int]], float] = lambda k: 0
    k_min: Optional[int] = None
    delta_ge_k: bool = False
    graph_check: Optional[str] = None
    any_k: bool = False
    refusal: Optional[str] = None

    @property
    def theorem(self) -> str:
        return self.id.partition(".")[0]

    @property
    def part(self) -> str:
        return self.id.partition(".")[2]

    @property
    def needs_k(self) -> bool:
        """Does a campaign have to give k?"""
        return (self.k_min is not None or self.delta_ge_k) and not self.any_k

    def admits(self, n: Optional[int], k: Optional[int]) -> bool:
        """The precondition; an unknown order (None) checks k alone."""
        return (self.k_min is None or k >= self.k_min) and (n is None or n >= self.order(k))

    def refuses(self, n: Optional[int], k: Optional[int]) -> Optional[str]:
        """The error text when no graph of order n (None: unknown) can meet the precondition."""
        if self.refusal is None or self.admits(n, k):
            return None
        if self.part and self.k_min is not None and k < self.k_min:
            return None  # the other part of the theorem may still apply
        return ("space does not satisfy the statement's preconditions: "
                + self.refusal.format(n=n, k=k, order=self.order(k)))

    def hypothesis(self, vals, n: int, k: Optional[int], tol: float):
        """The hypothesis less its graph check, on one graph's values or a chunk's columns."""
        if self.any_k:
            out, kk = False, self.k_min
            while self.admits(n, kk):
                out = out | self._holds(vals, n, kk, tol)
                kk += 1
            return out
        return self._holds(vals, n, k, tol) if self.admits(n, k) else False

    def exception(self, g, n: int, k: Optional[int]) -> Optional[FamilySpec]:
        """The first of ``families(n, k)`` that g belongs to (as a spanning
        subgraph when ``spanning``), or None."""
        for spec in self.families(n, k):
            if (spanning_subgraph_of(g, spec.family, spec.n, spec.k) if self.spanning
                    else recognize(g, spec.family, n=spec.n, k=spec.k)):
                return spec
        return None

    def _holds(self, vals, n, k, tol):
        ok = holds(vals[self.quantity], self.relation, self.threshold(n, k),
                   tol if self.quantity in SPECTRAL else 0)
        return ok & (vals["delta"] >= k) if self.delta_ge_k else ok


# ---------------------------------------------------------------------------
# Shared thresholds, orders and families
# ---------------------------------------------------------------------------

def _ham_order(k):
    """The clique lemma's order bound, which the Hamiltonicity parts inherit."""
    return 6 * k + 5


def _trace_order(k):
    return 6 * k + 10


def _closure_edges(n, k):
    """Edge bound of the clique lemma and the refined Hamilton lemma."""
    return math.comb(n - k - 1, 2) + (k + 1) ** 2


def _bip_closure_edges(n, k):
    """Edge bound of the biclique lemma and the refined bipartite lemma."""
    return n * (n - k - 1) + (k + 1) ** 2


def _gammas(n):
    return [FamilySpec("Gamma1"), FamilySpec("Gamma2")] if n == 4 else []


def _qc_families(n, k):
    """Exceptions to q(quasi-complement) <= n and to Ferrara-Jacobson-Powell."""
    return [FamilySpec("Bset", n=n, k=j) for j in range(1, n // 2 + 1)] + _gammas(n)


def _h_if(n, order):
    return [FamilySpec("H", n=n)] if n == order else []


STATEMENTS = (
    Statement("ore", "graph", "e", "gt", lambda n, k: math.comb(n - 1, 2) + 1),
    Statement("dirac", "graph", "two_delta", "ge", lambda n, k: n, order=lambda k: 3),
    Statement(
        "erdos", "graph", "e", "gt",
        lambda n, k: max(math.comb(n - k, 2) + k * k,
                         math.comb((n + 2) // 2, 2) + ((n - 1) // 2) ** 2),
        delta_ge_k=True,
        order=lambda k: 2 * k + 1 if k >= 1 else math.inf,  # 1 <= k <= (n-1)/2
        refusal="erdos needs 1 <= k <= (n-1)/2, got n={n}, k={k}",
    ),
    # Fiedler-Nikiforov
    Statement("fn_rho.1", "graph", "rho", "ge", lambda n, k: n - 2, "trace",
              lambda n, k: [FamilySpec("barN", n=n, k=0)]),
    Statement("fn_rho.2", "graph", "rho", "gt", lambda n, k: n - 2, "ham",
              lambda n, k: [FamilySpec("N", n=n, k=1)], order=lambda k: 3),
    Statement("fn_rho_complement.1", "graph", "rho_complement", "le",
              lambda n, k: math.sqrt(n - 1), "trace",
              lambda n, k: [FamilySpec("barL", n=n, k=0)], order=lambda k: 2),
    Statement("fn_rho_complement.2", "graph", "rho_complement", "le",
              lambda n, k: math.sqrt(n - 2), "ham",
              lambda n, k: [FamilySpec("L", n=n, k=1)], order=lambda k: 3),
    # Yu-Fan
    Statement("yu_fan_q.1", "graph", "q", "ge", lambda n, k: 2 * n - 4, "trace",
              lambda n, k: [FamilySpec("barN", n=n, k=0)], order=lambda k: 6,
              refusal="yu_fan_q needs order n >= 6, got n={n}"),
    Statement("yu_fan_q.2", "graph", "q", "gt", lambda n, k: 2 * n - 4, "ham",
              lambda n, k: [FamilySpec("N", n=n, k=1)], order=lambda k: 6,
              refusal="yu_fan_q needs order n >= 6, got n={n}"),
    # the main theorems
    Statement("main_rho.1", "graph", "rho", "ge", lambda n, k: family_radius("rho", "barN", n, k),
              "trace", lambda n, k: [FamilySpec("barN", n=n, k=k)], delta_ge_k=True,
              order=lambda k: max(_trace_order(k), (k * k + 7 * k + 8) / 2),
              refusal="order threshold not met: need n >= {order}, got n={n}"),
    Statement("main_rho.2", "graph", "rho", "ge", lambda n, k: family_radius("rho", "N", n, k),
              "ham", lambda n, k: [FamilySpec("N", n=n, k=k)], delta_ge_k=True, k_min=1,
              order=lambda k: max(_ham_order(k), (k * k + 6 * k + 4) / 2),
              refusal="order threshold not met: need n >= {order}, got n={n}"),
    Statement("main_q.1", "graph", "q", "ge", lambda n, k: family_radius("q", "barN", n, k),
              "trace", lambda n, k: [FamilySpec("barN", n=n, k=k)], delta_ge_k=True,
              order=lambda k: max(_trace_order(k), (3 * k * k + 9 * k + 8) / 2),
              refusal="order threshold not met: need n >= {order}, got n={n}"),
    Statement("main_q.2", "graph", "q", "ge", lambda n, k: family_radius("q", "N", n, k),
              "ham", lambda n, k: [FamilySpec("N", n=n, k=k)], delta_ge_k=True, k_min=1,
              order=lambda k: max(_ham_order(k), (3 * k * k + 5 * k + 4) / 2),
              refusal="order threshold not met: need n >= {order}, got n={n}"),
    Statement("main_rho_complement.1", "graph", "rho_complement", "le",
              lambda n, k: math.sqrt((k + 1) * (n - k - 1)), "trace",
              lambda n, k: [FamilySpec("barL", n=n, k=k)] + _h_if(n, 2 * k + 2),
              delta_ge_k=True, order=lambda k: 2 * k + 2,
              refusal="main_rho_complement part 1 needs n >= 2k+2 = {order}"),
    Statement("main_rho_complement.2", "graph", "rho_complement", "le",
              lambda n, k: math.sqrt(k * (n - k - 1)), "ham",
              lambda n, k: [FamilySpec("L", n=n, k=k)] + _h_if(n, 2 * k + 1),
              delta_ge_k=True, k_min=1, order=lambda k: 2 * k + 1,
              refusal="main_rho_complement part 2 needs n >= 2k+1 = {order}"),
    # structural lemmas
    Statement("ainouche_christofides", "graph", "min_ds", "ge", lambda n, k: n - 1, "ham",
              lambda n, k: [FamilySpec("L", n=n, k=j) for j in range(1, (n - 1) // 2 + 1)]
              + ([FamilySpec("H", n=n)] if n % 2 == 1 else []),
              order=lambda k: 3, graph_check="not_ham"),
    Statement("clique_lemma", "graph", "e", "gt", _closure_edges, "clique", k_min=1,
              order=_ham_order, graph_check="closed",
              refusal="clique_lemma needs k >= 1 and n >= 6k+5, got n={n}, k={k}"),
    Statement("refined_hamilton_lemma", "graph", "e", "gt", _closure_edges, "ham",
              lambda n, k: [FamilySpec("L", n=n, k=k), FamilySpec("N", n=n, k=k)],
              spanning=True, delta_ge_k=True, k_min=1, order=_ham_order,
              refusal="refined_hamilton_lemma needs k >= 1 and n >= 6k+5, got n={n}, k={k}"),
    Statement("refined_traceable_lemma", "graph", "e", "gt",
              lambda n, k: math.comb(n - k - 2, 2) + (k + 1) * (k + 2), "trace",
              lambda n, k: [FamilySpec("barL", n=n, k=k), FamilySpec("barN", n=n, k=k)],
              spanning=True, delta_ge_k=True, k_min=0, order=_trace_order,
              refusal="refined_traceable_lemma needs k >= 0 and n >= 6k+10, got n={n}, k={k}"),
    # balanced bipartite graphs of side n
    Statement("moon_moser.delta", "bipartite", "two_delta", "gt", lambda n, k: n,
              order=lambda k: 2, refusal="moon_moser needs side >= 2"),
    Statement("moon_moser.edges", "bipartite", "e", "gt",
              lambda n, k: max(n * (n - k) + k * k, n * (n - n // 2) + (n // 2) ** 2),
              delta_ge_k=True, k_min=1, order=lambda k: 2 * k, any_k=True),
    Statement("ferrara_jacobson_powell", "bipartite", "min_cross_ds", "ge", lambda n, k: n,
              "ham", _qc_families, order=lambda k: 2, graph_check="not_ham",
              refusal="ferrara_jacobson_powell needs side >= 2"),
    Statement("bip_rho", "bipartite", "rho", "ge", lambda n, k: family_radius("rho", "B", n, k),
              "ham", lambda n, k: [FamilySpec("B", n=n, k=k)], delta_ge_k=True, k_min=1,
              order=lambda k: (k + 1) ** 2,
              refusal="bip_rho needs k >= 1 and side n >= (k+1)^2, got n={n}, k={k}"),
    Statement("bip_q", "bipartite", "q", "ge", lambda n, k: family_radius("q", "B", n, k),
              "ham", lambda n, k: [FamilySpec("B", n=n, k=k)], delta_ge_k=True, k_min=1,
              order=lambda k: (k + 1) ** 2,
              refusal="bip_q needs k >= 1 and side n >= (k+1)^2, got n={n}, k={k}"),
    Statement("bip_rho_qc", "bipartite", "rho_qc", "le", lambda n, k: math.sqrt(k * (n - k)),
              "ham", lambda n, k: [FamilySpec("Bset", n=n, k=k)] + (_gammas(n) if k == 2 else []),
              delta_ge_k=True, k_min=1, order=lambda k: 2 * k,
              refusal="bip_rho_qc needs k >= 1 and side n >= 2k, got n={n}, k={k}"),
    Statement("bip_q_qc", "bipartite", "q_qc", "le", lambda n, k: float(n), "ham", _qc_families,
              order=lambda k: 2, refusal="bip_q_qc needs side >= 2"),
    Statement("biclique_lemma", "bipartite", "e", "gt", _bip_closure_edges, "biclique",
              k_min=1, order=lambda k: 2 * k + 1, graph_check="b_closed",
              refusal="biclique_lemma needs k >= 1 and side n >= 2k+1, got n={n}, k={k}"),
    Statement("refined_bipartite_lemma", "bipartite", "e", "gt", _bip_closure_edges, "ham",
              lambda n, k: [FamilySpec("B", n=n, k=k)], spanning=True, delta_ge_k=True,
              k_min=1, order=lambda k: 2 * k + 1,
              refusal="refined_bipartite_lemma needs k >= 1 and side n >= 2k+1, got n={n}, k={k}"),
)

# each theorem, then its numbered parts
VERIFY_TARGETS = tuple(dict.fromkeys(
    name for st in STATEMENTS for name in (st.theorem, st.id)
    if name == st.theorem or st.part.isdigit()
))


def statements_for(target: str) -> list[Statement]:
    """The atomic statements of a verification target, e.g. both parts of "fn_rho"."""
    if target not in VERIFY_TARGETS:
        raise ValueError(f"unknown verification target {target!r}")
    return [st for st in STATEMENTS if target in (st.id, st.theorem)]


# ---------------------------------------------------------------------------
# Per-graph values
# ---------------------------------------------------------------------------

class GraphValues(dict):
    """A graph's statement quantities, each computed on first read.

    ``precomputed`` seeds any of them.  For a BipartiteGraph, rho and q are
    those of the bipartite graph and rho_qc / q_qc those of its
    quasi-complement; min_cross_ds runs over the non-adjacent cross pairs.
    """

    def __init__(self, g, precomputed: Optional[dict] = None):
        super().__init__(precomputed or {})
        self.g = g

    def __missing__(self, key: str):
        self[key] = value = self._compute(key)
        return value

    def _compute(self, key: str):
        g = self.g
        if key == "e":
            return g.edge_count
        if key == "delta":
            if isinstance(g, BipartiteGraph):
                return g.min_degree() if (g.nx or g.ny) else 0
            return min(g.degrees()) if g.n else 0
        if key == "two_delta":
            return 2 * self["delta"]
        if key == "rho":
            return float(spectral_radius(g).value)
        if key == "q":
            return float(q_radius(g).value)
        if key == "rho_complement":
            return float(spectral_radius(complement(g)).value)
        if key == "rho_qc":
            return float(spectral_radius(quasi_complement(g).to_graph()).value)
        if key == "q_qc":
            return float(q_radius(quasi_complement(g).to_graph()).value)
        if key == "min_ds":
            degs = g.degrees()
            return min((degs[u] + degs[v] for u in range(g.n) for v in range(u + 1, g.n)
                        if not g.has_edge(u, v)), default=math.inf)
        if key == "min_cross_ds":
            xd, yd = g.x_degrees(), g.y_degrees()
            return min((xd[i] + yd[j] for i in range(g.nx) for j in range(g.ny)
                        if not g.has_edge(i, j)), default=math.inf)
        raise KeyError(key)
