"""Seeded request stream for the single_graph workload.

The stream is a sequence of blocks of BLOCK requests.  Every block has the
same composition (the SLOTS table), and within a slot the orders and edge
densities are stratified by the request's index, so the seed draws only the
edges, the labels and the order of requests.  Run-to-run spread then
reflects the program rather than the draw.  Each request is (kind, graph6, slot, order), where kind names the CLI
command it mirrors: ``certify`` (``certify --oracle``), ``spectral`` or
``closure``.

Why the slots are what they are:

* ``near_erdos``: G(n, m) graphs at orders 10-20 whose edge count is within 3
  of the Erdos bound for k = delta, with one vertex of degree exactly k, so
  the integer conditions mostly fail and the spectral theorems decide.
* ``family_cheap``: N/L family members, unchanged or with one edge changed,
  that the cascade or the backtracking oracle settle quickly.
* ``dp_mid`` / ``dp_tail``: N_n^2 minus one edge away from its independent
  vertices.  These are non-Hamiltonian and defeat the backtracking probe, so
  at orders 12-20 they reach the subset-DP fallback; the tail slots at orders
  17-19 set the p99 latency.
* ``gnp_spectral`` / ``gnp_power``: G(n, p) at log-uniform orders 20-200
  (dense LAPACK path) and at uniform orders 201-500 (power-iteration path).
  The large orders are a fixed 12 per block because each costs up to 0.4 s.
* ``sparse_bipartite``: one even cycle (even blocks) or path (odd blocks) of
  order 220 per block.
  Today these raise ConvergenceError after about 4 s (the power-iteration
  defect); they stay in the stream and count as failures.  The order is kept
  low in the 201-500 range only because the time to fail grows with the order.
* ``closure``: G(n, p) at orders 10-20 with p in [0.3, 0.6].
"""

from __future__ import annotations

import math
import random

import spectralham as sh

# slot -> (kind, requests per block)
SLOTS = {
    "near_erdos": ("certify", 250),
    "family_cheap": ("certify", 40),
    "dp_mid": ("certify", 12),
    "dp_tail": ("certify", 6),
    "gnp_spectral": ("spectral", 140),
    "gnp_power": ("spectral", 12),
    "sparse_bipartite": ("spectral", 1),
    "closure": ("closure", 51),
}
BLOCK = sum(count for _, count in SLOTS.values())  # 512
DP_TAIL_ORDERS = (17, 17, 17, 17, 18, 19)


def erdos_bound(n: int, k: int) -> int:
    return max(math.comb(n - k, 2) + k * k, math.comb((n + 2) // 2, 2) + ((n - 1) // 2) ** 2)


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _gnp(rng, n, p):
    return sh.build_graph(n, [(u, v) for v in range(1, n) for u in range(v) if rng.random() < p])


def _stratum(rng, i, count):
    """A uniform draw from the i-th of ``count`` equal strata of [0, 1)."""
    return (i + rng.random()) / count


def _near_erdos(rng, i):
    n = 10 + i % 11
    k = (1, 2, 3)[i // 11 % 3]
    pairs = [(u, v) for v in range(1, n - 1) for u in range(v)]
    m = erdos_bound(n, k) + rng.randint(-3, 3)
    edges = rng.sample(pairs, min(len(pairs), m - k))
    edges += [(u, n - 1) for u in rng.sample(range(n - 1), k)]
    return _relabel(sh.build_graph(n, edges), rng)


def _family_member(rng, fam, n, k, op):
    g = sh.construct(sh.FamilySpec(fam, n=n, k=k))
    if op == "del":
        # Keep every degree >= 2 so the oracle cannot answer trivially.
        degs = g.degrees()
        g = g.without_edge(*rng.choice([e for e in g.edges() if min(degs[e[0]], degs[e[1]]) >= 3]))
    elif op == "add":
        g = g.with_edge(*rng.choice([(u, v) for v in range(1, n) for u in range(v) if not g.has_edge(u, v)]))
    return _relabel(g, rng)


def _family_cheap(rng, i):
    fam = rng.choice(("N", "L"))
    n = 10 + i % 11
    if i % 4 < 2:
        return _family_member(rng, fam, n, 1, rng.choice(("none", "add", "del")))
    if i % 4 == 2:
        return _family_member(rng, fam, n, rng.choice((2, 3)), "add")
    return _family_member(rng, "L", n, rng.choice((2, 3)), "none")


def _make(slot, rng, i, index):
    count = SLOTS[slot][1]
    if slot == "near_erdos":
        return _near_erdos(rng, i)
    if slot == "family_cheap":
        return _family_cheap(rng, i)
    if slot == "dp_mid":
        return _family_member(rng, "N", 10 + i % 7, 2, "del")
    if slot == "dp_tail":
        return _family_member(rng, "N", DP_TAIL_ORDERS[i], 2, "del")
    # Density strata run in a fixed shuffled order so order and density vary independently.
    p_stratum = (i * 11 + 3) % count
    if slot == "gnp_spectral":
        n = round(math.exp(math.log(20) + _stratum(rng, i, count) * math.log(10)))
        return _gnp(rng, n, 0.05 + 0.25 * _stratum(rng, p_stratum, count))
    if slot == "gnp_power":
        n = 201 + round(299 * _stratum(rng, i, count))
        return _gnp(rng, n, 0.05 + 0.25 * _stratum(rng, p_stratum, count))
    if slot == "sparse_bipartite":
        return _relabel(sh.cycle_graph(220) if index % 2 == 0 else sh.path_graph(220), rng)
    if slot == "closure":
        return _gnp(rng, 10 + i % 11, 0.3 + 0.3 * _stratum(rng, p_stratum, count))
    raise ValueError(slot)


def block(seed: int, index: int) -> list[tuple[str, str, str, int]]:
    """Block ``index`` of the stream for ``seed``: (kind, graph6, slot, order)."""
    rng = random.Random(f"single_graph/{seed}/{index}")
    out = []
    for slot, (kind, count) in SLOTS.items():
        for i in range(count):
            g = _make(slot, rng, i, index)
            out.append((kind, sh.graph6_encode(g), slot, g.n))
    rng.shuffle(out)
    return out
