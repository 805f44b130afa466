"""Shared test helpers: independent brute-force oracles, exact root counts
and random models.

The brute-force routines here are deliberately naive (permutation scans,
subset scans) so they stay independent of the library's search code.  The
exact routines (integer characteristic polynomials, Sturm chains over
``Fraction``) check the library's floating-point eigenvalues without using
any of its code.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from spectralham.graphs import Graph, build_graph


def brute_hamiltonian(g: Graph) -> bool:
    """Try all (n-1)!/2 cyclic orders."""
    n = g.n
    if n < 3:
        return False
    for perm in itertools.permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue
        order = (0,) + perm
        if all(g.has_edge(order[i], order[(i + 1) % n]) for i in range(n)):
            return True
    return False


def brute_traceable(g: Graph) -> bool:
    n = g.n
    if n == 1:
        return True
    for perm in itertools.permutations(range(n)):
        if perm[0] > perm[-1]:
            continue
        if all(g.has_edge(perm[i], perm[i + 1]) for i in range(n - 1)):
            return True
    return False


def brute_clique_number(g: Graph) -> int:
    best = 1 if g.n else 0
    for r in range(2, g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                best = max(best, r)
                break
    return best


def brute_spanning_into(g: Graph, h: Graph) -> bool:
    """Is g isomorphic to a spanning subgraph of h (same order)?

    Plain backtracking over vertex bijections; high-degree g-vertices are
    placed first so infeasible maps fail early.
    """
    assert g.n == h.n
    n = g.n
    order = sorted(range(n), key=lambda v: -g.degree(v))
    hdeg = h.degrees()
    used = [False] * n
    mapping = [-1] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        dv = g.degree(v)
        for w in range(n):
            if used[w] or hdeg[w] < dv:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if g.has_edge(v, u) and not h.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if place(i + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return place(0)


def gnp(n: int, p: float, rng: np.random.Generator) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return build_graph(n, edges)


def random_connected(n: int, p: float, rng: np.random.Generator) -> Graph:
    while True:
        g = gnp(n, p, rng)
        if g.is_connected():
            return g


def random_regular(n: int, d: int, rng: np.random.Generator) -> Graph:
    """Connected d-regular graph by the pairing model; circulant fallback."""
    assert n * d % 2 == 0 and d < n
    for _ in range(300):
        stubs = list(range(n)) * d
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            g = build_graph(n, edges)
            if g.is_connected():
                return g
    # circulant C_n(1..d/2) (+ antipodal matching for odd d)
    edges = set()
    for off in range(1, d // 2 + 1):
        for v in range(n):
            edges.add((min(v, (v + off) % n), max(v, (v + off) % n)))
    if d % 2 == 1:
        for v in range(n // 2):
            edges.add((v, v + n // 2))
    return build_graph(n, edges)


def random_biregular(a: int, b: int, da: int, rng: np.random.Generator) -> Graph:
    """Connected semi-regular bipartite graph (degrees da on side A, db on B)."""
    assert (a * da) % b == 0
    db = a * da // b
    assert db <= a and da <= b
    for _ in range(300):
        xstubs = [i for i in range(a) for _ in range(da)]
        ystubs = [j for j in range(b) for _ in range(db)]
        rng.shuffle(ystubs)
        pairs = set(zip(xstubs, ystubs))
        if len(pairs) != a * da:
            continue
        g = build_graph(a + b, [(i, a + j) for i, j in pairs])
        if g.is_connected():
            return g
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def charpoly(m) -> list[int]:
    """Integer characteristic polynomial det(xI - M), highest degree first.

    Faddeev-LeVerrier in Python ints: M_k = M M_{k-1} + c_{k-1} I and
    c_k = -tr(M M_k) / k, where every division is exact for integer M.
    """
    a = np.array(m, dtype=object)
    n = a.shape[0]
    coeffs = [1]
    mk = np.zeros((n, n), dtype=object)
    for k in range(1, n + 1):
        mk = a.dot(mk)
        for i in range(n):
            mk[i, i] += coeffs[-1]
        am = a.dot(mk)
        tr = sum(am[i, i] for i in range(n))
        assert tr % k == 0
        coeffs.append(-tr // k)
    return coeffs


def _poly_eval(p, x):
    acc = Fraction(0)
    for c in p:
        acc = acc * x + c
    return acc


def _poly_rem(p, d):
    """Remainder of p divided by d (coefficient lists, highest degree first)."""
    r = [Fraction(c) for c in p]
    while len(r) >= len(d):
        f = r[0] / d[0]
        for i in range(len(d)):
            r[i] -= f * d[i]
        r.pop(0)
    while r and r[0] == 0:
        r.pop(0)
    return r


def sturm_chain(p) -> list[list[Fraction]]:
    """p, p', then negated remainders down to gcd(p, p').

    Counting sign changes of this chain counts distinct real roots, so the
    repeated eigenvalues graphs have need no special case.
    """
    deg = len(p) - 1
    chain = [[Fraction(c) for c in p], [Fraction(c * (deg - i)) for i, c in enumerate(p[:-1])]]
    while True:
        r = _poly_rem(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append([-c for c in r])


def _sign_changes(signs) -> int:
    signs = [s for s in signs if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def roots_above(chain, x: Fraction) -> int:
    """Distinct real roots of chain[0] greater than x, for x not a root.

    Sturm's theorem: sign changes at x minus sign changes at +infinity.
    """
    at_x = [(v > 0) - (v < 0) for v in (_poly_eval(q, x) for q in chain)]
    at_inf = [(q[0] > 0) - (q[0] < 0) for q in chain]
    return _sign_changes(at_x) - _sign_changes(at_inf)
