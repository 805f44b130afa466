import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from spectralham.families import FamilySpec, construct
from spectralham.graphs import (
    BipartiteGraph,
    as_graph,
    build_graph,
    complete_bipartite_graph,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    join,
    k_copies,
    path_graph,
    quasi_complement,
)
from spectralham.spectral import (
    ConvergenceError,
    bound_report,
    closed_form,
    q_radius,
    rho_complete_split,
    spectral_radius,
)
from spectralham.statements import GraphValues, family_radius

from conftest import (
    charpoly,
    gnp,
    random_biregular,
    random_connected,
    random_regular,
    roots_above,
    sturm_chain,
)

TOL = 1e-9


def test_spectral_radius_knowns():
    assert abs(spectral_radius(complete_graph(5)).value - 4) < TOL
    assert abs(spectral_radius(complete_bipartite_graph(2, 3)).value - math.sqrt(6)) < TOL
    assert abs(spectral_radius(cycle_graph(6)).value - 2) < TOL


def test_q_radius_knowns():
    assert abs(q_radius(complete_graph(5)).value - 8) < TOL
    assert abs(q_radius(complete_bipartite_graph(2, 3)).value - 5) < TOL
    assert abs(q_radius(cycle_graph(6)).value - 4) < TOL


def test_edgeless_and_errors():
    res = spectral_radius(empty_graph(4))
    assert res.value == 0.0 and res.method == "closed_form"
    assert q_radius(empty_graph(1)).value == 0.0
    with pytest.raises(ValueError):
        spectral_radius(empty_graph(0))
    # LAPACK is the one eigensolver route: no Jacobi solver, no second name for it
    for method in ("jacobi", "lapack"):
        with pytest.raises(ValueError, match="unknown method"):
            spectral_radius(cycle_graph(5), method=method)
        with pytest.raises(ValueError, match="unknown method"):
            q_radius(cycle_graph(5), method=method)


def test_residuals_reported():
    res = spectral_radius(complete_graph(8))
    assert res.method == "dense_eigensolver" and res.residual < 1e-9


def _integer_matrices(g):
    """Adjacency and signless Laplacian of g as lists of Python ints."""
    g = as_graph(g)
    a = [[int(g.has_edge(u, v)) for v in range(g.n)] for u in range(g.n)]
    return a, [[a[u][v] + (u == v) * sum(a[u]) for v in range(g.n)] for u in range(g.n)]


def _assert_top_root(m, lam):
    # no root of det(xI - M) lies above lam + 1e-9, and one lies above lam - 1e-9;
    # lam +- 1e-9 is never an integer, so never a root of the monic integer polynomial
    chain = sturm_chain(charpoly(m))
    eps = Fraction(1, 10**9)
    assert roots_above(chain, Fraction(lam) + eps) == 0, lam
    assert roots_above(chain, Fraction(lam) - eps) >= 1, lam


def _assert_lapack_exact(g):
    a, q = _integer_matrices(g)
    for m, res in ((a, spectral_radius(g)), (q, q_radius(g))):
        assert res.method in ("dense_eigensolver", "closed_form")
        _assert_top_root(m, res.value)


def test_lapack_matches_sturm_counts_on_families():
    k4, _ = _integer_matrices(complete_graph(4))
    assert charpoly(k4) == [1, 0, -6, -8, -3]  # (x - 3)(x + 1)^3
    chain = sturm_chain(charpoly(k4))
    assert [roots_above(chain, Fraction(x)) for x in (-2, 0, 4)] == [2, 1, 0]  # distinct roots
    # the criterion-2 families with their complements (quasi-complements for B) at n <= 12
    for n in range(2, 13):
        members, bips = _criterion2_members(n)
        for g in members:
            _assert_lapack_exact(g)
            _assert_lapack_exact(complement(g))
        for b in bips:
            _assert_lapack_exact(b)
            _assert_lapack_exact(quasi_complement(b))


def _criterion2_members(n):
    """The criterion-2 families at n: (barL, barN, L and N members; B members of side n)."""
    specs = [FamilySpec(fam, n=n, k=k)
             for fam in ("barL", "barN") for k in range(0, (n - 2) // 2 + 1)]
    specs += [FamilySpec(fam, n=n, k=k) for fam in ("L", "N") for k in range(1, (n - 1) // 2 + 1)]
    return ([construct(spec) for spec in specs],
            [construct(FamilySpec("B", n=n, k=k)) for k in range(1, n // 2 + 1)])


def _bits(x: float) -> str:
    return float(x).hex()


def _assert_values_match_results(g):
    """The value-only radii of g equal the public eigenpair routes' values bit for bit."""
    vals = GraphValues(g)
    if isinstance(g, BipartiteGraph):
        qc = quasi_complement(g)
        expect = {"rho": spectral_radius(g), "q": q_radius(g),
                  "rho_qc": spectral_radius(qc), "q_qc": q_radius(qc)}
    else:
        expect = {"rho": spectral_radius(g), "q": q_radius(g),
                  "rho_complement": spectral_radius(complement(g))}
    assert {key: _bits(vals[key]) for key in expect} == {
        key: _bits(res.value) for key, res in expect.items()}, g
    rep = bound_report(g)
    assert (_bits(rep.rho), _bits(rep.q)) == (_bits(expect["rho"].value), _bits(expect["q"].value))


def test_value_only_radii_match_eigenpair_routes_bitwise():
    # the helper that bound_report, GraphValues and family_radius read, against
    # spectral_radius / q_radius: G(n, p) draws (edgeless and complete included)
    # and their complements, balanced bipartite draws and their quasi-complements,
    # and the criterion-2 family members
    rng = np.random.default_rng(23)
    for n in range(1, 41):
        for g in (empty_graph(n), complete_graph(n), *(gnp(n, p, rng) for p in (0.2, 0.5, 0.8))):
            _assert_values_match_results(g)
            _assert_values_match_results(complement(g))
    for side in range(1, 21):
        full = (1 << side) - 1
        for rows in ((0,) * side, (full,) * side,
                     *(tuple(int(r) for r in rng.integers(0, full + 1, side)) for _ in range(3))):
            b = BipartiteGraph(side, side, rows)
            _assert_values_match_results(b)
            _assert_values_match_results(quasi_complement(b))
    for n in range(2, 13):
        members, bips = _criterion2_members(n)
        for g in members + bips:
            _assert_values_match_results(g)
    for quantity, fam, n, k in (("rho", "N", 11, 1), ("q", "barN", 16, 1), ("rho", "B", 4, 1),
                                ("q", "B", 9, 2)):
        res = (spectral_radius if quantity == "rho" else q_radius)(
            construct(FamilySpec(fam, n=n, k=k)))
        assert _bits(family_radius.__wrapped__(quantity, fam, n, k)) == _bits(res.value)


def test_certificates_and_bounds_solve_no_eigenvector(monkeypatch):
    # certificates, bound reports and family thresholds read eigenvalues alone:
    # the eigenpair route and its inverse-iteration solve must never run
    import spectralham.spectral as spectral
    from spectralham.certifier import (
        certify_bipartite_hamiltonicity,
        certify_hamiltonicity,
        certify_traceability,
    )

    def refuse(*args, **kwargs):
        raise AssertionError("an eigenvector was computed")

    monkeypatch.setattr(spectral, "_top_eigenpair_lapack", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    rng = np.random.default_rng(29)
    read = set()
    for n in range(6, 13):
        members, bips = _criterion2_members(n)
        for g in members + [gnp(n, 0.5, rng)]:
            for cert in (certify_hamiltonicity(g), certify_traceability(g)):
                read |= cert.evidence.keys()
            bound_report(g, k=min(g.degrees()))
        for b in bips + [quasi_complement(b) for b in bips]:
            read |= certify_bipartite_hamiltonicity(b).evidence.keys()
            bound_report(b)
        family_radius.__wrapped__("rho", "N", n, 1)
        family_radius.__wrapped__("q", "B", n, 1)
    assert {"rho", "q", "rho_complement", "rho_qc", "q_qc"} <= read


def test_lapack_matches_sturm_counts_on_random_graphs():
    # 10^3 seeded G(n, p) draws with n <= 12
    rng = np.random.default_rng(17)
    for _ in range(1000):
        g = gnp(int(rng.integers(2, 13)), float(rng.uniform(0.1, 0.9)), rng)
        if g.edge_count:
            _assert_lapack_exact(g)


def test_power_iteration_paths():
    res = spectral_radius(complete_graph(30), method="power")
    assert abs(res.value - 29) < 1e-8 and res.method == "power_iteration"
    res = q_radius(complete_graph(30), method="power")
    assert abs(res.value - 58) < 1e-8
    # auto uses LAPACK at every order; power iteration only on request
    big = join(complete_graph(150), k_copies(60, complete_graph(1)))
    auto = spectral_radius(big)
    assert auto.method == "dense_eigensolver"
    power = spectral_radius(big, method="power")
    assert power.method == "power_iteration"
    assert abs(auto.value - power.value) < 1e-7


@pytest.mark.parametrize("n", [201, 220, 333, 500])
def test_sparse_large_orders_match_closed_forms(n):
    # even cycles are bipartite, so the shifted power iteration once stalled
    # on them; LAPACK gives the closed forms at every order
    cases = (
        (spectral_radius, cycle_graph(n), 2.0),
        (spectral_radius, path_graph(n), 2 * math.cos(math.pi / (n + 1))),
        (q_radius, cycle_graph(n), 4.0),
        (q_radius, path_graph(n), 2 + 2 * math.cos(math.pi / n)),
    )
    for radius, g, expected in cases:
        res = radius(g)
        assert res.method == "dense_eigensolver"
        assert abs(res.value - expected) < TOL, (radius.__name__, n, res.value, expected)


def test_power_convergence_error_reports_unshifted_estimate(monkeypatch):
    from spectralham import spectral

    orig = spectral._power_iteration
    monkeypatch.setattr(spectral, "_power_iteration", lambda m: orig(m, max_iter=20))
    with pytest.raises(ConvergenceError) as exc:
        spectral_radius(cycle_graph(40), method="power")
    # the iteration runs on A + nI; the error must report an eigenvalue of A
    assert -2 - TOL <= exc.value.best <= 2 + TOL


def test_closed_forms():
    assert closed_form("rho", "complete", m=7) == 6
    assert closed_form("q", "complete", m=7) == 12
    assert abs(closed_form("rho", "complete_bipartite", a=1, b=9) - 3) < TOL
    assert closed_form("q", "complete_bipartite", a=4, b=5) == 9
    # K_2 v 3K_1 at (n, k) = (7, 2): (1 + sqrt(25)) / 2 = 3
    assert abs(closed_form("rho", "complete_split", n=7, k=2) - 3) < TOL
    g = join(complete_graph(2), k_copies(3, complete_graph(1)))
    assert abs(spectral_radius(g).value - 3) < TOL
    with pytest.raises(ValueError):
        rho_complete_split(7, 4)
    with pytest.raises(ValueError):
        closed_form("rho", "complete", m=0)
    with pytest.raises(ValueError):
        closed_form("rho", "no_such_family", m=1)


def test_closed_forms_match_eigensolver_to_n30():
    from spectralham.families import FamilySpec, construct

    for n in range(2, 31):
        assert abs(spectral_radius(complete_graph(n)).value - (n - 1)) < TOL
        assert abs(q_radius(complete_graph(n)).value - (2 * n - 2)) < TOL
        for a in (1, n // 2, n - 1):
            b = n - a
            if a < 1 or b < 1:
                continue
            kab = complete_bipartite_graph(a, b)
            assert abs(spectral_radius(kab).value - math.sqrt(a * b)) < TOL
            assert abs(q_radius(kab).value - n) < TOL
        for k in range(1, (n - 1) // 2 + 1):
            split = construct(FamilySpec("complete_split", n=n, k=k))
            assert abs(spectral_radius(split).value - rho_complete_split(n, k)) < TOL


def test_bound_report_equality_examples():
    rep = bound_report(complete_graph(5), k=4)
    rec = rep["nikiforov"]
    assert rec.applicable and abs(rec.bound_value - 4) < TOL and abs(rec.slack) < TOL

    rep = bound_report(complete_bipartite_graph(2, 3).to_graph())
    rec = rep["anderson_morley"]
    assert abs(rec.bound_value - 5) < TOL and abs(rec.slack) < TOL

    rep = bound_report(complete_bipartite_graph(3, 3).to_graph())
    rec = rep["balanced_bipartite_q"]
    assert rec.applicable and abs(rec.bound_value - 6) < TOL and abs(rec.slack) < TOL
    # to_json's shallow dict is dataclasses.asdict's, on records that apply and that do not
    recs = rep.records + bound_report(complete_graph(5), k=4).records
    assert {rec.applicable for rec in recs} == {True, False}
    assert all(rec.to_json() == dataclasses.asdict(rec) for rec in recs)


# The per-vertex and per-edge bounds as bound_report once summed them, one
# Python number at a time: the reference for its array formulas.
_PYTHON_BOUNDS = {
    "degree_mean": lambda g, degs: max(
        degs[u] + sum(degs[v] for v in g.neighbors(u)) / degs[u] for u in range(g.n) if degs[u] > 0),
    "berman_zhang": lambda g, degs: min(math.sqrt(degs[u] * degs[v]) for u, v in g.edges()),
    "anderson_morley": lambda g, degs: float(min(degs[u] + degs[v] for u, v in g.edges())),
}


def test_bound_report_matches_python_formulas():
    rng = np.random.default_rng(2024)
    cases = [gnp(n, p, rng) for n in range(1, 61) for p in (0.05, 0.3, 0.8)]
    # isolated vertices next to edges, edgeless graphs, K_{a,b} as a BipartiteGraph
    cases += [disjoint_union(complete_graph(4), empty_graph(3)), join(empty_graph(2), empty_graph(1)),
              disjoint_union(path_graph(2), empty_graph(5)), *map(empty_graph, (1, 2, 3))]
    cases += [complete_bipartite_graph(a, b) for a in range(1, 5) for b in range(a, 7)]
    checked = 0
    for g in cases:
        plain = as_graph(g)
        degs = plain.degrees()
        delta = min(degs)
        for k in (None, 0, delta, delta + 1):
            rep = bound_report(g, k)
            for bound_id, formula in _PYTHON_BOUNDS.items():
                rec = rep[bound_id]
                assert rec.applicable == (plain.edge_count >= 1)
                if not rec.applicable:
                    continue
                value = formula(plain, degs)
                measured = rep.q if bound_id != "berman_zhang" else rep.rho
                slack = value - measured if rec.kind == "upper" else measured - value
                assert type(rec.bound_value) is float
                assert (rec.bound_value, rec.slack, rec.satisfied) == (value, slack, slack >= -1e-9)
                checked += 1
    assert checked > 600


def test_bound_report_applicability():
    rep = bound_report(complete_graph(5))
    assert not rep["nikiforov"].applicable  # no k given
    assert not rep["bipartite_sqrt_e"].applicable  # K_5 has odd cycles
    rep = bound_report(empty_graph(3))
    for bound_id in ("degree_mean", "berman_zhang", "anderson_morley"):
        assert not rep[bound_id].applicable
    assert set(rep.to_json()) == {
        "nikiforov", "feng_yu", "bipartite_sqrt_e", "degree_mean",
        "balanced_bipartite_q", "berman_zhang", "anderson_morley",
    }


def test_bounds_hold_on_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        g = gnp(n, float(rng.uniform(0.1, 0.9)), rng)
        rep = bound_report(g, k=min(g.degrees()))
        assert rep.all_satisfied(), rep.to_json()


def test_edge_deletion_monotonicity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        g = random_connected(int(rng.integers(3, 11)), 0.5, rng)
        edges = g.edges()
        u, v = edges[int(rng.integers(0, len(edges)))]
        h = g.without_edge(u, v)
        assert spectral_radius(h).value < spectral_radius(g).value - 1e-12
        assert q_radius(h).value < q_radius(g).value - 1e-12


def test_lower_bound_equality_on_regular_and_biregular():
    rng = np.random.default_rng(37)
    for _ in range(25):
        n = int(rng.integers(4, 11))
        d = int(rng.integers(2, n - 1))
        if n * d % 2:
            d += 1
        if d >= n:
            continue
        g = random_regular(n, d, rng)
        rep = bound_report(g)
        assert abs(rep["berman_zhang"].slack) < TOL
        assert abs(rep["anderson_morley"].slack) < TOL
    for _ in range(25):
        a, b, da = 4, 2, 1
        g = random_biregular(a, b, da, rng)
        rep = bound_report(g)
        assert abs(rep["berman_zhang"].slack) < TOL
        assert abs(rep["anderson_morley"].slack) < TOL


def test_power_iteration_convergence_error():
    # two equal-size cliques: top adjacency eigenvalues coincide, which is
    # fine, but a tiny iteration cap still trips the explicit error path
    from spectralham.spectral import _power_iteration

    g = complete_graph(40)
    m = g.matrix()
    with pytest.raises(ConvergenceError) as exc:
        _power_iteration(m, tol=1e-30, max_iter=3)
    assert exc.value.best != 0.0
