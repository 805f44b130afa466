import math

import numpy as np
import pytest

from spectralham.graphs import (
    build_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    join,
    k_copies,
    path_graph,
)
from spectralham.spectral import (
    ConvergenceError,
    bound_report,
    closed_form,
    jacobi_eigenvalues,
    q_radius,
    rho_complete_split,
    signless_laplacian_matrix,
    spectral_radius,
)

from conftest import gnp, random_biregular, random_connected, random_regular

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


def test_residuals_reported():
    res = spectral_radius(complete_graph(8))
    assert res.method == "dense_eigensolver" and res.residual < 1e-9


def test_jacobi_agrees_with_lapack():
    # dual-route check: the LAPACK default against the self-contained Jacobi
    # solver, 10^3 random graphs with n <= 12
    rng = np.random.default_rng(17)
    for _ in range(1000):
        g = gnp(int(rng.integers(2, 13)), float(rng.uniform(0.1, 0.9)), rng)
        if g.edge_count == 0:
            continue
        for which in (spectral_radius, q_radius):
            a = which(g, method="lapack")
            b = which(g, method="jacobi")
            assert abs(a.value - b.value) < TOL
            assert b.residual < 1e-9


def test_jacobi_eigen_full_spectrum():
    g = cycle_graph(5)
    w, v, _ = jacobi_eigenvalues(signless_laplacian_matrix(g))
    assert np.allclose(np.sort(w), np.sort(np.linalg.eigvalsh(signless_laplacian_matrix(g))), atol=1e-10)


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
