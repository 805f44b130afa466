"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The side-5 bipartite campaigns are opt-in via the
environment variable SPECTRALHAM_SIDE5=1 (roughly an hour of extra work).
"""

import math
import os
import time

import numpy as np
import pytest

from spectralham.certifier import certify_hamiltonicity, certify_traceability
from spectralham.families import FamilySpec, construct, recognize, spanning_subgraph_of
from spectralham.graphs import (
    Graph6Error,
    complement,
    complete_bipartite_graph,
    complete_graph,
    graph6_decode,
    graph6_encode,
    join,
    k_copies,
    quasi_complement,
)
from spectralham.harness import (
    SearchSpace,
    certifier_soundness_sweep,
    graph_from_index,
    random_model,
    verify_theorem,
)
from spectralham.oracle import clique_number, is_hamiltonian, is_traceable
from spectralham.spectral import (
    bound_report,
    q_radius,
    rho_complete_split,
    spectral_radius,
)
from spectralham.transforms import bc_closure, bipartite_closure, is_b_closed, is_closed, kelmans

from conftest import gnp, random_biregular, random_regular

TOL = 1e-9


def _report(num, label, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {num} PASS - {label} ({elapsed:.1f} s, budget {budget} s)")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_closed_form_ledger():
    t0 = time.monotonic()
    checked = 0

    def close(a, b):
        assert abs(a - b) < TOL, (a, b)

    for n in range(5, 17):
        close(spectral_radius(complete_graph(n - 1)).value, n - 2)
        close(q_radius(complete_graph(n - 1)).value, 2 * n - 4)
        close(spectral_radius(complete_bipartite_graph(1, n - 1)).value, math.sqrt(n - 1))
        checked += 3
        for k in range(0, (n - 2) // 2 + 1):
            if 2 * (k + 1) <= n:
                close(
                    spectral_radius(complete_bipartite_graph(k + 1, n - k - 1)).value,
                    math.sqrt((k + 1) * (n - k - 1)),
                )
                checked += 1
        for k in range(1, (n - 1) // 2 + 1):
            close(
                spectral_radius(complete_bipartite_graph(k, n - k - 1)).value,
                math.sqrt(k * (n - k - 1)),
            )
            split = construct(FamilySpec("complete_split", n=n, k=k))
            close(spectral_radius(split).value, rho_complete_split(n, k))
            checked += 2
        for k in range(1, n // 2 + 1):
            close(
                spectral_radius(complete_bipartite_graph(n, n - k)).value,
                math.sqrt(n * (n - k)),
            )
            close(q_radius(complete_bipartite_graph(n, n - k)).value, 2 * n - k)
            close(q_radius(complete_bipartite_graph(k, n - k)).value, n)
            checked += 3
    _report(1, f"closed-form ledger, {checked} identities", t0, 5)


def test_criterion_02_comparison_lemma():
    t0 = time.monotonic()

    def strict(a, b):
        assert a - b > TOL, (a, b)

    def equal(a, b):
        assert abs(a - b) < TOL, (a, b)

    for n in range(2, 31):
        # (1) barL_n^0 = K_1 + K_{n-1}
        bl0 = construct(FamilySpec("barL", n=n, k=0))
        equal(spectral_radius(bl0).value, n - 2)
        equal(q_radius(bl0).value, max(2 * n - 4, 0))
        equal(spectral_radius(complement(bl0)).value, math.sqrt(n - 1))
        # (2) L_n^1
        if n >= 3:
            l1 = construct(FamilySpec("L", n=n, k=1))
            strict(spectral_radius(l1).value, n - 2)
            strict(q_radius(l1).value, 2 * n - 4)
            equal(spectral_radius(complement(l1)).value, math.sqrt(n - 2))
        # (3) k >= 1
        for k in range(1, (n - 2) // 2 + 1):
            bn = construct(FamilySpec("barN", n=n, k=k))
            bl = construct(FamilySpec("barL", n=n, k=k))
            equal(spectral_radius(bl).value, n - k - 2)
            equal(q_radius(bl).value, 2 * n - 2 * k - 4)
            strict(spectral_radius(bn).value, n - k - 2)
            strict(q_radius(bn).value, 2 * n - 2 * k - 4)
            diff = spectral_radius(complement(bn)).value - math.sqrt((k + 1) * (n - k - 1))
            if n % 2 == 0 and k == n // 2 - 1:
                assert abs(diff) < TOL
            else:
                assert diff > TOL
        # (4) k >= 2
        for k in range(2, (n - 1) // 2 + 1):
            ln = construct(FamilySpec("L", n=n, k=k))
            nn = construct(FamilySpec("N", n=n, k=k))
            rl, rn = spectral_radius(ln).value, spectral_radius(nn).value
            ql, qn = q_radius(ln).value, q_radius(nn).value
            strict(rn, rl)
            strict(rl, n - k - 1)
            strict(qn, ql)
            strict(ql, 2 * n - 2 * k - 2)
            diff = spectral_radius(complement(nn)).value - math.sqrt(k * (n - k - 1))
            if n % 2 == 1 and k == (n - 1) // 2:
                assert abs(diff) < TOL
            else:
                assert diff > TOL
        # (5) k >= 1 (side size n, order 2n)
        for k in range(1, n // 2 + 1):
            b = construct(FamilySpec("B", n=n, k=k))
            strict(spectral_radius(b).value, math.sqrt(n * (n - k)))
            strict(q_radius(b).value, 2 * n - k)
            qc = quasi_complement(b)
            equal(spectral_radius(qc).value, math.sqrt(k * (n - k)))
            equal(q_radius(qc).value, n)
    _report(2, "comparison-lemma orderings for n <= 30", t0, 30)


def test_criterion_03_bound_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        n = int(rng.integers(2, 15))
        g = gnp(n, float(rng.uniform(0.05, 0.95)), rng)
        rep = bound_report(g, k=min(g.degrees()), tol=TOL)
        assert rep.all_satisfied(), (g.edges(), rep.to_json())
    # equality instances: 50 connected regular + 50 connected semi-regular
    for _ in range(50):
        while True:
            n = int(rng.integers(4, 13))
            d = int(rng.integers(2, n))
            if n * d % 2 == 0 and d < n:
                break
        g = random_regular(n, d, rng)
        rep = bound_report(g, tol=TOL)
        assert abs(rep["berman_zhang"].slack) <= TOL
        assert abs(rep["anderson_morley"].slack) <= TOL
    shapes = [(4, 2, 1), (6, 3, 1), (6, 2, 1), (4, 4, 2), (6, 4, 2), (8, 4, 1), (9, 3, 1)]
    for i in range(50):
        a, b, da = shapes[i % len(shapes)]
        g = random_biregular(a, b, da, rng)
        rep = bound_report(g, tol=TOL)
        assert abs(rep["berman_zhang"].slack) <= TOL
        assert abs(rep["anderson_morley"].slack) <= TOL
    _report(3, "seven bounds on 10^4 random graphs + 100 equality instances", t0, 120)


def test_criterion_04_kelmans_monotonicity():
    t0 = time.monotonic()
    rng = np.random.default_rng(4096)
    for _ in range(10_000):
        n = int(rng.integers(2, 13))
        g = gnp(n, float(rng.uniform(0.1, 0.9)), rng)
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        moved = kelmans(g, u, v)
        assert moved.edge_count == g.edge_count
        if g.edge_count:
            assert spectral_radius(moved).value >= spectral_radius(g).value - TOL
            assert q_radius(moved).value >= q_radius(g).value - TOL
    # L_n^k -> (k-1 Kelmans operations) -> proper spanning subgraph of N_n^k
    for n, k in ((9, 2), (11, 3), (13, 4)):
        g = construct(FamilySpec("L", n=n, k=k))
        e0 = g.edge_count
        rho_prev = spectral_radius(g).value
        q_prev = q_radius(g).value
        for i in range(1, k):
            g = kelmans(g, i, k + i)  # clique-part vertex onto a big-clique vertex
            assert g.edge_count == e0
            rho_now = spectral_radius(g).value
            q_now = q_radius(g).value
            assert rho_now >= rho_prev - TOL and q_now >= q_prev - TOL
            rho_prev, q_prev = rho_now, q_now
        assert spanning_subgraph_of(g, "N", n, k)
        ref = construct(FamilySpec("N", n=n, k=k))
        assert g.edge_count < ref.edge_count  # proper subgraph
        assert not recognize(g, "N", n=n, k=k)
    _report(4, "Kelmans monotonicity on 10^4 triples + L->N pathway", t0, 120)


def test_criterion_05_closure_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(555)
    for _ in range(1000):
        n = int(rng.integers(3, 13))
        g = gnp(n, float(rng.uniform(0.2, 0.9)), rng)
        closed, _ = bc_closure(g)
        assert is_closed(closed)
        assert bc_closure(closed)[1] == 0
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        order = [pairs[int(i)] for i in rng.permutation(len(pairs))]
        assert bc_closure(g, scan_order=order)[0] == closed
        assert is_hamiltonian(g).status == is_hamiltonian(closed).status
    from spectralham.graphs import BipartiteGraph

    for _ in range(1000):
        side = int(rng.integers(2, 7))
        rows = tuple(int(rng.integers(0, 1 << side)) for _ in range(side))
        b = BipartiteGraph(side, side, rows)
        closed, _ = bipartite_closure(b)
        assert is_b_closed(closed)
        assert bipartite_closure(closed)[1] == 0
        assert (
            is_hamiltonian(b.to_graph()).status
            == is_hamiltonian(closed.to_graph()).status
        )
    _report(5, "closure idempotence/order-independence/Hamiltonicity equivalence", t0, 300)


# (target, space, k, processed, hypothesis_count, exceptional_matches) for
# every criterion-6 campaign, recorded with every graph eigensolved; the
# harness's bound gate must reproduce them exactly.
CRITERION_06_RUNS = (
    ("ore", SearchSpace.all_labeled(5), None, 1024, 56, 0),
    ("ore", SearchSpace.all_labeled(6), None, 32768, 576, 0),
    ("ore", SearchSpace.all_labeled(7), None, 2097152, 7547, 0),
    ("erdos", SearchSpace.all_labeled(7), 1, 2097152, 7547, 0),
    ("erdos", SearchSpace.all_labeled(7), 2, 2097152, 27854, 0),
    ("erdos", SearchSpace.all_labeled(7), 3, 2097152, 26174, 0),
    ("fn_rho", SearchSpace.all_labeled(6), None, 32768, 1203, 36),
    ("fn_rho_complement", SearchSpace.all_labeled(6), None, 32768, 8822, 36),
    ("yu_fan_q", SearchSpace.all_labeled(6), None, 32768, 1608, 36),
    ("fn_rho", SearchSpace.all_labeled(7), None, 2097152, 6890, 49),
    ("fn_rho_complement", SearchSpace.all_labeled(7), None, 2097152, 226283, 49),
    ("yu_fan_q", SearchSpace.all_labeled(7), None, 2097152, 13085, 49),
    ("main_rho_complement.2", SearchSpace.labeled_min_degree(4, 1), 1, 41, 22, 12),
    ("main_rho_complement.2", SearchSpace.labeled_min_degree(5, 1), 1, 768, 226, 20),
    ("main_rho_complement.2", SearchSpace.labeled_min_degree(6, 1), 1, 27449, 3178, 30),
    ("main_rho_complement.2", SearchSpace.labeled_min_degree(7, 1), 1, 1887284, 73868, 42),
    ("ainouche_christofides", SearchSpace.all_labeled(3), None, 8, 3, 3),
    ("ainouche_christofides", SearchSpace.all_labeled(4), None, 64, 12, 12),
    ("ainouche_christofides", SearchSpace.all_labeled(5), None, 1024, 55, 55),
    ("ainouche_christofides", SearchSpace.all_labeled(6), None, 32768, 90, 90),
    ("ainouche_christofides", SearchSpace.all_labeled(7), None, 2097152, 497, 497),
    ("moon_moser", SearchSpace.balanced_bipartite_labeled(2), None, 16, 2, 0),
    ("ferrara_jacobson_powell", SearchSpace.balanced_bipartite_labeled(2), None, 16, 6, 6),
    ("bip_q_qc", SearchSpace.balanced_bipartite_labeled(2), None, 16, 7, 6),
    ("bip_rho_qc", SearchSpace.balanced_bipartite_labeled(2), 1, 16, 7, 6),
    ("moon_moser", SearchSpace.balanced_bipartite_labeled(3), None, 512, 44, 0),
    ("ferrara_jacobson_powell", SearchSpace.balanced_bipartite_labeled(3), None, 512, 63, 63),
    ("bip_q_qc", SearchSpace.balanced_bipartite_labeled(3), None, 512, 97, 63),
    ("bip_rho_qc", SearchSpace.balanced_bipartite_labeled(3), 1, 512, 97, 63),
    ("moon_moser", SearchSpace.balanced_bipartite_labeled(4), None, 65536, 874, 0),
    ("ferrara_jacobson_powell", SearchSpace.balanced_bipartite_labeled(4), None, 65536, 990, 990),
    ("bip_q_qc", SearchSpace.balanced_bipartite_labeled(4), None, 65536, 7583, 990),
    ("bip_rho_qc", SearchSpace.balanced_bipartite_labeled(4), 1, 65536, 4457, 240),
    ("bip_rho_qc", SearchSpace.balanced_bipartite_labeled(4), 2, 65536, 7343, 750),
)


def test_criterion_06_exhaustive_campaigns():
    t0 = time.monotonic()
    for target, space, k, processed, hyps, exceptional in CRITERION_06_RUNS:
        rep = verify_theorem(target, space, k=k)
        assert rep.clean, (target, space.describe(), rep.conclusion_failures, rep.aborted)
        got = (rep.processed, rep.hypothesis_count, rep.exceptional_matches)
        assert got == (processed, hyps, exceptional), (target, space.describe(), k, got)
    runs = len(CRITERION_06_RUNS)
    if os.environ.get("SPECTRALHAM_SIDE5") == "1":
        for target, k in (
            ("moon_moser", None),
            ("ferrara_jacobson_powell", None),
            ("bip_q_qc", None),
            ("bip_rho_qc", 1),
            ("bip_rho_qc", 2),
        ):
            rep = verify_theorem(target, SearchSpace.balanced_bipartite_labeled(5), k=k)
            assert rep.clean, (target, 5, rep.conclusion_failures, rep.aborted)
            runs += 1
    _report(6, f"{runs} exhaustive campaigns, zero counterexamples", t0, 900)


def test_criterion_07_family_sharpness():
    t0 = time.monotonic()
    # edge-count identities, integer exact, n <= 20
    for n in range(3, 21):
        for k in range(1, (n - 1) // 2 + 1):
            assert construct(FamilySpec("N", n=n, k=k)).edge_count == math.comb(n - k, 2) + k * k
    for n in range(2, 21):
        for k in range(1, n // 2 + 1):
            assert construct(FamilySpec("B", n=n, k=k)).edge_count == n * (n - k) + k * k
    # oracle-confirmed non-Hamiltonicity / non-traceability (order <= 14)
    for n in range(3, 15):
        for k in range(1, (n - 1) // 2 + 1):
            for fam in ("L", "N"):
                res = is_hamiltonian(construct(FamilySpec(fam, n=n, k=k)))
                assert res.status == "no", (fam, n, k)
    for n in range(2, 15):
        for k in range(0, n // 2):
            for fam in ("barL", "barN"):
                res = is_traceable(construct(FamilySpec(fam, n=n, k=k)))
                assert res.status == "no", (fam, n, k)
    for side in range(2, 8):
        for k in range(1, side // 2 + 1):
            res = is_hamiltonian(construct(FamilySpec("B", n=side, k=k)).to_graph())
            assert res.status == "no", ("B", side, k)
    for fam in ("Gamma1", "Gamma2"):
        assert is_hamiltonian(construct(FamilySpec(fam)).to_graph()).status == "no"
    # the named Yu-Fan small counterexamples are never certified
    k13 = complete_bipartite_graph(1, 3).to_graph()
    assert certify_traceability(k13).verdict != "certified_positive"
    assert is_traceable(k13).status == "no"
    k113 = join(complete_graph(2), k_copies(3, complete_graph(1)))
    assert certify_hamiltonicity(k113).verdict != "certified_positive"
    assert is_hamiltonian(k113).status == "no"
    _report(7, "family sharpness and Yu-Fan counterexamples", t0, 300)


def test_criterion_08_certifier_soundness_sweep():
    t0 = time.monotonic()
    summary = certifier_soundness_sweep(ns=(3, 4, 5, 6, 7), bip_sides=(2, 3, 4))
    assert summary["violations"] == [], summary["violations"][:5]
    assert summary["aborted"] == []
    assert summary["graphs"] == sum(1 << (n * (n - 1) // 2) for n in range(3, 8))
    assert summary["bipartite_graphs"] == sum(1 << (s * s) for s in (2, 3, 4))
    _report(
        8,
        f"soundness sweep: {summary['graphs']} graphs / "
        f"{summary['bipartite_graphs']} bipartite, "
        f"{summary['certified_positive']} certified, {summary['exceptional']} exceptional",
        t0,
        600,
    )


def _criterion9_checks(g, n, results):
    """Run the three lemma checks on one graph; append any failures."""
    e = g.edge_count
    delta = min(g.degrees())
    ham_bound = math.comb(n - 2, 2) + 4  # k = 1
    trace_bound = math.comb(n - 2, 2) + 2  # k = 0
    if delta >= 1 and e > ham_bound:
        if is_hamiltonian(g).status != "yes":
            if not (spanning_subgraph_of(g, "L", n, 1) or spanning_subgraph_of(g, "N", n, 1)):
                results.append(("refined_hamilton", graph6_encode(g)))
    if e > trace_bound:
        if is_traceable(g).status != "yes":
            if not (
                spanning_subgraph_of(g, "barL", n, 0)
                or spanning_subgraph_of(g, "barN", n, 0)
            ):
                results.append(("refined_traceable", graph6_encode(g)))
    closed, _ = bc_closure(g)
    if closed.edge_count > ham_bound:
        if clique_number(closed) < n - 1:
            results.append(("clique_lemma", graph6_encode(g)))


def test_criterion_09_randomized_threshold_region():
    t0 = time.monotonic()
    failures = []
    for n in (11, 12):
        pairs = n * (n - 1) // 2
        p = (math.comb(n - 2, 2) + 6) / pairs  # expected edges just above the bound
        for g in random_model("uniform_gnp", n=n, p=p, seed=90 + n, count=100_000):
            _criterion9_checks(g, n, failures)
        # family instances and their single-edge perturbations
        base = [construct(FamilySpec(fam, n=n, k=1)) for fam in ("L", "N")]
        base += [construct(FamilySpec(fam, n=n, k=0)) for fam in ("barL", "barN")]
        variants = list(base)
        for g in base:
            for u, v in g.edges():
                variants.append(g.without_edge(u, v))
            for u in range(n):
                for v in range(u + 1, n):
                    if not g.has_edge(u, v):
                        variants.append(g.with_edge(u, v))
        for g in variants:
            _criterion9_checks(g, n, failures)
    assert failures == [], failures[:5]
    _report(9, "threshold-region randomized checks at n in {11, 12}", t0, 1800)


def test_criterion_10_graph6_codec():
    t0 = time.monotonic()
    assert graph6_encode(complete_graph(4)) == "C~"
    assert graph6_decode("C~") == complete_graph(4)
    for n in range(0, 8):
        for idx in range(1 << (n * (n - 1) // 2)):
            g = graph_from_index(n, idx)
            assert graph6_decode(graph6_encode(g)) == g
    for bad, offset in (("C~~", 2), ("C", 1), ("", 0), ("A" + chr(64), 1)):
        with pytest.raises(Graph6Error) as exc:
            graph6_decode(bad)
        assert exc.value.offset == offset
    with pytest.raises(Graph6Error):
        graph6_decode("C" + chr(30))
    _report(10, "graph6 round-trip over all n <= 7 plus diagnostics", t0, 300)
