import hashlib
import json

import numpy as np
import pytest

from spectralham.families import FamilySpec, construct, recognize
from spectralham.graphs import complete_graph, graph6_decode, graph6_encode
from spectralham.harness import (
    _CHUNK,
    SearchSpace,
    SpaceCapError,
    bipartite_from_index,
    certifier_soundness_sweep,
    enumerate_space,
    extremal_search,
    graph_from_index,
    random_model,
    verify_theorem,
    _chunk_stats,
    _radius_interval,
)
from spectralham.spectral import radius_intervals, spectral_radius


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_space(SearchSpace.all_labeled(5))) == 1024
    assert sum(1 for _ in enumerate_space(SearchSpace.balanced_bipartite_labeled(2))) == 16
    graphs = list(enumerate_space(SearchSpace.labeled_min_degree(4, 3)))
    assert graphs == [complete_graph(4)]


def test_enumeration_is_deterministic_and_complete():
    seen = {graph6_encode(g) for g in enumerate_space(SearchSpace.all_labeled(4))}
    assert len(seen) == 64
    first = next(enumerate_space(SearchSpace.all_labeled(4)))
    assert first.edge_count == 0


def test_space_caps():
    with pytest.raises(SpaceCapError, match="graph6_file"):
        SearchSpace.all_labeled(9).validate()
    with pytest.raises(SpaceCapError, match="graph6_file"):
        SearchSpace.balanced_bipartite_labeled(6).validate()
    with pytest.raises(SpaceCapError):
        SearchSpace("random_model", model="uniform_gnp", n=5, p=1.5, count=3, seed=0).validate()


def test_random_model_determinism_and_extremes():
    gs = list(random_model("uniform_gnp", n=10, p=0.0, seed=1, count=5))
    assert all(g.edge_count == 0 for g in gs)
    gs = list(random_model("uniform_gnp", n=10, p=1.0, seed=1, count=5))
    assert all(g.edge_count == 45 for g in gs)
    a = [graph6_encode(g) for g in random_model("uniform_gnp", n=10, p=0.5, seed=42, count=3)]
    b = [graph6_encode(g) for g in random_model("uniform_gnp", n=10, p=0.5, seed=42, count=3)]
    assert a == b
    c = [graph6_encode(g) for g in random_model("uniform_gnp", n=10, p=0.5, seed=43, count=3)]
    assert a != c
    bs = list(random_model("bipartite_gnp", side=4, p=1.0, seed=7, count=2))
    assert all(b_.edge_count == 16 for b_ in bs)


def test_verify_ore_small():
    rep = verify_theorem("ore", SearchSpace.all_labeled(5))
    assert rep.processed == 1024
    assert rep.hypothesis_count >= 1
    assert rep.conclusion_failures == [] and rep.aborted == []
    assert rep.clean


def test_verify_refusals():
    with pytest.raises(ValueError, match="preconditions"):
        verify_theorem("refined_hamilton_lemma", SearchSpace.all_labeled(7), k=1)
    with pytest.raises(ValueError, match="preconditions"):
        verify_theorem("yu_fan_q", SearchSpace.all_labeled(5))
    with pytest.raises(ValueError, match="needs a k parameter"):
        verify_theorem("erdos", SearchSpace.all_labeled(6))
    with pytest.raises(ValueError):
        verify_theorem("moon_moser", SearchSpace.all_labeled(5))
    with pytest.raises(ValueError):
        verify_theorem("ore", SearchSpace.balanced_bipartite_labeled(3))


def test_parallel_matches_serial():
    serial = verify_theorem("fn_rho", SearchSpace.all_labeled(6))
    parallel = verify_theorem("fn_rho", SearchSpace.all_labeled(6), jobs=2)
    assert serial.processed == parallel.processed
    assert serial.hypothesis_count == parallel.hypothesis_count
    assert serial.exceptional_matches == parallel.exceptional_matches
    assert serial.conclusion_failures == parallel.conclusion_failures
    assert serial.aborted == parallel.aborted


def test_verify_graph6_file_space(tmp_path):
    path = tmp_path / "graphs.g6"
    lines = [graph6_encode(graph_from_index(5, idx)) for idx in range(0, 1024, 7)]
    path.write_text("\n".join(lines) + "\n")
    rep = verify_theorem("ore", SearchSpace.graph6_file(str(path)))
    assert rep.processed == len(lines)
    assert rep.clean


def test_verify_random_space():
    rep = verify_theorem("ore", SearchSpace.gnp(8, 0.85, 500, seed=3))
    assert rep.processed == 500 and rep.clean
    rep = verify_theorem(
        "ferrara_jacobson_powell", SearchSpace.bipartite_gnp(3, 0.6, 400, seed=5)
    )
    assert rep.processed == 400 and rep.clean


def test_oracle_budget_exhaustion_recorded():
    rep = verify_theorem("ore", SearchSpace.all_labeled(4), oracle_budget=0)
    assert rep.hypothesis_count > 0
    assert rep.aborted and not rep.conclusion_failures
    assert not rep.clean


def test_emit_stream():
    events = []
    verify_theorem("ore", SearchSpace.all_labeled(4), emit=events.append)
    assert events[-1]["verdict"] == "summary"
    json.dumps(events)  # JSON-serializable


def test_biclique_and_refined_bipartite_lemmas_side3():
    rep = verify_theorem("biclique_lemma", SearchSpace.balanced_bipartite_labeled(3), k=1)
    assert rep.clean and rep.hypothesis_count > 0
    rep = verify_theorem(
        "refined_bipartite_lemma", SearchSpace.balanced_bipartite_labeled(3), k=1
    )
    assert rep.clean and rep.hypothesis_count > 0


def test_extremal_search_matches_family_theory():
    best, winners = extremal_search(
        SearchSpace.all_labeled(6), "max_rho", "non_hamiltonian", k=1
    )
    ref = spectral_radius(construct(FamilySpec("N", n=6, k=1))).value
    assert abs(best - ref) < 1e-9
    assert winners
    for g6 in winners:
        assert recognize(graph6_decode(g6), "N", n=6, k=1)

    best, winners = extremal_search(
        SearchSpace.all_labeled(6), "min_rho_complement", "non_hamiltonian", k=1
    )
    assert abs(best - 2.0) < 1e-9  # sqrt(k (n-k-1)) = sqrt(4)
    for g6 in winners:
        assert recognize(graph6_decode(g6), "L", n=6, k=1)


def test_extremal_search_min_q_qc_side4():
    best, winners = extremal_search(
        SearchSpace.balanced_bipartite_labeled(4), "min_q_qc", "non_hamiltonian", k=2
    )
    assert abs(best - 4.0) < 1e-9
    # winners include Gamma_1, Gamma_2 and members of the k=2 family
    gamma1 = graph6_encode(construct(FamilySpec("Gamma1")).to_graph())
    gamma2 = graph6_encode(construct(FamilySpec("Gamma2")).to_graph())
    b42 = graph6_encode(construct(FamilySpec("B", n=4, k=2)).to_graph())
    assert gamma1 in winners and gamma2 in winners and b42 in winners


def test_extremal_search_relabel_invariant(tmp_path):
    # optimum value is invariant under vertex relabeling of the space
    rng = np.random.default_rng(107)
    graphs = [graph_from_index(5, int(i)) for i in rng.integers(0, 1024, size=300)]
    plain = tmp_path / "plain.g6"
    plain.write_text("\n".join(graph6_encode(g) for g in graphs) + "\n")
    shuffled = tmp_path / "shuffled.g6"
    shuffled.write_text(
        "\n".join(
            graph6_encode(g.relabel(list(rng.permutation(5)))) for g in graphs
        )
        + "\n"
    )
    a, _ = extremal_search(SearchSpace.graph6_file(str(plain)), "max_rho", "non_hamiltonian")
    b, _ = extremal_search(SearchSpace.graph6_file(str(shuffled)), "max_rho", "non_hamiltonian")
    assert a is not None and abs(a - b) < 1e-9


def test_extremal_search_empty_constraint_set():
    best, winners = extremal_search(
        SearchSpace.all_labeled(3), "max_rho", "non_traceable", k=1
    )
    # every graph on 3 vertices with min degree >= 1 is P_3 or K_3: traceable
    assert best is None and winners == []


def test_soundness_sweep_tiny():
    s = certifier_soundness_sweep(ns=(3, 4, 5), bip_sides=(2,))
    assert s["violations"] == [] and s["aborted"] == []
    assert s["graphs"] == 8 + 64 + 1024


def test_index_decoding_matches_enumeration():
    for idx in (0, 1, 37, 63):
        assert graph_from_index(4, idx) == list(enumerate_space(SearchSpace.all_labeled(4)))[idx]
    b = bipartite_from_index(3, 0b101_000_110)
    assert b.rows == (0b110, 0b000, 0b101)


@pytest.mark.parametrize("size, bip", [(6, False), (4, True)])
def test_radius_intervals_bracket_eigvalsh(size, bip):
    # every graph of all_labeled(6) / balanced_bipartite_labeled(4): the
    # integer-statistics interval of each quantity holds the eigvalsh value
    keys = ("rho", "q", "rho_qc", "q_qc") if bip else ("rho", "q", "rho_complement")
    total = 1 << (size * size if bip else size * (size - 1) // 2)
    seen_regular = 0
    for pos in range(0, total, _CHUNK):
        stats = _chunk_stats(size, bip, pos, min(pos + _CHUNK, total), frozenset(keys))
        regular = np.flatnonzero(stats["delta"] == stats["Delta"])
        seen_regular += len(regular)
        for key in keys:
            lo, hi = _radius_interval(key, stats, size, bip)
            val = stats[key]
            assert np.all(lo <= val + 1e-9) and np.all(val <= hi + 1e-9), key
            # equality cases: regular graphs (K_n, K_{s,s}, the empty graph,
            # cycles, ...) and their complements pin the value exactly
            assert np.allclose(lo[regular], val[regular], atol=1e-9), key
            assert np.allclose(hi[regular], val[regular], atol=1e-9), key
    assert seen_regular > 2


def test_radius_intervals_complete_graphs():
    (rho_lo, rho_hi), (q_lo, q_hi) = radius_intervals(6, 15, 5, 5)
    assert rho_lo == rho_hi == 5 and q_lo == q_hi == 10
    # K_{3,3} as a balanced bipartite graph of order 6
    (rho_lo, rho_hi), (q_lo, q_hi) = radius_intervals(6, 9, 3, 3, half=3)
    assert rho_lo == rho_hi == 3 and q_lo == q_hi == 6


def test_bound_gate_skips_refuted_eigensolves(monkeypatch):
    solved = []
    orig = np.linalg.eigvalsh

    def counting(a):
        solved.append(len(a))
        return orig(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rep = verify_theorem("fn_rho", SearchSpace.all_labeled(6))
    assert (rep.processed, rep.hypothesis_count, rep.exceptional_matches) == (32768, 1203, 36)
    assert 0 < sum(solved) < 32768 // 10


# (space, objective, constraint, k, best, number of optima, sha256 prefix of
# the sorted optima) recorded with every graph eigensolved
EXTREMAL_GOLDEN = (
    (SearchSpace.all_labeled(6), "max_rho", "non_hamiltonian", None,
     4.051374241731038, 30, "f5fb7c4cfbadbc4d"),
    (SearchSpace.all_labeled(6), "max_q", "non_hamiltonian", None,
     8.274917217635377, 30, "f5fb7c4cfbadbc4d"),
    (SearchSpace.all_labeled(6), "min_rho_complement", "non_hamiltonian", None,
     2.0, 30, "f5fb7c4cfbadbc4d"),
    (SearchSpace.all_labeled(6), "max_q", "non_hamiltonian", 2,
     7.758770483143639, 90, "28a4286a872447b6"),
    (SearchSpace.balanced_bipartite_labeled(3), "max_rho", "non_hamiltonian", None,
     2.524337798962139, 18, "b571dc34215852df"),
    (SearchSpace.balanced_bipartite_labeled(3), "max_q", "non_hamiltonian", None,
     5.236067977499792, 18, "b571dc34215852df"),
    (SearchSpace.balanced_bipartite_labeled(3), "min_q_qc", "non_hamiltonian", None,
     3.0, 63, "24aba313c6957426"),
)


@pytest.mark.parametrize("case", EXTREMAL_GOLDEN, ids=lambda c: f"{c[1]}-{c[0].describe()}")
def test_extremal_search_golden(case):
    space, objective, constraint, k, best_ref, count, digest = case
    best, winners = extremal_search(space, objective, constraint, k=k)
    assert abs(best - best_ref) < 1e-12
    assert len(winners) == count
    assert hashlib.sha256("\n".join(winners).encode()).hexdigest()[:16] == digest
