import json

import numpy as np
import pytest

from spectralham.certifier import (
    certify_bipartite_hamiltonicity,
    certify_hamiltonicity,
    certify_traceability,
)
from spectralham.families import FamilySpec, construct, recognize
from spectralham.graphs import (
    build_graph,
    complete_bipartite_graph,
    complete_graph,
    empty_graph,
    join,
    k_copies,
    path_graph,
)
from spectralham.oracle import is_hamiltonian, is_traceable

from conftest import gnp

PETERSEN = build_graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def test_k7_certified_by_integer_conditions():
    cert = certify_hamiltonicity(complete_graph(7))
    assert cert.verdict == "certified_positive"
    assert cert.theorem == "dirac"  # cascade runs integer conditions first
    assert cert.evidence["e"] == 21


def test_n17_2_exceptional_via_main_rho():
    g = construct(FamilySpec("N", n=17, k=2))
    cert = certify_hamiltonicity(g)
    assert cert.verdict == "exceptional"
    assert cert.theorem == "main_rho"
    assert cert.exceptional == FamilySpec("N", n=17, k=2)
    # the same graph relabeled is still recognized
    rng = np.random.default_rng(5)
    cert2 = certify_hamiltonicity(g.relabel(list(rng.permutation(17))))
    assert cert2.verdict == "exceptional" and cert2.exceptional == cert.exceptional


def test_petersen_inconclusive_then_oracle():
    cert = certify_hamiltonicity(PETERSEN)
    assert cert.verdict == "inconclusive"
    cert = certify_hamiltonicity(PETERSEN, use_oracle=True)
    assert cert.verdict == "oracle_resolved"
    assert cert.evidence["oracle"] == "no" and cert.witness is None


def test_p6_traceable_oracle_resolved():
    cert = certify_traceability(path_graph(6), use_oracle=True)
    assert cert.verdict == "oracle_resolved"
    assert cert.evidence["oracle"] == "yes"
    assert cert.witness is not None


def test_barn16_exceptional_traceability():
    g = construct(FamilySpec("barN", n=16, k=1))
    cert = certify_traceability(g)
    assert cert.verdict == "exceptional"
    assert cert.theorem == "main_rho"
    assert cert.exceptional == FamilySpec("barN", n=16, k=1)


def test_barl8_exceptional_traceability():
    g = construct(FamilySpec("barL", n=8, k=0))
    cert = certify_traceability(g)
    # barL_n^0 = barN_n^0, so the rho condition part (1) fires first and
    # reports the same underlying graph under its barN name
    assert cert.verdict == "exceptional"
    assert recognize(g, "barL", n=8, k=0) and recognize(g, "barN", n=8, k=0)


def test_yu_fan_small_counterexamples_not_certified():
    k13 = complete_bipartite_graph(1, 3).to_graph()
    cert = certify_traceability(k13)
    assert cert.verdict != "certified_positive"
    assert is_traceable(k13).status == "no"
    k113 = join(complete_graph(2), k_copies(3, complete_graph(1)))
    cert = certify_hamiltonicity(k113)
    assert cert.verdict != "certified_positive"
    assert is_hamiltonian(k113).status == "no"
    # both land in the H-family exceptional clause of the complement condition
    assert cert.verdict == "exceptional" and cert.exceptional.family == "H"


def test_bipartite_examples():
    cert = certify_bipartite_hamiltonicity(complete_bipartite_graph(4, 4))
    assert cert.verdict == "certified_positive"
    assert cert.theorem == "moon_moser_delta"

    b92 = construct(FamilySpec("B", n=9, k=2))
    cert = certify_bipartite_hamiltonicity(b92)
    assert cert.verdict == "exceptional" and cert.theorem == "bip_rho"
    assert cert.exceptional == FamilySpec("B", n=9, k=2)

    g1 = construct(FamilySpec("Gamma1"))
    cert = certify_bipartite_hamiltonicity(g1)
    assert cert.verdict == "exceptional"
    assert cert.exceptional.family in ("Gamma1", "Bset")
    assert cert.exceptional.family == "Gamma1"


def test_tiny_orders_traceability():
    # K_1 is trivially traceable: the rho condition fires and no exceptional
    # family exists at that order
    cert = certify_traceability(empty_graph(1))
    assert cert.verdict == "certified_positive"
    cert = certify_traceability(complete_graph(2))
    assert cert.verdict == "certified_positive"
    # 2K_1 is non-traceable and must not be certified
    cert = certify_traceability(empty_graph(2))
    assert cert.verdict != "certified_positive"


def test_preconditions():
    with pytest.raises(ValueError):
        certify_hamiltonicity(complete_graph(2))
    with pytest.raises(ValueError):
        certify_traceability(empty_graph(0))
    with pytest.raises(ValueError):
        certify_bipartite_hamiltonicity(complete_bipartite_graph(2, 3))
    with pytest.raises(ValueError):
        certify_bipartite_hamiltonicity(complete_bipartite_graph(1, 1))
    with pytest.raises(TypeError):
        certify_hamiltonicity(complete_bipartite_graph(3, 3))


def test_evidence_slacks_nonnegative_for_fired_theorem():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(3, 10))
        g = gnp(n, float(rng.uniform(0.2, 0.95)), rng)
        cert = certify_hamiltonicity(g)
        if cert.theorem is None:
            continue
        checks = cert.evidence["checks"][cert.theorem]
        for rec in checks.values():
            assert rec["slack"] >= -cert.evidence["tolerance"]


def test_cascade_trail_recorded_and_deterministic():
    g = PETERSEN
    a = certify_hamiltonicity(g)
    b = certify_hamiltonicity(g)
    assert a == b
    names = [t for t, _ in a.evidence["cascade"]]
    assert names.index("dirac") < names.index("fn_rho") < names.index("fn_rho_complement")


def test_borderline_reported_not_certified():
    # rho(K_{1,1,3}) = n - 2 exactly: the strict fn_rho comparison lands in
    # the guard band and must be flagged, not fired
    k113 = join(complete_graph(2), k_copies(3, complete_graph(1)))
    cert = certify_hamiltonicity(k113)
    assert any(b["theorem"] == "fn_rho" for b in cert.evidence.get("borderline", []))


def test_certificate_serializes_to_json():
    g = construct(FamilySpec("N", n=17, k=2))
    cert = certify_hamiltonicity(g)
    blob = json.dumps(cert.to_json())
    parsed = json.loads(blob)
    assert parsed["verdict"] == "exceptional"
    assert parsed["exceptional"] == "N:n=17,k=2"
    cert = certify_hamiltonicity(complete_graph(5), use_oracle=True)
    parsed = json.loads(json.dumps(cert.to_json()))
    assert parsed["verdict"] == "certified_positive"


def test_oracle_resolved_carries_witness():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    cert = certify_hamiltonicity(g, use_oracle=True)
    if cert.verdict == "oracle_resolved":
        assert cert.witness is not None
    else:
        assert cert.verdict == "certified_positive"


@pytest.mark.parametrize("tol", [float("nan"), -3.0, -1e-12, float("inf")])
def test_cascades_refuse_a_bad_tolerance(tol):
    # a negative tol lowered every "gt" / "ge" threshold (P_6 was certified
    # Hamiltonian by fn_rho at tol = -3) and NaN made every verdict inconclusive
    from spectralham.spectral import bound_report

    for call in (lambda: certify_hamiltonicity(path_graph(6), tol=tol),
                 lambda: certify_traceability(path_graph(6), tol=tol),
                 lambda: certify_bipartite_hamiltonicity(complete_bipartite_graph(3, 3), tol=tol),
                 lambda: bound_report(path_graph(6), tol=tol)):
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            call()
    assert certify_hamiltonicity(path_graph(6), tol=0.0).verdict == "inconclusive"
