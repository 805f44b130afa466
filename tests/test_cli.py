import json

import pytest

from spectralham.cli import main
from spectralham.graphs import graph6_decode, graph6_encode, cycle_graph, complete_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_gen(capsys):
    code, out, _ = run_cli(capsys, "gen", "N:n=7,k=2")
    assert code == 0
    g = graph6_decode(out.strip())
    assert g.n == 7 and g.edge_count == 14
    code, out, _ = run_cli(capsys, "gen", "Gamma1")
    assert code == 0 and graph6_decode(out.strip()).edge_count == 9


def test_gen_bad_spec(capsys):
    code, _, err = run_cli(capsys, "gen", "N:n=5,k=4")
    assert code == 2 and "error" in err


def test_spectral(capsys):
    g6 = graph6_encode(complete_graph(5))
    code, out, _ = run_cli(capsys, "spectral", g6, "--k", "4", "--json")
    assert code == 0
    rec = json.loads(out.strip())
    assert abs(rec["rho"] - 4) < 1e-9
    assert rec["bounds"]["nikiforov"]["satisfied"]


PETERSEN_G6 = "IheA@GUAo"


def test_spectral_json_matches_separate_solves(capsys):
    # the line the command wrote when it solved rho and q itself before the report
    from spectralham.spectral import bound_report, q_radius, spectral_radius

    g = graph6_decode(PETERSEN_G6)
    expected = json.dumps({
        "graph6": PETERSEN_G6,
        "rho": spectral_radius(g).value,
        "q": q_radius(g).value,
        "bounds": bound_report(g, k=3).to_json(),
    }) + "\n"
    code, out, _ = run_cli(capsys, "spectral", PETERSEN_G6, "--k", "3", "--json")
    assert code == 0 and out == expected
    code, out, _ = run_cli(capsys, "spectral", PETERSEN_G6, "--k", "3")
    assert out.splitlines()[0] == (
        f"{PETERSEN_G6}: rho = {spectral_radius(g).value:.10f}, q = {q_radius(g).value:.10f}"
    )


def test_spectral_solves_each_graph_once(capsys, monkeypatch, tmp_path):
    import spectralham.cli as cli
    import spectralham.spectral as spectral

    calls = {"spectral_radius": 0, "q_radius": 0}
    for module in (spectral, cli):  # the command's own bindings count too
        for name in calls:
            if not hasattr(module, name):
                continue
            orig = getattr(module, name)

            def counting(*args, _name=name, _orig=orig, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    path = tmp_path / "three.g6"
    graphs = [PETERSEN_G6, graph6_encode(cycle_graph(7)), graph6_encode(complete_graph(5))]
    path.write_text("\n".join(graphs) + "\n")
    code, out, _ = run_cli(capsys, "spectral", str(path), "--json")
    assert code == 0 and len(out.strip().splitlines()) == 3
    assert calls == {"spectral_radius": 3, "q_radius": 3}


def test_spectral_edge_list_file(capsys, tmp_path):
    from spectralham.graphs import format_edge_list

    path = tmp_path / "c6.txt"
    path.write_text(format_edge_list(cycle_graph(6)))
    code, out, _ = run_cli(capsys, "spectral", str(path))
    assert code == 0 and "rho = 2.0" in out


def test_closure(capsys):
    g6 = graph6_encode(cycle_graph(4))
    code, out, _ = run_cli(capsys, "closure", g6)
    assert code == 0
    assert graph6_decode(out.split()[0]) == complete_graph(4)
    code, out, _ = run_cli(capsys, "closure", g6, "--json")
    rec = json.loads(out.strip())
    assert rec["joins"] == 2


def test_closure_bipartite(capsys):
    g6 = graph6_encode(cycle_graph(6))
    code, out, _ = run_cli(capsys, "closure", g6, "--bipartite", "--json")
    assert code == 0
    rec = json.loads(out.strip())
    assert graph6_decode(rec["closure"]).edge_count == 9


def test_oracle(capsys):
    g6 = graph6_encode(cycle_graph(6))
    code, out, _ = run_cli(capsys, "oracle", g6, "--json")
    rec = json.loads(out.strip())
    assert code == 0 and rec["status"] == "yes" and len(rec["witness"]) == 6
    code, out, _ = run_cli(capsys, "oracle", g6, "--path")
    assert code == 0 and "traceable = yes" in out


def test_certify(capsys):
    g6 = graph6_encode(complete_graph(7))
    code, out, _ = run_cli(capsys, "certify", g6)
    assert code == 0 and "certified_positive" in out
    code, out, _ = run_cli(capsys, "certify", "N:n=17,k=2_is_not_g6")
    assert code == 2


def test_certify_bipartite(capsys):
    from spectralham.families import FamilySpec, construct

    g6 = graph6_encode(construct(FamilySpec("B", n=4, k=2)).to_graph())
    code, out, _ = run_cli(capsys, "certify", g6, "--bipartite", "--json")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["verdict"] in ("exceptional", "inconclusive", "oracle_resolved")


def test_certify_bipartite_traceable_is_usage_error(capsys):
    # the bipartite cascade has no traceability part: refuse rather than ignore --traceable
    g6 = graph6_encode(cycle_graph(6))
    with pytest.raises(SystemExit) as exc:
        main(["certify", g6, "--bipartite", "--traceable"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_clean_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "ore", "--space", "all_labeled", "--n", "5")
    assert code == 0 and "failures 0" in out
    # aborted oracle -> exit 1
    code, out, _ = run_cli(
        capsys, "verify", "ore", "--space", "all_labeled", "--n", "4", "--budget", "0"
    )
    assert code == 1
    # precondition refusal -> exit 2
    code, _, err = run_cli(capsys, "verify", "yu_fan_q", "--space", "all_labeled", "--n", "5")
    assert code == 2 and "preconditions" in err


def test_verify_json_stream(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "ore", "--space", "all_labeled", "--n", "4", "--json"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["verdict"] == "summary"


def test_search(capsys):
    code, out, _ = run_cli(
        capsys, "search", "min_rho_complement", "--space", "all_labeled", "--n", "6",
        "--k", "1", "--constraint", "non_hamiltonian", "--json",
    )
    assert code == 0
    rec = json.loads(out.strip())
    assert abs(rec["best"] - 2.0) < 1e-9 and rec["graphs"]


@pytest.mark.parametrize("argv", [
    ("verify", "fn_rho", "--n", "5"),
    ("search", "max_rho", "--n", "5", "--constraint", "non_hamiltonian"),
    ("certify", "Dhc"),
])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tolerance_is_usage_error(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tolerance", tol])
    assert exc.value.code == 2
    assert "tolerance must be finite and >= 0" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not_a_target", "--n", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, name", [
    (["verify", "ore", "--space", "gnp", "--samples", "3"], "n"),
    (["verify", "moon_moser", "--space", "bipartite_gnp", "--samples", "3"], "side"),
    (["search", "max_rho", "--space", "gnp", "--n", "0"], "n"),
])
def test_random_space_without_order_is_usage_error(capsys, argv, name):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"gnp needs {name} >= 1" in err and "NoneType" not in err


def test_certify_passes_the_budget(capsys):
    # N_11^2: the oracle answers "no" at the default budget and aborts at 5 nodes
    from spectralham.certifier import certify_hamiltonicity

    g6 = "J~~~~~~oE??"
    expected = certify_hamiltonicity(graph6_decode(g6), use_oracle=True, oracle_budget=5)
    assert expected.verdict == "inconclusive"
    code, out, _ = run_cli(capsys, "certify", g6, "--oracle", "--budget", "5", "--json")
    assert code == 0 and json.loads(out) == {"graph6": g6, **expected.to_json()}
    code, out, _ = run_cli(capsys, "certify", g6, "--oracle", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "oracle_resolved"


def test_bipartite_commands_balance_the_sides(capsys):
    # E?b_ is balanced bipartite, but its default 2-colouring puts 4 vertices on one side
    code, out, _ = run_cli(capsys, "certify", "E?b_", "--bipartite", "--json")
    assert code == 0 and json.loads(out)["evidence"]["side"] == 3
    code, out, _ = run_cli(capsys, "closure", "E?b_", "--bipartite", "--json")
    assert code == 0 and json.loads(out)["joins"] == 0


# the shared flags, and those each command reads (on C_6 for the per-graph commands)
C6_G6 = "EhEG"
COMMON_FLAGS = {"--seed": "1", "--jobs": "1", "--tolerance": "0", "--json": None, "--budget": "1000"}
READS = {
    "gen": ("N:n=7,k=2",),
    "spectral": (C6_G6, "--k", "3", "--tolerance", "0", "--json"),
    "closure": (C6_G6, "--bipartite", "--json"),
    "oracle": (C6_G6, "--path", "--json", "--budget", "1000"),
    "certify": (C6_G6, "--traceable", "--oracle", "--tolerance", "0", "--json",
                "--budget", "1000"),
    "verify": ("ore", "--space", "gnp", "--n", "5", "--samples", "3", "--side", "2",
               "--min-degree", "1", "--p", "0.5", "--file", "unread.g6", "--k", "1",
               "--seed", "1", "--jobs", "1", "--tolerance", "0", "--json", "--budget", "1000"),
    "search": ("max_rho", "--constraint", "non_traceable", "--space", "gnp", "--n", "5",
               "--samples", "3", "--side", "2", "--min-degree", "1", "--p", "0.5",
               "--file", "unread.g6", "--k", "1", "--seed", "1", "--tolerance", "0", "--json",
               "--budget", "1000"),
}


@pytest.mark.parametrize("command", sorted(READS))
def test_every_flag_a_command_keeps_parses(capsys, command):
    code, _, err = run_cli(capsys, command, *READS[command])
    assert code == 0 and not err


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in sorted(READS) for flag in COMMON_FLAGS
    if flag not in READS[command]
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, command, flag):
    value = COMMON_FLAGS[flag]
    with pytest.raises(SystemExit) as exc:
        main([command, READS[command][0], flag, *([value] if value else [])])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
