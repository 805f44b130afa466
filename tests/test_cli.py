import json
import re

import numpy as np
import pytest

import spectralham.cli as cli
from spectralham.cli import main
from spectralham.families import FAMILY_NAMES
from spectralham.graphs import (
    build_graph,
    complete_graph,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    path_graph,
)
from spectralham.harness import SearchSpace, enumerate_space, extremal_search, verify_theorem


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
    for g6 in ("@", "A_", "C~"):  # malformed Bset cores are domain errors too
        code, _, err = run_cli(capsys, "gen", f"Bset:n=4,k=2,inner={g6}")
        assert code == 2 and "Bset inner graph" in err


def test_gen_refuses_parameters_the_family_does_not_read(capsys):
    for spec, name in (("N:n=7,k=2,inner=C~", "'inner'"), ("Gamma1:n=3", "'n'"),
                       ("complete:n=3,k=9,inner=A_", "'k'"), ("N:n=7,k=2,n=8", "'n'")):
        code, out, err = run_cli(capsys, "gen", spec)
        assert code == 2 and not out and name in err, spec
    # a valid spec of every family still builds
    specs = ("L:n=7,k=2", "N:n=7,k=2", "barL:n=7,k=2", "barN:n=7,k=2", "H:n=5,inner=A_",
             "B:n=4,k=2", "Bset:n=4,k=2,inner=CQ", "Gamma1", "Gamma2", "complete:n=3",
             "complete_bipartite:n=2,k=3", "complete_split:n=7,k=2")
    assert [spec.partition(":")[0] for spec in specs] == list(FAMILY_NAMES)
    for spec in specs:
        code, out, _ = run_cli(capsys, "gen", spec)
        assert code == 0 and graph6_decode(out.strip()).n > 0, spec


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
    # every dense solve, whichever route reaches it, goes through eigvalsh
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        calls.append(m.shape[0])
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    path = tmp_path / "three.g6"
    graphs = [PETERSEN_G6, graph6_encode(cycle_graph(7)), graph6_encode(complete_graph(5))]
    path.write_text("\n".join(graphs) + "\n")
    code, out, _ = run_cli(capsys, "spectral", str(path), "--json")
    assert code == 0 and len(out.strip().splitlines()) == 3
    assert calls == [10, 10, 7, 7, 5, 5]  # rho and q of each graph, once


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
    # the closure comes back in the input's labelling: C6's sides are its
    # even and its odd vertices, and its closure joins all nine cross pairs
    g6 = graph6_encode(cycle_graph(6))
    code, out, _ = run_cli(capsys, "closure", g6, "--bipartite", "--json")
    assert code == 0
    rec = json.loads(out.strip())
    assert graph6_decode(rec["closure"]).edge_count == 9
    k33 = build_graph(6, [(u, v) for u in (0, 2, 4) for v in (1, 3, 5)])
    assert rec["closure"] == graph6_encode(k33) and rec["joins"] > 0
    # a graph the closure leaves alone comes back as itself (y0 is isolated,
    # so its balanced sides swap a component)
    code, out, _ = run_cli(capsys, "closure", "E?b_", "--bipartite", "--json")
    assert code == 0
    rec = json.loads(out.strip())
    assert (rec["closure"], rec["joins"]) == ("E?b_", 0)


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


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_refuses_jobs_below_one(capsys, jobs):
    code, _, err = run_cli(capsys, "verify", "ore", "--space", "all_labeled", "--n", "4",
                           "--jobs", jobs)
    assert code == 2 and f"jobs must be >= 1, got {jobs}" in err


def test_verify_json_stream(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "ore", "--space", "all_labeled", "--n", "4", "--json"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["verdict"] == "summary"


def _counts(out):
    """(processed, hypothesis, exceptional, failures, aborted) of verify's text summary."""
    m = re.search(r"processed (\d+), hypothesis (\d+), exceptional (\d+), failures (\d+), "
                  r"aborted (\d+)", out)
    return tuple(map(int, m.groups()))


def test_verify_over_each_enumerated_and_file_space(capsys, tmp_path):
    # every --space choice builds the space its constructor builds
    path = tmp_path / "three.g6"
    path.write_text("".join(graph6_encode(g) + "\n"
                            for g in (complete_graph(5), cycle_graph(5), path_graph(5))))
    runs = (
        (("--space", "all_labeled", "--n", "5"), "ore", SearchSpace.all_labeled(5), None),
        (("--space", "min_degree", "--n", "5", "--min-degree", "2", "--k", "2"), "erdos",
         SearchSpace.labeled_min_degree(5, 2), 2),
        (("--space", "bipartite", "--side", "3"), "moon_moser",
         SearchSpace.balanced_bipartite_labeled(3), None),
        (("--space", "gnp", "--n", "6", "--p", "0.8", "--samples", "40", "--seed", "3"), "ore",
         SearchSpace.gnp(6, 0.8, 40, 3), None),
        (("--space", "bipartite_gnp", "--side", "3", "--p", "0.8", "--samples", "40",
          "--seed", "4"), "moon_moser", SearchSpace.bipartite_gnp(3, 0.8, 40, 4), None),
        (("--space", "file", "--file", str(path)), "ore", SearchSpace.graph6_file(str(path)),
         None),
    )
    assert [argv[1] for argv, _, _, _ in runs] == list(cli._SPACES)
    for argv, target, space, k in runs:
        code, out, _ = run_cli(capsys, "verify", target, *argv)
        rep = verify_theorem(target, space, k=k)
        want = (rep.processed, rep.hypothesis_count, rep.exceptional_matches,
                len(rep.conclusion_failures), len(rep.aborted))
        assert code == 0 and _counts(out) == want and want[1] > 0, argv
        assert f"target {target} over {space.describe()}:" in out
    for choice, flag in (("min_degree", "--min-degree"), ("file", "--file")):
        code, out, err = run_cli(capsys, "verify", "ore", "--space", choice, "--n", "5")
        assert code == 2 and not out and f"--space {choice} needs {flag}" in err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--space {all_labeled,min_degree,bipartite,gnp,bipartite_gnp,file}" in (
        capsys.readouterr().out)


def test_search_text_output(capsys):
    code, out, _ = run_cli(capsys, "search", "max_rho", "--space", "min_degree", "--n", "5",
                           "--min-degree", "1")
    best, winners = extremal_search(SearchSpace.labeled_min_degree(5, 1), "max_rho",
                                    "non_hamiltonian")
    assert code == 0
    assert out.splitlines() == [f"optimum {best:.10f} attained by {len(winners)} graph(s):",
                                *(f"  {g6}" for g6 in winners)]
    # K_4 is the only graph of order 4 with delta >= 3, and it is Hamiltonian
    code, out, _ = run_cli(capsys, "search", "max_rho", "--space", "min_degree", "--n", "4",
                           "--min-degree", "3")
    assert code == 0 and out == "no graph satisfies the constraint\n"


def test_graph6_file_errors_name_the_file_and_line(capsys, tmp_path):
    # a campaign's blocks, enumerate_space and the commands that load graphs
    # all read a file's lines through one reader
    path = tmp_path / "bad.g6"
    for second, error in ((b"C~~", "expected 1 body bytes for n=4, found 2 (byte offset 2)"),
                          ("C\u00e9".encode(), "byte 195 outside graph6 range 63..126 "
                                               "(byte offset 1)")):
        path.write_bytes(b"C~\n" + second + b"\nC~\n")
        message = f"{path}, line 2: {error}"
        space = SearchSpace.graph6_file(str(path))
        for call in (lambda: verify_theorem("ore", space), lambda: list(enumerate_space(space))):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
        for argv in (("verify", "ore", "--space", "file", "--file", str(path)),
                     ("spectral", str(path)), ("certify", str(path))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and not out and err == f"error: {message}\n", argv


def test_search(capsys):
    code, out, _ = run_cli(
        capsys, "search", "min_rho_complement", "--space", "all_labeled", "--n", "6",
        "--k", "1", "--constraint", "non_hamiltonian", "--json",
    )
    assert code == 0
    rec = json.loads(out.strip())
    assert abs(rec["best"] - 2.0) < 1e-9 and rec["graphs"]


def test_search_with_an_aborted_optimum_is_an_error(capsys):
    # below the batched charge of 1 << 5 nodes no class of order 5 is decided
    code, out, err = run_cli(capsys, "search", "max_rho", "--n", "5", "--budget", "31")
    assert code == 2 and not out and "budget 31" in err


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


@pytest.mark.parametrize("argv", [
    ("verify", "fn_rho", "--n", "5"),
    ("search", "max_rho", "--n", "5"),
    ("certify", "Dhc", "--oracle"),
    ("oracle", "Dhc"),
])
@pytest.mark.parametrize("budget", ["-1", "-3", "1.5"])
def test_bad_budget_is_usage_error(capsys, argv, budget):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--budget", budget])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --budget" in err and ("oracle budget must be an int >= 0" in err
                                           or "invalid literal for int()" in err)


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
