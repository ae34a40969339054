import json
import random
import subprocess
import sys

import pytest

import relgraph as rg
from relgraph import io as rio
from relgraph.cli import main
from helpers import blow_up, matrix_composition, random_graph, random_image_full_relation


def test_graph_round_trip_randomized():
    rng = random.Random(47)
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 8), p=0.4, loops=True)
        assert rio.parse_graph(rio.format_graph(g)) == g


def test_relation_round_trip_randomized():
    rng = random.Random(53)
    for _ in range(150):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        r = random_image_full_relation(rng, n, m)
        assert rio.parse_relation(rio.format_relation(r)) == r


def test_parser_reports_line_numbers():
    with pytest.raises(rio.ParseError) as err:
        rio.parse_graph("graph 3\n0 1\n0 7\n")
    assert err.value.line == 3
    with pytest.raises(rio.ParseError) as err:
        rio.parse_graph("# comment\n\nnot-a-header\n")
    assert err.value.line == 3
    with pytest.raises(rio.ParseError) as err:
        rio.parse_relation("relation 2 2\n0 0\nx y\n")
    assert err.value.line == 3


def test_parser_collapses_duplicates_and_skips_comments():
    g = rio.parse_graph("graph 3\n# a comment\n0 1\n1 0\n\n2 2\n")
    assert g == rg.graph_from_edges(3, [(0, 1), (2, 2)])


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def files(tmp_path):
    c3 = _write(tmp_path, "c3.graph", rio.format_graph(rg.cycle_graph(3)))
    c4 = _write(tmp_path, "c4.graph", rio.format_graph(rg.cycle_graph(4)))
    k2 = _write(tmp_path, "k2.graph", rio.format_graph(rg.complete_graph(2)))
    r1 = _write(
        tmp_path,
        "r1.rel",
        rio.format_relation(rg.relation_from_pairs(3, 2, [(0, 0), (1, 1)])),
    )
    return {"c3": c3, "c4": c4, "k2": k2, "r1": r1}


def test_cli_apply(files, capsys):
    assert main(["apply", files["c3"], files["r1"]]) == 0
    out = capsys.readouterr().out
    assert rio.parse_graph(out) == rg.complete_graph(2)


def test_cli_apply_json_matches_text(files, capsys):
    main(["apply", files["c3"], files["r1"]])
    text_out = capsys.readouterr().out
    main(["--json", "apply", files["c3"], files["r1"]])
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "decided"
    assert doc["result"]["edges"] == [[0, 1]]
    assert rio.parse_graph(text_out).edges == frozenset({(0, 1)})


def test_cli_solve_all_and_exit_codes(files, capsys):
    assert main(["solve", "--all", files["c3"], files["k2"]]) == 0
    out = capsys.readouterr().out
    assert "# solutions 6" in out
    assert main(["solve", files["k2"], files["c3"]]) == 1
    out = capsys.readouterr().out
    assert "certificate completeChar" in out


def test_cli_solve_budget_exhaustion(files, tmp_path, capsys):
    e4 = _write(tmp_path, "e4.graph", rio.format_graph(rg.empty_graph(4)))
    code = main(["solve", "--node-budget", "5", e4, e4])
    assert code == 3
    assert "budget exhausted" in capsys.readouterr().out


def test_cli_solve_json_decides_identically(files, capsys):
    main(["--json", "solve", files["k2"], files["c3"]])
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "negative"
    assert doc["certificate"]["kind"] == "completeChar"
    main(["--json", "solve", "--minimal", files["c3"], files["k2"]])
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 6 and len(doc["minimal"]) == 6


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("pick", ["--minimal", "--maximal"])
def test_cli_solve_exists_rejects_antichain_picks(files, capsys, json_flag, pick):
    # An exists-query finds one solution and no antichains to pick from.
    code = main([*json_flag, "solve", "--exists", pick, files["c4"], files["k2"]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "--exists cannot be combined with --minimal or --maximal" in err


def test_cli_rcore_and_witnesses(files, capsys):
    assert main(["rcore", files["c4"]]) == 0
    out = capsys.readouterr().out
    docs = out.split("relation")
    assert rio.parse_graph(docs[0]) == rg.complete_graph(2)
    fwd = rio.parse_relation("relation" + docs[1].split("#")[0])
    assert rg.apply_strong(rg.cycle_graph(4), fwd) == rg.complete_graph(2)


def test_cli_cocore_core_thin(files, capsys):
    for cmd in ("cocore", "core", "thin"):
        assert main([cmd, files["c4"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph 2")


def test_cli_equiv(files, capsys, tmp_path):
    p2 = _write(tmp_path, "p2.graph", rio.format_graph(rg.path_graph(3)))
    assert main(["equiv", "--strong", files["c4"], p2]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out
    assert main(["equiv", "--strong", files["c4"], files["c3"]]) == 1
    assert "NOT-EQUIVALENT" in capsys.readouterr().out
    assert main(["equiv", "--weak", files["c4"], files["k2"]]) == 0
    capsys.readouterr()


def test_cli_check_commands(files, capsys, tmp_path):
    assert main(["check", "prop-n", files["c4"]]) == 1
    assert capsys.readouterr().out.strip() == "false"
    c5 = _write(tmp_path, "c5.graph", rio.format_graph(rg.cycle_graph(5)))
    assert main(["check", "prop-n", c5]) == 0
    capsys.readouterr()
    hall_rel = _write(
        tmp_path,
        "hall.rel",
        rio.format_relation(rg.relation_from_pairs(2, 1, [(0, 0), (1, 0)])),
    )
    assert main(["check", "hall", hall_rel]) == 1
    assert "violating set: 0 1" in capsys.readouterr().out
    ret_rel = _write(
        tmp_path,
        "ret.rel",
        rio.format_relation(
            rg.relation_from_pairs(4, 4, [(2, 2), (3, 3), (0, 2), (1, 3)])
        ),
    )
    assert main(["check", "retraction", files["c4"], ret_rel, "--sub", "2,3"]) == 0
    capsys.readouterr()


def test_cli_check_hall_on_a_long_augmenting_path(tmp_path):
    # A perfect matching whose last augmenting path runs through all 1,200
    # vertices: decided positively, in a process of its own.
    n = 1200
    pairs = [(x, b) for x in range(n - 1) for b in (x, x + 1)] + [(n - 1, 0)]
    rel = _write(tmp_path, "chain.rel", rio.format_relation(rg.relation_from_pairs(n, n, pairs)))
    proc = subprocess.run(
        [sys.executable, "-m", "relgraph", "check", "hall", rel],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("true\n") and proc.stderr == ""


def test_cli_decompose_and_reduce(files, capsys):
    assert main(["decompose", files["r1"]]) == 0
    out = capsys.readouterr().out
    assert out.count("relation") == 2
    assert main(["reduce", "hom-to-fulrel", files["k2"], files["c3"]]) == 0
    built = rio.parse_graph(capsys.readouterr().out)
    assert built.n == 5
    assert main(["reduce", "fulrel-to-shom", files["k2"], files["c3"]]) == 0
    built = rio.parse_graph(capsys.readouterr().out)
    assert built.n == 6


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, "bad.graph", "graph 2\n0 9\n")
    assert main(["apply", bad, bad]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_env_default_budget(files, tmp_path, capsys, monkeypatch):
    e4 = _write(tmp_path, "e4.graph", rio.format_graph(rg.empty_graph(4)))
    monkeypatch.setenv("RELGRAPH_NODE_BUDGET", "5")
    assert main(["solve", e4, e4]) == 3
    capsys.readouterr()
    monkeypatch.setenv("RELGRAPH_NODE_BUDGET", "not-a-number")
    assert main(["solve", e4, e4]) == 2
    capsys.readouterr()


def test_cli_zero_budgets_are_usage_errors(tmp_path, capsys, monkeypatch):
    # 0 is an explicit budget, not "unset": it must neither run unbudgeted
    # nor fall back to the environment.
    c6 = _write(tmp_path, "c6.graph", rio.format_graph(rg.cycle_graph(6)))
    p4 = _write(tmp_path, "p4.graph", rio.format_graph(rg.path_graph(4)))
    for flag in ("--node-budget", "--time-budget"):
        assert main(["solve", "--all", flag, "0", c6, p4]) == 2
        assert "must be positive" in capsys.readouterr().err
    monkeypatch.setenv("RELGRAPH_NODE_BUDGET", "1000000")
    monkeypatch.setenv("RELGRAPH_TIME_BUDGET", "60")
    for flag in ("--node-budget", "--time-budget"):
        assert main(["solve", "--all", flag, "0", c6, p4]) == 2
        capsys.readouterr()


def test_cli_time_budget_exhaustion(tmp_path, capsys, monkeypatch):
    c6 = _write(tmp_path, "c6.graph", rio.format_graph(rg.cycle_graph(6)))
    p4 = _write(tmp_path, "p4.graph", rio.format_graph(rg.path_graph(4)))
    monkeypatch.setenv("RELGRAPH_TIME_BUDGET", "1e-9")
    assert main(["solve", "--all", "--weak", c6, p4]) == 3
    assert "budget exhausted" in capsys.readouterr().out


def test_json_and_text_decide_identically(files, tmp_path, capsys):
    c5 = _write(tmp_path, "c5.graph", rio.format_graph(rg.cycle_graph(5)))
    commands = [
        ["apply", files["c3"], files["r1"]],
        ["solve", files["c3"], files["k2"]],
        ["solve", files["k2"], files["c3"]],
        ["equiv", "--strong", files["c4"], files["c3"]],
        ["equiv", "--weak", files["c4"], files["k2"]],
        ["check", "prop-n", files["c4"]],
        ["check", "prop-nstar", c5],
        ["rcore", files["c4"]],
        ["decompose", files["r1"]],
    ]
    for argv in commands:
        text_code = main(argv)
        capsys.readouterr()
        json_code = main(["--json"] + argv)
        doc = json.loads(capsys.readouterr().out)
        assert json_code == text_code
        expected = {0: "decided", 1: "negative"}[text_code]
        assert doc["status"] == expected


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "relgraph", "apply", files["c3"], files["r1"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert rio.parse_graph(proc.stdout) == rg.complete_graph(2)


def test_cli_decides_exists_past_the_cap_on_rcores(tmp_path, capsys):
    # 60 twins of each vertex of C6 onto 10 twins of each vertex of P4.
    g, h = blow_up(rg.cycle_graph(6), 60, seed=11), blow_up(rg.path_graph(4), 10, seed=12)
    gf = _write(tmp_path, "g.graph", rio.format_graph(g))
    hf = _write(tmp_path, "h.graph", rio.format_graph(h))
    assert main(["--json", "solve", "--exists", "--full-domain", gf, hf]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "decided" and doc["complete"]
    (sol,) = doc["solutions"]
    r = rg.relation_from_pairs(sol["domain_size"], sol["image_size"], sol["pairs"])
    assert r.has_full_domain and matrix_composition(g, r) == h
    # Enumeration stays capped on the inputs.
    assert main(["--json", "solve", "--all", "--full-domain", gf, hf]) == 2
    assert "capped" in capsys.readouterr().err


def _reference_solve_output(argv: list[str], g: rg.Graph, h: rg.Graph) -> str:
    """What ``solve`` printed when it built every document in full: the
    library's Relations through one ``json.dumps`` of ``relation_to_json``
    documents, or through ``format_relation``."""
    as_json = "--json" in argv
    minimal, maximal = "--minimal" in argv, "--maximal" in argv
    enumeration = "all"
    if "--exists" in argv:
        enumeration = "exists"
    elif minimal != maximal:
        enumeration = "minimal" if minimal else "maximal"
    budget = int(argv[argv.index("--node-budget") + 1]) if "--node-budget" in argv else None
    query = rg.SolveQuery(
        g, h, mode="weak" if "--weak" in argv else "strong",
        domain="full" if "--full-domain" in argv else "any",
        enumeration=enumeration, node_budget=budget,
    )
    result, cert = rg.solve(query)
    sols = result.solutions
    if not result.complete:
        if not as_json:
            return "# budget exhausted before the search completed\n"
        doc = {"command": "solve", "status": "budget-exhausted",
               "solutions": [rio.relation_to_json(r) for r in sols],
               "complete": False, "certificate": None}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    picked = range(len(sols))
    if minimal != maximal:
        picked = result.minimal_elements if minimal else result.maximal_elements
    if as_json:
        doc = {
            "command": "solve",
            "status": "decided" if sols else "negative",
            "mode": query.mode,
            "domain": query.domain,
            "count": len(sols),
            "solutions": [rio.relation_to_json(sols[i]) for i in picked],
            "minimal": list(result.minimal_elements),
            "maximal": list(result.maximal_elements),
            "complete": True,
            "certificate": None if cert is None else
            {"kind": cert.kind, "detail": cert.detail, "values": cert.values_dict()},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if not sols:
        return "# no solution\n" + (f"# certificate {cert.kind}: {cert.detail}\n" if cert else "")
    text = f"# solutions {len(sols)}\n"
    if minimal or maximal:
        text += f"# minimal indices: {' '.join(map(str, result.minimal_elements))}\n"
        text += f"# maximal indices: {' '.join(map(str, result.maximal_elements))}\n"
    return text + "".join(rio.format_relation(sols[i], note=f"solution {i}") for i in picked)


def test_cli_solve_streams_the_reference_bytes(tmp_path, capsys):
    p5, p3 = rg.path_graph(5), rg.path_graph(3)
    cases = [
        (["--all"], p5, p3, 0),
        (["--minimal"], p5, p3, 0),
        (["--maximal"], p5, p3, 0),
        (["--minimal", "--maximal"], p5, p3, 0),
        (["--all", "--weak"], rg.cycle_graph(5), p3, 0),
        (["--all", "--full-domain"], rg.cycle_graph(6), rg.complete_graph(2), 0),
        (["--minimal", "--weak", "--full-domain"], rg.cycle_graph(6), p3, 0),
        (["--full-domain"], rg.complete_graph(3), rg.complete_graph(2), 1),  # chromatic
        (["--exists"], rg.complete_graph(2), rg.cycle_graph(3), 1),  # completeChar
        (["--all", "--node-budget", "800"], rg.cycle_graph(6), rg.path_graph(4), 3),
        (["--all"], p3, rg.empty_graph(0), 0),  # one solution, "pairs": []
        (["--exists", "--full-domain"],
         blow_up(rg.cycle_graph(6), 60, seed=11), blow_up(rg.path_graph(4), 10, seed=12), 0),
    ]
    for flags, g, h, code in cases:
        gf = _write(tmp_path, "g.graph", rio.format_graph(g))
        hf = _write(tmp_path, "h.graph", rio.format_graph(h))
        for head in (["--json", "solve"], ["solve"]):
            argv = head + flags + [gf, hf]
            assert main(argv) == code, argv
            assert capsys.readouterr().out == _reference_solve_output(argv, g, h), argv
    # The budget case lists partial solutions, the empty target one empty pair list.
    budget = _reference_solve_output(["--json", "--all", "--node-budget", "800"],
                                     rg.cycle_graph(6), rg.path_graph(4))
    assert len(json.loads(budget)["solutions"]) == 12
    assert '"pairs": []' in _reference_solve_output(["--json", "--all"], p3, rg.empty_graph(0))


def test_cli_solve_builds_no_relations(files, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the CLI writes solutions from their column masks")

    # Every Relation is built by one of these two constructors.
    monkeypatch.setattr(rg.Relation, "_of_columns", refuse)
    monkeypatch.setattr(rg.Relation, "__init__", refuse)
    assert main(["--json", "solve", "--all", files["c4"], files["k2"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == len(doc["solutions"]) > 0


def test_closed_stdout_pipe_exits_141_quietly(tmp_path):
    # About 1.6 MB of JSON, far more than a pipe buffers.
    gf = _write(tmp_path, "p7.graph", rio.format_graph(rg.path_graph(7)))
    hf = _write(tmp_path, "p4.graph", rio.format_graph(rg.path_graph(4)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "relgraph", "--json", "solve", "--all", gf, hf],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(64).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 141
    assert b"Traceback" not in err and b"Error" not in err
