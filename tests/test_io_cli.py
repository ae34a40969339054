import json
import random
import subprocess
import sys

import pytest

import relgraph as rg
from relgraph import io as rio
from relgraph.cli import main
from helpers import random_graph, random_image_full_relation


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
