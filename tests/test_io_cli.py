import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import relgraph as rg
from relgraph import cli, io as rio
from relgraph.cli import main
from helpers import (
    blow_up, matrix_composition, random_graph, random_image_full_relation, reference_parser,
)


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


def test_json_text_matches_json_dumps():
    """``io.json_text`` gives the text of ``json.dumps(..., indent=2,
    sort_keys=True)`` on seeded random documents, those that it hands to
    ``json`` (floats, strings that need escaping) among them."""
    rng = random.Random(61)
    characters = 'az AZ09~-_."\\/\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600'

    def text():
        return "".join(rng.choice(characters) for _ in range(rng.randint(0, 5)))

    def value(depth):
        kind = rng.randrange(8 if depth < 4 else 5)
        if kind == 0:
            return rng.choice([None, True, False, 0, -1, 1, 7, -(10**30), 2**64])
        if kind == 1:
            return rng.choice(["", "status", "decided", "a b:c", "x" * 40])
        if kind == 2:
            return text()
        if kind == 3:
            return rng.choice([0.0, -0.0, 1.5, -2.25, 1e300, 0.1, float("inf"),
                               float("-inf"), float("nan")])
        if kind == 4:
            return rng.randint(-1000, 1000)
        items = [value(depth + 1) for _ in range(rng.randint(0, 4))]
        if kind == 5:
            return items
        if kind == 6:
            return tuple(items)
        return {rng.choice(["a", "b", "pairs", text()]): item for item in items}

    for _ in range(3000):
        doc = value(0)
        assert rio.json_text(doc) == json.dumps(doc, indent=2, sort_keys=True), doc


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


def test_cli_check_sub_is_only_for_retraction_checks(files, capsys, tmp_path):
    # --sub names the subgraph of a retraction or coretraction check; any
    # other predicate would answer without it, so it is a usage error.
    hall_rel = _write(tmp_path, "hall.rel", rio.format_relation(rg.identity_relation(2)))
    for argv in (["check", "hall", hall_rel, "--sub", "1"],
                 ["check", "prop-n", files["c4"], "--sub", "0,1"],
                 ["--json", "check", "reversible", files["c4"], files["r1"], "--sub", "0"]):
        assert main(argv) == 2, argv
        kind = argv[argv.index("check") + 1]
        assert capsys.readouterr() == (
            "", f"error: --sub applies only to retraction and coretraction checks, not {kind}\n"
        )
    assert main(["check", "hall", hall_rel]) == 0
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


def test_cli_undecodable_input_is_a_read_error(tmp_path, capsys):
    # Bytes that are not UTF-8: a usage error (exit 2), not a traceback.
    bad = tmp_path / "bad.graph"
    bad.write_bytes(b"\xff\xfe")
    assert main(["rcore", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")
    bad_rel = tmp_path / "bad.rel"
    bad_rel.write_bytes(b"relation 1 1\n0 0\n\xff\n")
    assert main(["decompose", str(bad_rel)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad_rel}: ")


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


def test_cli_nan_time_budget_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # float() parses "nan", which would otherwise run the search unbounded.
    c6 = _write(tmp_path, "c6.graph", rio.format_graph(rg.cycle_graph(6)))
    p4 = _write(tmp_path, "p4.graph", rio.format_graph(rg.path_graph(4)))
    assert main(["solve", "--all", "--time-budget", "nan", c6, p4]) == 2
    assert "time budget must be positive" in capsys.readouterr().err
    monkeypatch.setenv("RELGRAPH_TIME_BUDGET", "nan")
    assert main(["solve", "--all", c6, p4]) == 2
    assert "time budget must be positive" in capsys.readouterr().err


def test_cli_time_budget_exhaustion(tmp_path, capsys, monkeypatch):
    c6 = _write(tmp_path, "c6.graph", rio.format_graph(rg.cycle_graph(6)))
    p4 = _write(tmp_path, "p4.graph", rio.format_graph(rg.path_graph(4)))
    monkeypatch.setenv("RELGRAPH_TIME_BUDGET", "1e-9")
    assert main(["solve", "--all", "--weak", c6, p4]) == 3
    assert "budget exhausted" in capsys.readouterr().out


def test_json_and_text_decide_identically(files, tmp_path, capsys):
    c5 = _write(tmp_path, "c5.graph", rio.format_graph(rg.cycle_graph(5)))
    four_to_k2 = _write(tmp_path, "fold.rel", rio.format_relation(
        rg.relation_from_pairs(4, 2, [(0, 0), (1, 1), (2, 0), (3, 1)])))
    squeeze = _write(tmp_path, "squeeze.rel", rio.format_relation(
        rg.relation_from_pairs(2, 1, [(0, 0), (1, 0)])))
    identity = _write(tmp_path, "id.rel", rio.format_relation(rg.identity_relation(4)))
    retract = _write(tmp_path, "ret.rel", rio.format_relation(
        rg.relation_from_pairs(4, 4, [(2, 2), (3, 3), (0, 2), (1, 3)])))
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
        ["apply-weak", files["c4"], four_to_k2],
        ["thin", files["c4"]],
        ["cocore", files["c4"]],
        ["core", files["c4"]],
        ["check", "hall", files["r1"]],
        ["check", "hall", squeeze],
        ["check", "reversible", files["c4"], four_to_k2],
        ["check", "retraction", files["c4"], retract, "--sub", "2,3"],
        ["check", "coretraction", files["c4"], identity, "--sub", "0,1"],
        ["reduce", "hom-to-fulrel", files["k2"], files["c3"]],
        ["reduce", "fulrel-to-shom", files["k2"], files["c3"]],
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


# Runs ``python -m relgraph`` with the given arguments and prints the name of
# every module loaded, one ``module: <name>`` line each on stderr at exit.
_PRINT_MODULES_AT_EXIT = """
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("".join(f"module: {m}\\n" for m in sorted(sys.modules))))
sys.argv[0] = "relgraph"
runpy.run_module("relgraph", run_name="__main__", alter_sys=True)
"""


# Where relgraph was imported from: ``python -S`` has no ``site`` to find it.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(rg.__file__)))


def _modules_loaded(*args: str, flags: tuple[str, ...] = ()) -> set[str]:
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _PRINT_MODULES_AT_EXIT, *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert proc.returncode == 0, proc.stderr[:2000]
    return {line[8:] for line in proc.stderr.splitlines() if line.startswith("module: ")}


def test_each_command_loads_only_the_modules_it_runs(files):
    g, h, rel = files["c4"], files["k2"], files["r1"]
    without_solver = [
        ["--help"], ["rcore", g], ["thin", g], ["core", g], ["--json", "cocore", g],
        ["equiv", "--weak", g, h], ["--json", "equiv", "--strong", g, h],
    ]
    # Without ``site``, which may import some of these itself, none of the
    # standard library's slow-to-import modules loads either: the parser
    # is relgraph's own, so not argparse and the gettext and locale it needs,
    # nor ``re``; and ``io.json_text`` renders the JSON, so not ``json``.
    heavy = {"dataclasses", "inspect", "pathlib", "typing", "argparse", "gettext", "locale",
             "json", "re"}
    for args in without_solver:
        loaded = _modules_loaded(*args)
        assert "relgraph.cli" in loaded, args
        assert "relgraph.solver" not in loaded, args
        assert "fractions" not in loaded, args
        # Only help and usage errors render help text.
        assert ("relgraph.clihelp" in loaded) == (args == ["--help"]), args
        # The reduced forms and equivalences compose through ``core`` alone.
        composing = loaded & {"relgraph.algebra", "relgraph.clialgebra", "relgraph.clisolver"}
        assert not composing, (args, composing)
        bare = _modules_loaded(*args, flags=("-S",))
        assert "relgraph.cli" in bare and not bare & heavy, (args, bare & heavy)
        if args[0] in ("rcore", "thin"):
            assert "relgraph.generate" not in bare, args
        if args[0] in ("rcore", "thin") or "equiv" in args:
            assert "relgraph.retract" not in loaded, args
    loaded = _modules_loaded("--json", "solve", "--all", g, h)
    assert "relgraph.solver" in loaded
    unused = {
        "relgraph.algebra", "relgraph.equivalence", "relgraph.retract", "relgraph.generate",
        "relgraph.clialgebra", "fractions",
    }
    assert not loaded & unused, loaded & unused
    for enumeration in ("--all", "--exists"):
        bare = _modules_loaded("--json", "solve", enumeration, g, h, flags=("-S",))
        assert "relgraph.solver" in bare and not bare & heavy, (enumeration, bare & heavy)
    others = [["apply", files["c3"], rel], ["check", "prop-n", files["c3"]], ["decompose", rel],
              ["reduce", "hom-to-fulrel", h, g]]
    for args in others:
        assert "fractions" not in _modules_loaded(*args), args
        bare = _modules_loaded(*args, flags=("-S",))
        assert "relgraph.cli" in bare and not bare & heavy, (args, bare & heavy)


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
    assert len(json.loads(budget)["solutions"]) == 84
    assert '"pairs": []' in _reference_solve_output(["--json", "--all"], p3, rg.empty_graph(0))


# The input files each command reads, in order, by command or predicate;
# the rest read graphs.
_READS = {
    "apply": (rio.parse_graph, rio.parse_relation),
    "apply-weak": (rio.parse_graph, rio.parse_relation),
    "decompose": (rio.parse_relation,),
    "hall": (rio.parse_relation,),
    "reversible": (rio.parse_graph, rio.parse_relation),
    "retraction": (rio.parse_graph, rio.parse_relation),
    "coretraction": (rio.parse_graph, rio.parse_relation),
    "prop-n": (rio.parse_graph,),
    "prop-nstar": (rio.parse_graph,),
}


def _reference_output(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a command other than ``solve``, built
    from the library's results through ``io``'s renderers: one
    ``json.dumps`` of the whole document, or the text blocks in order."""
    as_json = argv[0] == "--json"
    command, *rest = argv[as_json:]
    sub = rest[rest.index("--sub") + 1] if "--sub" in rest else None
    words = [a for a in rest if not a.startswith("--") and a != sub]
    kind = words.pop(0) if command in ("check", "reduce") else None
    reads = _READS.get(kind or command, ())
    if command == "check" and len(words) != len(reads):
        return 2, "", f"error: check {kind} takes {len(reads)} input file(s), got {len(words)}\n"
    objs = []
    for i, path in enumerate(words):
        try:
            with open(path) as f:
                text = f.read()
        except OSError as exc:
            return 2, "", f"error: cannot read {path}: {exc}\n"
        try:
            objs.append((reads[i] if i < len(reads) else rio.parse_graph)(text))
        except rio.ParseError as exc:
            return 2, "", f"error: {path}: {exc}\n"
    graph, rel = rio.format_graph, rio.format_relation
    graph_doc, rel_doc = rio.graph_to_json, rio.relation_to_json
    doc = {"command": command, "status": "decided"}
    code = 0
    try:
        if command in ("apply", "apply-weak"):
            result = (rg.apply_weak if command == "apply-weak" else rg.apply_strong)(*objs)
            doc["result"] = graph_doc(result)
            text = graph(result)
        elif command == "thin":
            tq = rg.thin_quotient(*objs)
            classes = [sorted(c) for c in tq.partition.classes]
            doc.update(result=graph_doc(tq.thin_graph), classes=classes,
                       witness=rel_doc(tq.class_relation))
            text = graph(tq.thin_graph) + "".join(
                f"# class {i} = {' '.join(map(str, c))}\n" for i, c in enumerate(classes)
            ) + rel(tq.class_relation, note="witness: vertex to class")
        elif command == "rcore":
            core, forward, backward = rg.rcore_with_witness(*objs)
            doc.update(result=graph_doc(core), forward=rel_doc(forward),
                       backward=rel_doc(backward))
            text = (graph(core) + rel(forward, note="witness: input * R = core")
                    + rel(backward, note="witness: core * S = input"))
        elif command in ("core", "cocore"):
            find = rg.graph_core_with_witness if command == "core" else rg.cocore_with_witness
            core, witness = find(*objs)
            kept = sorted(witness.sub)
            doc.update(result=graph_doc(core), kept=kept, witness=rel_doc(witness.relation))
            note = "witness retraction" if command == "core" else "witness coretraction"
            text = (graph(core) + f"# kept vertices: {' '.join(map(str, kept))}\n"
                    + rel(witness.relation, note=note))
        elif command == "equiv":
            weak = "--weak" in rest
            witness = (rg.weakly_equivalent if weak else rg.strongly_equivalent)(*objs)
            if witness is None:
                code = 1
                doc.update(status="negative", kind="weak" if weak else "strong",
                           equivalent=False)
                text = "NOT-EQUIVALENT\n"
            else:
                doc.update(kind=witness.kind, equivalent=True,
                           forward=rel_doc(witness.forward), backward=rel_doc(witness.backward))
                text = ("EQUIVALENT\n" + rel(witness.forward, note="forward witness")
                        + rel(witness.backward, note="backward witness"))
        elif command == "decompose":
            dec = rg.decompose(*objs)
            doc.update(domain_vertices=sorted(dec.domain_vertices), mid_size=dec.mid_size,
                       mid_pairs=[list(p) for p in dec.mid_pairs],
                       duplicator=rel_doc(dec.duplicator), contractor=rel_doc(dec.contractor))
            text = rel(dec.duplicator, note="duplicator (injective)") + "".join(
                f"# mid vertex {i} = pair {x} {b}\n" for i, (x, b) in enumerate(dec.mid_pairs)
            ) + rel(dec.contractor, note="contractor (functional)")
        elif command == "reduce":
            build = rg.reduce_hom_to_fulrel if kind == "hom-to-fulrel" else rg.reduce_fulrel_to_shom
            result = build(*objs)
            doc.update(construction=kind, result=graph_doc(result))
            text = graph(result)
        elif kind == "hall":
            (r,) = objs
            report = rg.hall_check(r)
            code = 0 if report.satisfied else 1
            doc.update(predicate="hall", satisfied=report.satisfied,
                       status="decided" if report.satisfied else "negative")
            if report.satisfied:
                mono = rg.relation_from_pairs(r.domain_size, r.image_size, report.monomorphism)
                doc["monomorphism"] = rel_doc(mono)
                text = "true\n" + rel(mono, note="monomorphism")
            else:
                doc["violating_set"] = sorted(report.violating_set)
                text = f"false\n# violating set: {' '.join(map(str, doc['violating_set']))}\n"
        else:
            if kind in ("retraction", "coretraction"):
                if sub is None:
                    return 2, "", f"error: {kind} check needs --sub with the subgraph vertices\n"
                g, r = objs
                vertices = [int(v) for v in sub.replace(",", " ").split()]
                check = rg.is_retraction if kind == "retraction" else rg.is_coretraction
                answer = check(g, vertices, r)
            else:
                answer = {"reversible": rg.is_reversible, "prop-n": rg.property_n,
                          "prop-nstar": rg.property_n_star}[kind](*objs)
            code = 0 if answer else 1
            doc.update(predicate=kind, answer=answer,
                       status="decided" if answer else "negative")
            text = "true\n" if answer else "false\n"
    except ValueError as exc:  # CapExceededError and the universe checks
        return 2, "", f"error: {exc}\n"
    return code, json.dumps(doc, indent=2, sort_keys=True) + "\n" if as_json else text, ""


_HELP = """\
usage: relgraph [-h] [--json]
                {apply,apply-weak,thin,rcore,cocore,core,equiv,solve,check,decompose,reduce}
                ...

Algebra of relations between graphs: composition, equivalences, cores,
cocores, and an exhaustive equation solver.

positional arguments:
  {apply,apply-weak,thin,rcore,cocore,core,equiv,solve,check,decompose,reduce}
    apply               compose a graph with a relation
    apply-weak          loop-free composition
    thin                quotient by equal neighborhoods
    rcore               minimum weak-equivalence representative
    cocore              minimal generating subgraph
    core                smallest retract (graph core)
    equiv               decide relational equivalence
    solve               solve graph * R = target for R
    check               boolean predicates with witnesses
    decompose           duplicate-then-contract split
    reduce              problem reductions

options:
  -h, --help            show this help message and exit
  --json                emit one JSON document
"""


def test_cli_commands_print_the_reference_bytes(tmp_path, capsys, monkeypatch):
    """Every command but ``solve``, text and ``--json``: stdout, stderr and
    exit code match the library's results rendered through ``io``, on
    graphs with loops, isolated vertices and no vertices at all."""
    c4 = rg.cycle_graph(4)
    graphs = {
        "c4": c4,
        "c5": rg.cycle_graph(5),
        "k2": rg.complete_graph(2),
        "k3": rg.complete_graph(3),
        "p3": rg.path_graph(3),
        "loops": rg.graph_from_edges(6, [(0, 1), (1, 2), (2, 2), (3, 4)]),  # vertex 5 isolated
        "isolated": rg.empty_graph(3),
        "c4_isolated": rg.disjoint_union(rg.empty_graph(2), c4),  # the stand-in is vertex 0
        "empty": rg.empty_graph(0),
        "twins": blow_up(rg.path_graph(4), 2, seed=5),
        "c11": rg.cycle_graph(11),  # past graph_core's cap of 10
    }
    _, cocore_witness = rg.cocore_with_witness(graphs["twins"])
    relations = {
        "onto_k3": rg.relation_from_pairs(4, 3, [(0, 0), (1, 1), (2, 2), (3, 1)]),
        "onto_p3": rg.relation_from_pairs(6, 3, [(0, 0), (1, 1), (2, 2), (5, 2)]),
        "squeeze": rg.relation_from_pairs(2, 1, [(0, 0), (1, 0)]),  # Hall violation
        "matching": rg.relation_from_pairs(3, 4, [(0, 0), (0, 1), (1, 1), (2, 1), (2, 3), (1, 2)]),
        "identity": rg.identity_relation(4),
        "partial": rg.relation_from_pairs(4, 4, [(0, 0), (1, 1)]),  # image not full
        "collapse": rg.relation_from_pairs(4, 1, [(x, 0) for x in range(4)]),
        "nothing": rg.relation_from_pairs(0, 0, []),
        "retract": rg.relation_from_pairs(4, 4, [(2, 2), (3, 3), (0, 2), (1, 3)]),
        "coretract": cocore_witness.relation,
    }
    paths = {name: _write(tmp_path, f"{name}.graph", rio.format_graph(g))
             for name, g in graphs.items()}
    paths.update({name: _write(tmp_path, f"{name}.rel", rio.format_relation(r))
                  for name, r in relations.items()})
    paths["bad"] = _write(tmp_path, "bad.graph", "graph 2\n0 9\n")
    paths["missing"] = str(tmp_path / "missing.graph")
    kept = ",".join(map(str, sorted(cocore_witness.sub)))
    cases = [
        ["apply", "c4", "onto_k3"], ["apply", "loops", "onto_p3"], ["apply", "c5", "onto_k3"],
        ["apply-weak", "c4", "onto_k3"], ["apply-weak", "loops", "onto_p3"],
        ["equiv", "--strong", "c4", "p3"], ["equiv", "--strong", "c4", "k3"],
        ["equiv", "--weak", "c4", "k2"], ["equiv", "--weak", "c5", "k3"],
        ["equiv", "--strong", "empty", "empty"],
        ["decompose", "onto_k3"], ["decompose", "matching"], ["decompose", "nothing"],
        ["reduce", "hom-to-fulrel", "k2", "k3"], ["reduce", "fulrel-to-shom", "k2", "k3"],
        ["reduce", "fulrel-to-shom", "loops", "p3"], ["reduce", "hom-to-fulrel", "empty", "empty"],
        ["check", "hall", "squeeze"], ["check", "hall", "matching"], ["check", "hall", "nothing"],
        ["check", "hall", "c4", "squeeze"],
        ["check", "reversible", "c4", "identity"], ["check", "reversible", "c4", "onto_k3"],
        ["check", "reversible", "c4", "partial"], ["check", "reversible", "c4", "collapse"],
        ["check", "prop-n", "c4"], ["check", "prop-n", "c5"], ["check", "prop-nstar", "c5"],
        ["check", "prop-nstar", "loops"],
        ["check", "retraction", "c4", "retract", "--sub", "2,3"],
        ["check", "retraction", "c4", "retract", "--sub", "0 1"],
        ["check", "retraction", "c4", "retract"],
        ["check", "coretraction", "twins", "coretract", "--sub", kept],
        ["check", "coretraction", "c4", "identity", "--sub", "0,1"],
        ["rcore", "bad"], ["apply", "c4", "missing"],
    ]
    for command in ("thin", "rcore", "cocore", "core"):
        cases += [[command, name]
                  for name in ("c4", "loops", "isolated", "c4_isolated", "empty", "twins")]
    cases += [["core", "c11"], ["cocore", "c11"]]
    for case in cases:
        files = [paths.get(word, word) for word in case]
        for argv in (files, ["--json"] + files):
            code = main(argv)
            out, err = capsys.readouterr()
            assert (code, out, err) == _reference_output(argv), argv
    # A reduced form names every vertex as the input vertex it keeps, the
    # isolated stand-in too.
    assert main(["rcore", paths["c4_isolated"]]) == 0
    assert capsys.readouterr().out.startswith(
        "graph 3\n0 1\n# vertex 0 = 4\n# vertex 1 = 5\n# vertex 2 = 0\n"
    )
    # The usage errors that do not depend on the library.
    assert main(["check", "retraction", paths["c4"], paths["retract"]]) == 2
    assert capsys.readouterr() == (
        "", "error: retraction check needs --sub with the subgraph vertices\n"
    )
    assert main(["check", "prop-n", paths["c4"], paths["c5"]]) == 2
    assert capsys.readouterr() == ("", "error: check prop-n takes 1 input file(s), got 2\n")
    for name, value, what in (("RELGRAPH_NODE_BUDGET", "many", "an integer"),
                              ("RELGRAPH_TIME_BUDGET", "soon", "a number")):
        monkeypatch.setenv(name, value)
        assert main(["solve", paths["c4"], paths["k2"]]) == 2
        assert capsys.readouterr() == ("", f"error: {name} must be {what}, got {value!r}\n")
        monkeypatch.delenv(name)
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    assert capsys.readouterr() == (_HELP, "")


# Each command's positionals and options as argv words: an option is a
# list of words, its value included.
_PARSER_POSITIONALS = {
    "apply": ["G", "R"], "apply-weak": ["G", "R"], "thin": ["G"], "rcore": ["G"],
    "cocore": ["G"], "core": ["G"], "equiv": ["G", "H"], "solve": ["G", "H"],
    "check": ["hall", "G", "R"], "decompose": ["R"], "reduce": ["hom-to-fulrel", "G", "H"],
}
_PARSER_OPTIONS = {
    "equiv": [["--strong"], ["--weak"]],
    "solve": [["--weak"], ["--full-domain"], ["--all"], ["--exists"], ["--minimal"],
              ["--maximal"], ["--node-budget", "5"], ["--time-budget", "2.5"]],
    "check": [["--sub", "0,1"]],
}


def _spellings(option: list[str]) -> list[list[str]]:
    """``option`` whole, by its shortest unique prefix, and with "=value"."""
    flag, *value = option
    prefix = {"--full-domain": "--full", "--node-budget": "--node", "--time-budget": "--t",
              "--minimal": "--mi", "--maximal": "--ma", "--strong": "--st", "--sub": "--su",
              "--weak": "--w", "--all": "--a", "--exists": "--e"}[flag]
    spelled = [option, [prefix, *value]]
    if value:
        spelled += [[f"{flag}={value[0]}"], [f"{prefix}={value[0]}"]]
    return spelled


def _parser_corpus() -> list[list[str]]:
    """Argument lists for every command: each flag order with the options
    between the positionals, every spelling, "--" at each place, missing,
    extra and unknown arguments, clashing flags, bad values and help."""
    corpus = [[], ["--json"], ["-h"], ["--help"], ["--he"], ["--json", "-h"], ["bogus"],
              ["--", "rcore", "G"], ["--bogus", "rcore", "G"], ["--json=1", "rcore", "G"],
              ["--j", "rcore", "G"], ["-hh"], ["-hx"], ["-h="], ["--=1", "rcore", "G"]]
    for name, positionals in _PARSER_POSITIONALS.items():
        options = _PARSER_OPTIONS.get(name, [])
        for size in range(3):
            for chosen in itertools.combinations(options, size):
                for order in itertools.permutations([[p] for p in positionals] + list(chosen)):
                    corpus.append([name, *itertools.chain(*order)])
        for option in options:
            for spelled in _spellings(option):
                corpus.append([name, *positionals[:1], *spelled, *positionals[1:]])
        base = [name, *positionals]
        for i in range(1, len(base) + 1):
            corpus.append(base[:i] + ["--"] + base[i:])
            corpus.append(base[:i] + ["-h"] + base[i:])
            corpus.append(base[:i] + ["--bogus"] + base[i:])
            corpus.append(base[:i] + ["-x"] + base[i:])
            corpus.append(base[:i] + ["-5"] + base[i:])
            corpus.append(base[:i] + base[i + 1:])  # one missing
            corpus.append(base[:i] + ["extra"] + base[i:])
        corpus += [["--json", *base], [*base, "--json"], [name], [name, "-h"],
                   [*base, "--help=x"], [*base, "--h"], [*base, "--"], ["--", *base]]
    corpus += [
        ["equiv", "G", "H"], ["equiv", "--strong", "--weak", "G", "H"],
        ["equiv", "--weak", "G", "--strong", "H"], ["equiv", "--s", "G", "H"],
        ["solve", "--all", "--exists", "G", "H"], ["solve", "--exists", "G", "H", "--all"],
        ["solve", "--all", "--all", "G", "H"], ["solve", "--m", "G", "H"],
        ["solve", "--weak=1", "G", "H"], ["solve", "--all=", "G", "H"],
        ["solve", "--node-budget", "x", "G", "H"], ["solve", "--node-budget=1.5", "G", "H"],
        ["solve", "--time-budget", "soon", "G", "H"], ["solve", "--time-budget", "nan", "G", "H"],
        ["solve", "--node-budget", "-5", "G", "H"], ["solve", "--time-budget", "-1.5", "G", "H"],
        ["solve", "--time-budget", "-1e5", "G", "H"], ["solve", "--node-budget", "G", "H"],
        ["solve", "G", "H", "--node-budget"], ["solve", "--node-budget", "--", "5", "G", "H"],
        ["solve", "--node-budget=", "G", "H"], ["solve", "--node-budget", " 7 ", "G", "H"],
        ["solve", "G", "H", "--all", "--"], ["solve", "G", "--", "--all", "H"],
        ["solve", "-G", "H"], ["solve", "-", "H"], ["solve", "", "H"], ["solve", "-a b", "H"],
        ["check", "bogus", "G"], ["check", "hall"], ["check", "hall", "R", "--sub"],
        ["check", "--sub", "1", "retraction", "G", "R"],
        ["check", "retraction", "G", "--sub", "1", "R"],
        ["check", "hall", "G", "R", "S", "T"], ["check", "retraction", "--", "G", "R"],
        ["check", "retraction", "G", "--sub", "-1", "R"], ["check", "hall", "--sub=", "R"],
        ["reduce", "bogus", "G", "H"], ["reduce", "G", "H"], ["reduce", "HOM-TO-FULREL", "G", "H"],
        ["rcore", "--json", "G"], ["rcore", "G", "H"], ["rcore", "-hh"], ["rcore", "-h=h"],
        ["rcore", "-hx"], ["rcore", "G", "-h"], ["apply", "G"], ["apply", "-h", "--bogus"],
        ["apply", "--bogus", "-h"],
    ]
    # Argparse reads an argument as a negative number by a regular expression
    # in which ``\d`` is any Unicode decimal digit and ``$`` also matches
    # before a final newline.
    for number in ("-5", "-٣", "-²", "-5\n", "-5\n\n", "-.5", "-x.5", "-1.", "-1.2.3", "-1e3"):
        corpus += [["rcore", number], ["solve", "G", number],
                   ["solve", "--time-budget", number, "G", "H"]]
    # A second "--" is a positional to this parser; argparse on Python 3.11
    # drops one "--" from each positional's words, so the lists above and
    # below hold at most one.
    rng = random.Random(23)
    words = ["G", "H", "-5", "-x", "--", "", "-", "hall", "--all", "--weak", "--strong", "--sub",
             "--node", "--node=3", "--time-budget", "--m", "--e", "-h", "--json", "--bogus",
             "1,2", "x", "2.5", "hom-to-fulrel", "a b"]
    while len(corpus) < 4000:
        argv = [rng.choice(list(_PARSER_POSITIONALS))]
        argv += [rng.choice(words) for _ in range(rng.randint(0, 6))]
        if argv.count("--") < 2:
            corpus.append(argv)
    return corpus


def test_parser_agrees_with_the_reference_parser(capsys, monkeypatch):
    """``cli._parse`` gives argparse's namespace for every argument list the
    reference parser accepts; where that prints help, ``main`` prints the
    same bytes, and where it rejects the list, ``main`` exits 2 and prints
    nothing on stdout."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse's help layout follows the terminal
    reference = reference_parser()

    def fields(namespace):  # by repr, so that a "nan" budget equals itself
        return {key: repr(value) for key, value in vars(namespace).items()}

    outcomes = set()
    for argv in _parser_corpus():
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                expected = "namespace", fields(reference.parse_args(argv))
            except SystemExit as exc:
                expected = exc.code, out.getvalue()
        try:
            got = "namespace", fields(cli._parse(argv))
        except cli._Exit:
            got = main(argv), capsys.readouterr().out
        assert got == expected, argv
        outcomes.add(expected[0])
    assert outcomes == {"namespace", 0, 2}


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
