"""The benchmark's own checks catch corrupted outputs and count them as failures.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calib  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from relgraph import cli  # noqa: E402


def _cli_output(tmp_path: Path, files: dict, args: list[str]) -> tuple[int, bytes]:
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / a) if a in files else a for a in args]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue().encode()


def _solve_op(tmp_path: Path, name: str):
    manifest, files = inputs.build("enumerate", 7)
    op = next(o for o in manifest["ops"] if o["name"] == name)
    code, out = _cli_output(tmp_path, files, op["args"])
    return op, code, json.loads(out)


def test_enumerate_outputs_pass_and_corruptions_fail(tmp_path):
    op, code, doc = _solve_op(tmp_path, "C10-C5-full")
    assert verify.check_op(op, code, json.dumps(doc).encode()) is None

    broken = json.loads(json.dumps(doc))
    broken["solutions"][3]["pairs"][0][1] = (broken["solutions"][3]["pairs"][0][1] + 1) % 5
    assert verify.check_op(op, code, json.dumps(broken).encode())

    dropped = json.loads(json.dumps(doc))
    del dropped["solutions"][-1]
    assert verify.check_op(op, code, json.dumps(dropped).encode())

    doubled = json.loads(json.dumps(doc))
    doubled["solutions"][1] = doubled["solutions"][0]
    assert verify.check_op(op, code, json.dumps(doubled).encode())

    not_minimal = json.loads(json.dumps(doc))
    not_minimal["minimal"][0] = next(i for i in range(doc["count"]) if i not in doc["minimal"])
    assert verify.check_op(op, code, json.dumps(not_minimal).encode())

    assert verify.check_op(op, 1, json.dumps(doc).encode())
    assert verify.check_op(op, code, b"{not json")


def test_minimal_listing_checked_by_perturbation(tmp_path):
    op, code, doc = _solve_op(tmp_path, "C8-P4-minimal")
    assert verify.check_op(op, code, json.dumps(doc).encode()) is None
    src, tgt = verify.graph_rows(op["source"]), verify.graph_rows(op["target"])
    cols = verify.columns(doc["solutions"][0], len(src), len(tgt))
    # A solution with one more pair is valid but not minimal: the test must say so.
    for b in range(len(tgt)):
        for x in range(len(src)):
            trial = list(cols)
            trial[b] |= 1 << x
            if trial != cols and verify.solves(src, tgt, trial, False, False):
                assert verify._perturbation(src, tgt, trial, False, False, minimal=True)
                return
    raise AssertionError("no non-minimal solution near the first one")


def test_reduce_witness_corruption_fails(tmp_path):
    manifest, files = inputs.build("reduce", 7)
    for op in manifest["ops"]:
        if op["kind"] in ("rcore", "equiv", "core"):
            code, out = _cli_output(tmp_path, files, op["args"])
            assert verify.check_op(op, code, out) is None, op["name"]
    op = next(o for o in manifest["ops"] if o["kind"] == "rcore")
    code, out = _cli_output(tmp_path, files, op["args"])
    doc = json.loads(out)
    for key in ("forward", "backward"):
        broken = json.loads(out)
        broken[key]["pairs"].pop()
        assert verify.check_op(op, code, json.dumps(broken).encode()), key
    wrong_order = dict(op, order=op["order"] + 1)
    assert verify.check_op(wrong_order, code, json.dumps(doc).encode())

    op = next(o for o in manifest["ops"] if o["name"] == "equiv-weak-no")
    lie = {"command": "equiv", "status": "decided", "equivalent": True,
           "forward": doc["forward"], "backward": doc["backward"]}
    assert verify.check_op(op, 0, json.dumps(lie).encode())


def test_decide_false_answers_fail():
    p3 = {"n": 3, "edges": [[0, 1], [1, 2]]}
    k2 = {"n": 2, "edges": [[0, 1]]}
    query = {"source": p3, "target": k2, "mode": "strong", "domain": "any"}
    assert verify.check_decide(query, [0.0, "found", [[0, 0], [1, 1], [2, 0]], None]) is None
    assert verify.check_decide(query, [0.0, "found", [[0, 0], [1, 0], [2, 1]], None])
    # P3 -> K2 is solvable, so a negative answer is refuted by brute force.
    assert verify.check_decide(query, [0.0, "none", None, "exhausted"])
    assert verify.check_decide(query, [0.0, "undecided", None, "chromatic"])


def test_corrupted_output_counts_as_failure(tmp_path):
    op, code, doc = _solve_op(tmp_path, "C10-C5-full")
    bench = run.Bench("enumerate", 7, tmp_path)
    good = json.dumps(doc).encode()
    broken = json.loads(good)
    broken["solutions"][0]["pairs"].pop()
    bench.check_op(0, op, code, good)
    bench.check_op(0, op, code, json.dumps(broken).encode())
    bench.check_op(0, op, code, good)
    assert bench.attempted == 3 and len(bench.failures) == 1

    queries = inputs.build("decide", 7)[0]["queries"][:2]
    bench.check_queries(queries, None)
    assert bench.attempted == 5 and len(bench.failures) == 3


def test_times_are_scaled_by_the_speed_probe():
    # A probe that ran twice as fast as the reference doubles every time.
    assert calib.scale([calib.REFERENCE_S / 2] * 3) == 2.0
    metrics = run.latency_metrics([0.5, 1.0, 1.5], 2.0)
    assert metrics["wall_s"] == (6.0, "s")
    assert metrics["op_p50_ms"] == (2000.0, "ms")
    assert metrics["ops_per_s"] == (0.5, "1/s")
