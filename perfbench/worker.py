"""Worker processes started by ``run.py``; each imports relgraph from ``src``.

    worker.py setup <workload> <seed> <dir>     write inputs and manifest.json
    worker.py decide <dir> <out> [<count>]      run the decide stream
    worker.py inproc <dir> <out> <traced> [<spans>]
        run the workload inside this process, CLI operations through
        ``relgraph.cli.main``; with traced=1, wrap the library first and
        report per-layer metrics

Results go to ``<out>`` as JSON; ``run.py`` checks them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Speed probes in a decide pass: PROBE_SPINS spins before every PROBE_EVERY
# queries, about 5 % of the pass.
PROBE_EVERY = 10
PROBE_SPINS = 2


def _setup(workload: str, seed: int, workdir: Path) -> None:
    import inputs

    manifest, files = inputs.build(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (workdir / name).write_text(text)
    (workdir / "manifest.json").write_text(json.dumps(manifest))


def _decide(manifest: dict, count: int | None, tracer=None, probe: list | None = None) -> list:
    """One ``[latency_s, status, pairs, certificate_kind]`` per query.

    With ``probe``, the speed probe runs before every ``PROBE_EVERY``
    queries and after the last, and its times are appended to ``probe``.
    """
    import calib
    from relgraph import core, solver

    queries = manifest["queries"][:count]
    graphs = [
        tuple(core.graph_from_edges(q[k]["n"], q[k]["edges"]) for k in ("source", "target"))
        for q in queries
    ]
    out = []
    for i, (q, (g, h)) in enumerate(zip(queries, graphs)):
        if probe is not None and i % PROBE_EVERY == 0:
            calib.sample(probe, PROBE_SPINS)
        if tracer is not None:
            tracer.trace = f"q{i}"
        t0 = time.perf_counter()
        try:
            result, cert = solver.solve(solver.SolveQuery(
                g, h, mode=q["mode"], domain=q["domain"], enumeration="exists",
                node_budget=manifest["node_budget"]))
        except Exception as exc:  # counted as a failed operation by run.py
            out.append([time.perf_counter() - t0, f"error: {exc!r}", None, None])
            continue
        latency = time.perf_counter() - t0
        if not result.complete:
            status, pairs = "undecided", None
        elif result.solutions:
            status, pairs = "found", sorted(result.solutions[0].pairs)
        else:
            status, pairs = "none", None
        out.append([latency, status, pairs, cert.kind if cert is not None else None])
    if probe is not None:
        calib.sample(probe, PROBE_SPINS)
    return out


def _cli_ops(manifest: dict, workdir: Path, caches: list, tracer=None) -> list:
    """Each CLI operation through ``relgraph.cli.main`` with stdout captured.

    relgraph's caches are cleared before each operation, because each one
    starts cold in its own process when timed.
    """
    from relgraph import cli

    os.chdir(workdir)
    out = []
    for i, op in enumerate(manifest["ops"]):
        for cache in caches:
            cache.cache_clear()
        if tracer is not None:
            tracer.trace = op["name"]
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(op["args"])
        except Exception as exc:  # counted as a failed operation by run.py
            print(f"{op['name']}: {exc!r}", file=sys.stderr)
            code = -1
        latency = time.perf_counter() - t0
        path = workdir / f"inproc-{i}.out"
        text = buf.getvalue()
        path.write_text(text)
        out.append({"exit": code, "latency": latency, "out": str(path),
                    "bytes": len(text.encode())})
    return out


def _drain_iter_solutions(manifest: dict, tracer) -> set:
    """Search plus Relation building alone, on the enumerate instances."""
    from relgraph import core, solver

    traces = set()
    for op in manifest["ops"]:
        g, h = (core.graph_from_edges(op[k]["n"], op[k]["edges"]) for k in ("source", "target"))
        query = solver.SolveQuery(g, h, mode="weak" if op["weak"] else "strong",
                                  domain="full" if op["full_domain"] else "any")
        tracer.trace = f"iter:{op['name']}"
        traces.add(tracer.trace)
        for _ in solver.iter_solutions(query):
            pass
    return traces


def _library_caches() -> list:
    """Every ``lru_cache`` in relgraph's modules, found before any wrapping."""
    import relgraph  # noqa: F401  (loads every module)

    return [obj for name, mod in sys.modules.items() if name.startswith("relgraph.")
            for obj in vars(mod).values() if hasattr(obj, "cache_clear")]


def _inproc(workdir: Path, out_path: Path, traced: bool, spans_path: str | None) -> None:
    manifest = json.loads((workdir / "manifest.json").read_text())
    caches = _library_caches()
    tracer = None
    if traced:
        import inputs
        import spans

        tracer = spans.Tracer()
        tracer.install()
        inputs.build(manifest["workload"], manifest["seed"])  # traced as "setup"
    output_bytes = 0
    if manifest["workload"] == "decide":
        results = _decide(manifest, None, tracer)
        doc = {"wall_s": sum(r[0] for r in results), "results": results}
        op_traces = {f"q{i}" for i in range(len(results))}
    else:
        results = _cli_ops(manifest, workdir, caches, tracer)
        doc = {"wall_s": sum(r["latency"] for r in results), "results": results}
        op_traces = {op["name"] for op in manifest["ops"]}
        output_bytes = sum(r["bytes"] for r in results)
    if tracer is not None:
        layers = tracer.summary(op_traces)
        layers.update(tracer.summary({"setup"}, spans.SETUP_METRICS))
        iter_traces = set()
        if manifest["workload"] == "enumerate":
            iter_traces = _drain_iter_solutions(manifest, tracer)
        layers.update(tracer.summary(iter_traces, spans.ITER_METRICS))
        layers["cli.output_bytes"] = output_bytes
        doc["layers"] = layers
        if spans_path:
            tracer.write(spans_path)
    out_path.write_text(json.dumps(doc))


def main(argv: list[str]) -> int:
    cmd = argv[0]
    if cmd == "setup":
        _setup(argv[1], int(argv[2]), Path(argv[3]))
    elif cmd == "decide":
        workdir, out_path = Path(argv[1]), Path(argv[2])
        count = int(argv[3]) if len(argv) > 3 else None
        manifest = json.loads((workdir / "manifest.json").read_text())
        probe: list[float] = []
        results = _decide(manifest, count, probe=probe)
        out_path.write_text(json.dumps({"results": results, "probe": probe}))
    elif cmd == "inproc":
        _inproc(Path(argv[1]), Path(argv[2]), argv[3] == "1", argv[4] if len(argv) > 4 else None)
    else:
        print(f"unknown command {cmd!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
