#!/usr/bin/env python3
"""relgraph benchmark: runs one workload and prints its metrics (stdlib only).

    python3 perfbench/run.py --workload {enumerate,decide,reduce} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. One client runs one operation at a time in a
closed loop. Every operation runs in a child process: ``relgraph --json
...`` CLI processes for ``enumerate`` and ``reduce``, and one library
worker per pass over the query stream for ``decide``. Peak memory comes
from ``os.wait4`` on those children, so this process's own memory is never
counted and relgraph's caches start cold. Every output is checked by
``verify.py``; a failed check counts as a failed operation and never stops
the run. The run keeps to one CPU, and its times are scaled by a speed
probe timed on that CPU between operations (``calib.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced in-process
pass and the tracing overhead. See README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calib
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = str(HERE / "worker.py")
WORKLOADS = ("enumerate", "decide", "reduce")
SETUP_REPEATS = 5
# Speed-probe spins (calib.py) before each set-up, and before each CLI
# operation and after the last one.
SETUP_SPINS = 10
OP_SPINS = 8
STARTUP_PROBES = 5
CHILD_TIMEOUT_S = 150
# Variables that change relgraph's defaults; children run without them.
SCRUBBED_ENV = ("RELGRAPH_NODE_BUDGET", "RELGRAPH_TIME_BUDGET", "PYTHONOPTIMIZE")


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.verdicts: dict = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.samples: list[list[float]] = []  # latencies per operation, timed runs
        self.setup_probe: list[float] = []  # speed-probe times around the set-ups
        self.probe: list[float] = []  # speed-probe times in the timed loop

    # -- processes -----------------------------------------------------------

    def spawn(self, argv: list[str], stdout_name: str | None = None) -> tuple[int, float, int]:
        """(exit code, wall seconds, ru_maxrss in KiB) of one child process."""
        stdout = self.workdir / stdout_name if stdout_name else Path(os.devnull)
        with open(stdout, "wb") as out, open(self.workdir / "stderr.txt", "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss

    def cli(self, args: list[str], stdout_name: str | None = None):
        return self.spawn([sys.executable, "-m", "relgraph", *args], stdout_name)

    def worker(self, *args: str):
        return self.spawn([sys.executable, WORKER, *args])

    # -- set-up --------------------------------------------------------------

    def setup(self) -> tuple[float, dict]:
        """Input generation, file writes and one warm-up invocation."""
        calib.sample(self.setup_probe, SETUP_SPINS)
        t0 = time.perf_counter()
        code, _, _ = self.worker("setup", self.workload, str(self.seed), str(self.workdir))
        if code != 0:
            raise RuntimeError(f"input generation exited with {code}")
        manifest = json.loads((self.workdir / "manifest.json").read_text())
        if self.workload == "decide":
            code, _, _ = self.worker("decide", str(self.workdir), "warmup.json", "1")
        else:
            code, _, _ = self.cli(manifest["warmup"])
        if code != 0:
            raise RuntimeError(f"warm-up invocation exited with {code}")
        return time.perf_counter() - t0, manifest

    # -- checking ------------------------------------------------------------

    def count(self, name: str, reason: str | None) -> None:
        """Count one attempted operation and its failure, if any."""
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{name}: {reason}")

    def verdict(self, key, check) -> str | None:
        """``check()`` runs once per distinct output."""
        if key not in self.verdicts:
            self.verdicts[key] = check()
        return self.verdicts[key]

    def check_op(self, i: int, op: dict, code: int, out: bytes) -> None:
        key = (i, code, hashlib.sha256(out).hexdigest())
        self.count(op["name"], self.verdict(key, lambda: verify.check_op(op, code, out)))

    def check_queries(self, queries: list, results: list | None) -> int:
        """Checks one pass over the decide stream; returns the decided count."""
        if results is None or len(results) != len(queries):
            for i in range(len(queries)):
                self.count(f"q{i}", "worker produced no result")
            return 0
        decided = 0
        for i, (q, r) in enumerate(zip(queries, results)):
            key = (i, json.dumps(r[1:]))
            self.count(f"q{i}", self.verdict(key, lambda: verify.check_decide(q, r)))
            decided += r[1] in ("found", "none")
        return decided

    def read_results(self, code: int, name: str) -> list | None:
        path = self.workdir / name
        if code != 0 or not path.exists():
            return None
        doc = json.loads(path.read_text())
        self.probe.extend(doc["probe"])
        return doc["results"]

    # -- timed runs (tracing off) --------------------------------------------

    def timed(self, manifest: dict, seconds: float) -> dict:
        """Per-operation latency samples until the time is up.

        The first pass always completes. Later, an operation starts only
        if its last latency still fits before the deadline; one that does
        not fit is skipped, so the shorter operations fill the end of the
        run and get more samples. The speed probe runs between operations
        (in the worker, between chunks of queries). Each operation's time
        is the mean of its samples: the machine flips between a fast and a
        slow state every few seconds, and a median over a handful of
        samples jumps between the two where a mean moves smoothly.
        """
        deadline = time.perf_counter() + seconds
        peak_kib = 0
        decided = 0
        if self.workload == "decide":
            queries = manifest["queries"]
            samples: list[list[float]] = [[] for _ in queries]
            last = 0.0
            while not samples[0] or time.perf_counter() + last <= deadline:
                code, last, rss = self.worker("decide", str(self.workdir), "decide.json")
                peak_kib = max(peak_kib, rss)
                results = self.read_results(code, "decide.json")
                decided += self.check_queries(queries, results)
                for i, r in enumerate(results or ()):
                    samples[i].append(r[0])
                if results is None:
                    break
        else:
            ops = manifest["ops"]
            samples = [[] for _ in ops]
            ran = True
            while ran:
                ran = False
                for i, op in enumerate(ops):
                    if samples[i] and time.perf_counter() + samples[i][-1] > deadline:
                        continue
                    ran = True
                    calib.sample(self.probe, OP_SPINS)
                    code, elapsed, rss = self.cli(op["args"], f"op-{i}.out")
                    peak_kib = max(peak_kib, rss)
                    samples[i].append(elapsed)
                    self.check_op(i, op, code, (self.workdir / f"op-{i}.out").read_bytes())
                    decided += code in (0, 1)
            calib.sample(self.probe, OP_SPINS)
        self.samples = samples
        per_op = [statistics.fmean(s) for s in samples if s]
        if not per_op or not self.probe:
            raise RuntimeError("no operation completed")
        return {
            **latency_metrics(per_op, calib.scale(self.probe)),
            "decided_ratio": (decided / self.attempted, "ratio"),
            "peak_rss_mb": (peak_kib / 1024, "MB"),
            "ok_ratio": (1 - len(self.failures) / self.attempted, "ratio"),
        }

    # -- traced run ----------------------------------------------------------

    def traced(self, manifest: dict, seconds: float, spans_path: Path) -> dict:
        """Untraced and traced in-process passes, in pairs until the time is up."""
        startup = [self.cli(["--help"])[1] for _ in range(STARTUP_PROBES)]
        deadline = time.perf_counter() + seconds
        walls: dict[str, list[float]] = {"0": [], "1": []}
        layers: dict[str, list[float]] = {}
        last_pair = 0.0
        while not walls["1"] or time.perf_counter() + last_pair <= deadline:
            t0 = time.perf_counter()
            for traced in ("0", "1"):
                name = f"inproc-{traced}.json"
                extra = [str(spans_path)] if traced == "1" else []
                code, _, _ = self.worker("inproc", str(self.workdir), name, traced, *extra)
                path = self.workdir / name
                doc = json.loads(path.read_text()) if code == 0 and path.exists() else None
                if doc is None:
                    raise RuntimeError(f"in-process pass (traced={traced}) exited with {code}")
                self.check_inproc(manifest, doc["results"])
                walls[traced].append(doc["wall_s"])
                for metric, value in doc.get("layers", {}).items():
                    layers.setdefault(metric, []).append(value)
            last_pair = time.perf_counter() - t0
        out = {}
        for metric, values in sorted(layers.items()):
            if metric.endswith("_s"):
                out[metric] = (statistics.median(values), "s")
            else:  # counts repeat exactly from pass to pass
                out[metric] = (statistics.median_low(values), "bytes" if metric.endswith("_bytes") else "count")
        traced_wall, untraced_wall = statistics.median(walls["1"]), statistics.median(walls["0"])
        out["cli.startup_s"] = (statistics.median(startup), "s")
        out["trace.wall_s"] = (traced_wall, "s")
        out["trace.untraced_wall_s"] = (untraced_wall, "s")
        out["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
        return out

    def check_inproc(self, manifest: dict, results: list) -> None:
        if self.workload == "decide":
            self.check_queries(manifest["queries"], results)
            return
        for i, (op, r) in enumerate(zip(manifest["ops"], results)):
            self.check_op(i, op, r["exit"], Path(r["out"]).read_bytes())


def latency_metrics(per_op: list[float], scale: float) -> dict:
    """Time metrics from each operation's mean latency, scaled by ``scale``."""
    per_op = [t * scale for t in per_op]
    wall = sum(per_op)
    return {
        "wall_s": (wall, "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_p95_ms": (statistics.quantiles(per_op, n=20, method="inclusive")[18] * 1e3, "ms"),
        "ops_per_s": (len(per_op) / wall, "1/s"),
    }


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "relgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        revision = proc.stdout.strip() or revision
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_revision": revision, "source_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "relgraph" / "__init__.py").is_file():
        print(f"error: no relgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One CPU for this process and every child it starts. The speed probe
    # then times the CPU the operations run on: the two CPUs of a shared
    # 2-core VM change speed independently of each other.
    if hasattr(os, "sched_setaffinity"):
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    out_dir = ROOT / ".perfbench"
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / "work" / f"{run_id}-{os.getpid()}"
    workdir.mkdir(parents=True)
    (out_dir / "results").mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed, workdir)
    unscaled = {}  # the time metrics as measured, before the speed scaling
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        setups = [bench.setup() for _ in range(repeats)]
        manifest = setups[-1][1]
        if args.trace:
            metrics = bench.traced(manifest, args.seconds, out_dir / "results" / f"{run_id}.spans.json.gz")
        else:
            metrics = bench.timed(manifest, args.seconds)
            setup_s = statistics.median(s for s, _ in setups)
            metrics["setup_s"] = (setup_s * calib.scale(bench.setup_probe), "s")
            unscaled = {k: v for k, (v, _) in latency_metrics(
                [statistics.fmean(s) for s in bench.samples if s], 1.0).items()}
            unscaled["setup_s"] = setup_s
    except RuntimeError as exc:
        tail = (workdir / "stderr.txt").read_text()[-2000:] if (workdir / "stderr.txt").exists() else ""
        print(f"error: {exc}\n{tail}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.workload, args.seed, args.seconds, args.trace)
    failed = len(bench.failures)
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / "results" / f"{run_id}.json").write_text(
        json.dumps({"environment": env, "failures": bench.failures, **result,
                    "unscaled": unscaled, "latency_samples_s": bench.samples,
                    "probe_s": bench.probe, "setup_probe_s": bench.setup_probe}, indent=1))
    for line in bench.failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(f"# environment {json.dumps(env)}")
    print(f"# fail_ratio {failed / bench.attempted}")
    if unscaled:
        print(f"# unscaled {json.dumps(unscaled)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
