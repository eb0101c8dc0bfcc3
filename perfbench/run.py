"""Closed-loop benchmark of the epiclust CLI studies.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One caller makes one call at a time: each
call of ``epiclust.cli.main`` (CSV in, reports written) starts when the
previous one has returned, in this process, until the calls have taken
``--seconds`` in all.

Set-up makes the workload's fixture from ``--seed`` in a fresh child process
(``make_fixture.py``), once before the first call and again between calls
until it has run ``SETUP_REPEATS`` times, spread evenly over the run;
``setup_s`` is the median. Every call
must exit 0, write the same bytes as the run's other calls, and pass the
workload's check on its reports; a call that does not counts as failed.

``--trace 0`` reports the end-to-end metrics: the mean wall time of one call
over the run (the inverse of calls completed per second), the peak RSS of
this process and the set-up time. ``--trace 1``
alternates untraced and traced calls and reports the per-layer metrics: self
times and counts per layer from spans recorded around epiclust's public
functions (see ``tracing.py``), plus the tracing overhead. Spans and run
details are written to ``.bench_work/<workload>/``.

The last line of standard output is the result, one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it holds the run details: every sample, the environment
and the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap the BLAS thread count at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        wanted = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(wanted, nproc))
    return nproc


def import_cli():
    """Import epiclust from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import epiclust.cli

    if not Path(epiclust.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"epiclust was imported from {epiclust.__file__}, not from {SRC}")
    return epiclust.cli


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: int(os.environ[var]) for var in BLAS_THREAD_VARS},
        "caches": _cache_sizes(),
    }


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def make_fixture(workload, seed: int, fixture: Path) -> float:
    shutil.rmtree(fixture, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "make_fixture.py"), workload.name, str(seed), str(fixture)],
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fixture set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Caller:
    """Makes one CLI call at a time and checks what it wrote."""

    def __init__(self, cli, workload, fixture: Path, out: Path):
        self.cli = cli
        self.workload = workload
        self.argv = workload.cli_argv(fixture, out)
        self.out = out
        self.truth = json.loads((fixture / "truth.json").read_text())
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def call(self) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.cli.main(self.argv)  # attribute lookup, so a traced main is used
            except SystemExit as exc:
                code = exc.code
            wall = time.perf_counter() - start
        reason = self._check(code)
        if reason is not None:
            self.failed += 1
            print(f"call {self.attempted} failed: {reason}", file=sys.stderr)
        return wall

    def _check(self, code) -> str | None:
        if code != 0:
            return f"exit status {code}"
        try:
            reason = self.workload.check(self.out, self.truth)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            reason = f"unreadable report: {exc!r}"
        if reason is not None:
            return reason
        out_digest = digest(self.out)
        if self.reference is None:
            self.reference = out_digest
        elif out_digest != self.reference:
            return "outputs differ from the first call's"
        return None


def run_untraced(cli, workload, seed, seconds, work):
    fixture, again = work / "fixture", work / "fixture_again"
    setups = [make_fixture(workload, seed, fixture)]
    reference = digest(fixture)
    caller = Caller(cli, workload, fixture, work / "out")
    walls = []
    while sum(walls) < seconds:
        walls.append(caller.call())
        # The other set-ups are spread evenly over the run, so that a host phase
        # of a few seconds cannot cover all of them.
        while len(setups) < SETUP_REPEATS * min(1.0, sum(walls) / seconds):
            setups.append(make_fixture(workload, seed, again))
            if digest(again) != reference:
                raise RuntimeError(f"set-up wrote different fixtures from seed {seed}")
    metrics = {
        # Mean, not median: on a shared 2-vCPU VM the speed shifts 1.5-2x between
        # phases lasting seconds to minutes, and a run's median jumps with the
        # phase mix while the mean follows it smoothly (there, ten-run spreads of
        # 0.10-0.20 for the mean against 0.11-0.29 for the median, same samples).
        "wall_s": statistics.fmean(walls),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    detail = {
        "wall_samples": len(walls),
        "wall_median_s": statistics.median(walls),
        "walls": walls,
        "setups": setups,
    }
    return caller, metrics, detail


def run_traced(cli, workload, seed, seconds, work):
    import epiclust.synth as synth
    from tracing import LAYER_METRICS, Tracer, layer_totals

    setup_only = ("synth.generate_s", "ingest.write_s", "ingest.bytes_written")
    tracer = Tracer()
    fixture = work / "fixture"
    shutil.rmtree(fixture, ignore_errors=True)
    with tracer.installed(), tracer.span("setup"):
        synth.write_fixture(synth.generate_fixture(**workload.fixture_kwargs(seed)), fixture)
    setup_totals = layer_totals(tracer.spans)

    caller = Caller(cli, workload, fixture, work / "out")
    untraced, traced, per_call, out_bytes = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(caller.call())
        first = len(tracer.spans)
        with tracer.installed():
            traced.append(caller.call())
        per_call.append(layer_totals(tracer.spans[first:]))
        out_bytes.append(tree_bytes(caller.out))

    metrics = {}
    for name, key in LAYER_METRICS.items():
        if name in setup_only:
            metrics[name] = setup_totals.get(key, 0)
        else:
            metrics[name] = statistics.median(totals.get(key, 0) for totals in per_call)
    metrics["cli.bytes_written"] = statistics.median(out_bytes)
    # Median of the per-pair differences: a slow host phase lands on both calls
    # of a pair, where it would swamp a difference of means.
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    (work / "spans.json").write_text(json.dumps([asdict(s) for s in tracer.spans]))
    detail = {"pairs": len(traced), "untraced_walls": untraced, "traced_walls": traced}
    return caller, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"workload {args.workload!r} is not listed in BENCHMARK.json")
    nproc = cap_blas_threads()
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"cannot import epiclust from {SRC}: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    if args.trace:
        caller, values, detail = run_traced(cli, workload, args.seed, args.seconds, work)
        wanted = spec["per_layer"]
    else:
        caller, values, detail = run_untraced(cli, workload, args.seed, args.seconds, work)
        wanted = spec["end_to_end"]

    detail.update(
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=environment(nproc),
    )
    result = {
        "correct": caller.failed == 0,
        "attempted": caller.attempted,
        "failed": caller.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (work / f"result_trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n"
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
