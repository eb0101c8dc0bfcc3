"""Spans around epiclust's public functions, installed from outside the package.

A traced call wraps each function listed in ``TARGETS`` in every epiclust
module namespace that binds it (``pipeline`` and ``cli`` import ``kmeans``,
``apply_preprocess`` and others by name, so patching the defining module
alone would miss those calls). Spans are named by role, not by function, so
a rename or a replaced implementation keeps its span name; a listed function
that no longer exists simply yields no spans. Spans live in memory and are
written out by the caller when the run ends.

Three counts are computed from argument shapes rather than measured:
``linalg.n_cubed`` (sum of n^3 over eigensolves), ``cluster.affinity_bytes``
(sum of n^2 * d * 8, the (n, n, d) difference tensor) and
``align.perms_scanned`` (sum of k! * n over alignments).
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


def _file_bytes(args, kwargs) -> int:
    paths = [a for a in (*args, *kwargs.values()) if isinstance(a, (str, os.PathLike))]
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _bytes_read(args, kwargs, result):
    return {"bytes_read": _file_bytes(args, kwargs)}


def _bytes_written(args, kwargs, result):
    return {"bytes_written": _file_bytes(args, kwargs)}


def _n_cubed(args, kwargs, result):
    return {"n_cubed": np.shape(args[0])[0] ** 3}


def _affinity_bytes(args, kwargs, result):
    shape = np.shape(args[0])
    d = shape[1] if len(shape) == 2 else 1
    return {"affinity_bytes": shape[0] ** 2 * d * 8}


def _kmeans_iters(args, kwargs, result):
    # inertia_history holds one entry per Lloyd iteration plus the final one
    return {"iters": len(result.inertia_history) - 1}


def _perms_scanned(args, kwargs, result):
    k = args[2] if len(args) > 2 else kwargs["k"]
    return {"perms_scanned": math.factorial(k) * np.size(args[0])}


# (module, function, span role, count hook)
TARGETS = (
    ("epiclust.cli", "main", "cli", None),
    ("epiclust.ingest", "load_epicurves", "ingest.load", _bytes_read),
    ("epiclust.ingest", "load_features", "ingest.load", _bytes_read),
    ("epiclust.ingest", "split_windows", "ingest.split", None),
    ("epiclust.ingest", "write_epicurves", "ingest.write", _bytes_written),
    ("epiclust.ingest", "write_populations", "ingest.write", _bytes_written),
    ("epiclust.ingest", "write_features", "ingest.write", _bytes_written),
    ("epiclust.preprocess", "apply_preprocess", "preprocess.apply", None),
    ("epiclust.linalg", "jacobi_eigh", "linalg.eigensolve", _n_cubed),
    ("epiclust.cluster", "rbf_affinity", "cluster.affinity", _affinity_bytes),
    ("epiclust.cluster", "laplacian", "cluster.laplacian", None),
    ("epiclust.cluster", "spectral_cluster", "cluster.spectral", None),
    ("epiclust.cluster", "spectral_from_affinity", "cluster.spectral", None),
    ("epiclust.cluster", "kmeans", "cluster.kmeans", _kmeans_iters),
    ("epiclust.cluster", "cluster_scalar_feature", "cluster.scalar", None),
    ("epiclust.align", "best_permutation_dissimilarity", "align.permutation", _perms_scanned),
    ("epiclust.align", "random_baseline", "align.null", None),
    ("epiclust.align", "balance_check", "align.balance", None),
    ("epiclust.pipeline", "temporal_stability", "pipeline.study", None),
    ("epiclust.pipeline", "feature_association", "pipeline.study", None),
    ("epiclust.pipeline", "select_technique", "pipeline.select", None),
    ("epiclust.synth", "generate_fixture", "synth.generate", None),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans in memory; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), name, self._open[-1] if self._open else None, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, role, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(role) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target in every loaded epiclust module; restore on exit."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "epiclust" or name.startswith("epiclust.")
        ]
        patches = []
        for module_name, attr, role, count in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(role, original, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, name, original, wrapper))
        for module, name, _, wrapper in patches:
            setattr(module, name, wrapper)
        try:
            yield
        finally:
            for module, name, original, _ in patches:
                setattr(module, name, original)


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Self time, call count and summed counts per role, for one group of spans.

    Self time is a span's duration minus its children's durations. Calls of a
    role nested directly in the same role (``apply_preprocess`` on a window
    recurses into itself) count once.
    """
    by_id = {s.id: s for s in spans}
    self_time = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in self_time:
            self_time[s.parent] -= s.end - s.start
    totals: dict[str, float] = {}
    for s in spans:
        totals[f"{s.name}:self_s"] = totals.get(f"{s.name}:self_s", 0.0) + self_time[s.id]
        parent = by_id.get(s.parent)
        if parent is None or parent.name != s.name:
            totals[f"{s.name}:calls"] = totals.get(f"{s.name}:calls", 0) + 1
        for key, value in s.counts.items():
            totals[f"{s.name}:{key}"] = totals.get(f"{s.name}:{key}", 0) + value
    return totals


# per-layer metric name -> key in layer_totals; absent keys read as 0
LAYER_METRICS = {
    "ingest.load_s": "ingest.load:self_s",
    "ingest.bytes_read": "ingest.load:bytes_read",
    "ingest.split_s": "ingest.split:self_s",
    "ingest.write_s": "ingest.write:self_s",
    "ingest.bytes_written": "ingest.write:bytes_written",
    "preprocess.apply_s": "preprocess.apply:self_s",
    "preprocess.calls": "preprocess.apply:calls",
    "linalg.eigensolve_s": "linalg.eigensolve:self_s",
    "linalg.calls": "linalg.eigensolve:calls",
    "linalg.n_cubed": "linalg.eigensolve:n_cubed",
    "cluster.affinity_s": "cluster.affinity:self_s",
    "cluster.affinity_bytes": "cluster.affinity:affinity_bytes",
    "cluster.laplacian_s": "cluster.laplacian:self_s",
    "cluster.spectral_self_s": "cluster.spectral:self_s",
    "cluster.kmeans_s": "cluster.kmeans:self_s",
    "cluster.kmeans_calls": "cluster.kmeans:calls",
    "cluster.kmeans_iters": "cluster.kmeans:iters",
    "cluster.scalar_s": "cluster.scalar:self_s",
    "align.permutation_s": "align.permutation:self_s",
    "align.permutation_calls": "align.permutation:calls",
    "align.perms_scanned": "align.permutation:perms_scanned",
    "align.null_self_s": "align.null:self_s",
    "align.balance_s": "align.balance:self_s",
    "pipeline.self_s": "pipeline.study:self_s",
    "pipeline.select_s": "pipeline.select:self_s",
    "synth.generate_s": "synth.generate:self_s",
    "cli.self_s": "cli:self_s",
}
