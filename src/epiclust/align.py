"""Comparison of two cluster labelings and the random-label null.

Unsupervised labels are arbitrary per run, so comparing two labelings means
searching the k! relabelings of the first for the one closest to the second.
The cost of the best relabeling is the dissimilarity; 0 means the labelings
describe the same partition.

Two cost metrics: ``squared`` (mean squared label difference, the default)
and ``mismatch`` (fraction of disagreeing regions). The squared form weights
disagreements by label ordinal distance, which also makes it asymmetric in
its arguments for k >= 3; ``mismatch`` is symmetric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

MAX_ALIGN_K = 8  # k! bijections are enumerated outright
METRICS = ("squared", "mismatch")


@dataclass(frozen=True)
class AlignmentResult:
    """Best relabeling of A onto B's label space and its cost.

    ``permutation[label_of_a]`` is the label it maps to. ``mismatch_rate`` is
    the disagreement fraction under that same relabeling, reported alongside
    whichever metric was minimised.
    """

    cost: float
    permutation: tuple[int, ...]
    metric: str = "squared"
    mismatch_rate: float = 0.0


@dataclass(frozen=True)
class BalanceDiagnostic:
    """Whether one cluster absorbed too large a share of the regions."""

    balanced: bool
    largest_fraction: float


@dataclass(frozen=True)
class BaselineResult:
    """Observed dissimilarity (sm1) against the Monte Carlo null (sm2).

    ``deviation = sm2_mean - sm1``: large and positive means the observed
    labeling resembles the reference far more than random labels do.
    """

    sm1: float
    sm2_mean: float
    sm2_std: float
    trials: int
    deviation: float


def _check_labels(a, b, k):
    a = np.asarray(a, dtype=np.int64).reshape(-1)
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    if a.size != b.size:
        raise ValueError(f"label arrays differ in length: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("label arrays must be non-empty")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    for name, arr in (("a", a), ("b", b)):
        if arr.min() < 0 or arr.max() >= k:
            raise ValueError(f"labels of {name} must lie in [0, {k})")
    return a, b


def best_permutation_dissimilarity(a, b, k: int, metric: str = "squared") -> AlignmentResult:
    """Minimum dissimilarity between labelings over all k! relabelings of ``a``.

    Cost is the mean squared label difference (or the mismatch fraction) of
    the relabeled ``a`` against ``b``. Ties go to the lexicographically
    smallest permutation.
    """
    a, b = _check_labels(a, b, k)
    if k > MAX_ALIGN_K:
        raise ValueError(
            f"k={k} is unsupported: alignment enumerates all k! permutations "
            f"and is limited to k <= {MAX_ALIGN_K}"
        )
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    mapped = perms[:, a]  # (k!, n): row p is the relabeled a under permutation p
    if metric == "squared":
        costs = ((mapped - b) ** 2).mean(axis=1)
    else:
        costs = (mapped != b).mean(axis=1)
    idx = int(costs.argmin())  # first minimum = lexicographically smallest
    return AlignmentResult(
        cost=float(costs[idx]),
        permutation=tuple(int(x) for x in perms[idx]),
        metric=metric,
        mismatch_rate=float((mapped[idx] != b).mean()),
    )


def random_baseline(
    b,
    k: int,
    trials: int = 100,
    seed: int = 0,
    *,
    sm1: float = 0.0,
    metric: str = "squared",
    mode: str = "uniform",
) -> BaselineResult:
    """Mean and std of the dissimilarity between random labelings and ``b``.

    Each trial draws a fresh label array (``uniform``: i.i.d. labels over
    [0, k); ``shuffle``: a size-preserving permutation of ``b``) from an RNG
    stream keyed by (seed, trial), then aligns it against ``b``. Std is the
    population standard deviation over trials. Pass the observed cost as
    ``sm1`` to get its deviation from the null recorded alongside.
    """
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if mode not in ("uniform", "shuffle"):
        raise ValueError(f"unknown mode {mode!r}; expected 'uniform' or 'shuffle'")
    costs = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        if mode == "uniform":
            drawn = rng.integers(0, k, size=b.size)
        else:
            drawn = rng.permutation(b)
        costs[t] = best_permutation_dissimilarity(drawn, b, k, metric).cost
    mean = float(costs.mean())
    return BaselineResult(
        sm1=float(sm1),
        sm2_mean=mean,
        sm2_std=float(costs.std()),
        trials=trials,
        deviation=mean - float(sm1),
    )


def balance_check(assignment, max_fraction: float = 0.8) -> BalanceDiagnostic:
    """Flag a labeling as degenerate when one cluster holds >= ``max_fraction`` of regions."""
    labels = np.asarray(getattr(assignment, "labels", assignment), dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty assignment")
    if not 0 < max_fraction <= 1:
        raise ValueError(f"max_fraction must lie in (0, 1], got {max_fraction}")
    fraction = float(np.bincount(labels).max() / labels.size)
    return BalanceDiagnostic(balanced=fraction < max_fraction, largest_fraction=fraction)
