"""Comparison of two cluster labelings and the random-label null.

Unsupervised labels are arbitrary per run, so comparing two labelings means
searching the k! relabelings of the first for the one closest to the second.
The cost of the best relabeling is the dissimilarity; 0 means the labelings
describe the same partition.

Two cost metrics: ``squared`` (mean squared label difference, the default)
and ``mismatch`` (fraction of disagreeing regions). The squared form weights
disagreements by label ordinal distance, which also makes it asymmetric in
its arguments for k >= 3; ``mismatch`` is symmetric.

Both metrics are linear in the k x k contingency table C of the two
labelings, so a relabeling's cost is a sum of k entries of one k x k cost
matrix M, in exact integer arithmetic. The search is an exact subset DP over
the columns of M (Held-Karp style, O(2^k k^2) per table, limited to
k <= 12); ties go to the lexicographically smallest relabeling. The Monte
Carlo null (all trials of a cell), the stability study (all window pairs of
a technique) and the association's SM1 (all feature x window cells) stack
their tables, tables last, and run one DP on all of them at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cluster import _check_k

MAX_ALIGN_K = 12  # the subset DP holds 2**k partial costs per table
METRICS = ("squared", "mismatch")
BASELINE_MODES = ("uniform", "shuffle")


@dataclass(frozen=True)
class AlignmentResult:
    """Best relabeling of A onto B's label space and its cost.

    ``permutation[label_of_a]`` is the label it maps to. ``mismatch_rate`` is
    the disagreement fraction under that same relabeling, reported alongside
    whichever metric was minimised.
    """

    cost: float
    permutation: tuple[int, ...]
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


def _check_align(k, metric):
    """Raise unless the alignment search can serve k clusters under ``metric``."""
    if k > MAX_ALIGN_K:
        raise ValueError(
            f"k={k} is unsupported: the alignment search holds 2**k partial "
            f"costs and is limited to k <= {MAX_ALIGN_K}"
        )
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def _check_null(trials, mode):
    """Raise unless the Monte Carlo null can draw ``trials`` labelings in ``mode``."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if mode not in BASELINE_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {BASELINE_MODES}")


def _check_fraction(value, name):
    """Raise unless ``value`` lies in (0, 1], naming it ``name``."""
    if not 0 < value <= 1:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


def _check_labels(a, b, k, metric):
    a = np.asarray(a, dtype=np.int64).reshape(-1)
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    if a.size != b.size:
        raise ValueError(f"label arrays differ in length: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("label arrays must be non-empty")
    _check_k(k)
    for name, arr in (("b", b), ("a", a)):  # b first: random_baseline passes its b as both
        if arr.min() < 0 or arr.max() >= k:
            raise ValueError(f"labels of {name} must lie in [0, {k})")
    _check_align(k, metric)
    return a, b


@functools.lru_cache(maxsize=None)
def _squared_distance(k):
    """D[j, l] = (l - j)**2: the squared cost of relabeling onto l a region whose b label is j."""
    labels = np.arange(k)
    return (labels[None, :] - labels[:, None]) ** 2


@functools.lru_cache(maxsize=None)
def _levels(k):
    """Per row c = k-1 .. 0: the column masks with c bits set, their free
    columns in ascending order and the masks those columns lead to."""
    masks = np.arange(1 << k)
    bits = (masks[:, None] >> np.arange(k)) & 1
    levels = []
    for c in range(k - 1, -1, -1):
        level = masks[bits.sum(axis=1) == c]
        free = np.nonzero(bits[level] == 0)[1].reshape(level.size, k - c)
        levels.append((c, level, free, level[:, None] | (1 << free)))
    return tuple(levels)


def _tables(a, b, k):
    """C[i, j, t]: how many regions row t of the (rows, n) ``a`` labels i and row t
    of ``b`` (broadcast to it) labels j, tables last: in one bincount, cell
    (i k + j) rows + t."""
    rows = len(a)
    cells = (a * k + b) * rows + np.arange(rows)[:, None]
    return np.bincount(cells.reshape(-1), minlength=k * k * rows).reshape(k, k, rows)


def _cost_matrices(tables, metric):
    """M[i, l, t]: summed cost of sending label i of ``a`` to l, from table C[i, j, t]."""
    if metric == "squared":
        return _squared_distance(tables.shape[0]) @ tables
    return tables.sum(axis=1, keepdims=True) - tables


def _cost_to_go(costs):
    """h[mask, t]: least summed cost of sending rows popcount(mask) .. k-1 to
    the columns outside ``mask``, for every (mask, t); h[0, t] is the optimum.
    Tables lie last, so each level gathers whole rows of ``costs`` and ``h``."""
    k, _, tables = costs.shape
    h = np.zeros((1 << k, tables), dtype=np.int64)
    for c, level, free, successors in _levels(k):
        h[level] = (costs[c][free] + h[successors]).min(axis=1)
    return h


def _least_costs(a, b, k, metric):
    """The least cost of relabeling each row of ``a`` onto its row of ``b``, in one DP."""
    return _cost_to_go(_cost_matrices(_tables(a, b, k), metric))[0] / a.shape[-1]


def _alignments(a, b, k, metric) -> list[AlignmentResult]:
    """``best_permutation_dissimilarity`` of each row of the (rows, n) ``a``
    onto its row of ``b``, from one table stack and one DP; each permutation
    and mismatch rate is rebuilt from its own column of h."""
    tables = _tables(a, b, k)
    costs = _cost_matrices(tables, metric)
    h = _cost_to_go(costs)
    t, cols = np.arange(tables.shape[-1]), np.arange(k)[:, None]
    mask, perm = np.zeros_like(t), np.empty((k, t.size), dtype=np.intp)
    # rebuild row by row, taking the smallest column that keeps the optimum
    for row in range(k):
        free = (mask >> cols & 1) == 0
        perm[row] = (free & (costs[row] + h[mask | 1 << cols, t] == h[mask, t])).argmax(axis=0)
        mask |= 1 << perm[row]
    agree = tables[cols, perm, t].sum(axis=0)
    n = a.shape[-1]
    return [
        AlignmentResult(cost / n, tuple(p), (n - same) / n)
        for cost, p, same in zip(h[0].tolist(), perm.T.tolist(), agree.tolist())
    ]


def best_permutation_dissimilarity(a, b, k: int, metric: str = "squared") -> AlignmentResult:
    """Minimum dissimilarity between labelings over all k! relabelings of ``a``.

    Cost is the mean squared label difference (or the mismatch fraction) of
    the relabeled ``a`` against ``b``. Ties go to the lexicographically
    smallest permutation. This is ``_alignments`` of one pair.
    """
    a, b = _check_labels(a, b, k, metric)
    return _alignments(a[None], b[None], k, metric)[0]


def _null_labelings(b, k, trials, seed, mode):
    """The (trials, n) labelings of one null cell, trial t in row t, drawn
    in row order from one ``default_rng(seed)`` stream: the first T rows of
    a longer draw are the T-trial draw."""
    rng = np.random.default_rng(seed)
    if mode == "uniform":
        return rng.integers(0, k, size=(trials, b.size))
    return rng.permuted(np.tile(b, (trials, 1)), axis=1)


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
    [0, k); ``shuffle``: a size-preserving permutation of ``b``), all from
    one RNG stream keyed by ``seed``, then aligns it against ``b``. Std is
    the population standard deviation over trials. Pass the observed cost
    as ``sm1`` to get its deviation from the null recorded alongside.
    """
    _check_null(trials, mode)
    b, _ = _check_labels(b, b, k, metric)
    costs = _least_costs(_null_labelings(b, k, trials, seed, mode), b, k, metric)
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
    _check_fraction(max_fraction, "max_fraction")
    fraction = float(np.bincount(labels).max() / labels.size)
    return BalanceDiagnostic(balanced=fraction < max_fraction, largest_fraction=fraction)
