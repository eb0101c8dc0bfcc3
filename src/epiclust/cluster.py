"""Clustering of region observations.

Three entry points, each taking the cluster count k as an argument; the
frozen ``KMeansConfig`` and ``SpectralConfig`` hold only solver controls:

  kmeans                  Lloyd iterations with k-means++ seeding and
                          independent restarts; fully deterministic per seed.
                          The restarts of a call run in lockstep: each step
                          assigns all of them by one BLAS product (Gram form)
                          and re-scores in the difference form the rows the
                          rounding bound cannot settle, so partitions and
                          inertia equal the difference form's bit for bit.
  spectral_cluster        Gaussian affinity -> graph Laplacian -> LAPACK
                          symmetric eigendecomposition -> k-means on the
                          leading eigenvector rows.
  cluster_scalar_feature  exact 1-D k-means: dynamic programming over the
                          sorted distinct values, each level's rows searched
                          by halving, with no seed and no restarts; cluster
                          0 holds the smallest values. ``_scalar_features``
                          runs the DP on many columns at once and returns
                          only their labels, each column's those of it alone.

Restart r draws its RNG stream from (seed, r) and follows its own trajectory,
so results do not depend on evaluation order: run in lockstep, each restart
makes the same draws and reaches the same partition as when run alone. Work is
done once per thing it depends on: each restart's stream once per arguments,
read by every pair of that restart; each step's centroid sums as one BLAS
product per window, of the pairs' 0/1 member rows by the window, which a
summation-error bound checks against the row-order sums wherever a decision
reads a centroid (see ``_mean_slack``); the row-order means and exact inertia
once per final state up to the numbering of its clusters, so every reported
centroid is a member mean summed in row order.
``_cluster_windows`` runs the ``ALGORITHMS`` name it is given on all windows
of a technique in one ``_kmeans_windows`` call (for spectral, on the windows'
embeddings), whose lockstep unit is a (window, restart) pair that carries its
window index; only the BLAS product, the row gathers and the difference-form
blocks group pairs into runs that share a window. Each window's result equals
``kmeans`` of it alone, the one-window case. k-means++ seeding takes each
restart's weights in the Gram form, one BLAS product per center index, and
keeps a draw only where the rounding bound certifies that the difference-form
weights give the same index; any other restart searches its difference-form
row with the same random number. The weights are running minima of
non-negative distances, so once a pair's exact total is 0 it stays 0 and
seeding draws ``integers(n)`` for each center left: the pair replays its
restart's stream once and takes all those centers from it. Every
difference-form distance, in k-means, in ``rbf_affinity`` and in the inertia
of ``cluster_scalar_feature``, comes from ``_sq_dists``: (restarts, rows, d)
blocks of bounded size, each distance one sum over its row's d contiguous
values, so it equals the one-centroid value bit for bit. Only
``inertia_history`` entries before the last (Gram-form totals of the product
means) may differ in their last bits, as they may between BLAS builds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

ALGORITHMS = ("spectral", "kmeans")
LAPLACIAN_KINDS = ("unnormalized", "symmetric_normalized")
# Restarts of one kmeans call run in lockstep groups that fit in this many
# bytes; a group of at least one restart is always taken. At the peak of a
# step a restart holds about n (11 k + 48) bytes (its (k, n) scores and masks,
# or after them its (k, n) float member rows, and a few (n,) rows), about
# five (k, d) centroid arrays (current, old, new and the shift temporaries)
# and 2 KiB to spare, room for the RNG a pair builds for a moment to replay
# its restart's stream when its seeding total reaches 0 (see
# ``_plusplus_seeds``): 16 n (k + 4) + 48 k d + 2 KiB bounds that for every
# k and d.
KMEANS_GROUP_BYTES = 4 * 2**20
# Windows clustered together (``_kmeans_windows``) share a lockstep group while
# all their restarts fit in this many bytes at the estimate above, so small
# windows pay the per-step Python work once per group; a window whose
# restarts do not fit is grouped alone, by KMEANS_GROUP_BYTES. Ten restarts
# take 97 KB on a 30 x 30 window and 1.18 MB on a 1000 x 30 one. Joining cut
# a 30-region stability study from 89.0 to 67.5 ms (2 vCPU, OpenBLAS). One
# budget for both rules loses a workload (perfbench, 6 alternating 5 s pairs
# each): 4 MiB joins the 1000-region windows, stability_kmeans_n1000 peak RSS
# 41.99 -> 44.03 MiB (+4.8%, 6/6 pairs); 1.25 MiB slows county_cluster
# 0.113 -> 0.127 s (+12%); 2 MiB slows it 5.6% and adds 0.3 MiB to the former.
KMEANS_JOIN_BYTES = 512 * 2**10
# Size of the (restarts, rows, d) difference blocks _sq_dists squares at once:
# as many rows for every restart (or affinity row) as fit, or when one row for
# each does not fit, one row for as many as fit; a block of at least one row
# of one restart is always taken. A block this small stays in cache, and no
# temporary of the distances grows with n or with the restart count.
BLOCK_BYTES = 256 * 2**10


@dataclass(frozen=True)
class KMeansConfig:
    """Lloyd-iteration controls; ``epsilon`` bounds centroid movement at convergence."""

    epsilon: float = 1e-6
    max_iters: int = 300
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if not _finite_positive(self.epsilon):
            raise ValueError(f"epsilon must be a finite positive number, got {self.epsilon!r}")
        for name, least in (("max_iters", 1), ("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _integer(value) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class SpectralConfig:
    """Affinity bandwidth and Laplacian variant.

    ``sigma`` may be a finite positive number or the string ``"median"``
    (median of the non-zero pairwise distances).
    """

    sigma: float | str = "median"
    laplacian: str = "unnormalized"

    def __post_init__(self):
        if self.laplacian not in LAPLACIAN_KINDS:
            raise ValueError(
                f"unknown laplacian kind {self.laplacian!r}; expected one of {LAPLACIAN_KINDS}"
            )
        _check_sigma(self.sigma)


def _integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _finite_positive(value) -> bool:
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    return number and np.isfinite(value) and value > 0


def _check_sigma(sigma) -> None:
    if not (sigma == "median" or _finite_positive(sigma)):
        raise ValueError(f"sigma must be a finite positive number or 'median', got {sigma!r}")


@dataclass(frozen=True)
class ClusterAssignment:
    """Labels in [0, k) plus the centroids of the space that was clustered.

    For ``spectral`` the centroids (and inertia) live in eigenvector-embedding
    space. ``suggested_k`` carries the eigengap suggestion when the spectral
    path produced it; ``inertia_history`` is the per-iteration inertia of the
    winning k-means restart.
    """

    labels: np.ndarray
    k: int
    centroids: np.ndarray
    inertia: float
    suggested_k: int | None = None
    inertia_history: tuple[float, ...] | None = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.k:
            raise ValueError(f"labels must lie in [0, {self.k})")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)


def _as_points(points) -> np.ndarray:
    """``points`` as a non-empty 2-D float array of finite values (1-D input is one column)."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(f"expected a non-empty 2-D point array, got shape {points.shape}")
    finite = np.isfinite(points)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"point at row {i}, column {j} is not finite: {points[i, j]}")
    return points


def _check_k(k, n=None):
    if not _integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if n is not None and k > n:
        raise ValueError(f"k={k} exceeds the {n} observations")


# Rounding-error screen for the Gram-form distances in _assign. Let u = eps/2
# be the unit roundoff and R = max|x| + max|c| the largest Euclidean norms of
# a row and of a centroid. Under any summation order (BLAS included) the
# computed Gram form |x|^2 - 2 x.c + |c|^2 lies within (d+2) u R^2 (1 + O(u))
# of |x - c|^2: each of its three terms is a d-term sum of products bounded
# by |x|^2, |x||c| or |c|^2 (Cauchy-Schwarz), and two roundings combine them.
# The difference form sum((x - c)^2) lies within (d+2) u |x - c|^2, which is
# at most (d+2) u R^2 (one rounding per subtraction and per square, d - 1 in
# the sum). So when every other centroid's Gram distance exceeds a row's Gram
# minimum by more than four such bounds, 2 (d+2) eps R^2, both forms have the
# same strict argmin. The band used is 4 times that, which also absorbs the
# rounding of the norms R is computed from; the tiny term covers underflow,
# where relative bounds fail (absolute error at most one subnormal step per
# operation). Every intermediate of a Gram entry is at most R^2 (1 + O(d u))
# in magnitude, so where 2 R^2 does not overflow no Gram entry does, and
# where it does the band is inf. Rows that do not clear the band are
# re-scored in the difference form: every exact tie, and every row of a
# restart whose Gram entries may have overflowed. So labels, first centroid
# on ties, equal the difference form's on every finite input.
#
# The same band bounds a Gram entry's distance from the difference-form
# value w: |g - w| <= (d+2) eps R^2, well inside delta = _gram_band(d, R).
# Clamping g at 0 and taking the least over several centroids keep it there.
# k-means++ seeding centers are rows, so R <= 2 max|x| and one delta serves
# every entry of a restart's Gram row of weights. With G the computed total,
# the exact total of its row is at least F = (1 - n eps) G - n delta; when
# F > 0 it is positive, so choice draws random() and not integers(n). Each
# prefix sum of the row also moves by at most n delta, so the ideal CDFs
# S/T of the exact row and S'/T' of the Gram row differ by at most
# |S - S'|/T' + S |T - T'|/(T T') <= 2 n delta / F (S <= T, and F bounds both
# totals from below). numpy's choice computes cumsum(w / T) / its last
# entry: the quotients round by u, the running sum of non-negative terms by
# at most (m - 1) u relative at entry m, the normalising sum by (n - 1) u and
# the division by u, so each computed CDF entry lies within (2 n + 1) u <=
# (n + 1) eps of the ideal one. A draw u that lies at least
# beta = 2 n delta / F + 2 (n + 4) eps from both Gram CDF entries around its
# index (3 eps per side spare, for the subtractions that measure it) lies
# between the same two entries of the exact CDF: the exact draw takes the
# same index. A non-finite G, delta or beta certifies nothing.
_GRAM_SLACK = 8.0 * float(np.finfo(float).eps)
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _gram_band(d, radius):
    """The per-entry Gram-form error band of rows and centroids whose norms
    are at most ``radius`` (see ``_GRAM_SLACK``); inf where 2 radius^2
    overflows, as a Gram entry may then have overflowed too."""
    return (d + 2) * (0.5 * _GRAM_SLACK * (2.0 * radius * radius) + _TINY)


def _runs(wins):
    """(window, pairs) for each run of equal entries of the sorted window
    indices ``wins``, pairs being the slice of that run."""
    cuts = [0, *(np.flatnonzero(wins[1:] != wins[:-1]) + 1).tolist(), len(wins)]
    return [(int(wins[lo]), slice(lo, hi)) for lo, hi in zip(cuts[:-1], cuts[1:])]


def _rows(points, picks, wins):
    """``points[wins[j]][picks[j]]`` for each pair j, shape (*picks.shape, d):
    one gather per run of pairs that share a window."""
    out = np.empty((*picks.shape, points[0].shape[1]))
    for w, pairs in _runs(wins):
        out[pairs] = points[w][picks[pairs]]
    return out


def _gram(points, sq_norms, centers, c_norms, wins):
    """|x|^2 - 2 x.c + |c|^2 of each row x of pair j's window
    ``points[wins[j]]``, whose rows have the squared norms
    ``sq_norms[wins[j]]``, for each of the pair's m centers, shape (a, m, n)
    for (a, m, d) centers: one BLAS product per run of pairs that share a
    window. Overflow gives inf or nan entries, which every caller sends to
    the difference form under ``np.errstate``."""
    (a, m, d), n = centers.shape, points[0].shape[0]
    d2 = np.empty((a, m, n))
    for w, pairs in _runs(wins):
        block = d2[pairs]
        np.matmul(centers[pairs].reshape(-1, d), points[w].T, out=block.reshape(-1, n))
        block *= -2.0
        block += sq_norms[w]
        block += c_norms[pairs, :, None]
    return d2


def _assign(points, sq_norms, x_norms, centroids, wins, delta=0.0, exact=None):
    """Nearest-centroid labels, shape (a, n), and summed squared distances,
    shape (a,), for the (a, k, d) centroids of a pairs, pair j clustering
    window ``points[wins[j]]``, whose largest row norm is
    ``x_norms[wins[j]]``: Gram form, screened per pair, re-scored in the
    difference form where the screen cannot vouch for the argmin (see
    ``_GRAM_SLACK``). Ties go to the first centroid.

    The labels are those of the centroids ``exact(j)`` (by default
    ``centroids[j]``), for which ``centroids[j]`` may stand in within
    ``delta`` (or ``delta[j]``): the band widens by twice what that can move
    a squared distance (see ``_mean_slack``), and the rows it leaves
    unsettled are re-scored on ``exact(j)``."""
    a, k, d = centroids.shape
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves its rows unsettled
        # |x - c'|^2 and |x - c|^2 differ by at most 2 (R + delta) delta + delta^2, R = 2 X + delta
        widen = 2.0 * delta * (4.0 * x_norms[wins] + 5.0 * delta)
        c_norms = (centroids * centroids).sum(axis=2)
        d2 = _gram(points, sq_norms, centroids, c_norms, wins)
        # first centroid on ties: a later one takes a row only when strictly
        # closer, and its index exceeds every earlier label. The row's two
        # least entries (equal on a tie) are kept; a nan entry makes both nan
        labels = np.zeros(d2[:, 0].shape, dtype=np.intp)
        row_min = d2[:, 0].copy()
        second = np.full_like(row_min, np.inf)
        for c in range(1, k):
            closer = np.multiply(d2[:, c] < row_min, c, dtype=np.intp)
            np.maximum(labels, closer, out=labels)
            np.minimum(second, np.maximum(row_min, d2[:, c]), out=second)
            np.minimum(row_min, d2[:, c], out=row_min)
        radius = np.sqrt(c_norms.max(axis=1)) + x_norms[wins]
        # a row is settled when every entry but its minimum lies beyond the
        # band, that is its second least entry does; a nan compares false
        unsettled = ~(second > row_min + (_gram_band(d, radius) + widen)[:, None])
    for j in np.flatnonzero(unsettled.any(axis=1)).tolist():
        redo = np.flatnonzero(unsettled[j])
        own = centroids[j] if exact is None else exact(j)
        dists = _sq_dists(points[wins[j]][redo], own)
        labels[j, redo] = dists.argmin(axis=0)
        row_min[j, redo] = dists[labels[j, redo], np.arange(redo.size)]
    return labels, row_min.sum(axis=1)


def _sq_dists(points, centroids, labels=None):
    """sum((x - c)^2) of each row x for each of a restarts, shape (a, n), in
    the difference form: c is ``centroids[j]``, centroids of shape (a, d), or
    with (a, n) ``labels`` the row's own centroid ``centroids[j][label]``,
    centroids of shape (a, k, d). The differences are squared in (restarts,
    rows, d) blocks within ``BLOCK_BYTES``; each value is one sum over its
    row's d contiguous terms, whatever the block."""
    (a, *_, d), n = centroids.shape, points.shape[0]
    out = np.empty((a, n))
    restarts = max(1, min(a, BLOCK_BYTES // (8 * d)))
    rows = max(1, BLOCK_BYTES // (8 * d * restarts))
    for j in range(0, a, restarts):
        group = slice(j, j + restarts)
        for i in range(0, n, rows):
            x = points[i : i + rows]
            if labels is None:
                diff = x - centroids[group, None]
            else:
                diff = centroids[np.arange(a)[group, None], labels[group, i : i + rows]]
                np.subtract(x, diff, out=diff)
            diff *= diff
            diff.sum(axis=2, out=out[group, i : i + rows])
    return out


def _cdf_picks(weights, totals, draws, slack):
    """Per row, the index numpy's inverse CDF gives the uniform draw u (the
    count of CDF entries at most u, as ``searchsorted(side="right")``), and
    whether u lies at least ``slack`` from both CDF entries around that
    index, that is, whether u - slack and u + slack have the same count. A
    row of zeros or a total that is not finite counts 0 either way."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cdf = np.cumsum(weights / totals[:, None], axis=1)
        cdf /= cdf[:, -1:]
    low = (cdf <= (draws - slack)[:, None]).sum(axis=1)
    high = (cdf <= (draws + slack)[:, None]).sum(axis=1)
    return high, low == high


def _weighted_draws(weights, draws, error, exact):
    """Per row j of ``weights``, the index ``choice(n, p=w / w.sum())`` takes
    for the uniform draw ``draws[j]``, and whether w is all zeros (where
    choice fails and k-means++ seeding draws ``integers(n)`` instead): w is
    the exact row that ``weights[j]`` approximates within ``error`` (or
    ``error[j]``) per entry, and ``exact(rows)`` returns the exact rows of the
    given row indices. This is numpy's own inverse CDF, batched over the
    rows, without ``choice``'s per-call checks.

    A row keeps the index of its own weights when their total proves the
    exact total positive and the draw lies at least the slack beta from both
    CDF entries around it (see ``_GRAM_SLACK``). Every other row is searched
    on its exact row with the same draw; a total that is not finite there
    raises ``ValueError``, as ``choice`` does."""
    n = weights.shape[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        totals = weights.sum(axis=1)
        floor = totals * (1.0 - n * _EPS) - n * error
        slack = 2.0 * n * error / floor + 2.0 * (n + 4) * _EPS
    picks, sure = _cdf_picks(weights, totals, draws, slack)
    zero = np.zeros(picks.shape, dtype=bool)
    redo = np.flatnonzero(~(sure & (floor > 0) & (floor < np.inf)))
    if redo.size:
        rows = exact(redo)
        totals = rows.sum(axis=1)
        if not np.isfinite(totals).all():
            raise ValueError("k-means++ weights are not finite: the squared distances overflow")
        picks[redo] = _cdf_picks(rows, totals, draws[redo], 0.0)[0]
        zero[redo] = totals == 0
    return picks, zero


@functools.lru_cache(maxsize=1)
def _restart_draws(seed, restarts, n, k):
    """(restarts, k), read-only: row r holds what k-means++ seeding of n rows
    draws from restart r's stream default_rng([seed, r]) while every total it
    draws from is positive: ``integers(n)``, then k - 1 ``random()`` values.
    The last arguments' draws are kept, as every call of a study repeats them."""
    draws = np.empty((restarts, k))
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        draws[r, 0] = rng.integers(n)
        draws[r, 1:] = rng.random(k - 1)
    draws.setflags(write=False)
    return draws


def _plusplus_seeds(points, k, draws, seeds, sq_norms, x_norms, wins):
    """k-means++ centroids, shape (len(wins), k, d), pair j seeding window
    ``points[wins[j]]`` (``wins`` sorted).

    The pairs pick their centers in lockstep, one index at a time; each
    makes the draws its restart makes seeded alone with ``integers`` and
    ``choice``. Row j of ``draws`` holds what pair j's restart draws while
    its totals are positive (``_restart_draws``), and ``seeds[j]`` seeds
    that restart's stream. A pair's exact weights are running minima of
    non-negative distances, so once their total is 0 it stays 0, and from
    there seeding draws ``integers(n)`` for every center left: at its first
    zero total, at index i, a pair replays ``integers(n)`` and
    ``random(i - 1)`` on its restart's stream, takes its k - i remaining
    centers from it and stops drawing: later indices take no product,
    weights or draws for it, and seeding ends when no pair draws. A pair's
    weights are its least Gram-form distances to its centers so far, one
    BLAS product per center index and window, clamped at 0;
    ``_weighted_draws`` keeps a draw only where the rounding bound certifies
    it and otherwise searches the difference-form row, so every index equals
    the one the difference form draws. Nothing reads the distances to the
    last center, so they are taken to centers 0 .. k - 2."""
    n, d = points[0].shape
    picks = np.empty((len(wins), k), dtype=np.intp)
    picks[:, 0] = draws[:, 0]
    drawing = np.arange(len(wins))  # the pairs whose totals are still positive
    with np.errstate(over="ignore"):  # a band that overflows is inf and certifies no draw
        error = _gram_band(d, 2.0 * x_norms[wins])

    def exact(rows):  # the difference-form rows of the given drawing pairs, to centers 0 .. i - 1
        out, pairs = np.empty((rows.size, n)), drawing[rows]
        for w, part in _runs(wins[pairs]):
            dists = _sq_dists(points[w], points[w][picks[pairs[part], :i]].reshape(-1, d))
            out[part] = dists.reshape(-1, i, n).min(axis=1)
        return out

    for i in range(1, k):
        own, last = wins[drawing], picks[drawing, i - 1 : i]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow certifies no draw
            centers = _rows(points, last, own)
            dists = _gram(points, sq_norms, centers, sq_norms[own[:, None], last], own)[:, 0]
            np.maximum(dists, 0.0, out=dists)
        d2 = dists if i == 1 else np.minimum(d2, dists, out=d2)
        picks[drawing, i], zero = _weighted_draws(d2, draws[drawing, i], error[drawing], exact)
        for j in drawing[zero].tolist():
            rng = np.random.default_rng(seeds[j])
            rng.integers(n)
            rng.random(i - 1)  # the draws its row held
            picks[j, i:] = [rng.integers(n) for _ in range(i, k)]
        drawing, d2 = drawing[~zero], d2[~zero]
        if not drawing.size:
            break
    return _rows(points, picks, wins)


# Centroid sums by BLAS product. A Lloyd step sums each member set of a
# window X as one row of M X, M holding the 0/1 member rows of the step's
# pairs (``_member_sums``). The BLAS may add the member rows in any order,
# where the difference form's centroids are means summed in row order
# (``_row_means``). Each product by 0 or 1 is exact, so under any order a sum
# of m members lies within (m - 1) u sum|x_i| of the exact sum, u = eps/2
# (Higham, Accuracy and Stability of Numerical Algorithms, section 4.2), and
# the division by m adds u of the mean and at most half a subnormal step per
# coordinate. With X the largest row norm, the two means of a member set
# therefore lie within about n eps X of each other, and
# delta = 2 (n + 2) eps X + tiny bounds that twice over; the spare absorbs the
# rounding of the bounds below. Integer rows whose sums stay below 2^52 sum
# exactly in any order: delta is 0 there and the two means are the same bits.
# Where 2 (n + 2) X overflows a sum may overflow too, and delta is inf.
#
# The product means c' stand in for the row-order means c, |c' - c| <= delta,
# and every centroid lies within delta of the rows' hull, so |c| <= X and
# |c'| <= X + delta. Each decision the trajectory takes from its centroids is
# either proved the same for c, or taken from c:
# - assignment: with R = |x| + |c'| <= 2 X + delta, |x - c'|^2 and |x - c|^2
#   differ by at most 2 (R + delta) delta + delta^2. Twice that widens the
#   settle band of ``_assign``; a row it leaves unsettled is re-scored on c,
#   the row-order means of the labels that made the centroids;
# - the stop test: the shifts of c' and of c differ by at most 2 delta plus
#   their rounding; within that of epsilon, the shift is taken from c;
# - re-seeding reads the distances to c;
# - the winner: every final state takes c and the exact inertia.
# A bound that is not finite settles no row and sends every shift to c.


def _mean_slack(points, x_norm):
    """delta of the window ``points``, whose largest row norm is ``x_norm``:
    how far apart two sums of one member set, in different orders, may put
    its mean (see above); 0 where every sum is exact, inf where one may
    overflow."""
    n, d = points.shape
    rows = max(1, BLOCK_BYTES // (8 * d))  # tested a block at a time, in cache
    blocks = (points[i : i + rows] for i in range(0, n, rows))
    if n * x_norm <= 2.0**52 and all(np.array_equal(block, np.rint(block)) for block in blocks):
        return 0.0
    with np.errstate(over="ignore"):
        return float(2.0 * (n + 2) * x_norm * _EPS + _TINY)


def _member_sums(members, points, out):
    """The sum of the rows of ``points`` that each 0/1 row of ``members``
    selects, into ``out``: one BLAS product, in the BLAS's summation order."""
    np.matmul(members, points, out=out)


def _row_means(points, labels, centroids):
    """``centroids`` with each cluster that ``labels`` fill replaced by its
    members' mean summed in row order, as ``points[labels == c].mean(axis=0)``
    gives it; an empty cluster keeps its row (a k-means++ center or a
    re-seeded row, exact already)."""
    out = centroids.copy()
    for c in range(len(out)):
        mask = labels == c
        count = np.count_nonzero(mask)
        if count:
            np.add.reduce(points.compress(mask, axis=0), axis=0, out=out[c])
            out[c] /= count
    return out


def _lloyd_group(points, k, cfg: KMeansConfig, pairs, sq_norms, x_norms, deltas, draws):
    """Lloyd iterations of the given (window, restart) pairs in lockstep.
    Yields, for each window of the pairs in order, the (labels, centroids,
    inertia, history) of its best restart among them, the first on ties.

    ``points[w]`` is window w's (n, d) array, ``sq_norms[w]`` its rows'
    squared norms, ``x_norms[w]`` the largest row norm and ``deltas[w]`` its
    ``_mean_slack``; ``pairs`` are sorted by window. Row r of ``draws`` holds
    restart r's shared seeding draws (``_restart_draws``), which every pair of
    that restart reads. Each step assigns every live pair with one
    ``_assign`` call and sums its members with one ``_member_sums`` call,
    each one BLAS product per window. Every decision read from the product
    means is proved or taken from the row-order means (see ``_mean_slack``),
    so each pair follows its restart's trajectory alone on its window. A pair
    leaves when its labels repeat after a step with no re-seed, when its
    centroids move less than ``cfg.epsilon`` (one more assignment then gives
    its final labels) or at ``cfg.max_iters``. Each distinct final state, up
    to the numbering of its clusters, takes its row-order means and one exact
    inertia, so each yield equals, bit for bit, the best of its window's
    restarts run alone.
    """
    n, d = points[0].shape
    g = len(pairs)
    wins = np.array([w for w, _ in pairs], dtype=np.intp)
    seeds = [[cfg.seed, r] for _, r in pairs]
    centroids = _plusplus_seeds(points, k, draws[[r for _, r in pairs]], seeds, sq_norms, x_norms, wins)
    delta = deltas[wins]

    def row_means(j, labels, base):  # pair j's centroids base as the row-order sums of labels give them
        return _row_means(points[wins[j]], labels, base) if delta[j] else base

    histories = [[] for _ in range(g)]
    # live pair: the labels whose row-order means its centroids stand for (-1
    # before the first step: k-means++ centers); left: its final labels
    last = np.full((g, n), -1, dtype=np.intp)
    full = np.zeros(g, dtype=bool)  # those labels fill every cluster: no centroid is a re-seeded row
    made = {}  # left pair -> the labels its centroids stand for, where not its final labels
    stale = np.zeros(g, dtype=bool)  # centroids moved < epsilon: the next labels are final
    live = np.arange(g)
    for step in range(cfg.max_iters + 1):
        labels, totals = _assign(points, sq_norms, x_norms, centroids[live], wins[live], delta[live],
                                 lambda i: row_means(live[i], last[live[i]], centroids[live[i]]))
        moving = ~stale[live] & (step < cfg.max_iters)
        for j, total in zip(live[moving].tolist(), totals[moving].tolist()):
            histories[j].append(total)
        # the row-order means of repeated labels are those the centroids
        # stand for, bit for bit: the next shift is 0 and these labels are final
        same = (labels == last[live]).all(axis=1)
        done = ~moving | (same & full[live])
        if done.any():
            made.update((j, last[j].copy()) for j in live[done & ~same].tolist())
            last[live[done]] = labels[done]
            live, labels = live[~done], labels[~done]
            if not live.size:
                break
        members = np.equal(labels[:, None, :], np.arange(k)[:, None], out=np.empty((live.size, k, n)))
        counts = members.sum(axis=2)
        old, new = centroids[live], np.empty((live.size, k, d))
        for w, part in _runs(wins[live]):
            _member_sums(members[part].reshape(-1, n), points[w], new[part].reshape(-1, d))
        del members
        filled = counts > 0
        # sum / count; an empty cluster sums to 0 and is re-seeded below
        new /= np.maximum(counts, 1)[:, :, None]
        for i in np.flatnonzero(~filled.all(axis=1)).tolist():
            # re-seed each empty cluster with the point farthest from its
            # current centroid, never reusing a point twice
            j = live[i]
            x = points[wins[j]]
            dist_to_own = _sq_dists(x, row_means(j, last[j], old[i])[None], labels[i : i + 1])[0]
            for c in np.flatnonzero(~filled[i]):
                far = int(dist_to_own.argmax())
                new[i, c] = x[far]
                dist_to_own[far] = -1.0
        shift = np.sqrt(((new - old) ** 2).sum(axis=2)).max(axis=1)
        # within the shifts' bound of epsilon, the row-order means decide
        with np.errstate(invalid="ignore"):
            margin = 2.0 * delta[live] + (d + 4) * _EPS * (shift + cfg.epsilon) + np.sqrt(d * _TINY)
            near = ~(np.abs(shift - cfg.epsilon) > margin)
        for i in np.flatnonzero(near).tolist():
            j = live[i]
            moved = row_means(j, labels[i], new[i]) - row_means(j, last[j], old[i])
            shift[i] = np.sqrt((moved**2).sum(axis=1)).max()
        last[live], full[live] = labels, filled.all(axis=1)
        centroids[live] = new
        stale[live] = shift < cfg.epsilon
    # a final state up to numbering: its clusters ranked by their first row
    # (unused ones last, by index), its labels and the labels whose row-order
    # means are its centroids renumbered by rank, and where a centroid is a
    # re-seeded row, its centroids put in rank order. A row's distance to its
    # own centroid does not depend on the numbering, so neither does the
    # inertia; pairs of one state share their exact centroids and inertia
    first = np.where(last[:, None, :] == np.arange(k)[:, None], np.arange(n), n).min(axis=2) * k + np.arange(k)
    rank = (first[:, None, :] < first[:, :, None]).sum(axis=2)
    pair = np.arange(g)[:, None]
    renumbered, ordered = rank[pair, last], np.empty_like(centroids)
    ordered[pair, rank] = centroids
    firsts = {}  # the first pair of each distinct final state
    for j, w in enumerate(wins.tolist()):
        remade = rank[j, made[j]].tobytes() if j in made else b""
        reseeded = b"" if full[j] else ordered[j].tobytes()
        firsts.setdefault((w, renumbered[j].tobytes() + remade + reseeded), j)
    rows = np.array(list(firsts.values()))
    centroids[rows] = [row_means(j, made.get(j, last[j]), centroids[j]) for j in rows.tolist()]
    for w, part in _runs(wins[rows]):
        # in the difference form's per-row values and summation order: each
        # row of the distances is contiguous, so its sum is a lone row's
        states = rows[part]
        inertia = _sq_dists(points[w], centroids[states], last[states]).sum(axis=1)
        best = int(inertia.argmin())
        j, least = states[best], float(inertia[best])
        yield last[j].copy(), centroids[j].copy(), least, (*histories[j], least)


def _kmeans_windows(windows, k: int, cfg: KMeansConfig) -> list[ClusterAssignment]:
    """``kmeans`` of each of the point sets ``windows``, which share one
    shape, with every (window, restart) pair run in lockstep groups.

    Windows whose restarts together fit in ``KMEANS_JOIN_BYTES`` share a
    group; a window too large for that runs alone, its restarts split into
    groups that fit in ``KMEANS_GROUP_BYTES``. Each window's row norms and
    ``_mean_slack`` are taken once per call, and each restart's seeding draws
    once per arguments (``_restart_draws``) for all its pairs; each pair
    makes the draws and follows the trajectory of its restart run alone on
    its window. A group yields each window's best restart among its own, and
    a later group's replaces it only when strictly lower, so each result
    equals ``kmeans`` of that window bit for bit."""
    windows = [_as_points(points) for points in windows]
    n, d = windows[0].shape
    if any(points.shape != (n, d) for points in windows):
        raise ValueError(f"windows differ in shape: {sorted({p.shape for p in windows})}")
    _check_k(k, n)
    with np.errstate(over="ignore"):  # an overflow sends the Gram form's rows to the difference form
        sq_norms = np.concatenate([_sq_dists(points, np.zeros((1, d))) for points in windows])
    x_norms = np.sqrt(sq_norms.max(axis=1))
    deltas = np.array([_mean_slack(points, x_norm) for points, x_norm in zip(windows, x_norms)])
    restart_bytes = 16 * n * (k + 4) + 48 * k * d + 2048
    joined = max(1, KMEANS_JOIN_BYTES // (cfg.restarts * restart_bytes))
    size = max(1, KMEANS_GROUP_BYTES // restart_bytes)
    groups = [(range(w, min(w + joined, len(windows))), range(r, min(r + size, cfg.restarts)))
              for w in range(0, len(windows), joined) for r in range(0, cfg.restarts, size)]
    draws = _restart_draws(cfg.seed, cfg.restarts, n, k)
    best = [None] * len(windows)
    for group_windows, restarts in groups:
        pairs = [(w, r) for w in group_windows for r in restarts]
        found = _lloyd_group(windows, k, cfg, pairs, sq_norms, x_norms, deltas, draws)
        for w, result in zip(group_windows, found):
            if best[w] is None or result[2] < best[w][2]:
                best[w] = result
    return [
        ClusterAssignment(labels, k, centroids, inertia, inertia_history=history)
        for labels, centroids, inertia, history in best
    ]


def kmeans(points, k: int, cfg: KMeansConfig = KMeansConfig()) -> ClusterAssignment:
    """Cluster points into ``k`` groups, keeping the best of ``cfg.restarts``.

    Deterministic for a given seed; the winning restart is the one with the
    lowest final inertia (first such on ties). Restart r draws its own RNG
    stream from (seed, r). The restarts run in lockstep, each scored in the
    Gram form |x|^2 - 2 x.c + |c|^2 and re-scored in the difference form
    where the rounding bound cannot settle a row (see ``_GRAM_SLACK``), so
    labels, centroids and the final inertia equal those of the difference
    form bit for bit, exact ties going to the first centroid; each step's
    centroids are BLAS product sums checked against the row-order sums (see
    ``_mean_slack``), and the final ones are row-order means. Entries
    of ``inertia_history`` before the last may carry the rounding of both
    forms; the last is the exact ``inertia``. Non-finite points raise ``ValueError``.
    This is ``_kmeans_windows`` with one window.
    """
    return _kmeans_windows([points], k, cfg)[0]


def rbf_affinity(points, sigma: float | str = "median") -> np.ndarray:
    """Gaussian similarity matrix w_ij = exp(-|x_i - x_j|^2 / (2 sigma^2)).

    Squared distances are summed from coordinate differences by ``_sq_dists``,
    so no temporary grows as n^2 * d, and coincident points get a distance of
    exactly 0. The diagonal is forced to zero (no self-loops).
    ``sigma="median"`` uses the median of the non-zero pairwise distances,
    falling back to 1.0 when all points coincide. Non-finite points raise
    ``ValueError``.
    """
    _check_sigma(sigma)
    points = _as_points(points)
    n = points.shape[0]
    if n < 2:
        raise ValueError(f"affinity needs at least 2 points, got {n}")
    # (x_i - x_j)^2 == (x_j - x_i)^2 in floating point, so d2 comes out
    # exactly symmetric and non-negative without a symmetrising pass
    d2 = _sq_dists(points, points)
    if sigma == "median":
        # a boolean mask takes n^2 bytes, where triu_indices takes 8 n^2;
        # dists is a private copy, so the median may select in place
        dists = d2[np.triu(d2 > 0, k=1)]
        np.sqrt(dists, out=dists)
        sigma = float(np.median(dists, overwrite_input=True)) if dists.size else 1.0
    np.divide(d2, -(2.0 * float(sigma) ** 2), out=d2)
    np.exp(d2, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def check_symmetric(a, tol: float = 1e-12) -> np.ndarray:
    """Return ``a`` as a float array, raising if it is not square symmetric."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    gap = a - a.T
    gap = float(np.abs(gap, out=gap).max(initial=0.0))
    if gap > tol * scale:
        raise ValueError(f"matrix is not symmetric: max |a - a.T| = {gap:.3e}")
    return a


def laplacian(w, kind: str = "unnormalized") -> np.ndarray:
    """Graph Laplacian of a non-negative, zero-diagonal affinity matrix.

    ``unnormalized`` is D - W; ``symmetric_normalized`` is
    I - D^(-1/2) W D^(-1/2) with isolated vertices (degree 0) given a zero
    diagonal so that each still contributes a zero eigenvalue, i.e. counts
    as its own connected component. An asymmetry of ``w`` within tolerance
    stays in the result, of which ``numpy.linalg.eigh`` reads one triangle.
    """
    if kind not in LAPLACIAN_KINDS:
        raise ValueError(f"unknown laplacian kind {kind!r}; expected one of {LAPLACIAN_KINDS}")
    w = check_symmetric(w)
    if (w < 0).any():
        i, j = np.argwhere(w < 0)[0]
        raise ValueError(f"negative affinity entry at ({i}, {j})")
    if np.abs(np.diag(w)).max(initial=0.0) > 0:
        raise ValueError("affinity matrix must have a zero diagonal")
    deg = w.sum(axis=1)
    # one n x n array: 0.0 - w keeps a zero affinity +0.0, where -w gives -0.0
    if kind == "unnormalized":
        lap = 0.0 - w
        np.fill_diagonal(lap, deg)
    else:
        with np.errstate(divide="ignore"):
            inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        lap = np.outer(-inv_sqrt, inv_sqrt)  # -(a b) w == -(w a b) bit for bit
        lap *= w
        np.fill_diagonal(lap, np.where(deg > 0, 1.0, 0.0))
    return lap


def eigengap_suggest_k(eigenvalues, k_max: int) -> int:
    """Count of eigenvalues before the largest gap in the ascending spectrum.

    Scans gaps lambda_g - lambda_{g-1} for g in [1, k_max] (0-based ascending
    indexing) and returns the g of the largest one, smallest g on ties.
    """
    evs = np.asarray(eigenvalues, dtype=float)
    if evs.ndim != 1 or evs.size < 2:
        raise ValueError("need at least 2 eigenvalues")
    if np.any(np.diff(evs) < -1e-9 * max(1.0, float(np.abs(evs).max()))):
        raise ValueError("eigenvalues must be ascending")
    if k_max < 1:
        raise ValueError(f"k_max must be positive, got {k_max}")
    hi = min(k_max, evs.size - 1)
    gaps = evs[1 : hi + 1] - evs[:hi]
    return int(gaps.argmax()) + 1


def _spectral_embedding(w, k: int, cfg: SpectralConfig) -> tuple[np.ndarray, int]:
    """The rows of the first k eigenvectors of the Laplacian of affinity ``w``
    (ascending ``numpy.linalg.eigh``), as an (n, k) copy that frees the
    (n, n) eigenvectors, and the eigengap suggestion."""
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    _check_k(k, n)
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian(w, cfg.laplacian))
    return eigenvectors[:, :k].copy(), eigengap_suggest_k(eigenvalues, k_max=min(n - 1, 8))


def _spectral_from_affinities(
    affinities, k: int, cfg: SpectralConfig, kmeans_cfg: KMeansConfig
) -> list[ClusterAssignment]:
    """``spectral_from_affinity`` of each matrix of the iterable
    ``affinities``, which share one shape: each one's embedding and eigengap
    first, taken one matrix at a time, then one ``_kmeans_windows`` over the
    embeddings."""
    spectra = [_spectral_embedding(w, k, cfg) for w in affinities]
    found = _kmeans_windows([embedding for embedding, _ in spectra], k, kmeans_cfg)
    return [replace(km, suggested_k=suggested) for km, (_, suggested) in zip(found, spectra)]


def spectral_from_affinity(
    w, k: int, cfg: SpectralConfig = SpectralConfig(), kmeans_cfg: KMeansConfig = KMeansConfig()
) -> ClusterAssignment:
    """Spectral clustering from a ready-made affinity matrix.

    Laplacian -> ascending eigendecomposition (``numpy.linalg.eigh``) -> rows
    of the first k eigenvector columns -> k-means. The eigengap suggestion is
    attached as metadata; the given k stays authoritative. This is
    ``_spectral_from_affinities`` with one matrix.
    """
    return _spectral_from_affinities([w], k, cfg, kmeans_cfg)[0]


def spectral_cluster(
    points, k: int, cfg: SpectralConfig = SpectralConfig(), kmeans_cfg: KMeansConfig = KMeansConfig()
) -> ClusterAssignment:
    """Full spectral pipeline on raw observation vectors."""
    return spectral_from_affinity(rbf_affinity(points, cfg.sigma), k, cfg, kmeans_cfg)


def _cluster_windows(windows, algo, k, kmeans_cfg, spectral_cfg) -> list[ClusterAssignment]:
    """The ``ALGORITHMS`` name ``algo`` on every window, with one lockstep k-means
    over the day vectors (``kmeans``) or the spectral embeddings (``spectral``):
    each result equals ``kmeans`` or ``spectral_cluster`` of its window alone."""
    if algo == "kmeans":
        return _kmeans_windows(windows, k, kmeans_cfg)
    if algo == "spectral":
        affinities = (rbf_affinity(points, spectral_cfg.sigma) for points in windows)
        return _spectral_from_affinities(affinities, k, spectral_cfg, kmeans_cfg)
    raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")


def _leftmost_splits(prev, sums, weights, rows, lo, hi):
    """Per row r of ``rows``, the least prev[t] - (sums[r] - sums[t])^2 /
    (weights[r] - weights[t]) over t in [lo, hi], and the leftmost t that
    reaches it: one pass over all rows' candidate ranges laid end to end."""
    widths = hi - lo + 1
    ends = np.cumsum(widths)
    offsets = ends - widths
    t = np.arange(widths.sum()) - np.repeat(offsets - lo, widths)
    diff = np.repeat(sums[rows], widths) - sums[t]
    score = diff / (np.repeat(weights[rows], widths) - weights[t])
    score *= diff
    np.subtract(prev[t], score, out=score)
    least = np.minimum.reduceat(score, offsets)
    hits = np.flatnonzero(score == np.repeat(least, widths))
    return least, t[hits[np.searchsorted(hits, offsets)]]


def cluster_scalar_feature(values, k: int) -> ClusterAssignment:
    """Exact 1-D k-means: the k clusters of least within-cluster sum of
    squares (SSE), label 0 holding the smallest values.

    An optimal 1-D partition is a set of runs of the sorted values, and
    equal values share a run. The values are sorted once (stable
    ``argsort``); a dynamic program over the m distinct values, weighted by
    their counts, finds the best split of each prefix into j runs for
    j = 1 .. k, each run's SSE taken from prefix sums of the values minus
    their median. The leftmost optimal split of a prefix never moves left as
    the prefix grows, so each level searches its rows by halving: the middle
    row of a block is searched between the splits that bound the block, and
    its split then bounds the block's two halves (Grønlund et al., 2017).
    Ties go to the leftmost split. The result depends on the values alone.
    The prefix sums round by about eps times the values' sum of squared
    deviations from the median; where clusters lie a million times their
    own spread apart or more, that can hide SSE differences and the result
    may miss the optimum.

    Centroids are member means, each summed in region order, and the
    inertia is the sum of ``_sq_dists``, as ``kmeans`` computes them.
    When k exceeds m, each distinct value is its own cluster, labels
    m .. k - 1 are unused and their centroids are nan. Non-finite values
    raise ``ValueError``, as do values whose squared deviations overflow.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    labels = _scalar_features(values[:, None], k)[0]
    centroids = _row_means(values[:, None], labels, np.full((k, 1), np.nan))
    inertia = _sq_dists(values[:, None], centroids[None], labels[None]).sum()
    return ClusterAssignment(labels, k, centroids, float(inertia))


def _scalar_features(values, k: int) -> np.ndarray:
    """The (F, n) labels ``cluster_scalar_feature`` gives each column of the
    (n, F) ``values``, bit for bit: each round of a level's halving searches
    the middle rows of every column's blocks in one ``_leftmost_splits``
    call. Column f's prefix arrays lie at flat positions f (n + 1) .. f (n + 1) + n."""
    values = _as_points(values).T
    features, n = values.shape
    _check_k(k, n)
    order = np.argsort(values, axis=1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=1)
    # rank[f, p]: which distinct value of column f sorted position p holds
    rank = np.ones((features, n), dtype=np.intp)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=rank[:, 1:])
    rank = np.cumsum(rank, axis=1) - 1
    m = rank[:, -1] + 1
    used = np.minimum(k, m)
    base = np.arange(features) * (n + 1)
    # prefix sums over the distinct values, weighted by their counts and
    # shifted by the median, which keeps them small where most values lie;
    # past a column's m distinct values its counts and shifts are 0
    counts = np.bincount((rank + n * np.arange(features)[:, None]).ravel(), minlength=features * n)
    counts = counts.reshape(features, n)
    shifted = np.zeros((features, n))
    weights, sums = np.zeros((2, features, n + 1))
    np.cumsum(counts, axis=1, out=weights[:, 1:])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        np.put_along_axis(shifted, rank, ordered - ordered[:, n // 2, None], axis=1)
        np.cumsum(counts * shifted, axis=1, out=sums[:, 1:])
        total = (counts * shifted * shifted).sum(axis=1)
    if not np.isfinite(total).all():
        column = np.argmin(np.isfinite(total))
        raise ValueError(f"the squared deviations of the values in column {column} overflow")
    # A run of weight W and shifted sum S has SSE (its sum of squares) - S^2 / W,
    # so a partition's SSE is the shifted values' total sum of squares minus
    # the sum of S^2 / W over its runs. The total is the same for every
    # partition: best[i] is the least -sum(S^2 / W) over j runs of the first
    # i distinct values, and the scores never exceed the finite total.
    best = np.full((features, n + 1), np.inf)
    best[:, 1:] = -sums[:, 1:] * (sums[:, 1:] / weights[:, 1:])
    best, sums, weights = best.ravel(), sums.ravel(), weights.ravel()
    splits = []
    for j in range(2, int(used.max(initial=1)) + 1):
        # rows leave one value for each later run; the last level needs m only
        col = np.flatnonzero(used >= j)
        high = base[col] + m[col] - used[col] + j
        first = np.where(used[col] == j, high, base[col] + j)
        prev, best = best, np.full(best.size, np.inf)
        split = np.arange(best.size)  # a column not at this level keeps its cut
        # blocks [first, last] of rows whose splits lie in [lo, hi]: each round
        # searches the middle rows; rows below one split no later, rows above
        # no earlier, so no range is ever empty
        last, lo, hi = high, base[col] + j - 1, high - 1
        while first.size:
            mid = (first + last) // 2
            best[mid], split[mid] = _leftmost_splits(prev, sums, weights, mid, lo, np.minimum(hi, mid - 1))
            at = split[mid]  # the lower halves, then the upper halves
            first, last = np.concatenate([first, mid + 1]), np.concatenate([mid - 1, last])
            lo, hi = np.concatenate([lo, at]), np.concatenate([at, hi])
            keep = first <= last
            first, last, lo, hi = first[keep], last[keep], lo[keep], hi[keep]
        splits.append(split)
    # mark where each run starts (and each column's end, which no label reads);
    # a distinct value's label counts the marks up to it
    marks, cut = np.zeros(best.size, dtype=np.int64), base + m
    for split in reversed(splits):
        cut = split[cut]
        marks[cut] = 1
    runs = np.cumsum(marks.reshape(features, n + 1), axis=1)
    labels = np.empty((features, n), dtype=np.int64)
    np.put_along_axis(labels, order, np.take_along_axis(runs, rank, axis=1), axis=1)
    return labels
