"""Clustering of region observations.

Three entry points, each taking the cluster count k as an argument; the
frozen ``KMeansConfig`` and ``SpectralConfig`` hold only solver controls:

  kmeans                  Lloyd iterations with k-means++ seeding and
                          independent restarts; fully deterministic per seed.
                          Each step assigns by one BLAS product (Gram form)
                          and re-scores in the difference form the rows the
                          rounding bound cannot settle, so partitions and
                          inertia equal the difference form's bit for bit.
  spectral_cluster        Gaussian affinity -> graph Laplacian -> LAPACK
                          symmetric eigendecomposition -> k-means on the
                          leading eigenvector rows.
  cluster_scalar_feature  1-D k-means with labels renumbered so cluster 0
                          holds the smallest values.

Restart r draws its RNG stream from (seed, r), so results do not depend on
evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALGORITHMS = ("kmeans", "spectral")
LAPLACIAN_KINDS = ("unnormalized", "symmetric_normalized")
# Size of the (rows, n, d) difference block rbf_affinity squares at once; a
# block of at least one row is always taken.
AFFINITY_BLOCK_BYTES = 32 * 2**20


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
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
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


def _check_k(k, n):
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > n:
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
# operation). Rows that do not clear the band are re-scored in the difference
# form: every exact tie, and every row that an overflow turned into inf or
# nan. So labels, first centroid on ties, equal the difference form's on
# every finite input.
_GRAM_SLACK = 8.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _assign(points, sq_norms, x_norm, rows, centroids):
    """Nearest-centroid labels (first centroid on ties) and their summed
    squared distances: Gram form, screened, re-scored in the difference form
    where the screen cannot vouch for the argmin (see ``_GRAM_SLACK``)."""
    c_norms = (centroids * centroids).sum(axis=1)
    d2 = points @ centroids.T
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += c_norms
    labels = d2.argmin(axis=1)
    row_min = d2[rows, labels]
    radius = x_norm + np.sqrt(c_norms.max())
    tol = (points.shape[1] + 2) * (_GRAM_SLACK * radius * radius + _TINY)
    near = d2 <= (row_min + tol)[:, None]
    total = row_min.sum()
    # a finite total means no row is nan, so every row counts at least its
    # own minimum as near; n near entries in all then mean no row has two
    if np.count_nonzero(near) != len(rows) or not np.isfinite(total):
        redo = np.flatnonzero(near.sum(axis=1) != 1)
        exact = ((points[redo, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels[redo] = exact.argmin(axis=1)
        row_min[redo] = exact[rows[: redo.size], labels[redo]]
        total = row_min.sum()
    return labels, float(total)


def _own_d2(points, centroids, labels):
    """Squared distance of each row to its centroid, in the difference form."""
    diff = centroids[labels]
    np.subtract(points, diff, out=diff)
    diff *= diff
    return diff.sum(axis=1)


def _plusplus_init(points, k, rng):
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # all remaining points coincide with a centroid
        centroids[i] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[i]) ** 2).sum(axis=1))
    return centroids


def _lloyd(points, k, cfg: KMeansConfig, rng, sq_norms, x_norm, rows):
    centroids = _plusplus_init(points, k, rng)
    history = []
    labels = repeat = None  # repeat: last labels whose means fill every centroid
    for _ in range(cfg.max_iters):
        labels, total = _assign(points, sq_norms, x_norm, rows, centroids)
        history.append(total)
        if repeat is not None and np.array_equal(labels, repeat):
            # the means of these labels are the current centroids, bit for
            # bit: the next shift is 0 and these labels are final
            break
        counts = np.bincount(labels, minlength=k)
        new_centroids = centroids.copy()
        for c in np.flatnonzero(counts):
            # bit-equal to .mean(axis=0), without its wrapper cost
            new_centroids[c] = points[labels == c].sum(axis=0) / counts[c]
        empty = np.flatnonzero(counts == 0)
        repeat = None if empty.size else labels
        if empty.size:
            # re-seed each empty cluster with the point farthest from its
            # current centroid, never reusing a point twice
            dist_to_own = _own_d2(points, centroids, labels)
            for c in empty:
                far = int(dist_to_own.argmax())
                new_centroids[c] = points[far]
                dist_to_own[far] = -1.0
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        labels = None  # stale: they belong to the centroids just replaced
        if shift < cfg.epsilon:
            break
    if labels is None:
        labels, _ = _assign(points, sq_norms, x_norm, rows, centroids)
    # exact, in the difference form's per-row values and summation order
    inertia = float(_own_d2(points, centroids, labels).sum())
    history.append(inertia)
    return labels, centroids, inertia, tuple(history)


def kmeans(points, k: int, cfg: KMeansConfig = KMeansConfig()) -> ClusterAssignment:
    """Cluster points into ``k`` groups, keeping the best of ``cfg.restarts``.

    Deterministic for a given seed; the winning restart is the one with the
    lowest final inertia (first such on ties). Each Lloyd step scores all
    rows with one matrix product (the Gram form |x|^2 - 2 x.c + |c|^2) and
    re-scores in the difference form sum((x - c)^2) every row whose two
    nearest centroids lie within the rounding bound of each other. Labels,
    centroids and the final inertia therefore equal those of the difference
    form bit for bit, exact ties going to the first centroid. Entries of
    ``inertia_history`` before the last may carry Gram-form rounding; the
    last is the exact ``inertia``. Non-finite points raise ``ValueError``.
    """
    points = _as_points(points)
    _check_k(k, points.shape[0])
    sq_norms = (points * points).sum(axis=1)
    x_norm = np.sqrt(sq_norms.max())
    rows = np.arange(points.shape[0])
    best = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        labels, centroids, inertia, history = _lloyd(
            points, k, cfg, rng, sq_norms, x_norm, rows
        )
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia, history)
    labels, centroids, inertia, history = best
    return ClusterAssignment(labels, k, centroids, inertia, inertia_history=history)


def rbf_affinity(points, sigma: float | str = "median") -> np.ndarray:
    """Gaussian similarity matrix w_ij = exp(-|x_i - x_j|^2 / (2 sigma^2)).

    Squared distances are summed from coordinate differences, a block of rows
    at a time, so the temporary stays within ``AFFINITY_BLOCK_BYTES`` instead
    of growing as n^2 * d, and coincident points get a distance of exactly 0.
    The diagonal is forced to zero (no self-loops). ``sigma="median"`` uses
    the median of the non-zero pairwise distances, falling back to 1.0 when
    all points coincide. Non-finite points raise ``ValueError``.
    """
    _check_sigma(sigma)
    points = _as_points(points)
    n = points.shape[0]
    if n < 2:
        raise ValueError(f"affinity needs at least 2 points, got {n}")
    rows = max(1, AFFINITY_BLOCK_BYTES // (8 * n * max(1, points.shape[1])))
    d2 = np.empty((n, n))
    # (x_i - x_j)^2 == (x_j - x_i)^2 in floating point, so d2 comes out
    # exactly symmetric and non-negative without a symmetrising pass
    for i in range(0, n, rows):
        j = min(i + rows, n)
        d2[i:j] = ((points[i:j, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    if sigma == "median":
        dists = np.sqrt(d2[np.triu_indices(n, k=1)])
        nonzero = dists[dists > 0]
        sigma = float(np.median(nonzero)) if nonzero.size else 1.0
    w = np.exp(-d2 / (2.0 * float(sigma) ** 2))
    np.fill_diagonal(w, 0.0)
    return w


def check_symmetric(a, tol: float = 1e-12) -> np.ndarray:
    """Return ``a`` as a float array, raising if it is not square symmetric."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    gap = float(np.abs(a - a.T).max(initial=0.0))
    if gap > tol * scale:
        raise ValueError(f"matrix is not symmetric: max |a - a.T| = {gap:.3e}")
    return a


def laplacian(w, kind: str = "unnormalized") -> np.ndarray:
    """Graph Laplacian of a non-negative, zero-diagonal affinity matrix.

    ``unnormalized`` is D - W; ``symmetric_normalized`` is
    I - D^(-1/2) W D^(-1/2) with isolated vertices (degree 0) given a zero
    diagonal so that each still contributes a zero eigenvalue, i.e. counts
    as its own connected component.
    """
    w = check_symmetric(w)
    if (w < 0).any():
        i, j = np.argwhere(w < 0)[0]
        raise ValueError(f"negative affinity entry at ({i}, {j})")
    if np.abs(np.diag(w)).max(initial=0.0) > 0:
        raise ValueError("affinity matrix must have a zero diagonal")
    if kind not in LAPLACIAN_KINDS:
        raise ValueError(f"unknown laplacian kind {kind!r}; expected one of {LAPLACIAN_KINDS}")
    deg = w.sum(axis=1)
    if kind == "unnormalized":
        lap = np.diag(deg) - w
    else:
        with np.errstate(divide="ignore"):
            inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        lap = -w * np.outer(inv_sqrt, inv_sqrt)
        np.fill_diagonal(lap, np.where(deg > 0, 1.0, 0.0))
    return (lap + lap.T) / 2.0


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


def spectral_from_affinity(
    w, k: int, cfg: SpectralConfig = SpectralConfig(), kmeans_cfg: KMeansConfig = KMeansConfig()
) -> ClusterAssignment:
    """Spectral clustering from a ready-made affinity matrix.

    Laplacian -> ascending eigendecomposition (``numpy.linalg.eigh``) -> rows
    of the first k eigenvector columns -> k-means. The eigengap suggestion is
    attached as metadata; the given k stays authoritative.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    _check_k(k, n)
    lap = laplacian(w, cfg.laplacian)
    eigenvalues, eigenvectors = np.linalg.eigh(lap)
    embedding = eigenvectors[:, :k]
    suggested = eigengap_suggest_k(eigenvalues, k_max=min(n - 1, 8))
    km = kmeans(embedding, k, kmeans_cfg)
    return ClusterAssignment(
        km.labels,
        k,
        km.centroids,
        km.inertia,
        suggested_k=suggested,
        inertia_history=km.inertia_history,
    )


def spectral_cluster(
    points, k: int, cfg: SpectralConfig = SpectralConfig(), kmeans_cfg: KMeansConfig = KMeansConfig()
) -> ClusterAssignment:
    """Full spectral pipeline on raw observation vectors."""
    return spectral_from_affinity(rbf_affinity(points, cfg.sigma), k, cfg, kmeans_cfg)


def cluster_scalar_feature(values, k: int, cfg: KMeansConfig = KMeansConfig()) -> ClusterAssignment:
    """1-D k-means with cluster indexes pre-set in increasing centroid order.

    Label 0 always holds the smallest values, so labels carry meaning across
    features and are directly comparable to other ordered labelings.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    km = kmeans(values[:, None], k, cfg)
    order = np.argsort(km.centroids[:, 0], kind="stable")
    rank = np.empty(k, dtype=np.int64)
    rank[order] = np.arange(k)
    return ClusterAssignment(
        rank[km.labels],
        k,
        km.centroids[order],
        km.inertia,
        inertia_history=km.inertia_history,
    )
