"""Clustering of region observations.

Three entry points, each taking the cluster count k as an argument; the
frozen ``KMeansConfig`` and ``SpectralConfig`` hold only solver controls:

  kmeans                  Lloyd iterations with k-means++ seeding and
                          independent restarts; fully deterministic per seed.
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
        if self.epsilon <= 0 or self.max_iters < 1 or self.restarts < 1:
            raise ValueError("epsilon, max_iters and restarts must be positive")


@dataclass(frozen=True)
class SpectralConfig:
    """Affinity bandwidth and Laplacian variant.

    ``sigma`` may be a positive number or the string ``"median"`` (median of
    the non-zero pairwise distances).
    """

    sigma: float | str = "median"
    laplacian: str = "unnormalized"

    def __post_init__(self):
        if self.laplacian not in LAPLACIAN_KINDS:
            raise ValueError(
                f"unknown laplacian kind {self.laplacian!r}; expected one of {LAPLACIAN_KINDS}"
            )
        if not (self.sigma == "median" or (np.isreal(self.sigma) and self.sigma > 0)):
            raise ValueError(f"sigma must be positive or 'median', got {self.sigma!r}")


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


def _check_k(k, n):
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} observations")


def _assign(points, centroids):
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(len(points)), labels].sum())
    return labels, inertia, d2


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


def _lloyd(points, k, cfg: KMeansConfig, rng):
    centroids = _plusplus_init(points, k, rng)
    history = []
    for _ in range(cfg.max_iters):
        labels, inertia, d2 = _assign(points, centroids)
        history.append(inertia)
        counts = np.bincount(labels, minlength=k)
        new_centroids = centroids.copy()
        for c in np.flatnonzero(counts):
            new_centroids[c] = points[labels == c].mean(axis=0)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # re-seed each empty cluster with the point farthest from its
            # current centroid, never reusing a point twice
            dist_to_own = d2[np.arange(len(points)), labels].copy()
            for c in empty:
                far = int(dist_to_own.argmax())
                new_centroids[c] = points[far]
                dist_to_own[far] = -1.0
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < cfg.epsilon:
            break
    labels, inertia, _ = _assign(points, centroids)
    history.append(inertia)
    return labels, centroids, inertia, tuple(history)


def kmeans(points, k: int, cfg: KMeansConfig = KMeansConfig()) -> ClusterAssignment:
    """Cluster points into ``k`` groups, keeping the best of ``cfg.restarts``.

    Deterministic for a given seed; the winning restart is the one with the
    lowest final inertia (first such on ties).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(f"expected a non-empty 2-D point array, got shape {points.shape}")
    _check_k(k, points.shape[0])
    best = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        labels, centroids, inertia, history = _lloyd(points, k, cfg, rng)
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
    all points coincide.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
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
    elif not (np.isreal(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive or 'median', got {sigma!r}")
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
