"""k-means, affinity/Laplacian construction, eigensolver contract, eigengap,
spectral and scalar clustering."""

import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from epiclust.align import best_permutation_dissimilarity
from epiclust.cluster import (
    ClusterAssignment,
    KMeansConfig,
    SpectralConfig,
    _assign,
    _check_k,
    _plusplus_init,
    check_symmetric,
    cluster_scalar_feature,
    eigengap_suggest_k,
    kmeans,
    laplacian,
    rbf_affinity,
    spectral_cluster,
    spectral_from_affinity,
)


def blocks_affinity(sizes, within=1.0):
    """Affinity of disjoint complete components (zero cross coupling)."""
    n = sum(sizes)
    w = np.zeros((n, n))
    start = 0
    for size in sizes:
        w[start : start + size, start : start + size] = within
        start += size
    np.fill_diagonal(w, 0.0)
    return w


# --- kmeans -----------------------------------------------------------------


def test_kmeans_two_far_pairs():
    # exhaustive enumeration of 2-partitions puts {0, 0.1} | {10, 10.1} first
    km = kmeans(np.array([0.0, 0.1, 10.0, 10.1]), 2, KMeansConfig(seed=0))
    assert km.labels[0] == km.labels[1] != km.labels[2] == km.labels[3]
    assert sorted(km.centroids[:, 0].tolist()) == [0.05, 10.05]
    assert km.inertia == pytest.approx(0.01)


def test_kmeans_k_equals_n():
    pts = np.array([[0.0], [1.0], [5.0], [9.0]])
    km = kmeans(pts, 4, KMeansConfig(seed=1))
    assert sorted(km.labels.tolist()) == [0, 1, 2, 3]
    assert km.inertia == 0.0


def test_kmeans_identical_points():
    km = kmeans(np.full((5, 2), 3.0), 1, KMeansConfig(seed=0))
    assert km.labels.tolist() == [0] * 5
    assert km.centroids.tolist() == [[3.0, 3.0]]
    assert km.inertia == 0.0


def test_kmeans_seed_deterministic():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((40, 6))
    a = kmeans(pts, 4, KMeansConfig(seed=123))
    b = kmeans(pts, 4, KMeansConfig(seed=123))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia


def test_kmeans_inertia_history_non_increasing():
    rng = np.random.default_rng(17)
    for _ in range(20):
        pts = rng.standard_normal((int(rng.integers(5, 30)), 2))
        km = kmeans(pts, 3, KMeansConfig(seed=int(rng.integers(1000))))
        hist = np.array(km.inertia_history)
        assert np.all(np.diff(hist) <= 1e-9 * np.maximum(1.0, hist[:-1]))
        assert km.inertia == hist[-1]


def test_kmeans_labels_match_nearest_final_centroid():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 10, (30, 3))
    km = kmeans(pts, 4, KMeansConfig(seed=9))
    d2 = ((pts[:, None, :] - km.centroids[None]) ** 2).sum(axis=2)
    assert np.array_equal(km.labels, d2.argmin(axis=1))


def test_kmeans_errors():
    with pytest.raises(ValueError, match="exceeds"):
        kmeans(np.zeros((2, 1)), 3)
    with pytest.raises(ValueError, match="non-empty"):
        kmeans(np.zeros((0, 1)), 1)
    with pytest.raises(ValueError, match="k must be positive"):
        kmeans(np.zeros((2, 1)), 0)


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"epsilon": float("nan")}, "epsilon"),
        ({"epsilon": float("inf")}, "epsilon"),
        ({"epsilon": 0.0}, "epsilon"),
        ({"epsilon": True}, "epsilon"),
        ({"epsilon": "1e-6"}, "epsilon"),
        ({"max_iters": 2.5}, "max_iters"),
        ({"max_iters": 0}, "max_iters"),
        ({"restarts": True}, "restarts"),
        ({"restarts": 0}, "restarts"),
        ({"seed": 1.0}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": None}, "seed"),
    ],
)
def test_kmeans_config_rejects_bad_values(kwargs, named):
    with pytest.raises(ValueError, match=f"^{named} must be"):
        KMeansConfig(**kwargs)


@pytest.mark.parametrize("sigma", [float("inf"), float("nan"), True, 0.0, -1.0, "wide", None])
def test_spectral_config_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="^sigma must be a finite positive number or 'median'"):
        SpectralConfig(sigma=sigma)
    assert SpectralConfig(sigma=np.float32(0.5)).sigma == np.float32(0.5)


def test_kmeans_config_accepts_numpy_scalars():
    cfg = KMeansConfig(epsilon=np.float32(1e-3), max_iters=np.int64(5), restarts=2, seed=np.int32(7))
    assert kmeans(np.arange(6.0), 2, cfg).k == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_points(bad):
    pts = np.zeros((4, 3))
    pts[2, 1] = bad
    pts[3, 0] = bad
    with pytest.raises(ValueError, match=r"^point at row 2, column 1 is not finite"):
        kmeans(pts, 2)
    with pytest.raises(ValueError, match=r"^point at row 1, column 0 is not finite"):
        cluster_scalar_feature([0.0, bad, 1.0], 2)
    with pytest.raises(ValueError, match=r"^point at row 2, column 1 is not finite"):
        spectral_cluster(pts, 2)


# --- kmeans against the difference-form reference -----------------------------
# _reference_assign, _reference_lloyd and reference_kmeans are the earlier
# k-means, kept verbatim: every step scores every row with the (n, k, d)
# difference form. kmeans must reproduce it bit for bit.


def _reference_assign(points, centroids):
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(len(points)), labels].sum())
    return labels, inertia, d2


def _reference_lloyd(points, k, cfg: KMeansConfig, rng):
    centroids = _plusplus_init(points, k, rng)
    history = []
    for _ in range(cfg.max_iters):
        labels, inertia, d2 = _reference_assign(points, centroids)
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
    labels, inertia, _ = _reference_assign(points, centroids)
    history.append(inertia)
    return labels, centroids, inertia, tuple(history)


def reference_kmeans(points, k: int, cfg: KMeansConfig = KMeansConfig()) -> ClusterAssignment:
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(f"expected a non-empty 2-D point array, got shape {points.shape}")
    _check_k(k, points.shape[0])
    best = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        labels, centroids, inertia, history = _reference_lloyd(points, k, cfg, rng)
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia, history)
    labels, centroids, inertia, history = best
    return ClusterAssignment(labels, k, centroids, inertia, inertia_history=history)


def assert_same_as_reference(got, want):
    assert np.array_equal(got.labels, want.labels)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.inertia == want.inertia
    assert len(got.inertia_history) == len(want.inertia_history)
    assert got.inertia_history[-1] == got.inertia


def _duplicated_rows(rng, n, d):
    pts = rng.standard_normal((n, d))
    pts[rng.integers(n, size=n // 2)] = pts[rng.integers(n)]
    return pts


ORACLE_FAMILIES = {
    "gaussian": lambda rng, n, d: rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4),
    # few distinct coordinates: many points exactly equidistant from two centroids
    "integer_grid_ties": lambda rng, n, d: rng.integers(0, 3, (n, d)).astype(float),
    # a large common offset: an unscreened Gram form misorders near-ties here
    "offset_1e7": lambda rng, n, d: 1e7 + 1e4 * rng.poisson(3.0, (n, d)),
    "offset_1e7_unit_steps": lambda rng, n, d: 1e7 + rng.poisson(3.0, (n, d)),
    "duplicated_rows": _duplicated_rows,
}


@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
def test_kmeans_matches_difference_form_reference(family):
    rng = np.random.default_rng(sorted(ORACLE_FAMILIES).index(family))
    for case in range(30):
        n, d = int(rng.integers(2, 80)), int(rng.integers(1, 10))
        pts = ORACLE_FAMILIES[family](rng, n, d)
        k = 1 if case == 0 else int(rng.integers(1, min(n, 7) + 1))
        for max_iters in (1, 2, 300):
            cfg = KMeansConfig(max_iters=max_iters, restarts=3, seed=int(rng.integers(1000)))
            assert_same_as_reference(kmeans(pts, k, cfg), reference_kmeans(pts, k, cfg))


def test_kmeans_empty_cluster_reseed_matches_reference():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n, d = int(rng.integers(4, 40)), int(rng.integers(1, 4))
        distinct = rng.integers(-2, 3, (int(rng.integers(1, 4)), d)).astype(float)
        pts = distinct[rng.integers(len(distinct), size=n)]
        # k-means++ draws its k centroids from fewer than k distinct points, so
        # two coincide, the later one wins no row and must be re-seeded
        k = len(np.unique(pts, axis=0)) + int(rng.integers(1, 3))
        cfg = KMeansConfig(restarts=2, seed=int(rng.integers(1000)))
        assert_same_as_reference(kmeans(pts, k, cfg), reference_kmeans(pts, k, cfg))


def test_kmeans_labels_repeating_after_a_reseed_keep_iterating(monkeypatch):
    # from these centroids cluster 2 is empty and is re-seeded at 10, which
    # the earlier centroid 1 also reaches: the labels repeat, yet the next
    # re-seed (the point farthest from its centroid is now 0) moves a centroid
    points = np.array([[0.0], [1.0], [10.0]])
    start = np.array([[0.5], [6.0], [-5.0]])

    def fake_init(points, k, rng):
        return start.copy()

    monkeypatch.setattr("epiclust.cluster._plusplus_init", fake_init)
    monkeypatch.setattr(sys.modules[__name__], "_plusplus_init", fake_init)
    cfg = KMeansConfig(restarts=1)
    want = reference_kmeans(points, 3, cfg)
    assert want.labels.tolist() == [2, 0, 1]
    assert_same_as_reference(kmeans(points, 3, cfg), want)


def test_scalar_feature_matches_reference(monkeypatch):
    rng = np.random.default_rng(13)
    cases = []
    for _ in range(40):
        n = int(rng.integers(2, 70))
        values = rng.choice([rng.uniform(0, 100, n), rng.integers(0, 4, n) * 0.5, 1e7 + rng.poisson(2.0, n)])
        cases.append((values, int(rng.integers(1, min(n, 6) + 1)), KMeansConfig(seed=int(rng.integers(1000)))))
    got = [cluster_scalar_feature(*case) for case in cases]
    monkeypatch.setattr("epiclust.cluster.kmeans", reference_kmeans)
    for g, case in zip(got, cases):
        assert_same_as_reference(g, cluster_scalar_feature(*case))


def test_exact_tie_goes_to_the_first_centroid():
    # 123456789 is exactly 0.25 from both centroids (0.0625 in the difference
    # form), but the Gram form rounds the two squared distances to 0 and -2
    points = np.array([[123456789.0], [123456790.0]])
    centroids = np.array([[123456789.25], [123456788.75]])
    gram = (points**2).sum(1)[:, None] - 2.0 * points @ centroids.T + (centroids**2).sum(1)
    assert gram[0].argmin() == 1  # the case the screen exists for
    sq_norms = (points * points).sum(axis=1)
    labels, total = _assign(points, sq_norms, np.sqrt(sq_norms.max()), np.arange(2), centroids)
    assert labels.tolist() == [0, 0]
    assert total == 0.0625 + 0.5625


# --- affinity / laplacian / eigengap -----------------------------------------


def test_rbf_identical_points_and_diagonal():
    w = rbf_affinity(np.array([[1.0, 2.0], [1.0, 2.0]]), sigma=1.0)
    assert w[0, 1] == 1.0 and w[1, 0] == 1.0
    assert w[0, 0] == 0.0 and w[1, 1] == 0.0


def test_rbf_kernel_value_at_sigma_sqrt2():
    sigma = 0.7
    pts = np.array([[0.0], [sigma * np.sqrt(2.0)]])
    w = rbf_affinity(pts, sigma=sigma)
    assert w[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_rbf_median_bandwidth_scale_free():
    pts = np.array([[0.0], [1.0], [2.0], [10.0]])
    w1 = rbf_affinity(pts, sigma="median")
    w2 = rbf_affinity(pts * 1000.0, sigma="median")
    assert np.allclose(w1, w2, atol=1e-12)


def test_rbf_errors():
    with pytest.raises(ValueError, match="at least 2"):
        rbf_affinity(np.array([[1.0]]))
    with pytest.raises(ValueError, match="sigma"):
        rbf_affinity(np.zeros((3, 1)), sigma=-1.0)


def one_shot_affinity(points, sigma):
    """rbf_affinity as a single (n, n, d) broadcast: the unblocked reference."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    diff = points[:, None, :] - points[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    d2 = np.maximum((d2 + d2.T) / 2.0, 0.0)
    if sigma == "median":
        dists = np.sqrt(d2[np.triu_indices(n, k=1)])
        nonzero = dists[dists > 0]
        sigma = float(np.median(nonzero)) if nonzero.size else 1.0
    w = np.exp(-d2 / (2.0 * float(sigma) ** 2))
    np.fill_diagonal(w, 0.0)
    return w


def test_rbf_blocked_matches_one_shot_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(31)
    for trial in range(40):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 12))
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)
        if trial % 3 == 0:  # duplicated rows
            pts[rng.integers(n, size=n // 2)] = pts[rng.integers(n)]
        if trial % 4 == 0:  # rows a constant-row zscore maps to zeros
            pts[rng.integers(n, size=max(2, n // 3))] = 0.0
        # a budget of a few rows per block, rarely a divisor of n
        rows = int(rng.integers(1, n + 1))
        monkeypatch.setattr("epiclust.cluster.AFFINITY_BLOCK_BYTES", 8 * n * d * rows + 7)
        for sigma in ("median", 0.5):
            assert np.array_equal(rbf_affinity(pts, sigma), one_shot_affinity(pts, sigma))


def test_rbf_county_scale_memory_bounded():
    pts = np.random.default_rng(0).standard_normal((3142, 30))
    tracemalloc.start()
    try:
        rbf_affinity(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the unblocked (n, n, d) difference tensor alone is 2.2 GiB here
    assert peak < 512 * 2**20


def test_laplacian_two_node_path():
    lap = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert lap.tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    assert np.allclose(np.linalg.eigvalsh(lap), [0.0, 2.0], atol=1e-12)


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(1)
    w = rbf_affinity(rng.standard_normal((8, 2)), sigma=1.0)
    lap = laplacian(w)
    assert np.abs(lap.sum(axis=1)).max() < 1e-12


def test_laplacian_disconnected_pairs_fiedler_zero():
    lap = laplacian(blocks_affinity([2, 2]))
    evs = np.linalg.eigvalsh(lap)
    assert (evs < 1e-9).sum() == 2  # zero multiplicity counts components
    assert abs(evs[1]) < 1e-9  # Fiedler value is 0


def test_laplacian_component_count_matches_zero_multiplicity():
    rng = np.random.default_rng(6)
    for sizes in ([3, 4], [2, 2, 5], [1, 6, 3]):
        w = blocks_affinity(sizes, within=float(rng.uniform(0.5, 2.0)))
        for kind in ("unnormalized", "symmetric_normalized"):
            evs = np.linalg.eigvalsh(laplacian(w, kind))
            assert (np.abs(evs) < 1e-9).sum() == len(sizes)


def test_laplacian_normalized_isolated_vertex():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0  # vertex 2 isolated
    lap = laplacian(w, "symmetric_normalized")
    assert lap[2, 2] == 0.0
    evs = np.linalg.eigvalsh(lap)
    assert (np.abs(evs) < 1e-9).sum() == 2


def test_laplacian_errors():
    with pytest.raises(ValueError, match="negative affinity entry"):
        laplacian(np.array([[0.0, -0.5], [-0.5, 0.0]]))
    with pytest.raises(ValueError, match="zero diagonal"):
        laplacian(np.array([[1.0, 0.2], [0.2, 0.0]]))


# --- eigensolver contract the spectral path relies on -------------------------


def test_check_symmetric_rejects_non_symmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        check_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        laplacian(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        check_symmetric(np.ones((2, 3)))


def test_eigh_residual_random():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 31))
        a = rng.uniform(-1, 1, (n, n))
        a = (a + a.T) / 2
        vals, vecs = np.linalg.eigh(a)
        assert np.allclose(vals, np.linalg.eigvalsh(a), atol=1e-10)
        # residual of the eigen-equation, column by column
        resid = np.abs(a @ vecs - vecs * vals).max()
        assert resid < 1e-8 * max(1.0, np.abs(a).max())


def test_eigh_reconstruction_trace_orthonormality():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        vals, vecs = np.linalg.eigh(a)
        recon = vecs @ np.diag(vals) @ vecs.T
        assert np.abs(recon - a).max() / np.abs(a).max() < 1e-8
        assert abs(vals.sum() - np.trace(a)) < 1e-9
        assert np.abs(vecs.T @ vecs - np.eye(n)).max() < 1e-8
        assert np.all(np.diff(vals) >= 0)  # ascending: the embedding slice needs it


def test_laplacian_spectrum_facts():
    # smallest eigenvalue of any graph Laplacian is 0; none are negative
    rng = np.random.default_rng(3)
    for _ in range(10):
        pts = rng.standard_normal((int(rng.integers(4, 15)), 3))
        evs = np.linalg.eigvalsh(laplacian(rbf_affinity(pts, sigma=1.0)))
        assert evs[0] > -1e-9
        assert abs(evs[0]) < 1e-9


def test_eigengap_examples():
    assert eigengap_suggest_k([0, 0.01, 0.02, 5, 6], k_max=4) == 3
    assert eigengap_suggest_k([0, 10], k_max=1) == 1
    assert eigengap_suggest_k([0, 0, 4, 5], k_max=3) == 2


def test_eigengap_tie_breaks_small_and_clamps():
    assert eigengap_suggest_k([0.0, 1.0, 2.0, 3.0], k_max=3) == 1  # equal gaps
    assert eigengap_suggest_k([0.0, 1.0, 5.0], k_max=10) == 2  # k_max clamped
    with pytest.raises(ValueError, match="at least 2"):
        eigengap_suggest_k([1.0], k_max=1)


# --- spectral -----------------------------------------------------------------


def test_spectral_disconnected_components_recovered():
    w = blocks_affinity([5, 7])
    truth = [0] * 5 + [1] * 7
    sp = spectral_from_affinity(w, 2, kmeans_cfg=KMeansConfig(seed=0))
    assert best_permutation_dissimilarity(sp.labels, truth, 2).cost == 0.0
    assert sp.suggested_k == 2


def test_spectral_matches_kmeans_on_far_blobs():
    pts = np.array([0.0, 0.1, 0.2, 50.0, 50.1, 50.2])
    sp = spectral_cluster(pts, 2, SpectralConfig(sigma=1.0), KMeansConfig(seed=1))
    km = kmeans(pts, 2, KMeansConfig(seed=1))
    assert best_permutation_dissimilarity(sp.labels, km.labels, 2).cost == 0.0


def test_spectral_k1_all_zero():
    sp = spectral_cluster(np.arange(5.0), 1)
    assert sp.labels.tolist() == [0] * 5


def test_spectral_row_permutation_invariance():
    rng = np.random.default_rng(12)
    pts = np.vstack(
        [rng.normal(0, 0.1, (6, 2)), rng.normal(8, 0.1, (5, 2)), rng.normal(20, 0.1, (7, 2))]
    )
    base = spectral_cluster(pts, 3, kmeans_cfg=KMeansConfig(seed=4))
    perm = rng.permutation(len(pts))
    shuffled = spectral_cluster(pts[perm], 3, kmeans_cfg=KMeansConfig(seed=4))
    # undo the shuffle and compare as partitions
    unshuffled = np.empty_like(shuffled.labels)
    unshuffled[perm] = shuffled.labels
    assert best_permutation_dissimilarity(unshuffled, base.labels, 3).cost == 0.0


def test_spectral_normalized_variant_runs():
    pts = np.array([0.0, 0.1, 9.0, 9.1])
    sp = spectral_cluster(
        pts, 2, SpectralConfig(laplacian="symmetric_normalized"), KMeansConfig(seed=2)
    )
    assert best_permutation_dissimilarity(sp.labels, [0, 0, 1, 1], 2).cost == 0.0


# --- ordered scalar clustering --------------------------------------------------


def exhaustive_scalar_optimum(values, k):
    """Best within-cluster sum of squares over every k-labeling (independent oracle)."""
    values = np.asarray(values, dtype=float)
    best = np.inf
    for labels in itertools.product(range(k), repeat=len(values)):
        labels = np.array(labels)
        inertia = 0.0
        for c in range(k):
            members = values[labels == c]
            if members.size:
                inertia += ((members - members.mean()) ** 2).sum()
        best = min(best, inertia)
    return best


def test_scalar_feature_ordered_labels():
    sf = cluster_scalar_feature([1.0, 2.0, 100.0, 101.0, 50.0], 3)
    assert sf.labels.tolist() == [0, 0, 2, 2, 1]
    assert sf.centroids[:, 0].tolist() == [1.5, 50.0, 100.5]
    assert sf.inertia == pytest.approx(exhaustive_scalar_optimum([1, 2, 100, 101, 50], 3))


def test_scalar_feature_trivial_cases():
    assert cluster_scalar_feature([4.0, 4.0, 4.0], 1).labels.tolist() == [0, 0, 0]
    sorted_vals = [1.0, 2.0, 8.0, 9.0, 20.0, 21.0]
    labels = cluster_scalar_feature(sorted_vals, 3).labels
    assert np.all(np.diff(labels) >= 0)  # ascending values give non-decreasing labels


def test_scalar_feature_monotone_property():
    rng = np.random.default_rng(20)
    for _ in range(20):
        vals = rng.uniform(0, 100, int(rng.integers(4, 30)))
        k = int(rng.integers(1, 4))
        labels = cluster_scalar_feature(vals, k).labels
        order = np.argsort(vals, kind="stable")
        assert np.all(np.diff(labels[order]) >= 0)


def test_scalar_feature_k_exceeds_regions():
    with pytest.raises(ValueError, match="exceeds"):
        cluster_scalar_feature([1.0, 2.0], 3)
