"""k-means, affinity/Laplacian construction, eigensolver contract, eigengap,
spectral and scalar clustering."""

import itertools
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from epiclust.align import best_permutation_dissimilarity
from epiclust.cluster import (
    ALGORITHMS,
    BLOCK_BYTES,
    KMEANS_GROUP_BYTES,
    KMEANS_JOIN_BYTES,
    LAPLACIAN_KINDS,
    ClusterAssignment,
    KMeansConfig,
    SpectralConfig,
    _assign,
    _cdf_picks,
    _check_k,
    _cluster_windows,
    _gram,
    _gram_band,
    _kmeans_windows,
    _leftmost_splits,
    _lloyd_group,
    _mean_slack,
    _plusplus_seeds,
    _restart_draws,
    _row_means,
    _scalar_features,
    _spectral_embedding,
    _spectral_from_affinities,
    _sq_dists,
    _weighted_draws,
    check_symmetric,
    cluster_scalar_feature,
    eigengap_suggest_k,
    kmeans,
    laplacian,
    rbf_affinity,
    spectral_cluster,
    spectral_from_affinity,
)
from epiclust.ingest import split_windows
from epiclust.preprocess import apply_preprocess
from epiclust.synth import generate_fixture


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SpectralConfig(laplacian="bogus"),
         f"unknown laplacian kind 'bogus'; expected one of {LAPLACIAN_KINDS}"),
        (lambda: ClusterAssignment([0, 2], 2, np.zeros((2, 1)), 0.0), "labels must lie in [0, 2)"),
        (lambda: eigengap_suggest_k([1.0, 0.0], 3), "eigenvalues must be ascending"),
        (lambda: eigengap_suggest_k([0.0, 1.0], 0), "k_max must be positive, got 0"),
        (lambda: _cluster_windows([np.zeros((3, 2))], "bogus", 2, KMeansConfig(), SpectralConfig()),
         f"unknown algorithm 'bogus'; expected one of {ALGORITHMS}"),
        (lambda: kmeans(np.arange(6.0), 2.0), "k must be an integer, got 2.0"),
        (lambda: kmeans(np.arange(6.0), True), "k must be an integer, got True"),
        (lambda: spectral_cluster(np.arange(6.0), 2.5), "k must be an integer, got 2.5"),
        (lambda: cluster_scalar_feature(np.arange(6.0), 2.0), "k must be an integer, got 2.0"),
        (lambda: best_permutation_dissimilarity([0, 1], [1, 0], 2.0), "k must be an integer, got 2.0"),
    ],
    ids=["unknown_laplacian", "label_out_of_range", "descending", "k_max_zero", "unknown_algorithm",
         "kmeans_float_k", "kmeans_bool_k", "spectral_float_k", "scalar_float_k", "align_float_k"],
)
def test_bad_argument_raises(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_laplacian_checks_its_kind_before_the_matrix(monkeypatch):
    def checked(*args):
        raise AssertionError("the matrix was checked before the kind")

    monkeypatch.setattr("epiclust.cluster.check_symmetric", checked)
    message = f"unknown laplacian kind 'bogus'; expected one of {LAPLACIAN_KINDS}"
    with pytest.raises(ValueError, match=re.escape(message)):
        laplacian(np.zeros((2, 2)), "bogus")


def test_kmeans_config_accepts_numpy_scalars():
    cfg = KMeansConfig(epsilon=np.float32(1e-3), max_iters=np.int64(5), restarts=2, seed=np.int32(7))
    assert kmeans(np.arange(6.0), 2, cfg).k == 2
    # k may be a numpy integer wherever it is taken
    assert kmeans(np.arange(6.0), np.int64(2), cfg).k == 2
    assert cluster_scalar_feature(np.arange(6.0), np.int32(2)).k == 2
    assert best_permutation_dissimilarity([0, 1], [1, 0], np.int64(2)).cost == 0.0


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
# _plusplus_init, _reference_assign, _reference_lloyd and reference_kmeans are
# the earlier k-means, kept verbatim: one restart after another, each seeded
# alone, and every step scores every row with the (n, k, d) difference form.
# kmeans must reproduce it bit for bit.


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
            seed = int(rng.integers(1000))
            for restarts in (1, 3, 10):
                cfg = KMeansConfig(max_iters=max_iters, restarts=restarts, seed=seed)
                assert_same_as_reference(kmeans(pts, k, cfg), reference_kmeans(pts, k, cfg))


@pytest.mark.parametrize("d", [30, 129, 240])
def test_kmeans_matches_difference_form_reference_at_wide_rows(d):
    # the widths the benchmark clusters: numpy's pairwise row sum unrolls by 8
    # from 8 terms on and splits rows of more than 128 terms in halves
    rng = np.random.default_rng(d)
    for family in sorted(ORACLE_FAMILIES):
        for _ in range(2):
            n = int(rng.integers(2, 25))
            pts = ORACLE_FAMILIES[family](rng, n, d)
            k = int(rng.integers(1, min(n, 5) + 1))
            for max_iters in (1, 300):
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

    monkeypatch.setattr(
        "epiclust.cluster._plusplus_seeds", lambda points, k, draws, *rest: np.array([start] * len(draws))
    )
    monkeypatch.setattr(sys.modules[__name__], "_plusplus_init", lambda points, k, rng: start.copy())
    cfg = KMeansConfig(restarts=1)
    want = reference_kmeans(points, 3, cfg)
    assert want.labels.tolist() == [2, 0, 1]
    assert_same_as_reference(kmeans(points, 3, cfg), want)


def test_exact_tie_goes_to_the_first_centroid():
    # 123456789 is exactly 0.25 from both centroids (0.0625 in the difference
    # form), but the Gram form rounds the two squared distances to 0 and -2
    points = np.array([[123456789.0], [123456790.0]])
    centroids = np.array([[123456789.25], [123456788.75]])
    gram = (points**2).sum(1)[:, None] - 2.0 * points @ centroids.T + (centroids**2).sum(1)
    assert gram[0].argmin() == 1  # the case the screen exists for
    sq_norms = (points * points).sum(axis=1)
    labels, totals = _assign([points], sq_norms[None], np.sqrt(sq_norms.max(keepdims=True)),
                            centroids[None], np.zeros(1, np.intp))
    assert labels.tolist() == [[0, 0]]
    assert totals.tolist() == [0.0625 + 0.5625]


def test_screen_band_is_sized_per_restart():
    # 1 is exactly 99999997.75 from both centroids of the second restart, but
    # the Gram form puts the second one closer; only a band sized by that
    # restart's own centroid norms, not the first restart's, sends the row to
    # re-scoring
    points = np.array([[1.0]])
    centroids = np.array([[[0.0], [2.0]], [[99999998.75], [-99999996.75]]])
    gram = (points**2).sum(1)[:, None] - 2.0 * points @ centroids[1].T + (centroids[1] ** 2).sum(1)
    assert gram[0].argmin() == 1
    sq_norms = (points * points).sum(axis=1)
    labels, totals = _assign([points], sq_norms[None], np.sqrt(sq_norms.max(keepdims=True)),
                            centroids, np.zeros(len(centroids), np.intp))
    assert labels.tolist() == [[0], [0]]
    assert totals.tolist() == [1.0, 99999997.75**2]


def test_gram_entry_that_overflows_is_re_scored():
    # |x|^2 and |c|^2 are finite, but -2 x.c overflows for the first
    # centroid, so its Gram entry reads -inf, while the second centroid is
    # the nearer one in the difference form
    points = np.array([[1.2e154, 0.0]])
    centroids = np.array([[[0.8e154, 0.9e154], [0.3e154, 0.0]]])
    exact = ((points - centroids[0]) ** 2).sum(axis=1)
    assert np.isfinite(exact).all() and exact.argmin() == 1
    sq_norms = (points * points).sum(axis=1)
    labels, totals = _assign([points], sq_norms[None], np.sqrt(sq_norms.max(keepdims=True)),
                            centroids, np.zeros(len(centroids), np.intp))
    assert labels.tolist() == [[1]]
    assert totals.tolist() == [exact[1]]


def test_kmeans_groups_and_blocks_match_the_reference(monkeypatch):
    # restarts alone, in groups of three (the last one short) and all ten in
    # one group: the winner is the first restart with the lowest inertia,
    # across groups too; grid points make many restarts tie on inertia. Row
    # distances are taken a few rows at a time, rarely a divisor of n. No
    # window joins another, so the group budget alone sizes the groups.
    monkeypatch.setattr("epiclust.cluster.KMEANS_JOIN_BYTES", 0)
    rng = np.random.default_rng(17)
    for _ in range(12):
        n, d = int(rng.integers(5, 60)), int(rng.integers(1, 4))
        pts = rng.integers(0, 3, (n, d)).astype(float)
        k = int(rng.integers(1, min(n, 5) + 1))
        cfg = KMeansConfig(restarts=10, seed=int(rng.integers(1000)))
        want = reference_kmeans(pts, k, cfg)
        for budget in (1, 3 * (16 * n * (k + 4) + 2048), KMEANS_GROUP_BYTES):
            monkeypatch.setattr("epiclust.cluster.KMEANS_GROUP_BYTES", budget)
            monkeypatch.setattr("epiclust.cluster.BLOCK_BYTES", 8 * d * int(rng.integers(1, n)) + 7)
            assert_same_as_reference(kmeans(pts, k, cfg), want)


def test_batched_sq_dists_rows_equal_the_one_centroid_form(monkeypatch):
    # every row for every restart equals sum((x - c)^2) of that restart's own
    # centroid alone, bit for bit, whatever the group size and block budget:
    # blocks of one row, of part of the restarts, and of many rows of all
    rng = np.random.default_rng(41)
    for _ in range(120):
        d = int(rng.choice([1, 8, 9, 128, 129, 240, int(rng.integers(1, 300))]))
        n, a, k = int(rng.integers(1, 40)), int(rng.integers(1, 11)), int(rng.integers(1, 5))
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4) + rng.choice([0.0, 1e7])
        centroids = pts[rng.integers(n, size=(a, k))] + rng.standard_normal((a, k, d))
        labels = rng.integers(k, size=(a, n))
        budget = int(8 * d * 10 ** rng.uniform(-1, np.log10(2 * a * n))) | 1
        monkeypatch.setattr("epiclust.cluster.BLOCK_BYTES", budget)
        plain, own = _sq_dists(pts, centroids[:, 0]), _sq_dists(pts, centroids, labels)
        assert plain.shape == own.shape == (a, n)
        for j in range(a):
            assert plain[j].tobytes() == ((pts - centroids[j, 0]) ** 2).sum(axis=1).tobytes()
            assert own[j].tobytes() == ((pts - centroids[j][labels[j]]) ** 2).sum(axis=1).tobytes()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kmeans_county_scale_memory_bounded():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((3142, 240)) + 2.0 * rng.integers(0, 3, (3142, 1))
    # one (n, d) temporary at a time; a second one breaks this, while seeding
    # and inertia take all restarts' distances in blocks of bounded bytes
    assert _traced_peak(kmeans, pts, 3) < 1.5 * pts.nbytes


@pytest.mark.parametrize("offset", [1e154, 1e160])
def test_kmeans_re_scoring_every_row_stays_memory_bounded(offset):
    # near 1e154 the rounding band overflows and near 1e160 every Gram entry
    # does, so each step re-scores every row in the difference form: one copy
    # of the re-scored rows and blocks of bounded bytes, not a (n, k, d) tensor
    rng = np.random.default_rng(0)
    pts = offset * (1.0 + 1e-10 * (rng.standard_normal((3142, 240)) + 2.0 * rng.integers(0, 3, (3142, 1))))
    assert _traced_peak(kmeans, pts, 3) < 2.0 * pts.nbytes


def test_kmeans_groups_of_wide_short_rows_stay_within_the_group_budget():
    # 20 rows of 4,096 values: a restart's (k, d) centroid arrays outweigh its
    # (k, n) scores, so a group sized by n alone holds all 200 restarts
    pts = np.random.default_rng(0).standard_normal((20, 4096))
    peak = _traced_peak(kmeans, pts, 2, KMeansConfig(restarts=200))
    assert peak < KMEANS_GROUP_BYTES + 3 * BLOCK_BYTES


def _up_to_numbering(labels, centroids):
    """A final state with its clusters numbered in order of their first row,
    unused clusters last: its labels and its centroids in that order."""
    order = list(dict.fromkeys(labels.tolist()))
    order += [c for c in range(len(centroids)) if c not in order]
    rank = {c: i for i, c in enumerate(order)}
    return tuple(rank[c] for c in labels.tolist()), centroids[order].tobytes()


def test_kmeans_seeds_by_gram_products_and_takes_one_inertia_pass_per_distinct_state(monkeypatch):
    # k-means++ seeding takes one Gram product per center but the last and no
    # _sq_dists pass; besides the row norms, the exact inertia is one
    # _sq_dists pass over one restart per distinct final state among all
    # restarts, up to the numbering of its clusters, and each such state
    # takes its row-order means once: four far blobs leave no cluster empty,
    # no row unsettled and no shift near epsilon, so no re-seed, re-scoring
    # or shift check adds a pass or a mean
    rng = np.random.default_rng(5)
    pts = np.repeat(100.0 * np.arange(4), 5)[:, None] + rng.standard_normal((20, 3))
    calls, seeding = [], []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name, bool(seeding), args))
            return fn(*args)

        return wrapper

    def seeds(*args):
        seeding.append(True)
        try:
            return _plusplus_seeds(*args)
        finally:
            seeding.clear()

    monkeypatch.setattr("epiclust.cluster._sq_dists", counted("sq_dists", _sq_dists))
    monkeypatch.setattr("epiclust.cluster._gram", counted("gram", _gram))
    monkeypatch.setattr("epiclust.cluster._row_means", counted("row_means", _row_means))
    monkeypatch.setattr("epiclust.cluster._plusplus_seeds", seeds)
    cfg, renumbered = KMeansConfig(), 0
    for k in range(1, 5):
        calls.clear()
        kmeans(pts, k, cfg)
        in_seeding = [name for name, inside, _ in calls if inside]
        assert in_seeding == ["gram"] * (k - 1)
        passes = [args for name, _, args in calls if name == "sq_dists"]
        assert len(passes) == 2
        runs = [_reference_lloyd(pts, k, cfg, np.random.default_rng([cfg.seed, r])) for r in range(cfg.restarts)]
        states = {_up_to_numbering(run[0], run[1]) for run in runs}
        assert passes[1][1].shape[0] == len(states)
        assert len(states) < cfg.restarts
        assert [name for name, *_ in calls].count("row_means") == len(states)
        renumbered += len(states) < len({(run[0].tobytes(), run[1].tobytes()) for run in runs})
    assert renumbered > 0


def test_kmeans_many_restarts_stay_within_the_group_budget():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((20, 2)) + 4.0 * rng.integers(0, 2, (20, 1))
    # one group of all 5000 restarts holds about 16 MiB here
    assert _traced_peak(kmeans, pts, 2, KMeansConfig(restarts=5000)) < KMEANS_GROUP_BYTES


def test_sq_dists_of_wide_short_rows_stay_within_a_block_per_restart_group():
    # 20 rows of 4,096 values, 1,000 restarts: one row for every restart is
    # 31 MiB, so a block takes a few restarts; besides the (restarts, n)
    # result only the block being squared and the one before it are alive.
    # The centroids are broadcast views, so they cost nothing themselves.
    pts = np.random.default_rng(0).standard_normal((20, 4096))
    labels = np.random.default_rng(1).integers(2, size=(1000, 20))
    for centroids, own in ((pts[0], None), (pts[:2], labels)):
        centroids = np.broadcast_to(centroids, (1000, *centroids.shape))
        peak = _traced_peak(_sq_dists, pts, centroids, own)
        assert peak < 1000 * 20 * 8 + 3 * BLOCK_BYTES


def _exact_draws(weights, draws):
    """_weighted_draws on rows that are their own exact rows, with no error."""
    return _weighted_draws(weights, np.asarray(draws, dtype=float), 0.0, lambda rows: weights[rows])


def test_weighted_draws_match_generator_choice():
    # 3,000 weight rows in batches of 1 to 5 rows of one length n: each row's
    # index for its stream's random() draw is the one Generator.choice(n,
    # p=row / row total) returns from an identical stream, which choice
    # leaves as that one draw does; the same with every row sent straight to
    # its exact row (an infinite error certifies nothing)
    rng = np.random.default_rng(29)
    rows = 0
    while rows < 3000:
        n, batch = int(rng.integers(1, 201)), int(rng.integers(1, 6))
        weights = rng.random((batch, n)) * 10.0 ** rng.integers(-300, 300, (batch, 1))
        weights[rng.random((batch, n)) < rng.random()] = 0.0
        weights[np.arange(batch), rng.integers(n, size=batch)] = 1.0 + rng.random(batch)
        seeds = rng.integers(2**32, size=batch)
        draws = np.array([np.random.default_rng(s).random() for s in seeds])
        got, zero = _exact_draws(weights, draws)
        assert not zero.any()
        uncertified = _weighted_draws(weights, draws, np.inf, lambda rows: weights[rows])
        assert uncertified[0].tolist() == got.tolist() and not uncertified[1].any()
        totals = weights.sum(axis=1)
        for j, seed in enumerate(seeds):
            inline, alone = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _exact_draws(weights[j : j + 1], [inline.random()])[0] == [got[j]]
            assert got[j] == alone.choice(n, p=weights[j] / totals[j])
            assert inline.random() == alone.random()
        rows += batch


def _seeding_rows(pts, centers):
    """The Gram-form weights k-means++ seeding draws from, the difference-form
    rows they approximate and the per-entry band, for (a, i) center indices."""
    n, d = pts.shape
    sq_norms = (pts * pts).sum(axis=1)
    gram = np.full((len(centers), n), np.inf)
    for c in centers.T:
        one = _gram([pts], sq_norms[None], pts[c][:, None], sq_norms[c][:, None], np.zeros(len(c), np.intp))
        gram = np.minimum(gram, np.maximum(one[:, 0], 0.0))
    exact = np.array([((pts[:, None, :] - pts[row]) ** 2).sum(axis=2).min(axis=1) for row in centers])
    return gram, exact, _gram_band(d, 2.0 * np.sqrt(sq_norms.max()))


SEEDING_FAMILIES = {
    "random_rows": lambda rng, n, d: rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4),
    "offset_1e7": lambda rng, n, d: 1e7 + rng.poisson(3.0, (n, d)),
    "duplicated_rows": _duplicated_rows,
}


@pytest.mark.parametrize("family", sorted(SEEDING_FAMILIES))
def test_certified_draws_equal_difference_form_draws(family):
    # every draw, certified or sent to the exact row, is the index choice
    # takes on the difference-form row from the same stream, and a
    # difference-form row of zeros, and only such a row, is flagged zero
    rng = np.random.default_rng(sorted(SEEDING_FAMILIES).index(family))
    certified = fallbacks = 0
    for _ in range(300):
        n, d, a = int(rng.integers(2, 60)), int(rng.integers(1, 12)), int(rng.integers(1, 6))
        pts = SEEDING_FAMILIES[family](rng, n, d)
        centers = rng.integers(n, size=(a, int(rng.integers(1, min(n, 4) + 1))))
        gram, exact, band = _seeding_rows(pts, centers)
        seeds = rng.integers(2**32, size=a)
        asked = []

        def exact_rows(rows):
            asked.extend(rows.tolist())
            return exact[rows]

        draws = np.array([np.random.default_rng(s).random() for s in seeds])
        got, zero = _weighted_draws(gram, draws, band, exact_rows)
        want, want_zero = _exact_draws(exact, draws)
        assert zero.tolist() == want_zero.tolist() == (exact.sum(axis=1) == 0).tolist()
        assert got[~zero].tolist() == want[~zero].tolist()
        for j in np.flatnonzero(~zero).tolist():
            assert got[j] == np.random.default_rng(seeds[j]).choice(n, p=exact[j] / exact[j].sum())
        fallbacks += len(asked)
        certified += a - len(asked)
    assert certified > 0
    if family == "offset_1e7":
        assert fallbacks > 0


def test_draw_within_the_slack_of_a_cdf_entry_takes_the_exact_index():
    # u between a Gram CDF entry and the exact one, or on the exact one, would
    # take the wrong index from the Gram row; the slack sends it to the exact row
    rng = np.random.default_rng(11)
    differing = 0
    for _ in range(40):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 4))
        pts = 1e7 + rng.standard_normal((n, d))
        gram, exact, band = _seeding_rows(pts, rng.integers(n, size=(1, 2)))
        if not exact.sum() > 0:
            continue
        cdf_gram, cdf_exact = (np.cumsum(row / row.sum()) for row in (gram[0], exact[0]))
        cdf_gram, cdf_exact = cdf_gram / cdf_gram[-1], cdf_exact / cdf_exact[-1]
        for m in np.flatnonzero(cdf_gram[:-1] != cdf_exact[:-1]):
            for u in ((cdf_gram[m] + cdf_exact[m]) / 2, cdf_exact[m], np.nextafter(cdf_exact[m], 0.0)):
                want = int(cdf_exact.searchsorted(u, side="right"))
                differing += want != int(cdf_gram.searchsorted(u, side="right"))
                assert _exact_draws(exact, [u])[0].tolist() == [want]
                got, zero = _weighted_draws(gram, np.array([u]), band, lambda rows: exact[rows])
                assert got.tolist() == [want] and not zero.any()
    assert differing > 0


def test_a_zero_exact_total_is_flagged_where_the_gram_total_is_not_zero():
    # identical rows near 1e7: every difference-form weight is 0, but the
    # Gram form |x|^2 - 2 x.c + |c|^2 keeps a rounding error for some of
    # them. Such a total proves nothing, so the row goes to its exact row,
    # whatever its draw, and is flagged zero; kmeans then draws integers(n)
    # there as the reference does
    rounded = 0
    for d in range(2, 9):
        for q in (3, 7, 9, 11, 13):
            pts = np.repeat(1e7 + np.arange(1, d + 1)[None] / q, 5, axis=0)
            gram, exact, band = _seeding_rows(pts, np.array([[0]]))
            assert not exact.any()
            for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
                assert _weighted_draws(gram, np.array([u]), band, lambda rows: exact[rows])[1].tolist() == [True]
            if gram.sum() > 0:
                rounded += 1
                cfg = KMeansConfig(restarts=3, seed=q)
                assert_same_as_reference(kmeans(pts, 3, cfg), reference_kmeans(pts, 3, cfg))
    assert rounded > 0


@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
def test_kmeans_matches_the_reference_with_every_draw_uncertified(monkeypatch, family):
    # beta = inf: no draw from a Gram row is kept, each goes to its exact row
    rng = np.random.default_rng(100 + sorted(ORACLE_FAMILIES).index(family))
    cases = []
    for _ in range(10):
        n, d = int(rng.integers(2, 80)), int(rng.integers(1, 10))
        cfg = KMeansConfig(restarts=3, seed=int(rng.integers(1000)))
        pts, k = ORACLE_FAMILIES[family](rng, n, d), int(rng.integers(2, min(n, 7) + 1))
        cases.append((pts, k, cfg, reference_kmeans(pts, k, cfg)))
    gram_draws = []

    def uncertified(weights, totals, draws, slack):
        picks, sure = _cdf_picks(weights, totals, draws, slack)
        gram_draws.append(int(np.sum(np.asarray(slack) > 0)))
        return picks, sure & (np.asarray(slack) == 0)

    monkeypatch.setattr("epiclust.cluster._cdf_picks", uncertified)
    for pts, k, cfg, want in cases:
        assert_same_as_reference(kmeans(pts, k, cfg), want)
    assert sum(gram_draws) > 0
    # no band at all: every draw and every assignment row goes to the
    # difference form
    monkeypatch.setattr("epiclust.cluster._GRAM_SLACK", np.inf)
    for pts, k, cfg, want in cases:
        assert_same_as_reference(kmeans(pts, k, cfg), want)


def test_restarts_tying_on_inertia_keep_the_first():
    # grid points: restarts reach one partition under different numberings,
    # or different partitions of the same inertia; the first one wins
    rng = np.random.default_rng(23)
    tied = 0
    for _ in range(40):
        n, d = int(rng.integers(6, 40)), int(rng.integers(1, 3))
        pts = rng.integers(0, 3, (n, d)).astype(float)
        k = int(rng.integers(2, 5))
        cfg = KMeansConfig(restarts=10, seed=int(rng.integers(1000)))
        runs = [_reference_lloyd(pts, k, cfg, np.random.default_rng([cfg.seed, r])) for r in range(10)]
        least = min(run[2] for run in runs)
        first = next(run for run in runs if run[2] == least)
        states = {(run[0].tobytes(), run[1].tobytes()) for run in runs if run[2] == least}
        tied += len(states) > 1
        got = kmeans(pts, k, cfg)
        assert np.array_equal(got.labels, first[0])
        assert got.centroids.tobytes() == first[1].tobytes()
        assert got.inertia == least
    assert tied > 0


def test_restarts_sharing_final_labels_keep_their_own_inertia(monkeypatch):
    # one Lloyd step from centers 0 and 1, or from 0 and 10, ends in the same
    # final labels but at different centroids: with an infinite band every
    # row is re-scored, each restart keeps the inertia of its own centroids,
    # and a group of both yields the second, whose inertia is the lower
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    starts = np.array([[[0.0], [1.0]], [[0.0], [10.0]]])
    monkeypatch.setattr(
        "epiclust.cluster._plusplus_seeds", lambda points, k, draws, seeds, *rest: starts[[r for _, r in seeds]]
    )
    cfg = KMeansConfig(max_iters=1, restarts=2)
    assert kmeans(points, 2, cfg).centroids.tolist() == [[0.5], [10.5]]
    monkeypatch.setattr("epiclust.cluster._GRAM_SLACK", np.inf)
    sq_norms = (points * points).sum(axis=1)
    x_norms, draws = np.sqrt(sq_norms.max(keepdims=True)), _restart_draws(cfg.seed, 2, 4, 2)
    deltas = np.array([_mean_slack(points, x_norms[0])])

    def group(pairs):
        (result,) = _lloyd_group([points], 2, cfg, pairs, sq_norms[None], x_norms, deltas, draws)
        return result

    alone = [group([(0, r)]) for r in range(2)]
    assert [labels.tolist() for labels, *_ in alone] == [[0, 0, 1, 1]] * 2
    for labels, centroids, inertia, _ in alone:
        assert inertia == ((points - centroids[labels]) ** 2).sum(axis=1).sum()
    assert alone[0][2] > alone[1][2] == 1.0
    both = group([(0, 0), (0, 1)])
    assert both[1].tobytes() == alone[1][1].tobytes() and both[2] == 1.0


def test_kmeans_gram_overflow_near_1e160_matches_the_reference():
    # near 1e160 |x|^2 overflows, so every Gram entry is inf or nan; near
    # 1e154 the norms stay finite but the rounding band overflows. Seeding,
    # assignment and inertia all fall back to the difference form, which
    # stays finite, and no overflow warning escapes
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 4))
        offset = 10.0 ** rng.choice([154, 160])
        pts = offset + rng.standard_normal((n, d)) * offset * 10.0 ** rng.choice([-15, -10])
        cfg = KMeansConfig(restarts=3, seed=int(rng.integers(1000)))
        k = int(rng.integers(1, min(n, 4) + 1))
        assert_same_as_reference(kmeans(pts, k, cfg), reference_kmeans(pts, k, cfg))


def test_kmeans_overflowing_distances_raise():
    # finite points whose squared distances overflow leave no k-means++ weights
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError):
            kmeans([[1e200], [-1e200], [0.0]], 2)


# --- all windows of a study in one lockstep k-means ---------------------------


def _study_windows(preps):
    """The four 30 x 30 windows of a 30-region fixture under each prep, in order."""
    fixture = generate_fixture(n_regions=30, n_days=120, k_true=3, seed=0)
    return [apply_preprocess(w, prep).values for prep in preps for w in split_windows(fixture.epicurves, 30)]


def _recorded_groups(monkeypatch):
    """The windows of each lockstep group that _lloyd_group runs, as it runs them."""
    groups = []

    def recording(points, k, cfg, pairs, *norms):
        groups.append(sorted({w for w, _ in pairs}))
        return _lloyd_group(points, k, cfg, pairs, *norms)

    monkeypatch.setattr("epiclust.cluster._lloyd_group", recording)
    return groups


def _restart_bytes(n, d, k):
    return 16 * n * (k + 4) + 48 * k * d + 2048


def _budgets(count, n, d, k, cfg):
    """(join budget, group budget) -> the windows of each group: as many windows
    as fit in the join budget, three at a time, each alone with all its
    restarts, and each alone with its restarts three at a time."""
    window = cfg.restarts * _restart_bytes(n, d, k)
    fit = KMEANS_JOIN_BYTES // window
    assert fit > 1
    restarts_alone = -(-cfg.restarts // 3)
    return {
        (KMEANS_JOIN_BYTES, KMEANS_GROUP_BYTES): [list(range(w, min(w + fit, count))) for w in range(0, count, fit)],
        (3 * window, KMEANS_GROUP_BYTES): [list(range(w, min(w + 3, count))) for w in range(0, count, 3)],
        (0, KMEANS_GROUP_BYTES): [[w] for w in range(count)],
        (0, 3 * _restart_bytes(n, d, k)): [[w] for w in range(count) for _ in range(restarts_alone)],
    }


def assert_windows_match(monkeypatch, windows, k, cfg):
    """_kmeans_windows equals kmeans of each window alone and the reference,
    bit for bit, under every grouping of _budgets."""
    alone = [kmeans(points, k, cfg) for points in windows]
    want = [reference_kmeans(points, k, cfg) for points in windows]
    groups = _recorded_groups(monkeypatch)
    for (join, size), expected in _budgets(len(windows), *windows[0].shape, k, cfg).items():
        monkeypatch.setattr("epiclust.cluster.KMEANS_JOIN_BYTES", join)
        monkeypatch.setattr("epiclust.cluster.KMEANS_GROUP_BYTES", size)
        groups.clear()
        got = _kmeans_windows(windows, k, cfg)
        assert groups == expected
        assert len(got) == len(windows)
        for batched, one, ref in zip(got, alone, want):
            assert_same_as_reference(batched, one)
            assert_same_as_reference(batched, ref)


def test_batched_windows_of_two_preps_equal_kmeans_alone_and_the_reference(monkeypatch):
    # the 30 x 30 day-vector windows a stability study clusters, under two
    # preps of different scale: one group holds windows of both
    windows = _study_windows(("zscore", "minmax_global"))
    for seed in (0, 3):
        assert_windows_match(monkeypatch, windows, 3, KMeansConfig(seed=seed))


def test_batched_spectral_embeddings_equal_kmeans_alone_and_the_reference(monkeypatch):
    # the 30 x 3 eigenvector rows that the spectral path clusters
    windows = _study_windows(("none", "minmax_row"))
    cfg, spectral_cfg = KMeansConfig(), SpectralConfig()
    embeddings = [_spectral_embedding(rbf_affinity(points), 3, spectral_cfg)[0] for points in windows]
    assert embeddings[0].shape == (30, 3)
    assert_windows_match(monkeypatch, embeddings, 3, cfg)
    affinities = (rbf_affinity(points) for points in windows)
    for batched, points in zip(_spectral_from_affinities(affinities, 3, spectral_cfg, cfg), windows):
        one = spectral_cluster(points, 3, spectral_cfg, cfg)
        assert_same_as_reference(batched, one)
        assert batched.suggested_k == one.suggested_k


def test_batched_windows_re_seed_and_re_score_as_alone(monkeypatch):
    # half the windows hold fewer distinct points than k: k-means++ draws two
    # coinciding centroids there, the later one wins no row and is re-seeded
    # inside a group shared with ordinary windows
    rng = np.random.default_rng(8)
    windows = []
    for w in range(12):
        if w % 2:
            distinct = rng.integers(-2, 3, (2, 3)).astype(float)
            windows.append(distinct[rng.integers(2, size=20)])
        else:
            windows.append(rng.standard_normal((20, 3)) * 10.0 ** rng.integers(-3, 4))
    cfg = KMeansConfig(restarts=4, seed=5)
    assert_windows_match(monkeypatch, windows, 3, cfg)
    # no band at all: every seeding draw and every row goes to the difference form
    monkeypatch.setattr("epiclust.cluster._GRAM_SLACK", np.inf)
    for batch in (windows, _study_windows(("none", "zscore"))):
        assert_windows_match(monkeypatch, batch, 3, cfg)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_windows_with_a_zero_seeding_total_replay_their_restart_streams(monkeypatch, k):
    # every row of window 1 is one point, so after its first center every
    # k-means++ weight is 0 and choice calls integers(n); window 2 holds two
    # points, so for k >= 3 its weights reach 0 one center later, and window
    # 4 holds three, so for k >= 4 they reach 0 at center 3, after two
    # random() draws, and k - 3 integers(n) draws follow. Their pairs replay
    # their restart's shared draws on a stream of their own, inside a group
    # shared with windows whose totals stay positive
    rng = np.random.default_rng(19)
    windows = [rng.standard_normal((20, 3)) for _ in range(4)]
    windows[1] = np.repeat(windows[1][:1], 20, axis=0)
    windows[2] = windows[2][rng.integers(2, size=20) * 7]
    windows.append(rng.standard_normal((3, 3))[np.arange(20) % 3])
    cfg = KMeansConfig(restarts=10, seed=7)
    groups, started = _recorded_groups(monkeypatch), []
    _restart_draws.cache_clear()  # the shared draws are taken here, not kept from an earlier call
    with monkeypatch.context() as m:
        real = np.random.default_rng
        m.setattr(np.random, "default_rng", lambda seed: started.append(seed) or real(seed))
        _kmeans_windows(windows, k, cfg)
    assert groups == [[0, 1, 2, 3, 4]]
    # one stream per restart for the shared draws, then one per replaying pair
    assert len(started) == cfg.restarts * (2 + (k >= 3) + (k >= 4))
    # which of the coinciding points a zero total draws shows in the seeds,
    # though the re-seeding of the empty clusters then hides it
    pairs = [(w, r) for w in range(5) for r in range(cfg.restarts)]
    sq_norms = np.stack([(w * w).sum(axis=1) for w in windows])
    draws = _restart_draws(cfg.seed, cfg.restarts, 20, k)[[r for _, r in pairs]]
    seeds = _plusplus_seeds(windows, k, draws, [[cfg.seed, r] for _, r in pairs], sq_norms,
                            np.sqrt(sq_norms.max(axis=1)), np.array([w for w, _ in pairs]))
    for (w, r), got in zip(pairs, seeds):
        assert got.tobytes() == _plusplus_init(windows[w], k, np.random.default_rng([cfg.seed, r])).tobytes()
    assert_windows_match(monkeypatch, windows, k, cfg)


def test_seeding_stops_drawing_for_pairs_whose_centers_are_all_picked(monkeypatch):
    # 1000 rows at 3 distinct points, k = 8: every restart's total reaches 0
    # at center 3, where it takes its five centers left from integers(n)
    # draws; no later center index draws for it, so seeding ends there
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((3, 4))[rng.integers(3, size=1000)]
    cfg = KMeansConfig()
    want = reference_kmeans(pts, 8, cfg)
    zeros = []

    def counted(weights, draws, error, exact):
        picks, zero = _weighted_draws(weights, draws, error, exact)
        zeros.append(zero.tolist())
        return picks, zero

    monkeypatch.setattr("epiclust.cluster._weighted_draws", counted)
    assert_same_as_reference(kmeans(pts, 8, cfg), want)
    assert zeros == [[False] * cfg.restarts] * 2 + [[True] * cfg.restarts]


def test_restarts_sharing_member_sets_equal_each_restart_alone():
    # four far blobs: the restarts of a window reach one partition, most under
    # their own numbering, so their steps share member sets at other cluster
    # indices of one BLAS product and their final states are one up to
    # numbering. Each restart run in a group of its own follows its reference
    # trajectory, and the group of every restart of both windows yields each
    # window's reference winner
    rng = np.random.default_rng(31)
    windows = [np.repeat(100.0 * np.arange(4), 10)[:, None] + rng.standard_normal((40, 3)) for _ in range(2)]
    sq_norms = np.stack([(w * w).sum(axis=1) for w in windows])
    x_norms = np.sqrt(sq_norms.max(axis=1))
    deltas = np.array([_mean_slack(w, x_norm) for w, x_norm in zip(windows, x_norms)])
    assert (deltas > 0).all()
    cfg = KMeansConfig(restarts=10, seed=4)
    pairs = [(w, r) for w in range(2) for r in range(cfg.restarts)]
    renumbered = 0
    for k in (2, 3, 4):
        draws = _restart_draws(cfg.seed, cfg.restarts, 40, k)
        runs = {(w, r): _reference_lloyd(windows[w], k, cfg, np.random.default_rng([cfg.seed, r])) for w, r in pairs}
        together = list(_lloyd_group(windows, k, cfg, pairs, sq_norms, x_norms, deltas, draws))
        assert len(together) == 2
        for w, (labels, centroids, inertia, history) in enumerate(together):
            got = ClusterAssignment(labels, k, centroids, inertia, inertia_history=history)
            assert_same_as_reference(got, reference_kmeans(windows[w], k, cfg))
        for (w, r), want in runs.items():
            ((labels, centroids, inertia, history),) = _lloyd_group(
                windows, k, cfg, [(w, r)], sq_norms, x_norms, deltas, draws
            )
            assert np.array_equal(labels, want[0])
            assert centroids.tobytes() == want[1].tobytes()
            assert inertia == want[2] == history[-1]
            assert len(history) == len(want[3])
        for w in range(2):
            states = [runs[w, r][:2] for r in range(cfg.restarts)]
            renumbered += len({_up_to_numbering(*state) for state in states}) < len(
                {(labels.tobytes(), centroids.tobytes()) for labels, centroids in states}
            )
    assert renumbered > 0


def _two_scale_windows(big):
    """A unit-scale window, then ``big``, with their squared row norms and largest row norms."""
    windows = [np.linspace(-1.0, 1.0, big.size).reshape(big.shape), big]
    sq_norms = np.stack([(w * w).sum(axis=1) for w in windows])
    return windows, sq_norms, np.sqrt(sq_norms.max(axis=1))


def test_screen_band_is_sized_by_each_windows_own_rows():
    # (1e7, 1) is nearer to (0, 0.16015625) than to (0, 0.15234375), but the
    # Gram form puts the second one closer by 1/64. The centroids are small,
    # so only the row norm of the pair's own window, not of the unit-scale
    # window before it, widens the band enough to send the row to re-scoring
    windows, sq_norms, x_norms = _two_scale_windows(np.array([[1e7, 1.0]]))
    centroids = np.array([[[0.0, 0.16015625], [0.0, 0.15234375]]] * 2)
    big, near = windows[1], centroids[1]
    gram = (big**2).sum(1)[:, None] - 2.0 * big @ near.T + (near**2).sum(1)
    assert gram[0].argmin() == 1  # the case the screen exists for
    assert _reference_assign(big, near)[0].tolist() == [0]
    labels, totals = _assign(windows, sq_norms, x_norms, centroids, np.arange(2))
    assert labels.tolist() == [[0], [0]]
    assert totals[1] == _sq_dists(big, near[:1])[0, 0]


def test_seeding_slack_is_sized_by_each_windows_own_rows():
    # rows near 1e7 a unit apart: their Gram-form k-means++ weights carry
    # rounding of the order of the weights themselves. Sized by the unit-scale
    # window before them, the slack would certify draws from those weights
    rng = np.random.default_rng(14)
    windows, sq_norms, x_norms = _two_scale_windows(1e7 + rng.standard_normal((40, 2)))
    restarts = range(20)
    pairs = [(w, r) for w in range(2) for r in restarts]
    wins = np.array([w for w, _ in pairs])
    draws = _restart_draws(3, len(restarts), 40, 4)[[r for _, r in pairs]]
    seeds = _plusplus_seeds(windows, 4, draws, [[3, r] for _, r in pairs], sq_norms, x_norms, wins)
    for (w, r), got in zip(pairs, seeds):
        assert got.tobytes() == _plusplus_init(windows[w], 4, np.random.default_rng([3, r])).tobytes()


def test_windows_sharing_a_final_state_keep_their_own_inertia():
    # both windows end at labels [0, 0, 1, 1] and centroids 1 and 11 in every
    # restart, but their points lie at different distances from them
    near, far = np.array([[0.0], [2.0], [10.0], [12.0]]), np.array([[-1.0], [3.0], [9.0], [13.0]])
    cfg = KMeansConfig(restarts=3)
    got = _kmeans_windows([near, far], 2, cfg)
    assert got[0].centroids.tobytes() == got[1].centroids.tobytes()
    assert [a.inertia for a in got] == [4.0, 16.0]
    for batched, points in zip(got, (near, far)):
        assert_same_as_reference(batched, reference_kmeans(points, 2, cfg))


def test_batched_windows_must_share_a_shape():
    with pytest.raises(ValueError, match="windows differ in shape"):
        _kmeans_windows([np.zeros((5, 2)), np.zeros((6, 2))], 2, KMeansConfig())


# --- centroid sums by BLAS product, checked against the row-order sums --------


def _adversarial_sums(seed):
    """A _member_sums that adds the member rows in reverse row order, then
    moves each mean by up to delta / 2 (the window's _mean_slack) along
    random signs: as far from the row-order mean as the two orders and the
    move together stay within delta."""
    rng = np.random.default_rng(seed)

    def sums(members, points, out):
        out[...] = 0.0
        for i in range(points.shape[0] - 1, -1, -1):
            out += members[:, i, None] * points[i]
        delta = _mean_slack(points, np.sqrt((points * points).sum(axis=1).max()))
        if np.isfinite(delta):
            move = rng.choice([-1.0, 1.0], size=out.shape) * rng.uniform(0.0, 1.0, (len(out), 1))
            out += members.sum(axis=1)[:, None] * move * (0.5 * delta / np.sqrt(points.shape[1]))

    return sums


ADVERSARIAL_FAMILIES = {
    **ORACLE_FAMILIES,
    # exact ties among points that are not integers, so delta is not 0
    "half_grid_ties": lambda rng, n, d: 0.5 * rng.integers(0, 3, (n, d)),
    "offset_1e7_half_steps": lambda rng, n, d: 1e7 + 0.5 * rng.poisson(3.0, (n, d)),
}


def _rescoring(monkeypatch):
    """The pairs whose rows _assign re-scores on their row-order means, as it asks for them."""
    asked = []

    def assign(points, sq_norms, x_norms, centroids, wins, delta=0.0, exact=None):
        counted = exact and (lambda j: asked.append(j) or exact(j))
        return _assign(points, sq_norms, x_norms, centroids, wins, delta, counted)

    monkeypatch.setattr("epiclust.cluster._assign", assign)
    return asked


@pytest.mark.parametrize("family", sorted(ADVERSARIAL_FAMILIES))
def test_kmeans_matches_the_reference_whatever_order_sums_the_members(monkeypatch, family):
    # member sums in reverse row order, each mean then moved by delta / 2: a
    # restart's result depends neither on the summation order of its product
    # nor on which pairs share it, in any grouping of the windows
    monkeypatch.setattr("epiclust.cluster._member_sums", _adversarial_sums(7))
    asked = _rescoring(monkeypatch)
    rng = np.random.default_rng(60 + sorted(ADVERSARIAL_FAMILIES).index(family))
    make = ADVERSARIAL_FAMILIES[family]
    for _ in range(8):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 6))
        pts = make(rng, n, d)
        k = int(rng.integers(1, min(n, 6) + 1))
        for max_iters in (2, 300):
            cfg = KMeansConfig(max_iters=max_iters, restarts=3, seed=int(rng.integers(1000)))
            assert_same_as_reference(kmeans(pts, k, cfg), reference_kmeans(pts, k, cfg))
    windows = [make(rng, 20, 3) for _ in range(6)]
    assert_windows_match(monkeypatch, windows, 3, KMeansConfig(restarts=4, seed=int(rng.integers(1000))))
    if family in ("half_grid_ties", "offset_1e7_half_steps"):
        assert asked  # the stand-in means left rows that only the row-order means settle


def test_a_tie_the_product_means_break_is_re_scored_on_the_row_order_means():
    # 0.5 is exactly as far from 0 as from 1, so it goes to the first
    # centroid. Stand-ins delta / 2 below them put 1 nearer by about delta,
    # far beyond the Gram band of one column: only the band widened by delta
    # sends the row to be re-scored on the row-order means
    points = np.arange(1001.0)[:, None] / 1000
    sq_norms = (points * points).sum(axis=1)[None]
    x_norms = np.sqrt(sq_norms.max(axis=1))
    delta = _mean_slack(points, x_norms[0])
    exact = np.array([[0.0], [1.0]])
    stand_in, wins = (exact - delta / 2)[None], np.zeros(1, dtype=np.intp)
    assert _assign([points], sq_norms, x_norms, stand_in, wins)[0][0, 500] == 1
    labels, _ = _assign([points], sq_norms, x_norms, stand_in, wins, delta, lambda j: exact)
    assert labels[0, 500] == 0
    assert labels[0].tolist() == _reference_assign(points, exact)[0].tolist()


def test_a_shift_at_epsilon_is_taken_from_the_row_order_means(monkeypatch):
    # epsilon is the exact shift of one of the reference's steps, so the
    # reference goes on there, and at the next float up it stops. Under
    # adversarial sums the product-mean shift falls on either side; only the
    # shift of both steps' row-order means decides as the reference does
    monkeypatch.setattr("epiclust.cluster._member_sums", _adversarial_sums(3))
    rng = np.random.default_rng(12)
    checked = 0
    for seed in range(8):
        pts = rng.standard_normal((40, 2)) + 4.0 * rng.integers(0, 3, (40, 1))
        cfg = KMeansConfig(restarts=1, seed=seed, epsilon=float(np.nextafter(0.0, 1.0)))
        before = _plusplus_init(pts, 3, np.random.default_rng([seed, 0]))
        for step in (1, 2):
            after = _reference_lloyd(pts, 3, replace(cfg, max_iters=step), np.random.default_rng([seed, 0]))[1]
            shift = float(np.sqrt(((after - before) ** 2).sum(axis=1)).max())
            before = after
            for epsilon in (shift, float(np.nextafter(shift, np.inf))) if shift > 0 else ():
                at = replace(cfg, epsilon=epsilon)
                assert_same_as_reference(kmeans(pts, 3, at), reference_kmeans(pts, 3, at))
                checked += 1
    assert checked >= 24


def test_a_re_seed_reads_the_row_order_means(monkeypatch):
    # fewer distinct points than k: every step empties a cluster and re-seeds
    # it with the row farthest from its own centroid. Half-integer points
    # tie in that distance, which the adversarial product means break
    # either way; the row-order means keep the reference's first row
    monkeypatch.setattr("epiclust.cluster._member_sums", _adversarial_sums(5))
    rng = np.random.default_rng(9)
    for _ in range(30):
        n, d = int(rng.integers(4, 30)), int(rng.integers(1, 3))
        distinct = 0.5 * rng.integers(-2, 3, (int(rng.integers(2, 4)), d))
        pts = distinct[rng.integers(len(distinct), size=n)]
        k = len(np.unique(pts, axis=0)) + int(rng.integers(1, 3))
        cfg = KMeansConfig(restarts=2, seed=int(rng.integers(1000)))
        assert_same_as_reference(kmeans(pts, k, cfg), reference_kmeans(pts, k, cfg))


def test_restarts_whose_product_means_break_a_tie_keep_the_first_least(monkeypatch):
    # the corners of a square far from the origin, each taken m times:
    # restarts split them left from right or top from bottom, two partitions
    # of one exact inertia. A mean moved by p adds m |p|^2 to the inertia, so
    # the adversarial product means order the two either way; their
    # row-order means tie them, and the first restart wins
    monkeypatch.setattr("epiclust.cluster._member_sums", _adversarial_sums(11))
    corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    rng = np.random.default_rng(2)
    tied = 0
    for _ in range(20):
        pts = 1e8 + np.tile(corners * (0.5 + rng.integers(1, 8) / 16), (int(rng.integers(1, 4)), 1))
        cfg = KMeansConfig(restarts=10, seed=int(rng.integers(1000)))
        runs = [_reference_lloyd(pts, 2, cfg, np.random.default_rng([cfg.seed, r])) for r in range(cfg.restarts)]
        least = min(run[2] for run in runs)
        tied += len({run[0].tobytes() for run in runs if run[2] == least}) > 1
        assert_same_as_reference(kmeans(pts, 2, cfg), reference_kmeans(pts, 2, cfg))
    assert tied > 5


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
        monkeypatch.setattr("epiclust.cluster.BLOCK_BYTES", 8 * n * d * rows + 7)
        for sigma in ("median", 0.5):
            assert np.array_equal(rbf_affinity(pts, sigma), one_shot_affinity(pts, sigma))


def test_rbf_county_scale_memory_bounded():
    pts = np.random.default_rng(0).standard_normal((3142, 30))
    # the unblocked (n, n, d) difference tensor alone is 2.2 GiB here, the
    # two int64 arrays of triu_indices for the median sigma 75 MiB, and a
    # median that copies its input again 38 MiB
    assert _traced_peak(rbf_affinity, pts) < 130 * 2**20


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


@pytest.mark.parametrize("kind", LAPLACIAN_KINDS)
def test_laplacian_county_scale_memory_bounded(kind):
    # the result is the one (n, n) array, 75 MiB at n = 3142: a separate
    # degree matrix, a -w copy or a symmetrising pass would add another
    x = np.random.default_rng(0).standard_normal(3142)
    w = np.subtract.outer(x, x)
    np.square(w, out=w)
    np.negative(w, out=w)
    np.exp(w, out=w)
    np.fill_diagonal(w, 0.0)
    assert _traced_peak(laplacian, w, kind) < 100 * 2**20


@pytest.mark.parametrize("kind", LAPLACIAN_KINDS)
def test_affinity_asymmetric_within_tolerance_keeps_the_partition(kind):
    # laplacian does not symmetrise and eigh reads one triangle, so an
    # asymmetry check_symmetric accepts must not move the spectral partition
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.normal(c, 0.3, (10, 2)) for c in (0.0, 3.0, 6.0)])
    w = rbf_affinity(pts, sigma=1.0)
    skewed = w * (1.0 + 5e-13 * rng.uniform(-1.0, 1.0, w.shape))
    assert not np.array_equal(skewed, skewed.T)
    check_symmetric(skewed)
    cfg = SpectralConfig(laplacian=kind)
    a, b = (spectral_from_affinity(x, 3, cfg).labels for x in (w, skewed))
    assert best_permutation_dissimilarity(a, b, 3, "mismatch").cost == 0.0


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


def contiguous_scalar_optimum(values, k):
    """Least SSE over every split of the sorted values into k contiguous runs."""
    ordered = np.sort(np.asarray(values, dtype=float))
    best = np.inf
    for cuts in itertools.combinations(range(1, ordered.size), k - 1):
        runs = np.split(ordered, cuts)
        best = min(best, sum(((run - run.mean()) ** 2).sum() for run in runs))
    return best


def dense_scalar_dp(values, k):
    """Labels of the exact 1-D DP with every row of every level searched over
    all its splits, leftmost on ties, in the module's arithmetic (prefix sums
    of the distinct values minus the median, weighted by their counts); and
    each level's splits, which rounding may put out of order."""
    values = np.asarray(values, dtype=float)
    ordered = np.sort(values)
    distinct, counts = np.unique(ordered, return_counts=True)
    m = distinct.size
    weights = np.concatenate([[0.0], np.cumsum(counts)])
    sums = np.concatenate([[0.0], np.cumsum(counts * (distinct - ordered[values.size // 2]))])
    best = np.full(m + 1, np.inf)
    best[1:] = -sums[1:] * (sums[1:] / weights[1:])
    levels = []
    for j in range(2, min(k, m) + 1):
        prev, best, split = best, np.full(m + 1, np.inf), np.zeros(m + 1, dtype=int)
        for r in range(j, m + 1):
            t = np.arange(j - 1, r)
            diff = sums[r] - sums[t]
            score = prev[t] - diff / (weights[r] - weights[t]) * diff
            split[r] = t[score.argmin()]
            best[r] = score.min()
        levels.append(split)
    starts, cut = np.zeros(m, dtype=int), m
    for split in reversed(levels):
        cut = split[cut]
        starts[cut] = 1
    return np.cumsum(starts)[np.searchsorted(distinct, values)], [s[j:] for j, s in enumerate(levels, 2)]


SCALAR_FAMILIES = {
    "uniform": lambda rng, n: rng.uniform(0, 100, n),
    # few distinct values: many runs of equal values and tied splits
    "half_integer_grid": lambda rng, n: rng.integers(0, 4, n) * 0.5,
    # a large common offset over unit steps
    "offset_1e7": lambda rng, n: 1e7 + rng.poisson(2.0, n),
}


@pytest.mark.parametrize("family", sorted(SCALAR_FAMILIES))
def test_scalar_feature_sse_equals_the_exhaustive_optimum(family):
    rng = np.random.default_rng(sorted(SCALAR_FAMILIES).index(family))
    for _ in range(12):
        n = int(rng.integers(1, 8))
        values = SCALAR_FAMILIES[family](rng, n)
        k = int(rng.integers(1, min(n, 3) + 1))
        # more clusters than distinct values leave some empty, which the
        # exhaustive search also allows
        want = exhaustive_scalar_optimum(values, k)
        assert cluster_scalar_feature(values, k).inertia == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", [1, 5, 37, 2**13])
def test_scalar_feature_sse_equals_the_best_contiguous_split(seed):
    # the halving search, which bounds each row's splits by those of rows
    # searched before it, finds the dense search's partition and its SSE is
    # the least over every contiguous split
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(1, 21))
        values = SCALAR_FAMILIES[sorted(SCALAR_FAMILIES)[int(rng.integers(3))]](rng, n)
        k = int(rng.integers(1, min(n, 5) + 1))
        got = cluster_scalar_feature(values, k)
        assert np.array_equal(got.labels, dense_scalar_dp(values, k)[0])
        want = contiguous_scalar_optimum(values, k)
        assert got.inertia == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_scalar_feature_passes_agree_with_one_full_pass():
    # halving's rounds give the labels of one full pass over every split of
    # every row, on levels of hundreds of rows
    rng = np.random.default_rng(23)
    cases = [(rng.uniform(0, 100, n), k) for n in (200, 700) for k in (2, 3, 6)]
    cases += [(rng.integers(0, 300, 900).astype(float), 4)]
    for values, k in cases:
        assert np.array_equal(cluster_scalar_feature(values, k).labels, dense_scalar_dp(values, k)[0])


# columns with ties, with few distinct values and with a long right tail
FEATURE_COLUMNS = {
    **SCALAR_FAMILIES,
    "log_normal": lambda rng, n: rng.lognormal(0.0, 1.5, n),
}


@pytest.mark.parametrize("seed", [None, 1, 64])
def test_scalar_features_equal_each_column_alone(seed):
    # one DP over all columns gives every column the labels of clustering it
    # alone; columns of different distinct-value counts halve different
    # blocks in each round (seed None draws from seed 19)
    rng = np.random.default_rng(19 if seed is None else seed)
    families = sorted(FEATURE_COLUMNS)
    for n in (1, 2, 9, 60, 400, 3142):
        for k in range(1, min(n, 8) + 1):
            count = int(rng.integers(1, 12))
            picks = rng.integers(len(families), size=count)
            columns = [FEATURE_COLUMNS[families[pick]](rng, n) for pick in picks]
            found = _scalar_features(np.stack(columns, axis=1), k)
            assert found.shape == (count, n) and found.dtype == np.int64
            for values, got in zip(columns, found):
                assert np.array_equal(got, cluster_scalar_feature(values, k).labels)


def test_scalar_features_keep_each_columns_own_passes():
    # two groups up to 1e10 apart: the prefix sums round by more than some
    # SSE differences, so a split can depend on the rows that bounded its
    # search; in a batch each column's blocks are bounded by its own splits,
    # whatever the other column's count of distinct values
    rng = np.random.default_rng(64)
    for _ in range(50):
        n, spread = int(rng.integers(10, 400)), int(rng.integers(2, 50))
        columns = [
            np.where(rng.random(n) < 0.5, 0.0, 10 ** rng.uniform(6, 10))
            + (rng.standard_normal(n) * scale).round()
            for scale in (1, spread)
        ]
        k = int(rng.integers(2, 8))
        for values, got in zip(columns, _scalar_features(np.stack(columns, axis=1), k)):
            assert np.array_equal(got, cluster_scalar_feature(values, k).labels)


def test_scalar_features_name_the_non_finite_cell():
    values = np.ones((6, 4))
    values[3, 2] = np.inf
    with pytest.raises(ValueError, match="point at row 3, column 2 is not finite"):
        _scalar_features(values, 2)
    with pytest.raises(ValueError, match="column 1 overflow"):
        _scalar_features(np.array([[0.0, 1e200], [1.0, -1e200], [2.0, 0.0]]), 2)


def test_scalar_feature_sse_is_never_above_kmeans():
    # the same centroid and inertia arithmetic as kmeans: an equal partition
    # gives an equal inertia, bit for bit
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 71))
        values = SCALAR_FAMILIES[sorted(SCALAR_FAMILIES)[int(rng.integers(3))]](rng, n)
        k = int(rng.integers(1, min(n, 6) + 1))
        km = kmeans(values, k, KMeansConfig(seed=int(rng.integers(1000))))
        assert cluster_scalar_feature(values, k).inertia <= km.inertia


def test_scalar_feature_inertia_equals_the_summed_squared_deviations():
    # the _sq_dists inertia equals sum((x - c)^2) over the values, bit for bit
    rng = np.random.default_rng(17)
    draws = {
        "normal": lambda n: rng.normal(size=n),
        "lognormal": lambda n: rng.lognormal(0.0, 2.0, n),
        "few_distinct": lambda n: rng.integers(0, 4, n).astype(float),
        "offset": lambda n: 1e7 + rng.normal(size=n),
    }
    for name, draw in draws.items():
        for n in (1, 2, 7, 60, 3142):
            for scale in (1e-8, 1.0, 1e8):
                values = scale * draw(n)
                k = int(rng.integers(1, min(n, 8) + 1))
                found = cluster_scalar_feature(values, k)
                dev = values - found.centroids[found.labels, 0]
                assert found.inertia == float((dev * dev).sum()), (name, n, scale, k)


def test_scalar_feature_row_permutation_keeps_each_region_label():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        values = SCALAR_FAMILIES[sorted(SCALAR_FAMILIES)[int(rng.integers(3))]](rng, n)
        k = int(rng.integers(1, min(n, 6) + 1))
        base = cluster_scalar_feature(values, k)
        perm = rng.permutation(n)
        shuffled = cluster_scalar_feature(values[perm], k)
        assert np.array_equal(shuffled.labels, base.labels[perm])
        assert shuffled.centroids[:, 0].tolist() == pytest.approx(base.centroids[:, 0].tolist(), nan_ok=True)


def test_scalar_feature_equal_values_share_a_label():
    rng = np.random.default_rng(37)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        values = rng.integers(0, int(rng.integers(2, 12)), n) * 0.25
        labels = cluster_scalar_feature(values, int(rng.integers(1, min(n, 6) + 1))).labels
        for v in np.unique(values):
            assert np.unique(labels[values == v]).size == 1


def test_scalar_feature_ties_go_to_the_leftmost_split():
    # {0}{1, 2} and {0, 1}{2} both have SSE 0.5, exactly, in every term the
    # split search computes; so do the same splits with each value twice
    assert cluster_scalar_feature([2.0, 0.0, 1.0], 2).labels.tolist() == [1, 0, 1]
    assert cluster_scalar_feature([0.0, 2.0, 1.0, 0.0, 2.0, 1.0], 2).labels.tolist() == [0, 1, 1, 0, 1, 1]


def test_scalar_feature_more_clusters_than_distinct_values():
    # three distinct values in five clusters: each value is its own cluster
    # and labels 3 and 4 are unused, their centroids nan
    sf = cluster_scalar_feature([2.0, 0.5, 2.0, 7.0, 0.5, 0.5], 5)
    assert sf.labels.tolist() == [1, 0, 1, 2, 0, 0]
    assert sf.centroids[:3, 0].tolist() == [0.5, 2.0, 7.0]
    assert np.isnan(sf.centroids[3:]).all()
    assert sf.inertia == 0.0
    assert cluster_scalar_feature([4.0, 4.0, 4.0], 3).labels.tolist() == [0, 0, 0]


def test_scalar_feature_survives_splits_that_rounding_puts_out_of_order(monkeypatch):
    # two clusters 1e8 apart, each of unit spread: the prefix sums round by
    # more than the SSE differences inside a cluster, so a row's dense split
    # can land left of an earlier row's; halving still searches no row over
    # an empty range and gives ordered labels that use every cluster
    searched, out_of_order = [], 0

    def watched(prev, sums, weights, rows, lo, hi):
        searched.append((lo, hi))
        return _leftmost_splits(prev, sums, weights, rows, lo, hi)

    monkeypatch.setattr("epiclust.cluster._leftmost_splits", watched)
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(20, 60))
        values = np.where(rng.random(n) < 0.5, 0.0, 1e8) + rng.standard_normal(n)
        k = int(rng.integers(2, 8))
        labels = cluster_scalar_feature(values, k).labels
        assert np.all(np.diff(labels[np.argsort(values, kind="stable")]) >= 0)
        assert labels.max() == k - 1
        out_of_order += any((np.diff(split) < 0).any() for split in dense_scalar_dp(values, k)[1])
    assert all((hi >= lo).all() for lo, hi in searched)
    assert out_of_order > 0


def test_scalar_feature_overflowing_deviations_raise():
    with pytest.raises(ValueError, match="overflow"):
        cluster_scalar_feature([1e200, -1e200, 0.0], 2)


def test_scalar_feature_county_scale_memory_bounded():
    # a full (m + 1)^2 matrix of split scores would be 79 MB here
    values = np.random.default_rng(3).uniform(0, 100, 3142)
    assert _traced_peak(cluster_scalar_feature, values, 6) < 64 * values.nbytes


def test_scalar_features_county_scale_memory_bounded():
    # all columns in one DP hold no more than each column alone, summed
    values = np.random.default_rng(3).uniform(0, 100, (3142, 11))
    assert _traced_peak(_scalar_features, values, 6) < 11 * 64 * values[:, 0].nbytes


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
