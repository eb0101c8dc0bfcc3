"""Temporal-stability study, technique selection, and feature association."""

import datetime
import inspect
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from epiclust.align import (
    BASELINE_MODES,
    METRICS,
    BalanceDiagnostic,
    best_permutation_dissimilarity,
)
from epiclust.cluster import ALGORITHMS, ClusterAssignment, cluster_scalar_feature
from epiclust.ingest import EpicurveMatrix, FeatureTable, split_windows
from epiclust.pipeline import (
    PREP_SCOPES,
    StabilityMatrix,
    _prepared_windows,
    feature_association,
    select_technique,
    temporal_stability,
)
from epiclust.preprocess import PREPROCESS_KINDS, apply_preprocess
from epiclust.synth import generate_fixture

D0 = datetime.date(2021, 1, 1)


def matrix(values, populations=None):
    values = np.asarray(values, dtype=float)
    return EpicurveMatrix(
        tuple(f"r{i}" for i in range(values.shape[0])),
        tuple(D0 + datetime.timedelta(days=d) for d in range(values.shape[1])),
        values,
        populations,
    )


def stability_record(prep, algo, costs, degenerate_windows=0):
    n = len(costs)
    balance = tuple(
        BalanceDiagnostic(balanced=i >= degenerate_windows, largest_fraction=0.5)
        for i in range(n)
    )
    return StabilityMatrix(prep, algo, np.asarray(costs, dtype=float), balance)


def test_identical_windows_cost_zero():
    rng = np.random.default_rng(0)
    block = rng.integers(0, 60, (6, 30)).astype(float)
    m = matrix(np.tile(block, (1, 4)))
    for r in temporal_stability(m, ["none"], ["kmeans", "spectral"], 2):
        assert r.window_count == 4
        assert np.all(r.costs == 0.0)


def test_planted_three_cluster_structure_stable_for_spectral():
    # with the affinity bandwidth at the noise scale the planted level gaps
    # disconnect the graph outright: spectral reproduces the planted clusters
    # in every window, so all cross-window costs vanish
    from epiclust.cluster import SpectralConfig, spectral_cluster

    fix = generate_fixture(25, 120, 3, seed=0)
    cfg = SpectralConfig(sigma=200.0)
    (r,) = temporal_stability(fix.epicurves, ["none"], ["spectral"], 3, spectral_cfg=cfg)
    off = r.costs[~np.eye(4, dtype=bool)]
    assert np.all(off == 0.0)
    assert r.degenerate_windows == 0
    for w in split_windows(fix.epicurves):
        sp = spectral_cluster(w.values, 3, cfg)
        assert best_permutation_dissimilarity(sp.labels, fix.planted_labels, 3).cost == 0.0
        assert sp.suggested_k == 3  # eigengap sees the three components


def test_fixture_planted_partition_stable_for_kmeans():
    fix = generate_fixture(25, 120, 3, seed=0)
    (r,) = temporal_stability(fix.epicurves, ["none"], ["kmeans"], 3)
    off = r.costs[~np.eye(4, dtype=bool)]
    assert np.all(off == 0.0)
    assert r.degenerate_windows == 0


def test_single_region_switch_localised_to_window3():
    # regions 0-2 level 10, regions 3-5 level 100; region 2 jumps in window 3.
    # best permutation cost between [0,0,0,1,1,1] and [0,0,1,1,1,1] is 1/6.
    values = np.zeros((6, 20))
    values[:3] = 10.0
    values[3:] = 100.0
    values[2, 15:20] = 100.0
    m = matrix(values)
    (r,) = temporal_stability(m, ["none"], ["kmeans"], 2, window_len=5)
    expected = np.zeros((4, 4))
    expected[:3, 3] = expected[3, :3] = 1.0 / 6.0
    assert np.allclose(r.costs, expected, atol=1e-12)


def test_stability_matrices_symmetric_zero_diagonal():
    fix = generate_fixture(12, 60, 2, seed=5)
    results = temporal_stability(
        fix.epicurves, ["none", "zscore", "minmax_row"], ["kmeans", "spectral"], 2
    )
    assert len(results) == 6
    for r in results:
        assert np.array_equal(r.costs, r.costs.T)
        assert np.all(np.diag(r.costs) == 0.0)
        assert len(r.balance) == r.window_count


def test_stability_matrix_equals_per_pair_alignment(monkeypatch):
    # all window pairs of a technique are aligned in one batch: each entry is
    # the single-pair search of the earlier window onto the later one
    rng = np.random.default_rng(18)
    for k in range(1, 9):
        for metric in METRICS:
            count, n = int(rng.integers(2, 7)), int(rng.integers(k, 40))
            labels = rng.integers(0, k, (count, n))
            found = [ClusterAssignment(row, k, np.zeros((k, 1)), 0.0) for row in labels]
            monkeypatch.setattr("epiclust.pipeline._cluster_windows", lambda *args: found)
            m = matrix(np.ones((n, 2 * count)))
            (r,) = temporal_stability(m, ["none"], ["kmeans"], k, window_len=2, metric=metric)
            for i in range(count):
                for j in range(count):
                    first, last = sorted((i, j))
                    expected = best_permutation_dissimilarity(
                        labels[first], labels[last], k, metric
                    ).cost
                    assert r.costs[i, j] == (0.0 if i == j else expected)


def test_association_cells_equal_per_pair_alignment(monkeypatch):
    # all (feature, window) cells are aligned in one batch: each cell is the
    # single-pair search of the feature's labels onto the window's
    rng = np.random.default_rng(19)
    for k in range(1, 9):
        for metric in METRICS:
            count, n = int(rng.integers(2, 5)), int(rng.integers(k, 40))
            labels = rng.integers(0, k, (count, n))
            found = [ClusterAssignment(row, k, np.zeros((k, 1)), 0.0) for row in labels]
            monkeypatch.setattr("epiclust.pipeline._cluster_windows", lambda *args: found)
            m = matrix(np.ones((n, 2 * count)))
            values = rng.integers(0, 5, (n, 3)) * rng.uniform(0.5, 2.0, 3)
            f = FeatureTable(m.region_names, ("a", "b", "c"), values)
            report = feature_association(
                m, f, ("none", "kmeans"), k, window_len=2, metric=metric, trials=1
            )
            assert len(report.cells) == 3 * count
            for i, feature in enumerate(f.feature_names):
                scalar = cluster_scalar_feature(values[:, i], k).labels
                for w in range(count):
                    expected = best_permutation_dissimilarity(scalar, labels[w], k, metric)
                    assert report.cell(feature, w).alignment == expected


@pytest.fixture
def no_work(monkeypatch):
    """Every step after the settings check raises: splitting, preprocessing, clustering."""
    def no_work(*args):
        raise AssertionError("worked on a window before the settings were checked")

    for step in ("split_windows", "apply_preprocess", "_prepared_windows", "_cluster_windows"):
        monkeypatch.setattr(f"epiclust.pipeline.{step}", no_work)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"metric": "bogus"}, f"unknown metric 'bogus'; expected one of {METRICS}"),
        ({"prep_scope": "bogus"}, f"unknown prep scope 'bogus'; expected one of {PREP_SCOPES}"),
        # the random-label null's settings, which only the association takes
        ({"baseline_mode": "bogus"}, f"unknown mode 'bogus'; expected one of {BASELINE_MODES}"),
        ({"trials": 0}, "trials must be positive, got 0"),
        ({"balance_threshold": 0.0}, "balance_threshold must lie in (0, 1], got 0.0"),
        ({"balance_threshold": 1.5}, "balance_threshold must lie in (0, 1], got 1.5"),
        # the series is split after a full-series preprocessing: the window
        # count is checked before either
        ({"window_len": 0, "prep_scope": "full_series"}, "window_len must be positive, got 0"),
        ({"window_len": 200, "prep_scope": "full_series"},
         "60 days hold 0 window(s) of 200; the study needs at least"),
        # the association's one technique, a (prep, algorithm) pair
        ({"chosen": ("none",)}, "chosen must be a (prep, algorithm) pair, got ('none',)"),
        ({"chosen": ("none", "kmeans", "spectral")},
         "chosen must be a (prep, algorithm) pair, got ('none', 'kmeans', 'spectral')"),
    ],
)
def test_unknown_setting_raises_before_clustering(no_work, setting, message):
    fix = generate_fixture(10, 60, 2, seed=1)
    if set(setting) <= set(inspect.signature(temporal_stability).parameters):
        with pytest.raises(ValueError, match=re.escape(message)):
            temporal_stability(fix.epicurves, ["none"], ["kmeans"], 2, **setting)
    with pytest.raises(ValueError, match=re.escape(message)):
        feature_association(fix.epicurves, fix.features, **{"chosen": ("none", "kmeans"), "k": 2, **setting})


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("k, message", [(0, "k must be positive, got 0"), (11, "k=11 exceeds the 10 observations")])
def test_out_of_range_k_raises_before_clustering(no_work, algo, k, message):
    fix = generate_fixture(10, 60, 2, seed=1)
    with pytest.raises(ValueError, match=re.escape(message)):
        temporal_stability(fix.epicurves, ["none"], [algo], k)
    with pytest.raises(ValueError, match=re.escape(message)):
        feature_association(fix.epicurves, fix.features, ("none", algo), k)


@pytest.mark.parametrize(
    "preps, algos, kind, known",
    [
        (["bogus"], ["kmeans"], "preprocessing kind", PREPROCESS_KINDS),
        (["none"], ["bogus"], "algorithm", ALGORITHMS),
    ],
)
def test_unknown_technique_named_before_clustering(no_work, preps, algos, kind, known):
    fix = generate_fixture(10, 60, 2, seed=1)
    message = f"unknown {kind} 'bogus'; expected one of {known}"
    with pytest.raises(ValueError, match=re.escape(message)):
        temporal_stability(fix.epicurves, preps, algos, 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        feature_association(fix.epicurves, fix.features, (*preps, *algos), 2)


def test_population_prep_without_populations_raises_before_clustering(no_work):
    fix = generate_fixture(10, 60, 2, seed=1)
    bare = replace(fix.epicurves, populations=None)
    message = "population normalization requires per-region populations"
    with pytest.raises(ValueError, match=message):
        temporal_stability(bare, ["none", "population"], ALGORITHMS, 2)
    with pytest.raises(ValueError, match=message):
        feature_association(bare, fix.features, ("population", "kmeans"), 2)


def test_unknown_algorithm_in_chosen_raises():
    fix = generate_fixture(10, 60, 2, seed=1)
    message = f"unknown algorithm 'bogus'; expected one of {ALGORITHMS}"
    with pytest.raises(ValueError, match=re.escape(message)):
        feature_association(fix.epicurves, fix.features, ("none", "bogus"), 2)


def test_one_window_has_no_off_diagonal_cost():
    assert stability_record("none", "kmeans", [[0.0]]).mean_offdiag == 0.0


def test_full_series_scope_windows_slice_the_whole_series():
    fix = generate_fixture(25, 120, 3, seed=0)
    whole = apply_preprocess(fix.epicurves, "zscore").values
    full = _prepared_windows(fix.epicurves, "zscore", 30, "full_series")
    per = _prepared_windows(fix.epicurves, "zscore", 30, "per_window")
    assert len(full) == len(per) == 4
    for w, (f, p) in enumerate(zip(full, per)):
        assert np.array_equal(f, whole[:, 30 * w : 30 * (w + 1)])
        assert not np.allclose(f, p)


def test_prep_scope_is_moot_without_preprocessing():
    fix = generate_fixture(25, 120, 3, seed=0)
    per, full = (
        temporal_stability(fix.epicurves, ["none"], ALGORITHMS, 3, prep_scope=scope)
        for scope in PREP_SCOPES
    )
    assert len(per) == len(full) == 2
    for a, b in zip(per, full):
        assert np.array_equal(a.costs, b.costs)


def test_temporal_stability_needs_two_windows():
    m = matrix(np.ones((4, 40)))
    with pytest.raises(ValueError, match="at least 2"):
        temporal_stability(m, ["none"], ["kmeans"], 2, window_len=30)


def test_select_unique_minimizer():
    good = stability_record("none", "spectral", np.zeros((3, 3)))
    worse = stability_record("zscore", "spectral", np.full((3, 3), 0.4) - 0.4 * np.eye(3))
    assert select_technique([worse, good]) == ("none", "spectral")


def test_select_excludes_degenerate_despite_lower_cost():
    biased = stability_record("none", "kmeans", np.zeros((3, 3)), degenerate_windows=1)
    stable = stability_record("none", "spectral", np.full((3, 3), 0.2) - 0.2 * np.eye(3))
    assert select_technique([biased, stable]) == ("none", "spectral")


def test_select_tie_breaks_by_list_order():
    a = stability_record("none", "spectral", np.zeros((2, 2)))
    b = stability_record("none", "kmeans", np.zeros((2, 2)))
    assert select_technique([a, b]) == ("none", "spectral")
    assert select_technique([b, a]) == ("none", "kmeans")


def test_select_all_degenerate_returns_least_degenerate_with_warning():
    worse = stability_record("none", "kmeans", np.zeros((3, 3)), degenerate_windows=3)
    least = stability_record("zscore", "kmeans", np.zeros((3, 3)), degenerate_windows=1)
    with pytest.warns(UserWarning, match="least-degenerate"):
        assert select_technique([worse, least]) == ("zscore", "kmeans")


def _two_branch_selection(results):
    """The selection as two branches: the lowest mean cost among techniques
    with no degenerate window, or else the least-degenerate one, warned."""
    clean = [(i, r) for i, r in enumerate(results) if r.degenerate_windows == 0]
    if clean:
        return min(clean, key=lambda item: (item[1].mean_offdiag, item[0]))[1], False
    best = min(
        enumerate(results),
        key=lambda item: (item[1].degenerate_windows, item[1].mean_offdiag, item[0]),
    )
    return best[1], True


def test_select_equals_the_two_branch_rule():
    # few distinct costs and degeneracy counts, so ties are common; every
    # second list has no clean technique at all
    rng = np.random.default_rng(17)
    names = [(p, a) for p in PREPROCESS_KINDS for a in ALGORITHMS]
    for trial in range(400):
        picks = rng.choice(len(names), int(rng.integers(1, 7)), replace=False)
        results = [
            stability_record(
                *names[i],
                int(rng.integers(0, 3)) / 4.0 * (1.0 - np.eye(3)),
                degenerate_windows=int(rng.integers(trial % 2, 3)),
            )
            for i in picks
        ]
        best, warned = _two_branch_selection(results)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert select_technique(results) == (best.prep, best.algorithm)
        assert len(caught) == warned


def test_select_empty_errors():
    with pytest.raises(ValueError, match="no stability results"):
        select_technique([])


def test_fixture_selects_raw_data_across_all_techniques():
    fix = generate_fixture(25, 120, 3, seed=0)
    results = temporal_stability(
        fix.epicurves,
        ["none", "population", "zscore", "minmax_row", "minmax_global"],
        ["spectral", "kmeans"],
        3,
    )
    prep, _ = select_technique(results)
    assert prep == "none"


def test_feature_matching_epidemic_clusters_has_zero_sm1():
    fix = generate_fixture(25, 120, 3, seed=0)
    windows = split_windows(fix.epicurves)
    from epiclust.cluster import kmeans

    epi = kmeans(windows[0].values, 3)
    # feature equal to the epidemic cluster mean of each region
    means = {c: windows[0].values[epi.labels == c].mean() for c in range(3)}
    feature = FeatureTable(
        fix.epicurves.region_names,
        ("epi_mean",),
        np.array([[means[c]] for c in epi.labels]),
    )
    report = feature_association(
        fix.epicurves, feature, ("none", "kmeans"), 3, trials=50, seed=2
    )
    for w in range(report.window_count):
        cell = report.cell("epi_mean", w)
        assert cell.baseline.sm1 == 0.0
        assert cell.baseline.deviation == cell.baseline.sm2_mean


def test_noise_feature_sm1_within_null_band():
    # i.i.d. noise features: SM1 should sit within 2 std of the Monte Carlo
    # null mean in at least 90 of 100 draws
    fix = generate_fixture(25, 30, 3, seed=0)
    rng = np.random.default_rng(123)
    names = tuple(f"n{i:03d}" for i in range(100))
    table = FeatureTable(
        fix.epicurves.region_names, names, rng.normal(100.0, 30.0, (25, 100))
    )
    report = feature_association(fix.epicurves, table, ("none", "kmeans"), 3, trials=100, seed=9)
    assert report.window_count == 1
    hits = sum(
        abs(c.baseline.sm1 - c.baseline.sm2_mean) <= 2.0 * c.baseline.sm2_std
        for c in report.cells
    )
    assert hits >= 90


def test_constant_feature_with_k1_is_degenerate_but_scored():
    fix = generate_fixture(10, 60, 1, seed=4)
    feature = FeatureTable(fix.epicurves.region_names, ("flat",), np.full((10, 1), 7.0))
    report = feature_association(fix.epicurves, feature, ("none", "kmeans"), 1, trials=10, seed=0)
    for cell in report.cells:
        assert not cell.feature_balance.balanced
        assert cell.feature_balance.largest_fraction == 1.0
        assert cell.baseline.sm1 == 0.0  # all-zero labels on both sides


def test_association_grid_coverage_and_deviation_identity():
    fix = generate_fixture(15, 60, 2, seed=8)
    report = feature_association(
        fix.epicurves, fix.features, ("none", "kmeans"), 2, trials=20, seed=3
    )
    assert report.window_count == 2
    seen = {(c.feature, c.window) for c in report.cells}
    assert seen == {(f, w) for f in fix.features.feature_names for w in range(2)}
    for c in report.cells:
        assert c.baseline.deviation == c.baseline.sm2_mean - c.baseline.sm1


def test_association_deterministic():
    fix = generate_fixture(12, 60, 2, seed=6)
    kwargs = dict(trials=15, seed=42)
    a = feature_association(fix.epicurves, fix.features, ("none", "spectral"), 2, **kwargs)
    b = feature_association(fix.epicurves, fix.features, ("none", "spectral"), 2, **kwargs)
    assert a == b


def test_association_requires_aligned_regions():
    fix = generate_fixture(10, 60, 2, seed=1)
    other = FeatureTable(("x", "y"), ("f",), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="not aligned"):
        feature_association(fix.epicurves, other, ("none", "kmeans"), 2)
