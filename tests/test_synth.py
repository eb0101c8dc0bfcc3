"""Planted-cluster fixture generation and serialization."""

import json
import re

import numpy as np
import pytest

from epiclust.cluster import cluster_scalar_feature, kmeans
from epiclust.align import best_permutation_dissimilarity
from epiclust.ingest import load_epicurves, load_features
from epiclust.synth import generate_fixture, write_fixture


def test_shapes_and_names():
    fix = generate_fixture(25, 120, 3, seed=0)
    assert fix.epicurves.values.shape == (25, 120)
    assert fix.features.values.shape == (25, 11)
    assert fix.features.feature_names[:4] == ("corr_1", "corr_2", "corr_3", "corr_4")
    assert len(fix.planted_labels) == 25
    assert set(fix.planted_labels) == {0, 1, 2}
    assert (fix.epicurves.values >= 0).all()
    assert fix.epicurves.populations.min() > 0


def test_seed_reproducible():
    a = generate_fixture(10, 60, 2, seed=9)
    b = generate_fixture(10, 60, 2, seed=9)
    assert np.array_equal(a.epicurves.values, b.epicurves.values)
    assert np.array_equal(a.features.values, b.features.values)
    assert np.array_equal(a.planted_labels, b.planted_labels)
    c = generate_fixture(10, 60, 2, seed=10)
    assert not np.array_equal(a.epicurves.values, c.epicurves.values)


def test_k_true_one_shares_single_template():
    fix = generate_fixture(8, 40, 1, seed=3)
    assert set(fix.planted_labels) == {0}
    # every region follows the same level, so row means sit close together
    means = fix.epicurves.values.mean(axis=1)
    assert means.max() < 1.5 * means.min()


def test_planted_partition_recoverable_from_raw_counts():
    fix = generate_fixture(25, 120, 3, seed=0)
    km = kmeans(fix.epicurves.values[:, :30], 3)
    assert best_permutation_dissimilarity(km.labels, fix.planted_labels, 3).cost == 0.0


def test_correlated_features_track_planted_clusters():
    fix = generate_fixture(25, 120, 3, seed=0)
    for name in fix.correlated_features:
        labels = cluster_scalar_feature(fix.features.column(name), 3).labels
        assert best_permutation_dissimilarity(labels, fix.planted_labels, 3).cost == 0.0


def test_written_fixture_reparses(tmp_path):
    fix = generate_fixture(12, 60, 3, seed=1)
    paths = write_fixture(fix, tmp_path)
    m = load_epicurves(paths["epicurves"], paths["populations"])
    assert np.array_equal(m.values, fix.epicurves.values)
    assert np.array_equal(m.populations, fix.epicurves.populations)
    t = load_features(paths["features"], m)
    assert np.array_equal(t.values, fix.features.values)
    truth = json.loads(paths["truth"].read_text())
    assert truth["schema_version"] == "1"
    assert truth["correlated_features"] == list(fix.correlated_features)
    assert [truth["planted_labels"][n] for n in m.region_names] == fix.planted_labels.tolist()


def test_generate_fixture_validation():
    with pytest.raises(ValueError, match="below k_true"):
        generate_fixture(2, 30, 3)


@pytest.mark.parametrize("k_true, n_days", [(0, 30), (2, 0)])
def test_generate_fixture_needs_positive_sizes(k_true, n_days):
    with pytest.raises(ValueError, match="^k_true and n_days must be positive$"):
        generate_fixture(3, n_days, k_true)


@pytest.mark.parametrize("n_correlated, n_noise", [(-2, 3), (4, -1), (0, 0)])
def test_generate_fixture_rejects_bad_feature_counts(n_correlated, n_noise):
    message = ("feature counts must be at least 0, with at least one feature; "
               f"got n_correlated={n_correlated}, n_noise={n_noise}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_fixture(10, 30, 2, n_correlated=n_correlated, n_noise=n_noise)


@pytest.mark.parametrize("n_correlated, n_noise", [(0, 2), (3, 0)])
def test_ground_truth_names_each_feature_by_its_kind(tmp_path, n_correlated, n_noise):
    fix = generate_fixture(10, 30, 2, n_correlated=n_correlated, n_noise=n_noise)
    assert fix.correlated_features == tuple(f"corr_{j + 1}" for j in range(n_correlated))
    assert fix.noise_features == tuple(f"noise_{j + 1}" for j in range(n_noise))
    assert fix.features.feature_names == fix.correlated_features + fix.noise_features
    truth = json.loads(write_fixture(fix, tmp_path)["truth"].read_text())
    assert truth["correlated_features"] == list(fix.correlated_features)
    assert truth["noise_features"] == list(fix.noise_features)
