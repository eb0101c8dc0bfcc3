"""Scaling technique contracts: shape preservation, exact targets, degenerate rows."""

import datetime

import numpy as np
import pytest

from epiclust.ingest import EpicurveMatrix, IngestError
from epiclust.preprocess import (
    PREPROCESS_KINDS,
    apply_preprocess,
    minmax_global,
    minmax_rows,
    population_normalize,
    zscore_rows,
)

D0 = datetime.date(2021, 1, 1)


def matrix(values, populations=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return EpicurveMatrix(
        tuple(f"r{i}" for i in range(values.shape[0])),
        tuple(D0 + datetime.timedelta(days=d) for d in range(values.shape[1])),
        values,
        populations,
    )


def test_population_normalize_cases_per_million():
    m = matrix([[10, 0, 2], [0, 0, 0]], populations=[2_000_000, 500_000])
    out = population_normalize(m)
    assert out.values[0].tolist() == [5.0, 0.0, 1.0]
    assert out.values[1].tolist() == [0.0, 0.0, 0.0]
    assert out.region_names == m.region_names and out.dates == m.dates


def test_population_normalize_requires_populations():
    with pytest.raises(ValueError, match="requires per-region populations"):
        population_normalize(matrix([[1, 2]]))


def test_population_zero_rejected_naming_region():
    with pytest.raises(IngestError, match="non-positive population.*'r1'"):
        matrix([[1], [2]], populations=[100, 0])


def test_population_normalize_linear():
    pops = [250_000, 1_000_000, 3_000_000]
    rng = np.random.default_rng(4)
    a = rng.integers(0, 40, (3, 7)).astype(float)
    b = rng.integers(0, 40, (3, 7)).astype(float)
    lhs = population_normalize(matrix(a + b, pops)).values
    rhs = population_normalize(matrix(a, pops)).values + population_normalize(
        matrix(b, pops)
    ).values
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_zscore_hand_computed_row():
    out = zscore_rows(matrix([[1, 2, 3]]))
    assert np.allclose(out.values[0], [-1.224745, 0.0, 1.224745], atol=5e-7)


def test_zscore_idempotent_on_standardized_row():
    once = zscore_rows(matrix([[4, 8, 1, 7, 3]]))
    twice = zscore_rows(once)
    assert np.abs(twice.values - once.values).max() < 1e-9


def test_zscore_constant_row_maps_to_zeros():
    out = zscore_rows(matrix([[5, 5, 5], [0, 0, 0], [1, 2, 3]]))
    assert out.values[0].tolist() == [0.0, 0.0, 0.0]
    assert out.values[1].tolist() == [0.0, 0.0, 0.0]
    assert abs(out.values[2].mean()) < 1e-9


def test_zscore_moment_contract_random():
    rng = np.random.default_rng(11)
    m = matrix(rng.integers(0, 200, (20, 60)))
    out = zscore_rows(m).values
    assert np.abs(out.mean(axis=1)).max() < 1e-9
    assert np.abs(out.std(axis=1) - 1.0).max() < 1e-9


def test_minmax_rows():
    out = minmax_rows(matrix([[2, 4, 6], [0, 0, 0]]))
    assert np.allclose(out.values[0], [1 / 3, 2 / 3, 1.0])
    assert out.values[0].max() == 1.0  # attained exactly
    assert out.values[1].tolist() == [0.0, 0.0, 0.0]


def test_minmax_single_day_row():
    assert minmax_rows(matrix([[7]])).values.tolist() == [[1.0]]


def test_minmax_global():
    out = minmax_global(matrix([[1, 2], [4, 8]]))
    assert out.values.tolist() == [[0.125, 0.25], [0.5, 1.0]]
    single = minmax_global(matrix([[0, 0], [0, 5]]))
    assert single.values.tolist() == [[0.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("scale, name", [(minmax_rows, "minmax_row"), (minmax_global, "minmax_global")])
def test_minmax_rejects_negative_values(scale, name):
    with pytest.raises(ValueError, match=f"^{name} expects non-negative values$"):
        scale(matrix([[1, -1]]))


def test_minmax_global_all_zero_errors():
    with pytest.raises(ValueError, match="all-zero"):
        minmax_global(matrix([[0, 0], [0, 0]]))


def test_outputs_in_unit_interval_and_max_attained():
    rng = np.random.default_rng(2)
    m = matrix(rng.integers(0, 500, (15, 40)))
    for out in (minmax_rows(m), minmax_global(m)):
        assert out.values.min() >= 0.0 and out.values.max() == 1.0


def test_all_techniques_preserve_metadata():
    rng = np.random.default_rng(9)
    m = matrix(rng.integers(1, 90, (5, 12)), populations=[1e5, 2e5, 3e5, 4e5, 5e5])
    for kind in PREPROCESS_KINDS:
        out = apply_preprocess(m, kind)
        assert out.values.shape == m.values.shape
        assert out.region_names == m.region_names
        assert out.dates == m.dates
        assert np.array_equal(out.populations, m.populations)


def test_apply_preprocess_unknown_kind():
    with pytest.raises(ValueError, match="unknown preprocessing kind"):
        apply_preprocess(matrix([[1]]), "log")
