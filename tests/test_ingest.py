"""Loading, validation, windowing and CSV round-trips."""

import datetime
import re

import numpy as np
import pytest

from epiclust.ingest import (
    EpicurveMatrix,
    IngestError,
    load_epicurves,
    load_features,
    split_windows,
    write_epicurves,
    write_features,
    write_populations,
)
from epiclust.synth import generate_fixture

D0 = datetime.date(2020, 11, 15)


def make_matrix(n_regions=3, n_days=5, start=D0, populations=None, seed=0):
    rng = np.random.default_rng(seed)
    return EpicurveMatrix(
        tuple(f"r{i}" for i in range(n_regions)),
        tuple(start + datetime.timedelta(days=d) for d in range(n_days)),
        rng.integers(0, 50, size=(n_regions, n_days)).astype(float),
        populations,
    )


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_load_epicurves_well_formed(tmp_path):
    fix = generate_fixture(25, 120, 3, seed=0)
    path = tmp_path / "epi.csv"
    write_epicurves(fix.epicurves, path)
    m = load_epicurves(path)
    assert m.values.shape == (25, 120)
    assert m.region_names == fix.epicurves.region_names
    assert m.dates == fix.epicurves.dates


def test_load_epicurves_negative_cell_named(tmp_path):
    path = tmp_path / "epi.csv"
    write_csv(path, ["region,2020-11-15,2020-11-16", "a,1,2", "b,3,-4"])
    with pytest.raises(IngestError, match=r"negative count .* row 3, column 3"):
        load_epicurves(path)


def test_load_epicurves_non_consecutive_dates(tmp_path):
    path = tmp_path / "epi.csv"
    write_csv(path, ["region,2020-11-15,2020-11-17", "a,1,2"])
    with pytest.raises(IngestError, match="non-consecutive dates"):
        load_epicurves(path)


def test_load_epicurves_non_numeric_cell(tmp_path):
    path = tmp_path / "epi.csv"
    write_csv(path, ["region,2020-11-15,2020-11-16", "a,1,oops"])
    with pytest.raises(IngestError, match=r"non-numeric value 'oops' at row 2, column 3"):
        load_epicurves(path)


def test_load_epicurves_duplicate_region(tmp_path):
    path = tmp_path / "epi.csv"
    write_csv(path, ["region,2020-11-15", "a,1", "a,2"])
    with pytest.raises(IngestError, match="duplicate region"):
        load_epicurves(path)


def test_load_epicurves_ragged_row(tmp_path):
    path = tmp_path / "epi.csv"
    write_csv(path, ["region,2020-11-15,2020-11-16", "a,1"])
    with pytest.raises(IngestError, match="row 2 has 2 cells"):
        load_epicurves(path)


def test_load_epicurves_missing_file(tmp_path):
    with pytest.raises(IngestError, match="not found"):
        load_epicurves(tmp_path / "nope.csv")


def test_load_epicurves_crlf(tmp_path):
    path = tmp_path / "epi.csv"
    path.write_bytes(b"region,2020-11-15,2020-11-16\r\na,1,2\r\nb,3,4\r\n")
    m = load_epicurves(path)
    assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_populations_attached_and_validated(tmp_path):
    epi, pop = tmp_path / "epi.csv", tmp_path / "pop.csv"
    write_csv(epi, ["region,2020-11-15", "a,1", "b,2"])
    write_csv(pop, ["region,population", "b,1000", "a,2000"])
    m = load_epicurves(epi, pop)
    assert m.populations.tolist() == [2000, 1000]  # reordered to region order

    write_csv(pop, ["region,population", "a,2000"])
    with pytest.raises(IngestError, match="region mismatch.*'b'"):
        load_epicurves(epi, pop)

    write_csv(pop, ["region,population", "a,2000", "b,0"])
    with pytest.raises(IngestError, match="non-positive population.*'b'"):
        load_epicurves(epi, pop)


def test_load_features_join_by_name(tmp_path):
    epi, feat = tmp_path / "epi.csv", tmp_path / "feat.csv"
    write_csv(epi, ["region,2020-11-15", "a,1", "b,2", "c,3"])
    write_csv(feat, ["region,f1,f2", "c,30,31", "a,10,11", "b,20,21"])
    m = load_epicurves(epi)
    t = load_features(feat, m)
    assert t.region_names == ("a", "b", "c")
    assert t.feature_names == ("f1", "f2")
    assert t.values.tolist() == [[10, 11], [20, 21], [30, 31]]


def test_load_features_region_mismatch(tmp_path):
    epi, feat = tmp_path / "epi.csv", tmp_path / "feat.csv"
    write_csv(epi, ["region,2020-11-15", "a,1", "b,2"])
    write_csv(feat, ["region,f1", "a,10"])
    m = load_epicurves(epi)
    with pytest.raises(IngestError, match="region mismatch.*absent: \\['b'\\]"):
        load_features(feat, m)


def test_load_features_missing_value(tmp_path):
    epi, feat = tmp_path / "epi.csv", tmp_path / "feat.csv"
    write_csv(epi, ["region,2020-11-15", "a,1", "b,2"])
    write_csv(feat, ["region,Population,f2", "a,10,11", "b,,21"])
    m = load_epicurves(epi)
    with pytest.raises(IngestError, match="missing value for region 'b', feature 'Population'"):
        load_features(feat, m)


@pytest.mark.parametrize(
    "table, cell, problem",
    [
        ("epicurves", "oops", "non-numeric value 'oops'"),
        ("epicurves", "", "missing value for region {region!r}, date {column!r}"),
        ("epicurves", "nan", "non-finite value nan"),
        ("epicurves", "-inf", "non-finite value -inf"),
        ("epicurves", "-3", "negative count -3.0"),
        ("epicurves", None, "duplicate region: {region!r}"),
        ("populations", "2.5", "non-integer population '2.5'"),
        ("populations", "9" * 20, f"population '{'9' * 20}' out of range"),
        ("populations", "0", "non-positive population 0 for region {region!r}"),
        ("populations", "-5", "non-positive population -5 for region {region!r}"),
        ("features", None, "duplicate region: {region!r}"),
        ("populations", None, "duplicate region: {region!r}"),
        ("epicurves", "", "empty region name"),
        ("populations", "", "empty region name"),
        ("features", "", "empty region name"),
    ],
    ids=["epi_text", "epi_empty", "epi_nan", "epi_inf", "epi_negative", "epi_duplicate",
         "pop_fraction", "pop_overflow", "pop_zero", "pop_negative", "feat_duplicate",
         "pop_duplicate", "epi_empty_name", "pop_empty_name", "feat_empty_name"],
)
def test_bad_cell_named_at_its_row_and_column(tmp_path, table, cell, problem):
    """One bad cell at random places.

    ``None`` copies a region name from another row; "empty region name" cases
    blank a region-name cell.
    """
    fix = generate_fixture(8, 10, 2, seed=0)
    paths = {name: tmp_path / f"{name}.csv" for name in ("epicurves", "populations", "features")}
    rng = np.random.default_rng(len(problem))
    for _ in range(6):
        write_epicurves(fix.epicurves, paths["epicurves"])
        write_populations(fix.epicurves, paths["populations"])
        write_features(fix.features, paths["features"])
        lines = [line.split(",") for line in paths[table].read_text().splitlines()]
        if cell is None:
            first, i = sorted(rng.choice(np.arange(1, len(lines)), size=2, replace=False))
            j = 0
            region = lines[first][0] = lines[i][0]
        elif problem == "empty region name":
            i, j = rng.integers(1, len(lines)), 0
            lines[i][j] = region = cell
        else:
            i, j = rng.integers(1, len(lines)), rng.integers(1, len(lines[0]))
            lines[i][j], region = cell, lines[i][0]
        write_csv(paths[table], [",".join(cells) for cells in lines])
        expected = problem.format(region=region, column=lines[0][j])
        with pytest.raises(IngestError, match=re.escape(f"{expected} at row {i + 1}, column {j + 1}")):
            m = load_epicurves(paths["epicurves"], paths["populations"])
            load_features(paths["features"], m)


def test_load_features_row_permutation_invariance(tmp_path):
    fix = generate_fixture(10, 40, 2, seed=3)
    epi = tmp_path / "epi.csv"
    write_epicurves(fix.epicurves, epi)
    m = load_epicurves(epi)

    base = tmp_path / "f0.csv"
    write_features(fix.features, base)
    reference = load_features(base, m)
    lines = base.read_text().splitlines()
    rng = np.random.default_rng(0)
    for trial in range(5):
        order = rng.permutation(len(lines) - 1)
        shuffled = tmp_path / f"f{trial + 1}.csv"
        write_csv(shuffled, [lines[0]] + [lines[1 + i] for i in order])
        got = load_features(shuffled, m)
        assert got.region_names == reference.region_names
        assert np.array_equal(got.values, reference.values)


def test_split_windows_counts_and_coverage():
    m = make_matrix(4, 120)
    windows = split_windows(m, 30)
    assert len(windows) == 4
    stitched = np.hstack([w.values for w in windows])
    assert np.array_equal(stitched, m.values)
    assert windows[0].dates[0] == m.dates[0]
    assert windows[3].dates[-1] == m.dates[119]
    assert [w.dates for w in windows] == [m.dates[lo : lo + 30] for lo in (0, 30, 60, 90)]


def test_split_windows_exact_division_no_warning(recwarn):
    windows = split_windows(make_matrix(3, 60), 30)
    assert len(windows) == 2
    assert not recwarn.list


def test_split_windows_drops_trailing_day():
    # 15 Nov 2020 .. 15 Mar 2021 inclusive is 121 days
    m = make_matrix(3, 121)
    assert m.dates[-1] == datetime.date(2021, 3, 15)
    with pytest.warns(UserWarning, match="dropping 1 trailing day"):
        windows = split_windows(m, 30)
    assert len(windows) == 4
    stitched = np.hstack([w.values for w in windows])
    assert np.array_equal(stitched, m.values[:, :120])


def test_split_windows_too_short():
    with pytest.raises(ValueError, match="shorter than one window"):
        split_windows(make_matrix(3, 10), 30)


def test_epicurve_roundtrip(tmp_path):
    m = make_matrix(6, 45, populations=np.array([10, 20, 30, 40, 50, 60]))
    epi, pop = tmp_path / "epi.csv", tmp_path / "pop.csv"
    write_epicurves(m, epi)
    write_populations(m, pop)
    back = load_epicurves(epi, pop)
    assert back.region_names == m.region_names
    assert back.dates == m.dates
    assert np.array_equal(back.values, m.values)
    assert np.array_equal(back.populations, m.populations)


def test_feature_roundtrip(tmp_path):
    fix = generate_fixture(8, 30, 2, seed=1)
    path = tmp_path / "feat.csv"
    write_features(fix.features, path)
    back = load_features(path, fix.epicurves)
    assert back.feature_names == fix.features.feature_names
    assert np.array_equal(back.values, fix.features.values)


def test_matrix_invariants_enforced():
    with pytest.raises(IngestError, match="non-consecutive"):
        make_matrix(2, 3, start=D0).__class__(
            ("a", "b"),
            (D0, D0 + datetime.timedelta(days=2), D0 + datetime.timedelta(days=3)),
            np.zeros((2, 3)),
        )
    with pytest.raises(IngestError, match="duplicate region"):
        EpicurveMatrix(("a", "a"), (D0,), np.zeros((2, 1)))
    with pytest.raises(IngestError, match="empty region name"):
        EpicurveMatrix(("a", ""), (D0,), np.zeros((2, 1)))
    m = make_matrix()
    with pytest.raises(ValueError):
        m.values[0, 0] = 5.0  # frozen storage
