"""Loading, validation, windowing and CSV round-trips."""

import csv
import datetime
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from epiclust.cli import main
from epiclust.ingest import (
    EpicurveMatrix,
    IngestError,
    _cell_error,
    _read_table,
    _reject_cells,
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


def test_load_epicurves_row_wider_than_header(tmp_path):
    path = tmp_path / "epi.csv"
    for lines, row in ((["a,1,2,3", "b,3,4"], 2), (["a,1,2", "b,3,4,5"], 3)):
        write_csv(path, ["region,2020-11-15,2020-11-16", *lines])
        with pytest.raises(IngestError, match=f"row {row} has 4 cells, expected 3"):
            load_epicurves(path)


def test_load_epicurves_blank_line_named(tmp_path):
    path = tmp_path / "epi.csv"
    for lines, row in ((["a,1,2", "", "b,3,4"], 3), (["a,1,2", "b,3,4", ""], 4)):
        write_csv(path, ["region,2020-11-15,2020-11-16", *lines])
        with pytest.raises(IngestError, match=f"row {row} has 0 cells, expected 3"):
            load_epicurves(path)


# --- the reader against the csv reader it replaced ------------------------------
# _reference_read_table and _reference_bad_cell are the earlier reader, kept
# verbatim: csv.reader splits each row and numpy converts each cell with
# Python's own float or int. _read_table must return what it returns, or raise
# the same IngestError, except on the inputs it refuses by design (below).


def _reference_read_table(path, column, dtype=float):
    """Parse a ``region,<column>,...`` CSV into (header, region names, values).

    ``header`` holds every stripped header cell, the region column's
    included; ``values`` has one row per data row. Rows are parsed one at a
    time into a preallocated array, so numpy applies Python's own ``float``
    or ``int`` to each cell; a row is scanned cell by cell only when it
    fails, to name the bad cell.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        n_lines = sum(1 for _ in fh)  # at least the number of CSV records
        fh.seek(0)
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            raise IngestError(f"{path}: file is empty")
        if len(header) < 2:
            raise IngestError(
                f"{path}: header must hold a region column and at least one {column}"
            )
        header = [c.strip() for c in header]
        names = []
        values = np.empty((n_lines - 1, len(header) - 1), dtype=dtype)
        for i, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise IngestError(
                    f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
                )
            names.append(row[0].strip())
            try:
                values[i - 2] = row[1:]
            except (ValueError, OverflowError):
                raise _reference_bad_cell(path, column, header, row, i, values[i - 2]) from None
    values = values[: len(names)]
    if values.dtype.kind == "f":
        _reject_cells(path, ~np.isfinite(values), lambda r, c: f"non-finite value {values[r, c]}")
    return header, names, values


def _reference_bad_cell(path, column, header, row, i, out) -> IngestError:
    """The error for the first cell of data row ``i`` that ``out`` cannot hold."""
    for j, cell in enumerate(row[1:], start=2):
        try:
            out[j - 2] = cell
        except OverflowError:
            return _cell_error(path, i, j, f"{column} {cell!r} out of range")
        except ValueError:
            if not cell.strip():
                problem = (
                    f"missing value for region {row[0].strip()!r}, "
                    f"{column} {header[j - 1]!r}"
                )
            elif out.dtype.kind == "i":
                problem = f"non-integer {column} {cell!r}"
            else:
                problem = f"non-numeric value {cell!r}"
            return _cell_error(path, i, j, problem)


def _outcome(read, path, dtype):
    """What ``read`` makes of ``path``: the IngestError message, or the parsed table."""
    try:
        header, names, values = read(path, "column", dtype)
    except IngestError as exc:
        return str(exc)
    return header, names, values.dtype, values.shape, values.tobytes()


NAMES = ["Colombo", "Kandy, Central", 'Galle "Fort"', "Nuwara Eliya", "යාපනය", "Trincomalee"]


def _number(rng, dtype):
    """One value cell's text, in one of the forms a table may hold."""
    if dtype is np.int64:
        forms = [
            lambda: str(int(rng.integers(-10**6, 10**6))),
            lambda: str(int(rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max))),
            lambda: f"+{int(rng.integers(0, 99))}",
            lambda: f"00{int(rng.integers(0, 99))}",
        ]
    else:
        forms = [
            lambda: repr(float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))),
            lambda: repr(float(rng.integers(0, 1000))),
            lambda: f"{rng.standard_normal():.3e}",
            lambda: f"{rng.random():.25f}",
            lambda: str(int(rng.integers(-50, 50))),
            lambda: rng.choice(["-0.0", "1E5", ".5", "5.", "+3", "-2e-308", "1e308"]),
        ]
    return forms[rng.integers(len(forms))]()


def _cell(rng, text):
    """``text`` as one CSV cell: quoted when it has to be and sometimes when
    it need not be; space-padded sometimes when unquoted."""
    if any(c in text for c in ',"\r\n') or rng.random() < 0.1:
        return '"' + text.replace('"', '""') + '"'
    return " " * rng.integers(0, 2) + text + " " * rng.integers(0, 2)


def _random_table(rng, dtype):
    """(header, rows) of a well-formed table with 1 to 300 value columns; a
    header cell may hold a line break."""
    d, n = int(rng.integers(1, 301)), int(rng.integers(1, 9))
    header = ["region", *(f"c{j}" for j in range(d))]
    if rng.random() < 0.2:
        header[-1] = "two\nlines"
    names = [f"{NAMES[rng.integers(len(NAMES))]} {i}" for i in range(n)]
    return header, [[name, *(_number(rng, dtype) for _ in range(d))] for name in names]


def _write_table_text(rng, path, header, rows, newline="\n", final_newline=True):
    lines = [",".join(_cell(rng, c) for c in cells) for cells in [header, *rows]]
    path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode("utf-8"))


@pytest.mark.parametrize("dtype", [float, np.int64], ids=["float", "int64"])
def test_reader_matches_reference_on_well_formed_tables(tmp_path, dtype):
    """LF or CRLF, with or without a final newline, quoted and padded cells."""
    rng = np.random.default_rng(11)
    path = tmp_path / "table.csv"
    for _ in range(40):
        header, rows = _random_table(rng, dtype)
        _write_table_text(rng, path, header, rows, rng.choice(["\n", "\r\n"]), rng.random() < 0.5)
        expected = _outcome(_reference_read_table, path, dtype)
        assert not isinstance(expected, str), expected
        assert _outcome(_read_table, path, dtype) == expected


def test_reader_matches_reference_on_fixture_tables(tmp_path):
    for seed in range(3):
        fix = generate_fixture(30, 60, 3, seed=seed)
        write_epicurves(fix.epicurves, tmp_path / "epi.csv")
        write_populations(fix.epicurves, tmp_path / "pop.csv")
        write_features(fix.features, tmp_path / "feat.csv")
        for name, dtype in (("epi.csv", float), ("pop.csv", np.int64), ("feat.csv", float)):
            expected = _outcome(_reference_read_table, tmp_path / name, dtype)
            assert not isinstance(expected, str), expected
            assert _outcome(_read_table, tmp_path / name, dtype) == expected


def _put_cell(text):
    def fault(rng, rows):
        i = rng.integers(len(rows))
        rows[i][rng.integers(1, len(rows[i]))] = text
        return rows
    return fault


def _copy_name(rng, rows):
    if len(rows) > 1:
        first, i = rng.choice(len(rows), size=2, replace=False)
        rows[i][0] = rows[first][0]
    return rows


def _set_name(rng, rows):
    rows[rng.integers(len(rows))][0] = ""
    return rows


def _widen(at):
    def fault(rng, rows):
        rows[at(rng, rows)].append("1")
        return rows
    return fault


def _narrow(rng, rows):
    rows[rng.integers(len(rows))].pop()
    return rows


def _insert(cells):
    def fault(rng, rows):
        rows.insert(int(rng.integers(len(rows) + 1)), list(cells))
        return rows
    return fault


MALFORMED = {
    # every case of test_bad_cell_named_at_its_row_and_column
    "text": _put_cell("oops"),
    "empty_cell": _put_cell(""),
    "nan": _put_cell("nan"),
    "minus_inf": _put_cell("-inf"),
    "negative": _put_cell("-3"),
    "fraction": _put_cell("2.5"),
    "int64_overflow": _put_cell("9" * 20),
    "zero": _put_cell("0"),
    "duplicate_name": _copy_name,
    "empty_name": _set_name,
    # row widths and blank lines
    "wide_first_row": _widen(lambda rng, rows: 0),
    "wide_later_row": _widen(lambda rng, rows: rng.integers(len(rows))),
    "narrow_row": _narrow,
    "blank_line": _insert([]),
    "spaces_line": _insert(["   "]),
    "header_only": lambda rng, rows: [],
}


@pytest.mark.parametrize("fault", list(MALFORMED))
@pytest.mark.parametrize("dtype", [float, np.int64], ids=["float", "int64"])
def test_reader_matches_reference_on_malformed_tables(tmp_path, dtype, fault):
    rng = np.random.default_rng(sorted(MALFORMED).index(fault))
    path = tmp_path / "table.csv"
    for _ in range(6):
        header, rows = _random_table(rng, dtype)
        rows = MALFORMED[fault](rng, rows)
        _write_table_text(rng, path, header, rows, rng.choice(["\n", "\r\n"]), rng.random() < 0.5)
        assert _outcome(_read_table, path, dtype) == _outcome(_reference_read_table, path, dtype)


@pytest.mark.parametrize(
    "text", ["", "region", "\n", "\r\n\r\n", "region,c", "region,c\r\n", "region,c\n\n"]
)
def test_reader_matches_reference_on_degenerate_files(tmp_path, text):
    """Empty and header-only files, with no numpy warning on the way."""
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    for dtype in (float, np.int64):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(_read_table, path, dtype)
        assert got == _outcome(_reference_read_table, path, dtype)


@pytest.mark.parametrize(
    "row, problem",
    [
        (["a", "1_000"], "column '1_000' is not a plain decimal number at row 3, column 2"),
        (["a", " ١٢ "], "column ' ١٢ ' is not a plain decimal number at row 3, column 2"),
        (["a", "１２"], "column '１２' is not a plain decimal number at row 3, column 2"),
        (['"a\nb"', "1"], "line break in cell 'a\\nb' at row 3, column 1"),
        (["a", '"1\r\n"'], "line break in cell '1\\r\\n' at row 3, column 2"),
    ],
    ids=["digit_separator", "arabic_indic_digits", "fullwidth_digits", "line_break_in_name",
         "line_break_in_value"],
)
def test_reader_refuses_what_python_accepts(tmp_path, row, problem):
    """Python's int, float and csv accept these; loadtxt and the line count do not."""
    path = tmp_path / "table.csv"
    path.write_text("region,c\nz,0\n" + ",".join(row) + "\n", encoding="utf-8", newline="")
    for dtype in (float, np.int64):
        assert not isinstance(_outcome(_reference_read_table, path, dtype), str)
        with pytest.raises(IngestError, match=re.escape(f"{path}: {problem}")):
            _read_table(path, "column", dtype)


def test_unlocated_refusal_names_the_file(tmp_path, monkeypatch, capsys):
    """A refusal the row scan cannot pin is still an IngestError naming the file."""
    path = tmp_path / "epi.csv"
    write_csv(path, ["region,2020-11-15", "a,1", "b,2"])

    def refuse(*args, **kwargs):
        raise ValueError("refused")

    monkeypatch.setattr(np, "loadtxt", refuse)
    with pytest.raises(IngestError, match=f"^{re.escape(str(path))}: not a plain CSV table: refused$"):
        load_epicurves(path)
    assert main(["cluster", "--input", str(path), "--k", "2", "--out", str(tmp_path / "out")]) == 2
    assert str(path) in capsys.readouterr().err
