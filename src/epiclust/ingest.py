"""Loading, validation and windowing of region time-series and feature tables.

Input formats (all UTF-8 CSV, LF or CRLF, ``"`` quoting as in RFC 4180, no
blank lines, values as plain decimal numbers):
  - epicurve table:   ``region,<ISO date>,<ISO date>,...`` one row per region
  - population table: ``region,population``
  - feature table:    ``region,<feature name>,...`` one row per region

One parser reads all three, and one join matches populations and features
to the epicurve regions. Validation is strict: malformed or non-finite
cells, non-integer or non-positive populations, duplicate regions, gaps in
the date axis and negative counts are hard errors; a bad cell is named by
file, row and column. Nothing is imputed. ``split_windows`` cuts a matrix
into fixed-length windows, each an ``EpicurveMatrix`` over its own dates.
"""

from __future__ import annotations

import csv
import datetime
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


class IngestError(ValueError):
    """An input table failed validation; the message names the location."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EpicurveMatrix:
    """Daily case counts for a set of regions over a contiguous date range.

    ``values`` has shape (n_regions, n_days); row i is the epicurve of
    ``region_names[i]``. ``populations`` (persons, optional) is aligned with
    ``region_names``. Non-negativity is enforced at load time only, so
    preprocessed derivatives (e.g. z-scores) remain valid instances.
    """

    region_names: tuple[str, ...]
    dates: tuple[datetime.date, ...]
    values: np.ndarray
    populations: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise IngestError(f"values must be 2-D, got shape {values.shape}")
        n_regions, n_days = values.shape
        if len(self.region_names) != n_regions:
            raise IngestError(
                f"{len(self.region_names)} region names for {n_regions} value rows"
            )
        if len(self.dates) != n_days:
            raise IngestError(f"{len(self.dates)} dates for {n_days} value columns")
        if n_regions == 0 or n_days == 0:
            raise IngestError("matrix must have at least one region and one day")
        _reject_names(self.region_names, "region", lambda i, problem: IngestError(problem))
        for prev, cur in zip(self.dates, self.dates[1:]):
            if (cur - prev).days != 1:
                raise IngestError(f"non-consecutive dates: {prev} followed by {cur}")
        object.__setattr__(self, "values", _freeze(values))
        if self.populations is not None:
            pops = np.asarray(self.populations, dtype=np.int64)
            if pops.shape != (n_regions,):
                raise IngestError(
                    f"populations shape {pops.shape} does not match {n_regions} regions"
                )
            bad = np.nonzero(pops <= 0)[0]
            if bad.size:
                raise IngestError(
                    f"non-positive population for region {self.region_names[bad[0]]!r}"
                )
            object.__setattr__(self, "populations", _freeze(pops))

    @property
    def n_regions(self) -> int:
        return self.values.shape[0]

    @property
    def n_days(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "EpicurveMatrix":
        """Same regions/dates/populations, new value matrix (same shape)."""
        if np.shape(values) != self.values.shape:
            raise IngestError(
                f"replacement values shape {np.shape(values)} != {self.values.shape}"
            )
        return replace(self, values=np.asarray(values, dtype=float))


@dataclass(frozen=True)
class FeatureTable:
    """Scalar per-region features, row-aligned with a paired EpicurveMatrix."""

    region_names: tuple[str, ...]
    feature_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.region_names), len(self.feature_names)):
            raise IngestError(
                f"feature values shape {values.shape} does not match "
                f"{len(self.region_names)} regions x {len(self.feature_names)} features"
            )
        _reject_names(self.feature_names, "feature", lambda j, problem: IngestError(problem))
        if np.isnan(values).any():
            r, c = np.argwhere(np.isnan(values))[0]
            raise IngestError(
                f"missing value for region {self.region_names[r]!r}, "
                f"feature {self.feature_names[c]!r}"
            )
        object.__setattr__(self, "values", _freeze(values))

    def column(self, feature: str) -> np.ndarray:
        return self.values[:, self.feature_names.index(feature)]


def _cell_error(path, i, j, problem) -> IngestError:
    return IngestError(f"{path}: {problem} at row {i}, column {j}")


def _reject_cells(path, bad, describe) -> None:
    """Raise for the first True cell of the mask ``bad`` over a table's values."""
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise _cell_error(path, r + 2, c + 2, describe(r, c))


def _read_table(path, column, dtype=float):
    """Parse a ``region,<column>,...`` CSV into (header, region names, values).

    ``header`` holds every stripped header cell, the region column's
    included; ``values`` has one row per data row. The header line is read
    with ``csv``; the body in one streaming pass of ``np.loadtxt`` (numpy's C
    tokenizer and number parser, ``"`` quoting as in RFC 4180) that also
    counts its lines. ``loadtxt`` skips blank lines and sizes its rows by the
    first one, so a body whose record count differs from its line count, or
    whose width differs from the header's, is refused too. Whatever the C
    reader refuses goes to ``_locate`` for an error that names the row or
    cell; a file that is not UTF-8 is refused by ``_not_utf8`` first.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"input file not found: {path}")
    names, n_lines = [], 0

    def name(cell):
        names.append(cell.strip())
        return 0

    def body(fh):
        nonlocal n_lines
        for line in fh:
            n_lines += 1
            yield line

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None:
                raise IngestError(f"{path}: file is empty")
            if len(header) < 2:
                raise IngestError(
                    f"{path}: header must hold a region column and at least one {column}"
                )
            header = [c.strip() for c in header]
            try:
                with warnings.catch_warnings():
                    # Some numpy releases parse an integer cell such as "2.5" via
                    # float and truncate it, with only this warning: refuse it.
                    warnings.filterwarnings(
                        "error", r"loadtxt\(\): Parsing an integer via a float", DeprecationWarning
                    )
                    # An empty or blank body reads as no data; the shape check names a blank one.
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    table = np.loadtxt(
                        body(fh), dtype=dtype, comments=None, delimiter=",", converters={0: name},
                        ndmin=2, encoding="utf-8", quotechar='"',
                    )
            except ValueError as exc:
                raise _locate(path, column, header, dtype, exc) from None
    except (IngestError, UnicodeDecodeError) as exc:
        raise _not_utf8(path) or exc from None
    # as many records as lines, when no record is blank or spans lines
    if n_lines and table.shape != (n_lines, len(header)):
        raise _locate(path, column, header, dtype, "a blank line or a line break in a cell")
    values = table[:, 1:] if n_lines else np.empty((0, len(header) - 1), dtype=dtype)
    if values.dtype.kind == "f":
        _reject_cells(path, ~np.isfinite(values), lambda r, c: f"non-finite value {values[r, c]}")
    return header, names, values


def _not_utf8(path) -> IngestError | None:
    """The error for a file that does not decode as UTF-8, naming its first
    bad line, or None when it decodes.

    A line break byte is never part of a multi-byte UTF-8 character, so the
    file decodes exactly when each of its lines does."""
    with open(path, "rb") as fh:
        for i, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return IngestError(
                    f"{path}: line {i} is not UTF-8 text: {exc.reason} at byte {exc.start + 1}"
                )
    return None


def _locate(path, column, header, dtype, refusal) -> IngestError:
    """The error for a table body that ``_read_table`` refused, naming its first bad row or cell.

    Rows are scanned with ``csv`` and each value cell is converted by
    Python's own ``float`` or ``int``; the first row of the wrong width, or
    cell those refuse, is named. Python also reads some cells ``loadtxt``
    refuses (see ``_unplain_cell``): the first is named only when no other
    fault is found, and a body with neither is reported with ``refusal``.
    """
    out = np.empty(len(header) - 1, dtype=dtype)
    refused = None
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for i, row in enumerate(rows, start=2):
            if len(row) != len(header):
                return IngestError(
                    f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
                )
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
            refused = refused or _unplain_cell(path, column, row, i)
    return refused or IngestError(f"{path}: not a plain CSV table: {refusal}")


def _unplain_cell(path, column, row, i) -> IngestError | None:
    """The error for the first cell of data row ``i`` that Python reads but ``loadtxt``
    refuses: a line break inside a quoted cell, digit separators or non-ASCII digits."""
    for j, cell in enumerate(row, start=1):
        if "\n" in cell or "\r" in cell:
            return _cell_error(path, i, j, f"line break in cell {cell!r}")
        if j > 1 and ("_" in cell or not cell.strip().isascii()):
            return _cell_error(path, i, j, f"{column} {cell!r} is not a plain decimal number")
    return None


def _reject_names(names, kind, error) -> None:
    """Raise ``error(i, problem)`` for the first empty or repeated name
    ``names[i]``, a ``kind`` name, if there is one."""
    seen = set()
    for i, name in enumerate(names):
        if not name:
            raise error(i, f"empty {kind} name")
        if name in seen:
            raise error(i, f"duplicate {kind}: {name!r}")
        seen.add(name)


def _row_of(path, names) -> dict:
    """Map each region name to its data row; an empty or repeated name is an error."""
    _reject_names(names, "region", lambda i, problem: _cell_error(path, i + 2, 1, problem))
    return {name: i for i, name in enumerate(names)}


def _join_regions(path, names, values, region_names) -> np.ndarray:
    """Reorder the rows of ``values``, one per ``names``, to follow ``region_names``.

    Each table must name every region exactly once.
    """
    row_of = _row_of(path, names)
    missing = [n for n in region_names if n not in row_of]
    known = set(region_names)
    extra = [n for n in names if n not in known]
    if missing or extra:
        raise IngestError(
            f"{path}: region mismatch with epicurve table"
            + (f"; absent: {missing}" if missing else "")
            + (f"; unknown: {extra}" if extra else "")
        )
    return values[[row_of[n] for n in region_names]]


def load_epicurves(path, population_path=None) -> EpicurveMatrix:
    """Read an epicurve CSV (and optional population CSV) into a validated matrix.

    Heads: first header cell is the region-name column, the rest are ISO
    dates. Raises IngestError naming the row/column for any malformed,
    non-numeric, negative or out-of-order content.
    """
    header, names, values = _read_table(path, "date")
    dates = []
    for j, cell in enumerate(header[1:], start=2):
        try:
            dates.append(datetime.date.fromisoformat(cell))
        except ValueError:
            raise IngestError(
                f"{path}: header column {j} is not an ISO date: {cell!r}"
            ) from None
    _reject_cells(path, values < 0, lambda r, c: f"negative count {values[r, c]}")
    _row_of(path, names)  # an empty or duplicate region fails here, named by its row

    populations = None
    if population_path is not None:
        populations = _load_populations(population_path, names)
    return EpicurveMatrix(tuple(names), tuple(dates), values, populations)


def _load_populations(path, region_names) -> np.ndarray:
    header, names, values = _read_table(path, "population", np.int64)
    if [c.lower() for c in header] != ["region", "population"]:
        raise IngestError(f"{path}: expected header 'region,population'")
    _reject_cells(
        path,
        values <= 0,
        lambda r, c: f"non-positive population {values[r, c]} for region {names[r]!r}",
    )
    return _join_regions(path, names, values, region_names)[:, 0]


def load_features(path, epicurves: EpicurveMatrix) -> FeatureTable:
    """Read a feature CSV and reorder its rows to match ``epicurves``.

    The join is by exact region name (case-sensitive). Any region present in
    only one of the two tables, any empty/non-numeric cell, and an empty or
    repeated feature name (named by its header column) are errors.
    """
    header, names, values = _read_table(path, "feature")
    _reject_names(header[1:], "feature",
                  lambda j, problem: IngestError(f"{path}: {problem} at header column {j + 2}"))
    values = _join_regions(path, names, values, epicurves.region_names)
    return FeatureTable(epicurves.region_names, tuple(header[1:]), values)


def split_windows(m: EpicurveMatrix, window_len: int = 30) -> list[EpicurveMatrix]:
    """Cut the date axis into disjoint consecutive windows of ``window_len`` days.

    Each window is an EpicurveMatrix over its own dates. Trailing days that do
    not fill a whole window are dropped with a warning.
    """
    if window_len < 1:
        raise ValueError(f"window_len must be positive, got {window_len}")
    if m.n_days < window_len:
        raise ValueError(
            f"series of {m.n_days} days is shorter than one window of {window_len}"
        )
    count = m.n_days // window_len
    dropped = m.n_days - count * window_len
    if dropped:
        warnings.warn(
            f"dropping {dropped} trailing day(s) that do not fill a "
            f"{window_len}-day window",
            stacklevel=2,
        )
    spans = [(lo, lo + window_len) for lo in range(0, count * window_len, window_len)]
    return [
        EpicurveMatrix(m.region_names, m.dates[lo:hi], m.values[:, lo:hi], m.populations)
        for lo, hi in spans
    ]


def _write_table(path, header, names, values) -> None:
    """Write ``header``, then one ``name,<repr of each value>`` row per name."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for name, row in zip(names, values):
            writer.writerow([name, *map(repr, row.tolist())])


def write_epicurves(m: EpicurveMatrix, path) -> None:
    """Write the matrix in the epicurve CSV format. Round-trips exactly."""
    _write_table(path, ["region", *(d.isoformat() for d in m.dates)], m.region_names, m.values)


def write_populations(m: EpicurveMatrix, path) -> None:
    if m.populations is None:
        raise ValueError("matrix carries no populations")
    _write_table(path, ["region", "population"], m.region_names, m.populations[:, None])


def write_features(t: FeatureTable, path) -> None:
    _write_table(path, ["region", *t.feature_names], t.region_names, t.values)
