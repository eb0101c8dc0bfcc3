"""Readers of the CSV reports the CLI writes, for the tests that check them."""

import csv

from epiclust.cli import ASSOCIATION_HEADER
from epiclust.ingest import _read_table

ASSOCIATION_TYPES = dict(zip(ASSOCIATION_HEADER, (str, int, float, float, float, float)))


def read_matrix_csv(path):
    """Re-parse a window-by-window cost CSV, as ``stability`` writes it."""
    header, row_labels, values = _read_table(path, "column")
    return row_labels, header[1:], values


def read_association_csv(path):
    """Re-parse association.csv into a list of row dicts with typed values."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ASSOCIATION_HEADER, f"{path}: header {reader.fieldnames}"
        return [{key: ASSOCIATION_TYPES[key](cell) for key, cell in row.items()} for row in reader]
