"""Row-wise and global scaling of epicurve matrices.

Five techniques, selectable by name:

  none           identity (the raw counts)
  population     cases per million persons: row * 1e6 / population
  zscore         per-row standardisation to mean 0, std 1 (population std)
  minmax_row     each row divided by its own maximum
  minmax_global  whole matrix divided by its global maximum

All techniques preserve shape, region names, dates and populations. A
constant row under ``zscore`` maps to all zeros instead of erroring: an
all-zero epicurve (a region with no cases) is a legitimate input.
"""

from __future__ import annotations

import numpy as np

from .ingest import EpicurveMatrix

PREPROCESS_KINDS = ("none", "population", "zscore", "minmax_row", "minmax_global")


def population_normalize(m: EpicurveMatrix) -> EpicurveMatrix:
    """Scale each row to cases per million persons of that region."""
    if m.populations is None:
        raise ValueError("population normalization requires per-region populations")
    scale = 1e6 / m.populations.astype(float)
    return m.with_values(m.values * scale[:, None])


def zscore_rows(m: EpicurveMatrix) -> EpicurveMatrix:
    """Standardise each row to mean 0 and (population) std 1.

    Rows with zero variance become all zeros.
    """
    means = m.values.mean(axis=1, keepdims=True)
    stds = m.values.std(axis=1, keepdims=True)
    centered = m.values - means
    out = np.divide(centered, stds, out=np.zeros_like(centered), where=stds > 0)
    return m.with_values(out)


def minmax_rows(m: EpicurveMatrix) -> EpicurveMatrix:
    """Divide each row by its own maximum so non-zero rows peak at exactly 1."""
    if (m.values < 0).any():
        raise ValueError("minmax_row expects non-negative values")
    maxes = m.values.max(axis=1, keepdims=True)
    out = np.divide(m.values, maxes, out=m.values.copy(), where=maxes > 0)
    return m.with_values(out)


def minmax_global(m: EpicurveMatrix) -> EpicurveMatrix:
    """Divide the whole matrix by its global maximum."""
    if (m.values < 0).any():
        raise ValueError("minmax_global expects non-negative values")
    top = m.values.max()
    if top <= 0:
        raise ValueError("minmax_global is undefined for an all-zero matrix")
    return m.with_values(m.values / top)


_TECHNIQUES = {
    "none": lambda m: m,
    "population": population_normalize,
    "zscore": zscore_rows,
    "minmax_row": minmax_rows,
    "minmax_global": minmax_global,
}


def apply_preprocess(m: EpicurveMatrix, kind: str) -> EpicurveMatrix:
    """Apply a technique by name to an EpicurveMatrix."""
    if kind not in _TECHNIQUES:
        raise ValueError(f"unknown preprocessing kind {kind!r}; expected one of {PREPROCESS_KINDS}")
    return _TECHNIQUES[kind](m)
