"""Synthetic region/day fixtures with a planted cluster structure.

The real surveillance and census snapshots behind this kind of study are not
redistributable, so the toolkit ships a generator instead. Cluster identity
is carried by the epicurve mean level: every region follows one shared
seasonal shape scaled by its cluster's base level (plus Poisson noise and a
small static per-region factor), so clustering the raw windows recovers the
planted partition, while z-scoring wipes the level signal out and leaves
only noise-driven, time-unstable clusters.

The feature table mixes correlated columns (affine in the planted cluster
id, alternating slope sign, small noise) with independent-noise columns.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import (
    EpicurveMatrix,
    FeatureTable,
    write_epicurves,
    write_features,
    write_populations,
)

START_DATE = datetime.date(2020, 11, 15)


@dataclass(frozen=True)
class Fixture:
    """A generated dataset plus the ground truth it was planted with."""

    epicurves: EpicurveMatrix
    features: FeatureTable
    planted_labels: np.ndarray
    correlated_features: tuple[str, ...]
    noise_features: tuple[str, ...]
    seed: int


def generate_fixture(
    n_regions: int = 25,
    n_days: int = 120,
    k_true: int = 3,
    seed: int = 0,
    *,
    n_correlated: int = 4,
    n_noise: int = 7,
    start_date: datetime.date = START_DATE,
) -> Fixture:
    """Build a fixture with ``k_true`` mean-separated planted clusters.

    Cluster base levels are equally spaced, far above both the Poisson noise
    scale and the per-region level jitter, so the partition is unambiguous on
    raw counts. Populations are drawn independently of the clusters.
    """
    if n_regions < k_true:
        raise ValueError(f"n_regions={n_regions} is below k_true={k_true}")
    if k_true < 1 or n_days < 1:
        raise ValueError("k_true and n_days must be positive")
    if min(n_correlated, n_noise) < 0 or n_correlated + n_noise < 1:
        raise ValueError("feature counts must be at least 0, with at least one feature; got "
                         f"n_correlated={n_correlated}, n_noise={n_noise}")
    rng = np.random.default_rng(seed)
    planted = rng.permutation(np.arange(n_regions) % k_true)

    levels = 100.0 + 600.0 * np.arange(k_true)
    t = np.arange(n_days)
    shape = 1.0 + 0.25 * np.sin(2.0 * np.pi * t / 45.0)  # one shared wave
    region_scale = rng.uniform(0.99, 1.01, size=n_regions)
    lam = levels[planted][:, None] * region_scale[:, None] * shape[None, :]
    cases = rng.poisson(lam).astype(float)

    populations = rng.integers(200_000, 2_500_000, size=n_regions)
    region_names = tuple(f"region_{i:02d}" for i in range(n_regions))
    dates = tuple(start_date + datetime.timedelta(days=int(d)) for d in range(n_days))
    epicurves = EpicurveMatrix(region_names, dates, cases, populations)

    columns, names = [], []
    for j in range(n_correlated):
        slope = (120.0 + 40.0 * j) * (1 if j % 2 == 0 else -1)
        base = 500.0 + 100.0 * j
        noise = rng.normal(0.0, 0.03 * abs(slope), size=n_regions)
        columns.append(base + slope * planted + noise)
        names.append(f"corr_{j + 1}")
    for j in range(n_noise):
        columns.append(rng.normal(100.0, 30.0, size=n_regions))
        names.append(f"noise_{j + 1}")
    features = FeatureTable(region_names, tuple(names), np.column_stack(columns))

    return Fixture(
        epicurves,
        features,
        planted,
        tuple(names[:n_correlated]),
        tuple(names[n_correlated:]),
        seed,
    )


def write_fixture(fixture: Fixture, out_dir) -> dict[str, Path]:
    """Write epicurves.csv, populations.csv, features.csv and truth.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "epicurves": out_dir / "epicurves.csv",
        "populations": out_dir / "populations.csv",
        "features": out_dir / "features.csv",
        "truth": out_dir / "truth.json",
    }
    write_epicurves(fixture.epicurves, paths["epicurves"])
    write_populations(fixture.epicurves, paths["populations"])
    write_features(fixture.features, paths["features"])
    truth = {
        "schema_version": "1",
        "seed": fixture.seed,
        "planted_labels": {
            name: int(label)
            for name, label in zip(
                fixture.epicurves.region_names, fixture.planted_labels
            )
        },
        "correlated_features": list(fixture.correlated_features),
        "noise_features": list(fixture.noise_features),
    }
    paths["truth"].write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")
    return paths
