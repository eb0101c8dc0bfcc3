"""Build a synthetic region/day dataset and slice it into fixed windows.

Real epidemic surveillance snapshots are rarely redistributable, so the
toolkit ships a generator that plants a known cluster structure: every
region follows one shared seasonal wave, scaled by its cluster's base level,
plus Poisson counting noise. This script writes the dataset to CSV, reloads
it through the validating loaders, and shows the 30-day windowing.
"""

import tempfile
from pathlib import Path

import numpy as np

from epiclust import generate_fixture, load_epicurves, load_features, split_windows, write_fixture

fixture = generate_fixture(n_regions=25, n_days=120, k_true=3, seed=0)
print(f"planted labels: {fixture.planted_labels.tolist()}")
print(f"cluster sizes:  {np.bincount(fixture.planted_labels).tolist()}")

out_dir = Path(tempfile.mkdtemp(prefix="epiclust_demo_"))
paths = write_fixture(fixture, out_dir)
print(f"\nwrote {', '.join(p.name for p in paths.values())} to {out_dir}")

# the loaders validate shape, date continuity, non-negativity and region joins
m = load_epicurves(paths["epicurves"], paths["populations"])
features = load_features(paths["features"], m)
print(f"reloaded: {m.n_regions} regions x {m.n_days} days, "
      f"{len(features.feature_names)} features")
print(f"dates {m.dates[0]} .. {m.dates[-1]}")

windows = split_windows(m, window_len=30)
# each window is itself an EpicurveMatrix, holding its own 30 dates
print(f"\n{len(windows)} windows of 30 days:")
for i, w in enumerate(windows):
    means = w.values.mean(axis=1)
    print(f"  window {i}: {w.dates[0]} .. {w.dates[-1]}  "
          f"region means {means.min():7.1f} .. {means.max():7.1f}")

print("\nper-cluster mean level in window 0 (the planted signal):")
for c in range(3):
    members = fixture.planted_labels == c
    print(f"  cluster {c}: {windows[0].values[members].mean():8.1f} cases/day "
          f"({members.sum()} regions)")
