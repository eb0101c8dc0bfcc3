"""Which scalar features look like the epidemic clusters, beyond chance?

Each region carries scalar features; clustering a feature's values by exact
1-D k-means (labels ordered by centroid, so label 0 = smallest values) gives a second
partition to compare against the epidemic clusters of each window. The
dissimilarity of that comparison is SM1. A Monte Carlo baseline SM2 repeats
the comparison with 100 random labelings; deviation = SM2 - SM1 is how far
above chance the agreement sits.

The fixture plants four features affine in the cluster id (two of them
decreasing, to exercise the permutation matching) among seven pure-noise
features: the planted ones dominate the deviation ranking in every window.
"""

from epiclust import feature_association, generate_fixture

fixture = generate_fixture(25, 120, 3, seed=0)
report = feature_association(
    fixture.epicurves,
    fixture.features,
    chosen=("none", "kmeans"),
    k=3,
    trials=100,
    seed=0,
)

print(f"technique {report.prep}/{report.algorithm}, k={report.k}, "
      f"{report.window_count} windows, {len(report.feature_names)} features\n")

header = "feature      " + "".join(f"   w{w}: sm1  dev " for w in range(report.window_count))
print(header)
for name in report.feature_names:
    cells = [report.cell(name, w) for w in range(report.window_count)]
    row = "".join(
        f"   {c.baseline.sm1:5.2f} {c.baseline.deviation:+5.2f}" for c in cells
    )
    tag = "planted" if name in fixture.correlated_features else "noise"
    print(f"{name:<12}{row}   ({tag})")

print("\nranking by deviation, per window (planted features should lead):")
for w in range(report.window_count):
    ranked = sorted(
        report.feature_names,
        key=lambda f: report.cell(f, w).baseline.deviation,
        reverse=True,
    )
    print(f"  w{w}: {'  '.join(ranked[:5])} ...")

cell = report.cell(fixture.correlated_features[1], 0)
print(f"\n{fixture.correlated_features[1]} decreases in the cluster id, yet SM1 = "
      f"{cell.baseline.sm1}: the matching found permutation {cell.alignment.permutation}")
