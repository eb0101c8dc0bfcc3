"""Cluster one window of regions with k-means and with the spectral pipeline.

Shows the pieces the spectral route is made of: Gaussian affinity matrix,
graph Laplacian, its eigenvalue spectrum (connectivity!), the eigengap
suggestion for k, and k-means on the leading eigenvector rows. Labels from
different runs are compared with the permutation-minimised dissimilarity,
since raw label ids are arbitrary.
"""

import numpy as np

from epiclust import (
    KMeansConfig,
    SpectralConfig,
    best_permutation_dissimilarity,
    eigengap_suggest_k,
    generate_fixture,
    kmeans,
    laplacian,
    rbf_affinity,
    spectral_cluster,
    split_windows,
)

fixture = generate_fixture(25, 120, 3, seed=0)
window = split_windows(fixture.epicurves)[0]
points = window.values
truth = fixture.planted_labels

km = kmeans(points, 3, KMeansConfig(seed=0))
print("k-means on the raw 30-day vectors")
print(f"  labels   : {km.labels.tolist()}")
print(f"  inertia  : {km.inertia:.1f}")
print(f"  vs truth : cost {best_permutation_dissimilarity(km.labels, truth, 3).cost}")

# the spectral route, spelled out: a bandwidth at the noise scale makes the
# planted level gaps disconnect the affinity graph into three components
sigma = 200.0
w = rbf_affinity(points, sigma=sigma)
lap = laplacian(w, "unnormalized")
spectrum = np.linalg.eigvalsh(lap)
print(f"\nspectral route with sigma={sigma}")
print(f"  smallest Laplacian eigenvalues: {np.round(spectrum[:6], 6).tolist()}")
print(f"  zero eigenvalues (= connected components): {(spectrum < 1e-9).sum()}")
print(f"  eigengap suggestion for k: {eigengap_suggest_k(spectrum, k_max=8)}")

sp = spectral_cluster(points, 3, SpectralConfig(sigma=sigma), KMeansConfig(seed=0))
print(f"  labels   : {sp.labels.tolist()}")
print(f"  vs truth : cost {best_permutation_dissimilarity(sp.labels, truth, 3).cost}")

# label ids are arbitrary per run: a relabeled copy still has dissimilarity 0
relabeled = (km.labels + 1) % 3
r = best_permutation_dissimilarity(relabeled, km.labels, 3)
print("\nlabel-permutation matching")
print(f"  shifted copy vs original: cost {r.cost} via permutation {r.permutation}")
