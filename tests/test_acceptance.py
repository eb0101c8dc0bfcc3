"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here. Oracles (exhaustive permutation scan,
exhaustive 1-D partition enumeration) are coded independently of the library
paths they check. Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines.
"""

import itertools
import json
import time

import numpy as np

from epiclust.align import best_permutation_dissimilarity
from epiclust.cli import main
from epiclust.cluster import (
    KMeansConfig,
    kmeans,
    laplacian,
    spectral_from_affinity,
)
from epiclust.ingest import EpicurveMatrix
from epiclust.preprocess import minmax_rows, population_normalize, zscore_rows
from report_readers import read_association_csv


def report(number, name, t0):
    print(f"ACCEPTANCE {number} ({name}): PASS ({time.perf_counter() - t0:.2f}s)", flush=True)


# --- 1: alignment oracle equivalence -----------------------------------------


def brute_force_cost(a, b, k):
    best = float("inf")
    for perm in itertools.permutations(range(k)):
        cost = sum((perm[x] - y) ** 2 for x, y in zip(a, b)) / len(a)
        if cost < best:
            best = cost
    return best


def test_criterion_1_alignment_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 9))
        a, b = rng.integers(0, k, n), rng.integers(0, k, n)
        got = best_permutation_dissimilarity(a, b, k).cost
        expected = brute_force_cost(a.tolist(), b.tolist(), k)
        assert got == expected  # exact, zero tolerance
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "alignment oracle equivalence, 200 pairs", t0)


# --- 2: relabeling invariance -------------------------------------------------


def test_criterion_2_relabeling_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(1, 40))
        a = rng.integers(0, k, n)
        q = rng.permutation(k)
        assert best_permutation_dissimilarity(q[a], a, k).cost == 0.0
    report(2, "relabeling invariance, 100 labelings", t0)


# --- 3: k-means optimality at small scale -------------------------------------


_ENUM_CACHE = {}


def exhaustive_partition_optimum(x, k):
    """Minimum within-cluster sum of squares over every k-labeling of x (1-D)."""
    n = len(x)
    if (n, k) not in _ENUM_CACHE:
        _ENUM_CACHE[(n, k)] = np.array(list(itertools.product(range(k), repeat=n)))
    labelings = _ENUM_CACHE[(n, k)]
    onehot = labelings[:, :, None] == np.arange(k)[None, None, :]
    counts = onehot.sum(axis=1)
    sums = (onehot * x[None, :, None]).sum(axis=1)
    contrib = np.where(counts > 0, sums**2 / np.where(counts > 0, counts, 1), 0.0)
    return float(((x**2).sum() - contrib.sum(axis=1)).min())


def test_criterion_3_kmeans_small_scale_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    matches = 0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(max(2, k), 11))
        x = rng.uniform(0.0, 100.0, n)
        km = kmeans(x[:, None], k, KMeansConfig(restarts=10, seed=int(rng.integers(10_000))))
        optimum = exhaustive_partition_optimum(x, k)
        if km.inertia <= optimum + 1e-9 * max(1.0, optimum):
            matches += 1
        hist = np.array(km.inertia_history)
        assert np.all(np.diff(hist) <= 1e-9 * np.maximum(1.0, hist[:-1]))  # 100% of runs
    assert matches >= 95
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, f"k-means optimality {matches}/100, monotone 100/100", t0)


# --- 4: spectral correctness on planted graphs --------------------------------


def test_criterion_4_spectral_planted_blocks():
    t0 = time.perf_counter()
    w = np.zeros((24, 24))
    w[:12, :12] = 1.0
    w[12:, 12:] = 1.0
    np.fill_diagonal(w, 0.0)
    evs = np.linalg.eigvalsh(laplacian(w))
    assert int((evs < 1e-9).sum()) == 2  # two connected components
    sp = spectral_from_affinity(w, 2, kmeans_cfg=KMeansConfig(seed=0))
    truth = [0] * 12 + [1] * 12
    assert best_permutation_dissimilarity(sp.labels, truth, 2).cost == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(4, "two disconnected 12-blocks: 2 zero eigenvalues, labels exact", t0)


# --- 5: eigensolver accuracy ---------------------------------------------------


def test_criterion_5_eigensolver_accuracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(50):
        n = int(rng.integers(2, 31))
        a = rng.uniform(-1.0, 1.0, (n, n))
        a = (a + a.T) / 2
        vals, vecs = np.linalg.eigh(a)
        recon = vecs @ np.diag(vals) @ vecs.T
        assert np.abs(recon - a).max() / np.abs(a).max() < 1e-8
        assert abs(vals.sum() - np.trace(a)) < 1e-9
    report(5, "50 random symmetric matrices reconstructed", t0)


# --- 6: preprocessing contracts --------------------------------------------------


def _matrix(values, populations=None):
    import datetime

    values = np.atleast_2d(np.asarray(values, dtype=float))
    return EpicurveMatrix(
        tuple(f"r{i}" for i in range(values.shape[0])),
        tuple(
            datetime.date(2021, 1, 1) + datetime.timedelta(days=d)
            for d in range(values.shape[1])
        ),
        values,
        populations,
    )


def test_criterion_6_preprocessing_contracts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    m = _matrix(rng.integers(0, 300, (20, 45)))

    z = zscore_rows(m).values
    assert np.abs(z.mean(axis=1)).max() < 1e-9
    assert np.abs(z.std(axis=1) - 1.0).max() < 1e-9

    mm = minmax_rows(m).values
    assert np.all(mm.max(axis=1) == 1.0)  # attained exactly

    # hand check: 10 cases in a 2,000,000-person region is 5 per million
    hand = _matrix([[10.0, 4.0], [3.0, 0.0]], populations=[2_000_000, 1_000_000])
    out = population_normalize(hand).values
    assert out.tolist() == [[5.0, 2.0], [3.0, 0.0]]
    report(6, "z-score / max-scale / per-million contracts", t0)


# --- 7 & 8: end-to-end fixture replication and determinism -----------------------


def _run_pipeline(fixture_dir, out_dir, assoc_prep, assoc_algo):
    assert main([
        "stability", "--input", str(fixture_dir / "epicurves.csv"),
        "--populations", str(fixture_dir / "populations.csv"),
        "--prep", "none,zscore", "--algo", "spectral,kmeans",
        "--window-len", "30", "--k", "3", "--seed", "0",
        "--out", str(out_dir),
    ]) == 0
    assert main([
        "associate", "--input", str(fixture_dir / "epicurves.csv"),
        "--features", str(fixture_dir / "features.csv"),
        "--prep", assoc_prep, "--algo", assoc_algo,
        "--window-len", "30", "--k", "3", "--trials", "100", "--seed", "0",
        "--out", str(out_dir),
    ]) == 0


def test_criterion_7_end_to_end_fixture_replication(tmp_path):
    t0 = time.perf_counter()
    fixture_dir = tmp_path / "fixture"
    assert main([
        "synth", "--regions", "25", "--days", "120", "--k-true", "3",
        "--seed", "0", "--out", str(fixture_dir),
    ]) == 0

    out = tmp_path / "run"
    assert main([
        "stability", "--input", str(fixture_dir / "epicurves.csv"),
        "--populations", str(fixture_dir / "populations.csv"),
        "--prep", "none,zscore", "--algo", "spectral,kmeans",
        "--window-len", "30", "--k", "3", "--seed", "0",
        "--out", str(out),
    ]) == 0
    summary = json.loads((out / "summary.json").read_text())

    # (a) raw data beats z-scored data, stably and without degenerate windows
    assert summary["selected"]["prep"] == "none"
    selected = next(
        t for t in summary["techniques"]
        if (t["prep"], t["algorithm"])
        == (summary["selected"]["prep"], summary["selected"]["algorithm"])
    )
    assert selected["mean_offdiag"] < 0.1
    assert all(b["balanced"] for b in selected["balance"])

    # (b) every planted correlated feature out-ranks every noise feature
    assert main([
        "associate", "--input", str(fixture_dir / "epicurves.csv"),
        "--features", str(fixture_dir / "features.csv"),
        "--prep", summary["selected"]["prep"], "--algo", summary["selected"]["algorithm"],
        "--window-len", "30", "--k", "3", "--trials", "100", "--seed", "0",
        "--out", str(out),
    ]) == 0
    truth = json.loads((fixture_dir / "truth.json").read_text())
    rows = read_association_csv(out / "association.csv")
    assert len(rows) == 44
    for w in range(4):
        dev = {r["feature"]: r["deviation"] for r in rows if r["window"] == w}
        worst_corr = min(dev[f] for f in truth["correlated_features"])
        best_noise = max(dev[f] for f in truth["noise_features"])
        assert worst_corr > best_noise
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, "fixture replicates: raw-vs-zscore selection + feature ranking", t0)


def test_criterion_8_byte_identical_determinism(tmp_path):
    t0 = time.perf_counter()
    fixture_dir = tmp_path / "fixture"
    assert main([
        "synth", "--regions", "25", "--days", "120", "--k-true", "3",
        "--seed", "0", "--out", str(fixture_dir),
    ]) == 0
    d1, d2 = tmp_path / "one", tmp_path / "two"
    _run_pipeline(fixture_dir, d1, "none", "kmeans")
    _run_pipeline(fixture_dir, d2, "none", "kmeans")
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    assert any(n.endswith(".csv") for n in names) and any(n.endswith(".json") for n in names)
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    report(8, f"two runs byte-identical across {len(names)} files", t0)
