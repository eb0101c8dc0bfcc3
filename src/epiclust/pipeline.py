"""The two studies: cluster stability across time windows, and feature association.

``temporal_stability`` runs every (preprocessing, algorithm) pair over the
fixed windows of the series and records the pairwise alignment cost of the
window clusterings. ``select_technique`` picks, among the pairs with the
fewest degenerate (single-dominant-cluster) windows, the one whose clusters
are the most stable in time. ``feature_association`` then scores every
scalar feature against the per-window epidemic clusters of the chosen
technique, with a seeded Monte Carlo random-label null per cell. Both
studies check every setting, the shared ones in ``_check_study``, before
any window is split, preprocessed or clustered.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .align import (
    AlignmentResult,
    BalanceDiagnostic,
    BaselineResult,
    _alignments,
    _check_align,
    _check_fraction,
    _check_null,
    _least_costs,
    balance_check,
    random_baseline,
)
from .cluster import (
    ALGORITHMS,
    KMeansConfig,
    SpectralConfig,
    _check_count,
    _check_k,
    _cluster_windows,
    _scalar_features,
)
from .ingest import EpicurveMatrix, FeatureTable, split_windows
from .preprocess import PREPROCESS_KINDS, apply_preprocess

PREP_SCOPES = ("per_window", "full_series")


@dataclass(frozen=True)
class StabilityMatrix:
    """Window-by-window alignment costs for one (preprocessing, algorithm) pair."""

    prep: str
    algorithm: str
    costs: np.ndarray
    balance: tuple[BalanceDiagnostic, ...]

    @property
    def window_count(self) -> int:
        return self.costs.shape[0]

    @property
    def mean_offdiag(self) -> float:
        n = self.window_count
        if n < 2:
            return 0.0
        return float((self.costs.sum() - np.trace(self.costs)) / (n * (n - 1)))

    @property
    def degenerate_windows(self) -> int:
        return sum(1 for diag in self.balance if not diag.balanced)


@dataclass(frozen=True)
class AssociationCell:
    """One (feature, window) comparison: alignment, null baseline, feature balance."""

    feature: str
    window: int
    alignment: AlignmentResult
    baseline: BaselineResult
    feature_balance: BalanceDiagnostic


@dataclass(frozen=True)
class AssociationReport:
    """Full feature x window grid of SM1/SM2 results for one chosen technique."""

    prep: str
    algorithm: str
    k: int
    feature_names: tuple[str, ...]
    window_count: int
    cells: tuple[AssociationCell, ...]
    epidemic_labels: tuple[tuple[int, ...], ...]

    def cell(self, feature: str, window: int) -> AssociationCell:
        return self.cells[self.feature_names.index(feature) * self.window_count + window]


def _in_order(names, known, kind):
    """``names`` in the order of ``known``; an unknown name raises, naming ``known``."""
    if unknown := [name for name in names if name not in known]:
        raise ValueError(f"unknown {kind} {unknown[0]!r}; expected one of {known}")
    return sorted(names, key=known.index)


def _check_study(m, preps, algos, k, metric, balance_threshold, window_len, prep_scope, windows):
    """Raise for the first bad setting of a study of ``windows`` or more windows,
    before any window is split; else return ``preps`` and ``algos`` in the
    order of ``PREPROCESS_KINDS`` and ``ALGORITHMS``."""
    _check_k(k, m.n_regions)
    _check_align(k, metric)
    _check_fraction(balance_threshold, "balance_threshold")
    preps = _in_order(preps, PREPROCESS_KINDS, "preprocessing kind")
    algos = _in_order(algos, ALGORITHMS, "algorithm")
    if "population" in preps and m.populations is None:
        raise ValueError("population normalization requires per-region populations")
    if prep_scope not in PREP_SCOPES:
        raise ValueError(f"unknown prep scope {prep_scope!r}; expected one of {PREP_SCOPES}")
    _check_count(window_len, "window_len")
    if m.n_days < windows * window_len:
        raise ValueError(f"{m.n_days} days hold {m.n_days // window_len} window(s) of {window_len}; "
                         f"the study needs at least {windows}")
    return preps, algos


def _prepared_windows(m, prep, window_len, prep_scope) -> list[np.ndarray]:
    """The windows' value arrays, preprocessed per window or over the full series."""
    if prep_scope == "full_series":
        return [w.values for w in split_windows(apply_preprocess(m, prep), window_len)]
    return [apply_preprocess(w, prep).values for w in split_windows(m, window_len)]


def temporal_stability(
    m: EpicurveMatrix,
    preps,
    algos,
    k: int,
    kmeans_cfg: KMeansConfig = KMeansConfig(),
    spectral_cfg: SpectralConfig = SpectralConfig(),
    *,
    window_len: int = 30,
    metric: str = "squared",
    balance_threshold: float = 0.8,
    prep_scope: str = "per_window",
) -> list[StabilityMatrix]:
    """Pairwise cross-window dissimilarity for every (prep, algo) combination.

    Each window is preprocessed (per window by default) and its regions are
    clustered on their in-window day vectors; all window pairs (i < j) are
    aligned in one batch, each cost filling (i, j) and (j, i). Balance
    diagnostics are attached per window. Results come in the order of
    ``PREPROCESS_KINDS`` and ``ALGORITHMS``, whatever the order of ``preps``
    and ``algos``, so the selection and the reports do not depend on it.
    """
    preps, algos = _check_study(m, preps, algos, k, metric, balance_threshold, window_len, prep_scope, 2)
    results = []
    for prep in preps:
        windows = _prepared_windows(m, prep, window_len, prep_scope)
        for algo in algos:
            assignments = _cluster_windows(windows, algo, k, kmeans_cfg, spectral_cfg)
            labels = np.stack([a.labels for a in assignments])
            i, j = np.triu_indices(len(labels), k=1)
            costs = np.zeros((len(labels), len(labels)))
            costs[i, j] = costs[j, i] = _least_costs(labels[i], labels[j], k, metric)
            balance = tuple(balance_check(a, balance_threshold) for a in assignments)
            results.append(StabilityMatrix(prep, algo, costs, balance))
        del windows  # before the next prep's: holding both raised peak RSS by 1 MiB at n=1000
    return results


def select_technique(results) -> tuple[str, str]:
    """The (prep, algo) pair with the fewest degenerate windows, then the
    lowest mean off-diagonal cost, first-listed on ties
    (``temporal_stability`` lists them in a fixed order). A winner with a
    degenerate window is returned under a warning.
    """
    results = list(results)
    if not results:
        raise ValueError("no stability results to select from")
    best = min(results, key=lambda r: (r.degenerate_windows, r.mean_offdiag))
    if best.degenerate_windows:
        warnings.warn(
            "every technique produced at least one degenerate window; "
            "returning the least-degenerate one",
            stacklevel=2,
        )
    return best.prep, best.algorithm


def feature_association(
    m: EpicurveMatrix,
    f: FeatureTable,
    chosen: tuple[str, str],
    k: int,
    kmeans_cfg: KMeansConfig = KMeansConfig(),
    spectral_cfg: SpectralConfig = SpectralConfig(),
    *,
    trials: int = 100,
    seed: int = 0,
    window_len: int = 30,
    metric: str = "squared",
    balance_threshold: float = 0.8,
    prep_scope: str = "per_window",
    baseline_mode: str = "uniform",
) -> AssociationReport:
    """Score every feature against the per-window epidemic clusters.

    Per window the regions are clustered with the chosen technique
    (``kmeans_cfg`` and ``spectral_cfg`` apply here only); per feature the
    regions are clustered on the scalar values by exact 1-D k-means
    (``cluster_scalar_feature``, all features in one DP: no seed, no
    restarts), label 0 holding the smallest values. SM1 aligns the feature
    labels against the window's epidemic labels, all cells in one batch;
    SM2 repeats the alignment with ``trials`` random labelings in place of
    the feature (RNG keyed per (seed, window, feature) cell), so deviation
    = SM2 - SM1 measures how far above chance the agreement is.
    """
    if len(chosen) != 2:
        raise ValueError(f"chosen must be a (prep, algorithm) pair, got {chosen!r}")
    # chosen's one prep and one algorithm, checked as one-name lists
    (prep,), (algo,) = _check_study(m, chosen[:1], chosen[1:], k, metric, balance_threshold,
                                    window_len, prep_scope, 1)
    _check_null(trials, baseline_mode, seed)
    if f.region_names != m.region_names:
        raise ValueError(
            "feature table regions are not aligned with the epicurve matrix; "
            "load them via load_features"
        )
    windows = _prepared_windows(m, prep, window_len, prep_scope)
    epidemic = _cluster_windows(windows, algo, k, kmeans_cfg, spectral_cfg)
    features = _scalar_features(f.values, k)
    # every (feature, window) cell, feature-major, aligned in one batch
    reference = np.array([e.labels for e in epidemic])
    alignments = _alignments(
        np.repeat(features, len(epidemic), axis=0), np.tile(reference, (len(features), 1)), k, metric
    )
    cells = []
    for i, feature in enumerate(f.feature_names):
        feature_diag = balance_check(features[i], balance_threshold)
        for w, epi in enumerate(epidemic):
            alignment = alignments[len(cells)]
            cell_seed = int(np.random.SeedSequence([seed, w, i]).generate_state(1)[0])
            baseline = random_baseline(
                epi.labels,
                k,
                trials,
                cell_seed,
                sm1=alignment.cost,
                metric=metric,
                mode=baseline_mode,
            )
            cells.append(AssociationCell(feature, w, alignment, baseline, feature_diag))
    return AssociationReport(
        prep,
        algo,
        k,
        f.feature_names,
        len(epidemic),
        tuple(cells),
        tuple(tuple(int(x) for x in a.labels) for a in epidemic),
    )
