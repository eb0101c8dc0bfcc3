"""Command-line front end: fixture generation, clustering, and the two studies.

Subcommands:

  synth      write a synthetic planted-cluster dataset (epicurves.csv,
             populations.csv, features.csv, truth.json)
  cluster    cluster regions on their full epicurves; write labels.csv and
             clusters.json
  stability  run every (prep, algo) pair across the windows; write one
             window-by-window cost CSV per pair and summary.json naming the
             selected technique
  associate  score every feature against the per-window epidemic clusters;
             write association.csv and association.json

All outputs are plain CSV/JSON (plus optional SVG heatmaps rendered without
any plotting dependency) and are byte-identical across runs for a fixed
config and seed. Exit status: 0 on success, 2 for unreadable or invalid
input files, 1 for any other pipeline failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .align import METRICS, balance_check
from .cluster import ALGORITHMS, LAPLACIAN_KINDS, KMeansConfig, SpectralConfig
from .ingest import IngestError, _read_table, _write_table, load_epicurves, load_features
from .pipeline import (
    PREP_SCOPES,
    _cluster_window,
    feature_association,
    select_technique,
    temporal_stability,
)
from .preprocess import PREPROCESS_KINDS, apply_preprocess
from .synth import generate_fixture, write_fixture

SCHEMA_VERSION = "1"
ASSOCIATION_HEADER = ["feature", "window", "sm1", "sm2_mean", "sm2_std", "deviation"]


@dataclass(frozen=True)
class RunConfig:
    """Resolved knobs for one command invocation."""

    window_len: int
    k: int
    preps: tuple[str, ...]
    algos: tuple[str, ...]
    kmeans: KMeansConfig
    spectral: SpectralConfig
    trials: int
    balance_threshold: float
    metric: str
    prep_scope: str
    baseline_mode: str
    out_dir: Path
    heatmap: bool


# keys a JSON config file may set, at the top level and in its two sections
CONFIG_KEYS = {
    "": {"algo", "balance_threshold", "baseline_mode", "k", "kmeans", "metric", "out",
         "prep", "prep_scope", "seed", "spectral", "trials", "window_len"},
    "kmeans": {"epsilon", "max_iters", "restarts"},
    "spectral": {"laplacian", "sigma"},
}


def _load_config_file(path):
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    for section, known in CONFIG_KEYS.items():
        table = data.get(section, {}) if section else data
        where = f"config section {section!r}" if section else "config"
        if not isinstance(table, dict):
            raise IngestError(f"{path}: {where} must be a JSON object")
        unknown = sorted(set(table) - known)
        if unknown:
            raise IngestError(
                f"{path}: unknown {where} key {', '.join(map(repr, unknown))}; "
                f"expected one of {', '.join(sorted(known))}"
            )
    return data


def _pick(args, cfg_file, key, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return cfg_file.get(key, default)


def _technique_names(args, cfg_file, key, default, one):
    """The names a comma-separated --prep/--algo value lists; exactly one if ``one``."""
    text = _pick(args, cfg_file, key, None)
    if text is None:
        return default[:1] if one else default
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    if one and len(names) != 1:
        raise IngestError(f"--{key} takes exactly one name for this subcommand, got {text!r}")
    return names


def _build_config(args, one_technique=False) -> RunConfig:
    cfg_file = _load_config_file(getattr(args, "config", None))
    km_file = cfg_file.get("kmeans", {})
    sp_file = cfg_file.get("spectral", {})
    km = KMeansConfig(
        epsilon=float(_pick(args, km_file, "epsilon", 1e-6)),
        max_iters=int(_pick(args, km_file, "max_iters", 300)),
        restarts=int(_pick(args, km_file, "restarts", 10)),
        seed=int(_pick(args, cfg_file, "seed", 0)),
    )
    sigma = _pick(args, sp_file, "sigma", "median")
    if sigma != "median":
        sigma = float(sigma)
    return RunConfig(
        window_len=int(_pick(args, cfg_file, "window_len", 30)),
        k=int(_pick(args, cfg_file, "k", 3)),
        preps=_technique_names(args, cfg_file, "prep", PREPROCESS_KINDS, one_technique),
        algos=_technique_names(args, cfg_file, "algo", ("spectral", "kmeans"), one_technique),
        kmeans=km,
        spectral=SpectralConfig(sigma, _pick(args, sp_file, "laplacian", "unnormalized")),
        trials=int(_pick(args, cfg_file, "trials", 100)),
        balance_threshold=float(_pick(args, cfg_file, "balance_threshold", 0.8)),
        metric=_pick(args, cfg_file, "metric", "squared"),
        prep_scope=_pick(args, cfg_file, "prep_scope", "per_window"),
        baseline_mode=_pick(args, cfg_file, "baseline_mode", "uniform"),
        out_dir=Path(_pick(args, cfg_file, "out", ".")),
        heatmap=bool(getattr(args, "heatmap", False)),
    )


# ---------------------------------------------------------------------------
# report serialization


def write_matrix_csv(matrix, row_labels, col_labels, path, corner="") -> None:
    _write_table(path, [corner, *col_labels], row_labels, np.asarray(matrix, dtype=float))


def read_matrix_csv(path):
    """Re-parse a matrix CSV written by write_matrix_csv."""
    header, row_labels, values = _read_table(path, "column")
    return row_labels, header[1:], values


def read_association_csv(path):
    """Re-parse association.csv into a list of row dicts with typed values."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ASSOCIATION_HEADER:
            raise IngestError(f"{path}: unexpected header {reader.fieldnames}")
        rows = []
        for row in reader:
            rows.append(
                {
                    "feature": row["feature"],
                    "window": int(row["window"]),
                    "sm1": float(row["sm1"]),
                    "sm2_mean": float(row["sm2_mean"]),
                    "sm2_std": float(row["sm2_std"]),
                    "deviation": float(row["deviation"]),
                }
            )
    return rows


def _heat_color(value, lo, hi):
    # dark blue (low) to pale green (high)
    t = 0.0 if hi <= lo else (value - lo) / (hi - lo)
    r = int(15 + t * (150 - 15))
    g = int(35 + t * (220 - 35))
    b = int(115 + t * (170 - 115))
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_heatmap(matrix, row_labels, col_labels, path, title="") -> None:
    """Render a labeled heatmap as a small self-contained SVG."""
    matrix = np.asarray(matrix, dtype=float)
    n_rows, n_cols = matrix.shape
    cell, left, top = 56, 110, 48
    width = left + n_cols * cell + 12
    height = top + n_rows * cell + 12
    lo, hi = float(matrix.min()), float(matrix.max())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<text x="{left}" y="16" font-size="13">{title}</text>' if title else "",
    ]
    for j, label in enumerate(col_labels):
        parts.append(
            f'<text x="{left + j * cell + cell // 2}" y="{top - 8}" '
            f'text-anchor="middle">{label}</text>'
        )
    for i, label in enumerate(row_labels):
        parts.append(
            f'<text x="{left - 6}" y="{top + i * cell + cell // 2 + 4}" '
            f'text-anchor="end">{label}</text>'
        )
        for j in range(n_cols):
            v = matrix[i, j]
            x, y = left + j * cell, top + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{_heat_color(v, lo, hi)}" stroke="white"/>'
            )
            parts.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" '
                f'text-anchor="middle" fill="white">{v:.3g}</text>'
            )
    parts.append("</svg>")
    Path(path).write_text("\n".join(p for p in parts if p) + "\n")


def _write_json(payload, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    fixture = generate_fixture(
        n_regions=args.regions,
        n_days=args.days,
        k_true=args.k_true,
        seed=args.seed if args.seed is not None else 0,
        n_correlated=args.correlated,
        n_noise=args.noise,
    )
    paths = write_fixture(fixture, args.out if args.out is not None else ".")
    for name in ("epicurves", "populations", "features", "truth"):
        print(paths[name])
    return 0


def cmd_cluster(args) -> int:
    cfg = _build_config(args, one_technique=True)
    m = load_epicurves(args.input, args.populations)
    prep, algo = cfg.preps[0], cfg.algos[0]
    points = apply_preprocess(m, prep).values
    assignment = _cluster_window(points, algo, cfg.k, cfg.kmeans, cfg.spectral)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    labels_path = cfg.out_dir / "labels.csv"
    _write_table(labels_path, ["region", "label"], m.region_names, assignment.labels[:, None])
    diag = balance_check(assignment, cfg.balance_threshold)
    _write_json(
        {
            "schema_version": SCHEMA_VERSION,
            "prep": prep,
            "algorithm": algo,
            "k": cfg.k,
            "seed": cfg.kmeans.seed,
            "labels": {
                name: int(label)
                for name, label in zip(m.region_names, assignment.labels)
            },
            "inertia": assignment.inertia,
            "suggested_k": assignment.suggested_k,
            "balanced": diag.balanced,
            "largest_fraction": diag.largest_fraction,
        },
        cfg.out_dir / "clusters.json",
    )
    print(labels_path)
    print(cfg.out_dir / "clusters.json")
    return 0


def cmd_stability(args) -> int:
    cfg = _build_config(args)
    m = load_epicurves(args.input, args.populations)
    results = temporal_stability(
        m,
        cfg.preps,
        cfg.algos,
        cfg.k,
        cfg.kmeans,
        cfg.spectral,
        window_len=cfg.window_len,
        metric=cfg.metric,
        balance_threshold=cfg.balance_threshold,
        prep_scope=cfg.prep_scope,
    )
    selected = select_technique(results)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    window_labels = [f"w{i}" for i in range(results[0].window_count)]
    techniques = []
    for r in results:
        csv_name = f"stability_{r.prep}_{r.algorithm}.csv"
        write_matrix_csv(
            r.costs, window_labels, window_labels, cfg.out_dir / csv_name, corner="window"
        )
        if cfg.heatmap:
            svg_heatmap(
                r.costs,
                window_labels,
                window_labels,
                cfg.out_dir / f"stability_{r.prep}_{r.algorithm}.svg",
                title=f"{r.prep} / {r.algorithm} cross-window dissimilarity",
            )
        techniques.append(
            {
                "prep": r.prep,
                "algorithm": r.algorithm,
                "costs_csv": csv_name,
                "mean_offdiag": r.mean_offdiag,
                "degenerate_windows": r.degenerate_windows,
                "balance": [
                    {"balanced": d.balanced, "largest_fraction": d.largest_fraction}
                    for d in r.balance
                ],
            }
        )
    _write_json(
        {
            "schema_version": SCHEMA_VERSION,
            "k": cfg.k,
            "window_len": cfg.window_len,
            "metric": cfg.metric,
            "seed": cfg.kmeans.seed,
            "balance_threshold": cfg.balance_threshold,
            "prep_scope": cfg.prep_scope,
            "selected": {"prep": selected[0], "algorithm": selected[1]},
            "techniques": techniques,
        },
        cfg.out_dir / "summary.json",
    )
    print(cfg.out_dir / "summary.json")
    return 0


def cmd_associate(args) -> int:
    cfg = _build_config(args, one_technique=True)
    m = load_epicurves(args.input, args.populations)
    if args.features is None:
        raise IngestError("associate requires --features")
    table = load_features(args.features, m)
    chosen = (cfg.preps[0], cfg.algos[0])
    report = feature_association(
        m,
        table,
        chosen,
        cfg.k,
        cfg.kmeans,
        cfg.spectral,
        trials=cfg.trials,
        seed=cfg.kmeans.seed,
        window_len=cfg.window_len,
        metric=cfg.metric,
        balance_threshold=cfg.balance_threshold,
        prep_scope=cfg.prep_scope,
        baseline_mode=cfg.baseline_mode,
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.out_dir / "association.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ASSOCIATION_HEADER)
        for cell in report.cells:
            writer.writerow(
                [
                    cell.feature,
                    cell.window,
                    repr(cell.baseline.sm1),
                    repr(cell.baseline.sm2_mean),
                    repr(cell.baseline.sm2_std),
                    repr(cell.baseline.deviation),
                ]
            )
    _write_json(
        {
            "schema_version": SCHEMA_VERSION,
            "prep": report.prep,
            "algorithm": report.algorithm,
            "k": report.k,
            "metric": cfg.metric,
            "trials": cfg.trials,
            "seed": cfg.kmeans.seed,
            "baseline_mode": cfg.baseline_mode,
            "window_count": report.window_count,
            "epidemic_labels": [list(labels) for labels in report.epidemic_labels],
            "cells": [
                {
                    "feature": c.feature,
                    "window": c.window,
                    "sm1": c.baseline.sm1,
                    "sm2_mean": c.baseline.sm2_mean,
                    "sm2_std": c.baseline.sm2_std,
                    "deviation": c.baseline.deviation,
                    "permutation": list(c.alignment.permutation),
                    "mismatch_rate": c.alignment.mismatch_rate,
                    "feature_balanced": c.feature_balance.balanced,
                    "feature_largest_fraction": c.feature_balance.largest_fraction,
                }
                for c in report.cells
            ],
        },
        cfg.out_dir / "association.json",
    )
    if cfg.heatmap:
        deviations = np.array(
            [
                [report.cell(f, w).baseline.deviation for w in range(report.window_count)]
                for f in report.feature_names
            ]
        )
        svg_heatmap(
            deviations,
            list(report.feature_names),
            [f"w{i}" for i in range(report.window_count)],
            cfg.out_dir / "association_deviation.svg",
            title="deviation of dissimilarity from the random baseline",
        )
    print(csv_path)
    print(cfg.out_dir / "association.json")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p, *, features=False, multi_technique=False):
    p.add_argument("--input", required=True, help="epicurve CSV (region,<ISO dates...>)")
    p.add_argument("--populations", help="population CSV (region,population)")
    if features:
        p.add_argument("--features", help="feature CSV (region,<feature names...>)")
    p.add_argument("--window-len", dest="window_len", type=int, help="days per window (default 30)")
    p.add_argument("--k", type=int, help="number of clusters (default 3)")
    if multi_technique:
        p.add_argument(
            "--prep",
            help=f"comma-separated preprocessing list (default all: {','.join(PREPROCESS_KINDS)})",
        )
        p.add_argument("--algo", help="comma-separated algorithm list (default spectral,kmeans)")
    else:
        p.add_argument("--prep", help=f"preprocessing technique (one of {', '.join(PREPROCESS_KINDS)})")
        p.add_argument("--algo", help=f"clustering algorithm (one of {', '.join(ALGORITHMS)})")
    p.add_argument("--trials", type=int, help="Monte Carlo trials (default 100)")
    p.add_argument("--seed", type=int, help="master RNG seed (default 0)")
    p.add_argument("--metric", choices=METRICS, help="alignment cost metric (default squared)")
    p.add_argument(
        "--balance-threshold",
        dest="balance_threshold",
        type=float,
        help="largest-cluster fraction that flags a degenerate clustering (default 0.8)",
    )
    p.add_argument("--epsilon", type=float, help="k-means convergence threshold (default 1e-6)")
    p.add_argument("--max-iters", dest="max_iters", type=int, help="k-means iteration cap (default 300)")
    p.add_argument("--restarts", type=int, help="k-means restarts (default 10)")
    p.add_argument("--sigma", help="RBF bandwidth, a number or 'median' (default median)")
    p.add_argument("--laplacian", choices=LAPLACIAN_KINDS, help="Laplacian variant (default unnormalized)")
    p.add_argument("--prep-scope", dest="prep_scope", choices=PREP_SCOPES,
                   help="apply preprocessing per window or to the full series (default per_window)")
    p.add_argument("--baseline-mode", dest="baseline_mode", choices=("uniform", "shuffle"),
                   help="random-label generation for the null (default uniform)")
    p.add_argument("--config", help="JSON config file; CLI flags override its keys")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--heatmap", action="store_true", help="also emit SVG heatmaps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiclust",
        description="Cluster regions by epidemic behaviour and test socio-economic features "
        "against a Monte Carlo random-label baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic planted-cluster dataset")
    p.add_argument("--regions", type=int, default=25)
    p.add_argument("--days", type=int, default=120)
    p.add_argument("--k-true", dest="k_true", type=int, default=3)
    p.add_argument("--correlated", type=int, default=4, help="cluster-correlated feature count")
    p.add_argument("--noise", type=int, default=7, help="independent-noise feature count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cluster", help="cluster regions on their full epicurves")
    _add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("stability", help="cross-window stability of every technique pair")
    _add_common(p, multi_technique=True)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("associate", help="feature association against epidemic clusters")
    _add_common(p, features=True)
    p.set_defaults(func=cmd_associate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IngestError, FileNotFoundError, OSError) as exc:
        print(f"epiclust: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline/config failures
        print(f"epiclust: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
