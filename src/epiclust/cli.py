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
config and seed.

A study subcommand declares only the flags it reads, the one schema of its
settings: a ``--config`` JSON file may set any but the input files and
``--heatmap`` (solver controls in its ``kmeans``/``spectral`` sections), each
value passes its flag's type and choices, and explicit flags win. Exit status:
0 on success, 2 for a usage error or an invalid input or config file, else 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .align import BASELINE_MODES, METRICS, balance_check
from .cluster import ALGORITHMS, LAPLACIAN_KINDS, KMeansConfig, SpectralConfig, _check_k, _cluster_windows
from .ingest import IngestError, _write_table, load_epicurves, load_features
from .pipeline import PREP_SCOPES, feature_association, select_technique, temporal_stability
from .preprocess import PREPROCESS_KINDS, apply_preprocess
from .synth import generate_fixture, write_fixture

SCHEMA_VERSION = "4"
ASSOCIATION_HEADER = ["feature", "window", "sm1", "sm2_mean", "sm2_std", "deviation"]


# ---------------------------------------------------------------------------
# report serialization


def _heat_color(value, lo, hi):
    # dark blue (low) to pale green (high)
    t = 0.0 if hi <= lo else (value - lo) / (hi - lo)
    r = int(15 + t * (150 - 15))
    g = int(35 + t * (220 - 35))
    b = int(115 + t * (170 - 115))
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_heatmap(matrix, row_labels, col_labels, path, title="") -> None:
    """Render a labeled heatmap as a small self-contained SVG, its text XML-escaped."""
    from xml.sax.saxutils import escape  # here, as it loads urllib.request: about 7 MiB of RSS
    matrix = np.asarray(matrix, dtype=float)
    n_rows, n_cols = matrix.shape
    cell, left, top = 56, 110, 48
    width = left + n_cols * cell + 12
    height = top + n_rows * cell + 12
    lo, hi = float(matrix.min()), float(matrix.max())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<text x="{left}" y="16" font-size="13">{escape(title)}</text>' if title else "",
    ]
    for j, label in enumerate(col_labels):
        parts.append(
            f'<text x="{left + j * cell + cell // 2}" y="{top - 8}" '
            f'text-anchor="middle">{escape(label)}</text>'
        )
    for i, label in enumerate(row_labels):
        parts.append(
            f'<text x="{left - 6}" y="{top + i * cell + cell // 2 + 4}" '
            f'text-anchor="end">{escape(label)}</text>'
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


def _solver_configs(args):
    """The k-means and spectral configs that the solver flags describe."""
    km = KMeansConfig(args.epsilon, args.max_iters, args.restarts, args.seed)
    return km, SpectralConfig(args.sigma, args.laplacian)


def _epicurves(args):
    """Load ``--input`` with ``--populations``; reject a k or a ``--prep`` the
    regions cannot serve before any clustering starts.

    k is checked first, so a bad k is reported the same way whatever the
    ``--prep`` list holds.
    """
    m = load_epicurves(args.input, args.populations)
    _check_k(args.k, m.n_regions)
    if "population" in args.prep and m.populations is None:
        raise IngestError(
            "--prep population needs --populations: pass a population file "
            "or leave population out of --prep"
        )
    return m


def cmd_synth(args) -> int:
    fixture = generate_fixture(
        n_regions=args.regions,
        n_days=args.days,
        k_true=args.k_true,
        seed=args.seed,
        n_correlated=args.correlated,
        n_noise=args.noise,
    )
    paths = write_fixture(fixture, args.out)
    for name in ("epicurves", "populations", "features", "truth"):
        print(paths[name])
    return 0


def cmd_cluster(args) -> int:
    (prep,), (algo,) = args.prep, args.algo
    m = _epicurves(args)
    points = apply_preprocess(m, prep).values
    assignment = _cluster_windows([points], algo, args.k, *_solver_configs(args))[0]
    args.out.mkdir(parents=True, exist_ok=True)
    labels_path = args.out / "labels.csv"
    _write_table(labels_path, ["region", "label"], m.region_names, assignment.labels[:, None])
    diag = balance_check(assignment, args.balance_threshold)
    _write_json(
        {
            "schema_version": SCHEMA_VERSION,
            "prep": prep,
            "algorithm": algo,
            "k": args.k,
            "seed": args.seed,
            "inertia": assignment.inertia,
            "suggested_k": assignment.suggested_k,
            "balanced": diag.balanced,
            "largest_fraction": diag.largest_fraction,
        },
        args.out / "clusters.json",
    )
    print(labels_path)
    print(args.out / "clusters.json")
    return 0


def cmd_stability(args) -> int:
    m = _epicurves(args)
    results = temporal_stability(
        m, args.prep, args.algo, args.k, *_solver_configs(args),
        window_len=args.window_len,
        metric=args.metric,
        balance_threshold=args.balance_threshold,
        prep_scope=args.prep_scope,
    )
    selected = select_technique(results)
    args.out.mkdir(parents=True, exist_ok=True)
    window_labels = [f"w{i}" for i in range(results[0].window_count)]
    techniques = []
    for r in results:
        csv_name = f"stability_{r.prep}_{r.algorithm}.csv"
        _write_table(args.out / csv_name, ["window", *window_labels], window_labels, r.costs)
        if args.heatmap:
            svg_heatmap(
                r.costs,
                window_labels,
                window_labels,
                args.out / f"stability_{r.prep}_{r.algorithm}.svg",
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
            "k": args.k,
            "window_len": args.window_len,
            "metric": args.metric,
            "seed": args.seed,
            "balance_threshold": args.balance_threshold,
            "prep_scope": args.prep_scope,
            "selected": {"prep": selected[0], "algorithm": selected[1]},
            "techniques": techniques,
        },
        args.out / "summary.json",
    )
    print(args.out / "summary.json")
    return 0


def cmd_associate(args) -> int:
    m = _epicurves(args)
    table = load_features(args.features, m)
    report = feature_association(
        m, table, (*args.prep, *args.algo), args.k, *_solver_configs(args),
        trials=args.trials,
        seed=args.seed,
        window_len=args.window_len,
        metric=args.metric,
        balance_threshold=args.balance_threshold,
        prep_scope=args.prep_scope,
        baseline_mode=args.baseline_mode,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / "association.csv"
    rows = [(c.window, c.baseline.sm1, c.baseline.sm2_mean, c.baseline.sm2_std,
             c.baseline.deviation) for c in report.cells]
    # an object array keeps the Python int and floats, so each repr is unchanged
    _write_table(csv_path, ASSOCIATION_HEADER, [c.feature for c in report.cells],
                 np.array(rows, dtype=object))
    _write_json(
        {
            "schema_version": SCHEMA_VERSION,
            "prep": report.prep,
            "algorithm": report.algorithm,
            "k": report.k,
            "metric": args.metric,
            "trials": args.trials,
            "seed": args.seed,
            "baseline_mode": args.baseline_mode,
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
        args.out / "association.json",
    )
    if args.heatmap:
        deviations = np.array([c.baseline.deviation for c in report.cells])  # feature-major
        svg_heatmap(
            deviations.reshape(len(report.feature_names), report.window_count),
            list(report.feature_names),
            [f"w{i}" for i in range(report.window_count)],
            args.out / "association_deviation.svg",
            title="deviation of dissimilarity from the random baseline",
        )
    print(csv_path)
    print(args.out / "association.json")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _names(choices, many):
    """An argparse type: a comma-separated list of distinct names drawn from
    ``choices``, of one name only unless ``many``."""
    def names(text):
        picked = tuple(n.strip() for n in text.split(",") if n.strip())
        if not picked or not set(picked) <= set(choices):
            raise argparse.ArgumentTypeError(f"{text!r}: expected names from {', '.join(choices)}")
        if len(set(picked)) < len(picked):
            raise argparse.ArgumentTypeError(f"{text!r}: each name may appear only once")
        if len(picked) > 1 and not many:
            raise argparse.ArgumentTypeError(f"{text!r}: this subcommand takes exactly one name")
        return picked
    return names


def _checked(kind, ok, expected):
    """An argparse type: ``kind`` of the text, rejected unless ``ok`` holds for it."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r}: expected {expected}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" names the type
    return parse


_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_nonnegative = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive = _checked(float, lambda v: 0 < v < float("inf"), "a finite number > 0")
_fraction = _checked(float, lambda v: 0 < v <= 1, "a number in (0, 1]")


def _sigma(text):
    """An argparse type: the RBF bandwidth, a number > 0 or 'median'."""
    return text if text == "median" else _positive(text)


def _add_study_flags(p, command):
    """Declare on ``p`` the flags ``command`` reads; return its config schema.

    The schema maps each config key to its flag's argparse action; the
    ``kmeans`` and ``spectral`` sections map to the same for their keys.
    """
    windowed, associate, many = command != "cluster", command == "associate", command == "stability"
    p.add_argument("--input", required=True, help="epicurve CSV (region,<ISO dates...>)")
    p.add_argument("--populations", help="population CSV (region,population)")
    if associate:
        p.add_argument("--features", required=True, help="feature CSV (region,<feature names...>)")
    p.add_argument("--config", help="JSON config file; CLI flags override its keys")
    schema, km, sp = {"kmeans": {}, "spectral": {}}, KMeansConfig(), SpectralConfig()

    def setting(table, *flags, help, **kw):
        action = p.add_argument(*flags, help=f"{help} (default %(default)s)", **kw)
        table[action.dest] = action

    listed = "a comma-separated list of" if many else "one of"
    setting(schema, "--prep", type=_names(PREPROCESS_KINDS, many),
            default=",".join(PREPROCESS_KINDS) if many else "none",
            help=f"preprocessing, {listed} {', '.join(PREPROCESS_KINDS)}")
    setting(schema, "--algo", type=_names(ALGORITHMS, many),
            default=",".join(ALGORITHMS) if many else "spectral",
            help=f"clustering algorithm, {listed} {', '.join(ALGORITHMS)}")
    setting(schema, "--k", type=int, default=3, help="number of clusters")
    setting(schema, "--seed", type=_nonnegative, default=km.seed, help="master RNG seed")
    setting(schema, "--balance-threshold", type=_fraction, default=0.8,
            help="largest-cluster fraction that flags a degenerate clustering")
    if windowed:
        setting(schema, "--window-len", type=_count, default=30, help="days per window")
        setting(schema, "--metric", choices=METRICS, default="squared", help="alignment metric")
        setting(schema, "--prep-scope", choices=PREP_SCOPES, default="per_window",
                help="apply preprocessing per window or to the full series")
        p.add_argument("--heatmap", action="store_true", help="also emit SVG heatmaps")
    if associate:
        setting(schema, "--trials", type=_count, default=100, help="Monte Carlo trials")
        setting(schema, "--baseline-mode", choices=BASELINE_MODES, default="uniform",
                help="random-label generation for the null")
    setting(schema, "--out", type=Path, default=".", help="output directory")
    setting(schema["kmeans"], "--epsilon", type=_positive, default=km.epsilon,
            help="k-means convergence threshold")
    setting(schema["kmeans"], "--max-iters", type=_count, default=km.max_iters,
            help="k-means iteration cap")
    setting(schema["kmeans"], "--restarts", type=_count, default=km.restarts,
            help="k-means restarts")
    setting(schema["spectral"], "--sigma", type=_sigma, default=sp.sigma,
            help="RBF bandwidth, a number or 'median'")
    setting(schema["spectral"], "--laplacian", choices=LAPLACIAN_KINDS, default=sp.laplacian,
            help="Laplacian variant")
    return schema


def _apply_config(path, table, schema, where="config"):
    """Make each key of a parsed JSON config the default of the flag that declares it.

    A value is checked as if it were given on the command line: it must be a
    string or a number, and it passes through the flag's type and choices.
    """
    if not isinstance(table, dict):
        raise IngestError(f"{path}: {where} must be a JSON object")
    unknown = sorted(set(table) - set(schema))
    if unknown:
        raise IngestError(
            f"{path}: unknown {where} key {', '.join(map(repr, unknown))}; "
            f"expected one of {', '.join(sorted(schema))}"
        )
    for key, value in table.items():
        action = schema[key]
        if isinstance(action, dict):
            _apply_config(path, value, action, f"config section {key!r}")
            continue
        try:
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValueError(f"expected a string or a number, got {value!r}")
            value = (action.type or str)(str(value))
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{value!r} is not one of {', '.join(action.choices)}")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise IngestError(f"{path}: {where} key {key!r}: {exc}") from None
        action.default = value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiclust",
        description="Cluster regions by epidemic behaviour and test socio-economic features "
        "against a Monte Carlo random-label baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic planted-cluster dataset")
    p.add_argument("--regions", type=_count, default=25)
    p.add_argument("--days", type=_count, default=120)
    p.add_argument("--k-true", dest="k_true", type=_count, default=3)
    p.add_argument("--correlated", type=_nonnegative, default=4, help="cluster-correlated feature count")
    p.add_argument("--noise", type=_nonnegative, default=7, help="independent-noise feature count")
    p.add_argument("--seed", type=_nonnegative, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_synth)

    for command, func, summary in (
        ("cluster", cmd_cluster, "cluster regions on their full epicurves"),
        ("stability", cmd_stability, "cross-window stability of every technique pair"),
        ("associate", cmd_associate, "feature association against epidemic clusters"),
    ):
        p = sub.add_parser(command, help=summary)
        p.set_defaults(func=func, config_schema=_add_study_flags(p, command))
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every call without ``--config``, built once per process;
    ``_apply_config`` never writes to it."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            try:
                data = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except ValueError as exc:
                raise IngestError(f"{args.config}: not a valid JSON config: {exc}") from None
            # the config's values become the defaults of a parser of this call's own
            parser = build_parser()
            _apply_config(args.config, data, parser.parse_args(argv).config_schema)
            args = parser.parse_args(argv)  # explicit flags still win
        return args.func(args)
    except (IngestError, FileNotFoundError, OSError) as exc:
        print(f"epiclust: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline/config failures
        print(f"epiclust: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
