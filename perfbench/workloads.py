"""The benchmark's workloads: fixture sizes, CLI arguments and output checks.

Each workload is one ``epiclust`` CLI study run on a synthetic fixture from
``epiclust.synth.generate_fixture``. The fixture seed comes from the command
line; the CLI's own ``--seed`` stays at its default, so the program receives
only the generated inputs. Sizes are chosen so that one call takes one to
three seconds on a 2-core host: enough calls fit in one run for a steady
median, and each workload still spends most of its time in the layer it is
there to measure.

This module imports neither numpy nor epiclust, so that the set-up child
(``make_fixture.py``) can load it before it starts timing the import.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _selected_is_stable(out: Path, truth: dict) -> str | None:
    summary = json.loads((out / "summary.json").read_text())
    selected = summary["selected"]
    matches = [
        t
        for t in summary["techniques"]
        if (t["prep"], t["algorithm"]) == (selected["prep"], selected["algorithm"])
    ]
    if len(matches) != 1:
        return f"selected technique {selected} is not listed exactly once"
    tech = matches[0]
    if tech["mean_offdiag"] != 0 or tech["degenerate_windows"] != 0:
        return (
            f"selected technique {selected} has mean_offdiag {tech['mean_offdiag']} "
            f"and {tech['degenerate_windows']} degenerate windows"
        )
    return None


def _planted_features_lead(out: Path, truth: dict) -> str | None:
    cells = json.loads((out / "association.json").read_text())["cells"]
    corr = [c for c in cells if c["feature"] in truth["correlated_features"]]
    noise = [c for c in cells if c["feature"] in truth["noise_features"]]
    if not corr or not noise or len(corr) + len(noise) != len(cells):
        return "association.json cells do not split into planted and noise features"
    off = [(c["feature"], c["window"]) for c in corr if c["sm1"] != 0]
    if off:
        return f"planted feature cells with non-zero sm1: {off}"
    lowest = min(c["deviation"] for c in corr)
    highest = max(c["deviation"] for c in noise)
    if lowest <= highest:
        return f"lowest planted deviation {lowest} does not exceed highest noise deviation {highest}"
    return None


def _labels_match_planted(out: Path, truth: dict) -> str | None:
    planted = truth["planted_labels"]
    with open(out / "labels.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["region", "label"]:
        return f"labels.csv header is {rows[0]}"
    labels = {region: label for region, label in rows[1:]}
    if len(labels) != len(rows) - 1 or labels.keys() != planted.keys():
        return "labels.csv regions differ from the planted regions"
    pairs = {(labels[r], planted[r]) for r in planted}
    found, truth_labels = {a for a, _ in pairs}, {b for _, b in pairs}
    if not len(pairs) == len(found) == len(truth_labels):
        return f"labels are not a bijection onto the planted labels: {sorted(pairs)}"
    return None


@dataclass(frozen=True)
class Workload:
    """One CLI study on one fixture size."""

    name: str
    regions: int
    days: int
    k: int
    argv: tuple[str, ...]  # subcommand and flags; inputs and --out are appended
    check: Callable[[Path, dict], str | None]  # failure reason, or None

    def fixture_kwargs(self, seed: int) -> dict:
        return {"n_regions": self.regions, "n_days": self.days, "k_true": self.k, "seed": seed}

    def cli_argv(self, fixture: Path, out: Path) -> list[str]:
        argv = list(self.argv) + [
            "--k", str(self.k),
            "--input", str(fixture / "epicurves.csv"),
            "--populations", str(fixture / "populations.csv"),
            "--out", str(out),
        ]
        if self.argv[0] == "associate":
            argv += ["--features", str(fixture / "features.csv")]
        return argv


# Why each workload exists is recorded in BENCHMARK.json; the layer each one
# loads is noted here so that a size change keeps it.
WORKLOADS = {
    w.name: w
    for w in (
        # all 5 preps x {spectral, kmeans}, 4 windows: linalg.jacobi_eigh dominates
        Workload("stability_n30", 30, 120, 3, ("stability",), _selected_is_stable),
        # 33 cells x 101 alignments at k=6 (720 permutations): align dominates
        Workload(
            "associate_k6", 60, 90, 6,
            ("associate", "--trials", "100", "--prep", "none", "--algo", "kmeans"),
            _planted_features_lead,
        ),
        # all 5 preps x kmeans, 4 windows of 1000 regions: cluster.kmeans dominates
        Workload(
            "stability_kmeans_n1000", 1000, 120, 3,
            ("stability", "--algo", "kmeans"),
            _selected_is_stable,
        ),
        # one 3142 x 240 CSV parsed cell by cell, then one k-means: ingest dominates
        Workload(
            "county_cluster", 3142, 240, 3,
            ("cluster", "--prep", "none", "--algo", "kmeans"),
            _labels_match_planted,
        ),
    )
}
