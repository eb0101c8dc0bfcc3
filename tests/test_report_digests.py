"""The SHA-256 of every report the benchmark workloads and their variants write.

``report_digests.json`` holds the digests and the numpy version they were
taken with. The test regenerates every report in-process and compares. On
that numpy version a difference fails; on another it skips, naming the
files that differ, since numpy does not promise the same ``Generator``
streams across releases. A change that moves report bytes on purpose
regenerates the file and says which reports changed and why:

    PYTHONPATH=src python3 tests/test_report_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from epiclust.cli import main
from epiclust.synth import generate_fixture, write_fixture

DIGESTS = Path(__file__).with_name("report_digests.json")

# (name, regions, days, k, argv, seeds): the first four mirror the argv of the
# benchmark workloads (perfbench/workloads.py), with --heatmap on the studies;
# the rest are the variants whose bytes the batched paths must also keep.
# At 400 regions the exact 1-D DP searches levels of hundreds of rows.
ASSOCIATE = ("associate", "--trials", "100", "--prep", "none", "--algo", "kmeans", "--heatmap")
RUNS = (
    ("stability_n30", 30, 120, 3, ("stability", "--heatmap"), range(10)),
    ("associate_k6", 60, 90, 6, ASSOCIATE, range(10)),
    ("stability_kmeans_n1000", 1000, 120, 3, ("stability", "--algo", "kmeans", "--heatmap"), range(10)),
    ("county_cluster", 3142, 240, 3, ("cluster", "--prep", "none", "--algo", "kmeans"), range(10)),
    ("stability_mismatch", 30, 120, 3, ("stability", "--metric", "mismatch"), range(10)),
    ("stability_full_series", 30, 120, 3, ("stability", "--prep-scope", "full_series"), range(10)),
    ("associate_mismatch", 60, 90, 6, (*ASSOCIATE, "--metric", "mismatch"), range(10)),
    ("associate_shuffle", 60, 90, 6, (*ASSOCIATE, "--baseline-mode", "shuffle"), range(10)),
    ("associate_spectral", 60, 90, 6, ("associate", "--trials", "100", "--prep", "none", "--algo", "spectral"), range(10)),
    ("associate_n400", 400, 90, 6, ASSOCIATE, range(3)),
)


def report_digests(work: Path) -> dict[str, str]:
    """Run every (run, seed) of ``RUNS`` under ``work``; the SHA-256 of each
    report, keyed run/seed/file."""
    digests = {}
    for name, regions, days, k, argv, seeds in RUNS:
        for seed in seeds:
            fixture = work / "fixtures" / f"{regions}x{days}k{k}s{seed}"
            if not fixture.exists():
                write_fixture(generate_fixture(regions, days, k, seed), fixture)
            out = work / name / f"seed{seed}"
            args = [*argv, "--k", str(k), "--input", str(fixture / "epicurves.csv"),
                    "--populations", str(fixture / "populations.csv"), "--out", str(out)]
            if argv[0] == "associate":
                args += ["--features", str(fixture / "features.csv")]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(args) == 0, f"{name} seed {seed} failed"
            for path in sorted(out.iterdir()):
                digests[f"{name}/seed{seed}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_every_report_keeps_its_bytes(tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    found = report_digests(tmp_path)
    differ = sorted(key for key in pinned["reports"].keys() | found.keys()
                    if pinned["reports"].get(key) != found.get(key))
    if differ and np.__version__ != pinned["numpy"]:
        pytest.skip(f"digests were taken on numpy {pinned['numpy']}, this is {np.__version__}; "
                    f"{len(differ)} of {len(pinned['reports'])} reports differ: {', '.join(differ)}")
    assert not differ, f"{len(differ)} reports changed bytes: {', '.join(differ)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        reports = report_digests(Path(work))
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "reports": reports}, indent=1, sort_keys=True) + "\n")
    print(f"{len(reports)} report digests written to {DIGESTS}", file=sys.stderr)
