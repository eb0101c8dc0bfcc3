"""Set-up step of a benchmark run: import epiclust, generate one fixture, write it.

Usage: python3 perfbench/make_fixture.py WORKLOAD SEED OUT_DIR

``run.py`` starts this script several times per run, so that every
repetition pays the import of epiclust (numpy included) afresh. It prints
one JSON line with the seconds from just before the import to just after
the last fixture file is written; interpreter start-up is not counted.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    name, seed, out = argv
    workload = WORKLOADS[name]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from epiclust.synth import generate_fixture, write_fixture

    fixture = generate_fixture(**workload.fixture_kwargs(int(seed)))
    write_fixture(fixture, out)
    setup_s = time.perf_counter() - start
    if not Path(sys.modules["epiclust"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"epiclust was not imported from {SRC}")
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
