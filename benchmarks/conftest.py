"""Shared benchmark utilities.

Every benchmark regenerates one of the paper's tables/figures and
prints the same rows/series the paper plots; the text is also written
to ``benchmarks/results/<name>.txt`` so the output survives pytest's
capture.  Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s``
to watch the tables live).
"""

from __future__ import annotations

import json
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def interpreted_baseline(benchmark: str) -> dict:
    """The recorded billed results of the deleted interpreted scan path
    for one ablation benchmark (``results/interpreted_baseline.json``)."""
    path = RESULTS_DIR / "interpreted_baseline.json"
    return json.loads(path.read_text())[benchmark]


def record_result(name: str, text: str) -> None:
    """Print a figure's reproduction table and persist it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
