"""Fit how far each timed operation follows the host's speed.

Run from the root of a checkout, after untraced benchmark runs::

    python3 perfbench/elasticity.py [RESULTS_DIR]

Each untraced run record in ``perfbench/results/`` keeps, per timed
operation, the (wall seconds, host seconds) pairs the benchmark measured;
the host seconds are the median probe while the operation ran, or a
helper reference run (see ``common``).  For every operation this prints
the log-log slope of wall time on host time two ways: *across* runs (one
point per run, the medians of its pairs) and *within* runs (every pair,
centred on its run's means), with how far the run medians of the host
time ranged.
``common.HOST_ELASTICITY`` holds the slope the benchmark divides by.
"""

from __future__ import annotations

import glob
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of y on x, or None when x does not vary."""
    if len(points) < 2:
        return None
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    if sxx == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def load(directory: str) -> dict[str, list[list[tuple[float, float]]]]:
    """``{operation: one list of (log reference, log wall) per run}``."""
    runs: dict[str, list] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as handle:
            record = json.load(handle)
        if record["provenance"].get("tiny"):
            continue
        for operation, pairs in record.get("samples", {}).items():
            logs = [(math.log(ref), math.log(wall)) for wall, ref in pairs if wall > 0]
            if logs:
                runs.setdefault(operation, []).append(logs)
    return runs


def main(argv: list[str]) -> int:
    directory = argv[0] if argv else os.path.join(HERE, "results")
    print(f"{'operation':<20} {'runs':>4} {'pairs':>5} {'across':>7} {'within':>7} {'ref range':>9}")
    for operation, per_run in sorted(load(directory).items()):
        medians = [
            (statistics.median(x for x, _ in logs), statistics.median(y for _, y in logs))
            for logs in per_run
        ]
        centred = []
        for logs in per_run:
            mx = statistics.fmean(x for x, _ in logs)
            my = statistics.fmean(y for _, y in logs)
            centred += [(x - mx, y - my) for x, y in logs]
        ref_range = math.exp(max(x for x, _ in medians) - min(x for x, _ in medians))

        def shown(value: float | None) -> str:
            return "-" if value is None else f"{value:.2f}"

        print(f"{operation:<20} {len(per_run):>4} {len(centred):>5} "
              f"{shown(slope(medians)):>7} {shown(slope(centred)):>7} {ref_range:>8.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
